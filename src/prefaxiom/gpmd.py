"""Group preference matching distributions.

A single strict ranking admits an exact geometric matching distribution under
an epsilon-smoothed Bradley-Terry model: adjacent candidates are preferred
with probability 1 - epsilon, so position k carries probability proportional
to c^(k-1) with c = epsilon / (1 - epsilon).  The group distribution averages
the per-voter distributions; in the epsilon -> 0 limit it collapses to the
first-place shares.

At finite epsilon both are computed in closed form over the integers.  With
c = a/b in lowest terms, position k (0-based) of an n-candidate ranking
carries the integer weight g_k = a^k * b^(n-1-k), and one ranking's
distribution is g_k / S with S = sum_k g_k.  The group distribution gives
candidate i its summed weight G_i = sum over voters of g at i's position,
over m * S: one exact division per candidate, not one Fraction add per
voter and candidate.

Being a voter average, the group distribution is linear in the voters: for
any split of the m voters into blocks B, it is exactly the sum over blocks
of |B|/m times the block's own group distribution.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .distributions import ResponseDistribution
from .profiles import PreferenceProfile, finite_fraction
from .rules import first_place_shares


@dataclass(frozen=True)
class EpsilonPolicy:
    """Finite smoothing level, or the exact epsilon -> 0 limit when None."""

    epsilon: Fraction | None

    def __post_init__(self):
        if self.epsilon is not None:
            eps = finite_fraction(self.epsilon)
            if not 0 < eps < Fraction(1, 2):
                raise ValueError("epsilon must lie in (0, 1/2)")
            object.__setattr__(self, "epsilon", eps)

    @classmethod
    def finite(cls, epsilon: "Fraction | float" = Fraction(1, 1000)) -> "EpsilonPolicy":
        return cls(finite_fraction(epsilon))

    @classmethod
    def limit(cls) -> "EpsilonPolicy":
        return cls(None)

    @property
    def is_limit(self) -> bool:
        return self.epsilon is None


@functools.lru_cache(maxsize=128)
def _geometric_weights(epsilon: Fraction, n: int) -> tuple[tuple[int, ...], int]:
    """Integer position weights g_k = a^k * b^(n-1-k), with c = a/b, and their sum.

    `epsilon` is an EpsilonPolicy's, so already checked to lie in (0, 1/2).
    Memoized per (epsilon, n): a search calls gpmd on every profile at one
    smoothing level and candidate count.
    """
    c = epsilon / (1 - epsilon)
    a, b = c.numerator, c.denominator
    weights = tuple(a**k * b ** (n - 1 - k) for k in range(n))
    return weights, sum(weights)


def gpmd(profile: PreferenceProfile, policy: EpsilonPolicy) -> ResponseDistribution:
    """Per-voter average of individual matching distributions, exact throughout.

    At finite epsilon: candidate i's summed integer position weights over
    m * S (see the module docstring).  Computed once per profile and policy:
    later calls return the same distribution.  Raises NotCompleteProfileError,
    from `profile.orders`, when some voter gives comparisons.
    """
    known = profile.group_matching
    dist = known.get(policy)
    if dist is None:
        dist = known[policy] = _group_matching(profile, policy)
    return dist


def _group_matching(profile: PreferenceProfile, policy: EpsilonPolicy) -> ResponseDistribution:
    if policy.is_limit:
        return first_place_shares(profile)
    weights, total = _geometric_weights(policy.epsilon, profile.n)
    acc = [0] * profile.n
    for order in profile.orders:
        for k, candidate in enumerate(order):
            acc[candidate] += weights[k]
    denominator = profile.m * total
    return ResponseDistribution(tuple(Fraction(x, denominator) for x in acc))
