"""Group preference matching distributions.

A single strict ranking admits an exact geometric matching distribution under
an epsilon-smoothed Bradley-Terry model: adjacent candidates are preferred
with probability 1 - epsilon, so position k carries probability proportional
to c^(k-1) with c = epsilon / (1 - epsilon).  The group distribution averages
the per-voter distributions; in the epsilon -> 0 limit it collapses to the
first-place shares.  Partition-based computation exists to exercise the
uniqueness claim: any split of the electorate into embeddable blocks must
reproduce the same distribution.

At finite epsilon both are computed in closed form over the integers.  With
c = a/b in lowest terms, position k (0-based) of an n-candidate ranking
carries the integer weight g_k = a^k * b^(n-1-k), and one ranking's
distribution is g_k / S with S = sum_k g_k.  The group distribution gives
candidate i its summed weight G_i = sum over voters of g at i's position,
over m * S: one exact division per candidate, not one Fraction add per
voter and candidate.
"""
from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .distributions import ResponseDistribution
from .errors import BlockNotEmbeddableError
from .profiles import PairwiseTally, PreferenceProfile, tally
from .reward import bt_odds, weights_standard
from .rules import first_place_shares


@dataclass(frozen=True)
class EpsilonPolicy:
    """Finite smoothing level, or the exact epsilon -> 0 limit when None."""

    epsilon: Fraction | None

    def __post_init__(self):
        if self.epsilon is not None:
            eps = Fraction(self.epsilon)
            if not 0 < eps < Fraction(1, 2):
                raise ValueError("epsilon must lie in (0, 1/2)")
            object.__setattr__(self, "epsilon", eps)

    @classmethod
    def finite(cls, epsilon: "Fraction | float" = Fraction(1, 1000)) -> "EpsilonPolicy":
        return cls(Fraction(epsilon))

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


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty blocks of voter indices, held in canonical order."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        if any(len(b) == 0 for b in blocks):
            raise ValueError("blocks must be non-empty")
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        object.__setattr__(self, "blocks", blocks)
        flat = list(itertools.chain.from_iterable(blocks))
        if len(set(flat)) != len(flat):
            raise ValueError("blocks must be disjoint")

    @classmethod
    def singletons(cls, m: int) -> "Partition":
        return cls(tuple((k,) for k in range(m)))

    def covers(self, m: int) -> bool:
        return sorted(itertools.chain.from_iterable(self.blocks)) == list(range(m))


def _block_profile(profile: PreferenceProfile, block: Sequence[int]) -> PreferenceProfile:
    voters = tuple(profile.voters[k] for k in block)
    return PreferenceProfile(profile.candidates, voters)


def limit_embeddable(t: PairwiseTally) -> bool:
    """Whether the tally is a limit of Bradley-Terry models.

    Exact test: candidates split into totally ordered tiers with unanimous
    proportions (0 or 1) across tiers, and strictly interior, multiplicatively
    consistent odds inside each tier.  With every pair compared, the tiers can
    only be the strongly connected components of the win digraph (i -> j iff
    wins[i][j] > 0):

    - a pair split across two components is judged one way only: unanimous;
    - the acyclic condensation of a digraph joining every pair is a
      transitive tournament, so the components are totally ordered;
    - a true tier is an interior clique, hence strongly connected, so it lies
      inside one component.

    So only each component's inside is checked, by `bt_odds`.  Single rankings
    pass (each candidate its own component); majority cycles on interior
    proportions fail.
    """
    t.require_all_pairs()
    return all(bt_odds(t, c) is not None for c in weights_standard(t).condensation.components)


def block_embeddable(
    profile: PreferenceProfile, block: Sequence[int], policy: EpsilonPolicy
) -> bool:
    """Whether a voter block can stand alone in a partition under the policy."""
    try:
        block_pm_distribution(profile, block, policy)
    except BlockNotEmbeddableError:
        return False
    return True


def block_pm_distribution(
    profile: PreferenceProfile, block: Sequence[int], policy: EpsilonPolicy
) -> ResponseDistribution:
    """Matching distribution of one block, exact.

    The block's own group matching distribution when all its members agree,
    or under the limit policy when its pooled tally is a BT limit (then the
    first-place shares).  A mixed block at finite epsilon gets the pooled
    tally's Bradley-Terry odds, normalized to sum 1: the softmax of its
    recovered rewards, with no float in between.  Other blocks raise
    BlockNotEmbeddableError.  Any profile with a comparison voter raises
    NotCompleteProfileError, whatever the block: the orders read are the
    whole profile's, not the block's.
    """
    orders = profile.orders
    sub = _block_profile(profile, block)
    first = orders[block[0]]
    if all(orders[k] == first for k in block) or (
        policy.is_limit and limit_embeddable(tally(sub))
    ):
        return gpmd(sub, policy)
    if policy.is_limit:
        raise BlockNotEmbeddableError(tuple(block), "pooled tally is not a BT limit")
    odds = bt_odds(tally(sub))
    if odds is None:
        raise BlockNotEmbeddableError(tuple(block), "pooled proportions are not BT-consistent")
    total = sum(odds)
    return ResponseDistribution(tuple(x / total for x in odds))


def gpmd_via_partition(
    profile: PreferenceProfile, partition: Partition, policy: EpsilonPolicy
) -> ResponseDistribution:
    """Block-size-weighted average of block matching distributions, exact."""
    profile.orders  # raises first when some voter gives comparisons
    if not partition.covers(profile.m):
        raise ValueError("partition must cover every voter exactly once")
    acc = [Fraction(0)] * profile.n
    for block in partition.blocks:
        share = Fraction(len(block), profile.m)
        for i, x in enumerate(block_pm_distribution(profile, block, policy)):
            acc[i] += share * x
    return ResponseDistribution(tuple(acc))


def partition_discrepancy(
    profile: PreferenceProfile, partition: Partition, policy: EpsilonPolicy
) -> float:
    """Worst gap between a block's pooled distribution and its member average.

    The uniqueness argument treats these as equal; at finite epsilon that is
    an approximation for genuinely mixed blocks, so the gap is surfaced as a
    diagnostic instead of being assumed away.  Both sides are exact, so the
    gap is rounded to float once.
    """
    worst = 0.0
    for block in partition.blocks:
        averaged = gpmd(_block_profile(profile, block), policy)
        worst = max(worst, block_pm_distribution(profile, block, policy).linf_distance(averaged))
    return worst


def enumerate_embeddable_partitions(
    profile: PreferenceProfile, policy: EpsilonPolicy, budget: int = 64
) -> list[Partition]:
    """Valid partitions found by greedy pairwise block merges, up to `budget`.

    Always contains the all-singleton partition; every further entry arises by
    merging two blocks of an already-found partition when the pooled block
    stays embeddable under the policy.  Raises NotCompleteProfileError, even
    where no merge is tried, when some voter gives comparisons.
    """
    profile.orders  # raises first, as every block would
    if budget < 1:
        raise ValueError("budget must be positive")
    start = Partition.singletons(profile.m)
    found = [start]
    seen = {start.blocks}
    queue = deque([start])
    while queue and len(found) < budget:
        current = queue.popleft()
        blocks = current.blocks
        for a, b in itertools.combinations(range(len(blocks)), 2):
            merged_block = tuple(sorted(blocks[a] + blocks[b]))
            rest = tuple(blk for k, blk in enumerate(blocks) if k not in (a, b))
            candidate = Partition(rest + (merged_block,))
            if candidate.blocks in seen:
                continue
            seen.add(candidate.blocks)  # rejections are cached too
            if block_embeddable(profile, merged_block, policy):
                found.append(candidate)
                queue.append(candidate)
            if len(found) >= budget:
                break
    return found
