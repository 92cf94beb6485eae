"""Weighted pairwise-logistic reward estimation.

The loss is the negative log likelihood of a Bradley-Terry model under
arbitrary nonnegative pair weights,

    L(r) = -sum_{i<j} [ w_ij * log sigma(r_i - r_j) + w_ji * log sigma(r_j - r_i) ],

convex in r and invariant under adding a constant to every reward.  When every
pair carries the same total weight, the minimizer orders candidates exactly by
the normalized row sums of the weight matrix, so converged solves can be
cross-checked against exact rational scores.

Everything here is exact except the float solve: its numpy code lives in the
private `_newton` module, which the float functions (`solve_mle`, `loss`,
`gradient`, `softmax` of solved rewards, and `WeightMatrix.array` in
`profiles`, where a tally is the weight matrix of its win counts) import on
first call, so that exact-only work never pays numpy's import.  `fit_mle` is
the one place that picks the closed-form MLE or the solve.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .distributions import ResponseDistribution
from .errors import (
    DisconnectedGraphError,
    NoUniqueTopError,
    NotConstantTotalError,
    NotConvergedError,
    ZeroProbabilityError,
)
from .profiles import PairwiseTally, Ranking, TiePolicy, WeightMatrix, majority_relation
from .profiles import reachable, require_count, require_finite_nonnegative
from .rules import ranking_from_scores

# solver stop: largest absolute gradient entry at convergence
GRAD_TOL = 1e-10


def require_constant(total: "Fraction | int | None") -> "Fraction | int":
    """A common per-pair total, or NotConstantTotalError in place of None."""
    if total is None:
        raise NotConstantTotalError("scores need a constant per-pair total")
    return total


def require_positive(pstar: ResponseDistribution) -> ResponseDistribution:
    """pstar itself, or ZeroProbabilityError when some probability is not positive."""
    if any(x <= 0 for x in pstar):
        raise ZeroProbabilityError("GPM weights need strictly positive probabilities")
    return pstar


class StatusKind(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITERS = "max-iters"


@dataclass(frozen=True)
class SolverStatus:
    kind: StatusKind
    grad_norm: float
    iterations: int
    drift_up: tuple[int, ...] = ()
    drift_down: tuple[int, ...] = ()


@dataclass(frozen=True)
class RewardVector:
    """Per-candidate rewards in the sum-zero gauge, plus solver status.

    `odds` holds the exact ratios exp(r_i - r_j), up to one common factor,
    when the rewards came in closed form and no solve ran; else None.
    """

    r: tuple[float, ...]
    status: SolverStatus
    odds: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        r = tuple(float(x) for x in self.r)
        object.__setattr__(self, "r", r)
        # the rounding left in a centred sum grows with the count and size of
        # the rewards; a reward that is not finite leaves no finite bound
        bound = 1e-12 * len(r) * max((1.0, *map(abs, r)))
        if self.status.kind is StatusKind.CONVERGED and not abs(sum(r)) <= bound < math.inf:
            raise ValueError("converged rewards must sum to zero within 1e-12")

    @classmethod
    def exact(cls, odds: Sequence[Fraction]) -> "RewardVector":
        """The MLE rewards of weights in detailed balance with these positive exact ratios.

        Each is the log of its ratio, from its integer parts, shifted to sum
        to zero.  No solve runs, so the status is CONVERGED after 0
        iterations with grad_norm 0.0, and `odds` keeps the ratios.
        """
        r = [_log(x) for x in odds]
        n = len(r)
        mean = sum(r) / n
        centered = [x - mean for x in r]
        shift = sum(centered) / n  # second pass kills the last rounding drift
        r = tuple(x - shift for x in centered)
        return cls(r, SolverStatus(StatusKind.CONVERGED, 0.0, 0), tuple(odds))

    @property
    def converged(self) -> bool:
        return self.status.kind is StatusKind.CONVERGED


def _values(r: "Sequence[float] | RewardVector") -> Sequence[float]:
    return r.r if isinstance(r, RewardVector) else r


def loss(weights: WeightMatrix, r: "Sequence[float] | RewardVector") -> float:
    """Negative log likelihood under the weighted pairwise-logistic model."""
    from . import _newton

    return _newton.loss(weights.array, _values(r))


def gradient(weights: WeightMatrix, r: "Sequence[float] | RewardVector") -> tuple[float, ...]:
    """dL/dr_k = -sum_{j != k} [ w_kj - (w_kj + w_jk) * sigma(r_k - r_j) ]."""
    from . import _newton

    return _newton.gradient(weights.array, _values(r))


def _check_connected(weights: WeightMatrix) -> None:
    seen = reachable([s | p for s, p in zip(*weights._graph)], 0)
    missing = [i for i in range(weights.n) if not seen >> i & 1]
    if missing:
        raise DisconnectedGraphError(
            f"comparison graph splits; candidates {missing} unreachable from 0"
        )


def minimizer_exists(weights: WeightMatrix) -> bool:
    """Whether the loss attains a finite minimum (Ford's condition).

    A finite minimizer exists iff the digraph with an edge i -> j whenever
    w_ij > 0 is strongly connected: its first source component holds every
    candidate.  Otherwise some dominant candidate set never loses weight
    across the cut and its rewards drift to infinity.
    """
    sources, _ = _ends(weights)
    return len(sources[0]) == weights.n


def _ends(weights: WeightMatrix) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The source and the sink strongly connected components of the weight digraph.

    One forward and one backward pass per component: a component is a
    source when nothing outside it reaches it, and a sink when it reaches
    nothing outside.  Each lists its members ascending; the sources come
    descending by smallest member, the sinks ascending.  The digraph is
    strongly connected exactly when the first source holds every candidate.
    """
    succ, pred = weights._graph
    sources, sinks = [], []
    left = (1 << weights.n) - 1
    while left:
        v = (left & -left).bit_length() - 1
        ahead, behind = reachable(succ, v), reachable(pred, v)
        component = ahead & behind
        left &= ~component
        members = tuple(i for i in range(v, weights.n) if component >> i & 1)
        if behind == component:
            sources.insert(0, members)
        if ahead == component:
            sinks.append(members)
    return tuple(sources), tuple(sinks)


def top_component(weights: WeightMatrix) -> tuple[int, ...]:
    """The candidates whose rewards outgrow all others when no finite MLE exists.

    This is the one source component of the weight digraph: its members
    never lose weight to an outsider and reach everyone else, so along the
    ridge path their rewards pull away from all others'.  On a strongly
    connected instance it is every candidate.  Raises DisconnectedGraphError
    when the comparison graph splits and NoUniqueTopError when several
    components are sources.
    """
    sources, _ = _ends(weights)
    if len(sources[0]) < weights.n:
        _check_connected(weights)
        if len(sources) != 1:
            raise NoUniqueTopError(
                f"no finite MLE and {len(sources)} undominated candidate sets {list(sources)}"
            )
    return sources[0]


def solve_mle(
    weights: WeightMatrix,
    *,
    max_iters: int = 10_000,
    ridge: float = 0.0,
) -> RewardVector:
    """Minimize the loss over the sum-zero gauge.

    Newton steps solve the reduced system through a rank-one shift along the
    all-ones null direction, with Armijo backtracking.  When the Newton
    direction fails (a singular system, or a slope that does not descend),
    the curvature is rebuilt as t * sigma(d) * sigma(-d), which stays positive
    on pairs where 1 - sigma(d) rounds to 0, and solved once more; a
    steepest-descent step stands in when that fails too.
    The loop stops once the largest gradient entry is at most GRAD_TOL.

    The status follows Ford's condition, read from the weight graph: CONVERGED
    when the positive-weight digraph is strongly connected, DIVERGED when it
    is not.  A diverged solve attaches the members of the digraph's source
    components as `drift_up` (they never lose weight to an outsider) and of
    its sink components as `drift_down` (they never win weight from one);
    its rewards are the iterate at the stop, where the drifting gaps are
    already wide enough to make the gradient vanish.  MAX_ITERS means a
    strongly connected solve stalled, or used its `max_iters` steps and
    stopped with the gradient at the final iterate above GRAD_TOL.

    `ridge` > 0 adds an explicit Tikhonov term ridge * sum(r_k^2), which makes
    the objective strictly convex, so every connected instance then has a
    finite optimum and never reports DIVERGED.  A NaN, infinite or negative
    `ridge`, or a float or negative `max_iters`, raises ValueError at once.
    """
    from . import _newton

    require_finite_nonnegative(ridge, "ridge")
    max_iters = require_count(max_iters, "max_iters")
    sources, sinks = _ends(weights)
    strongly_connected = len(sources[0]) == weights.n
    if not strongly_connected:
        _check_connected(weights)
    diverged = ridge == 0.0 and not strongly_connected
    r, gnorm, at_tol, steps = _newton.newton(
        weights.array, ridge, max_iters, GRAD_TOL, recenter=not diverged
    )
    if diverged:
        status = SolverStatus(
            StatusKind.DIVERGED,
            gnorm,
            steps,
            tuple(sorted(i for c in sources for i in c)),
            tuple(sorted(i for c in sinks for i in c)),
        )
    elif at_tol:
        status = SolverStatus(StatusKind.CONVERGED, gnorm, steps)
    else:
        status = SolverStatus(StatusKind.MAX_ITERS, gnorm, steps)
    return RewardVector(r, status)


def scores(weights: WeightMatrix) -> tuple[Fraction, ...]:
    """Exact normalized row sums m_k = sum_j w_kj / pair_total.

    In constant-total mode the loss minimizer orders candidates exactly by
    these scores, so they stand in for the solver wherever only the ordering
    matters.
    """
    total = require_constant(weights.pair_total)
    return tuple(Fraction(sum(row)) / total for row in weights.w)


def rank_by_scores(weights: WeightMatrix) -> Ranking:
    """The MLE ordering via the exact score shortcut (constant-total mode only)."""
    return ranking_from_scores(scores(weights))


def softmax(r: "RewardVector | Sequence[float]") -> ResponseDistribution:
    """Softmax of rewards; RewardVector inputs must be converged.

    A closed-form fit's softmax is its odds normalised: exact, with no numpy.
    """
    if isinstance(r, RewardVector):
        if not r.converged:
            raise NotConvergedError("softmax needs a converged reward vector")
        if r.odds is not None:
            total = sum(r.odds)
            return ResponseDistribution(tuple(q / total for q in r.odds))
    from . import _newton

    return ResponseDistribution(_newton.softmax(_values(r)))


def weights_standard(t: PairwiseTally) -> PairwiseTally:
    """Raw win counts as weights: the tally itself; constant-total mode when pair totals agree."""
    return t


def weights_copeland(
    t: PairwiseTally, tie_policy: TiePolicy = TiePolicy.HALF_POINT
) -> WeightMatrix:
    """Majority indicators as weights: 1 to the majority side, half each on ties.

    Wins and losses weigh the ints 1 and 0, and only a half-split's 1/2 is a
    Fraction.  Under STRICT_ONLY, tied pairs get weight 0 both ways, which
    leaves constant-total mode only when no pair is tied.
    """
    tie = Fraction(1, 2) if tie_policy is TiePolicy.HALF_POINT else 0
    weight = {1: 1, 0: tie, -1: 0}
    rows = [[weight[sign] for sign in row] for row in majority_relation(t)]
    for i, row in enumerate(rows):
        row[i] = 0
    return WeightMatrix(rows)


def weights_gpm(pstar: ResponseDistribution) -> WeightMatrix:
    """w_ij = p_i / (p_i + p_j): the loss whose stationary point is r = log p*.

    Over the distribution's common denominator D, p_i = N_i / D with integer
    N_i, so w_ij = N_i / (N_i + N_j): one exact division per entry.
    """
    p = [Fraction(x) for x in require_positive(pstar)]
    common = math.lcm(*(x.denominator for x in p))
    numerators = [x.numerator * (common // x.denominator) for x in p]
    rows = [
        [0 if i == j else Fraction(ni, ni + nj) for j, nj in enumerate(numerators)]
        for i, ni in enumerate(numerators)
    ]
    return WeightMatrix(rows)


def bt_odds(weights: WeightMatrix) -> tuple[Fraction, ...] | None:
    """Each candidate's exact odds against candidate 0 in detailed balance, or None.

    The weights are in detailed balance when every pair has positive weight
    both ways and the odds q = (1, w_10 / w_01, ...) have w_ab * q_b ==
    w_ba * q_a on every pair, which is w_ab * w_0a * w_b0 == w_ba * w_a0 * w_0b.
    On a tally that is the test that the candidates embed in a Bradley-Terry
    model, and candidate a's odds are w_a0 / w_0a = exp(r_a - r_0) for the
    embedding's rewards r; on any weights the MLE rewards are then log q up
    to a common shift.  Each pair's test cross-multiplies integers, the odds
    over their common denominator against the entries' numerators and
    denominators, so it takes no gcd (mle-gpm's weights at n = 200 run to
    about 600 digits).
    """
    w, n = weights.w, weights.n
    if not all(w[a][0] and w[0][a] for a in range(1, n)):
        return None
    odds = (Fraction(1),) + tuple(Fraction(w[a][0], w[0][a]) for a in range(1, n))
    common = math.lcm(*(q.denominator for q in odds))
    scaled = [q.numerator * (common // q.denominator) for q in odds]
    for a, b in itertools.combinations(range(1, n), 2):
        ab, ba = w[a][b], w[b][a]
        if not (ab and ba) or (
            ab.numerator * ba.denominator * scaled[b] != ba.numerator * ab.denominator * scaled[a]
        ):
            return None
    return odds


def _log(x: Fraction) -> float:
    """log of a positive Fraction, from its integer parts (no float overflow)."""
    return math.log(x.numerator) - math.log(x.denominator)


def embedding_residual(t: PairwiseTally) -> float | None:
    """Worst additive inconsistency of the log-odds, anchored at candidate 0.

    A float diagnostic of how far the proportions sit from a Bradley-Terry
    model: 3 log 2 on the Condorcet paradox.  `bt_odds` decides embeddability.
    None when some proportion is 0 or 1 (no finite embedding exists at all).
    """
    t.require_all_pairs()
    w, n = t.wins, t.n
    if not all(w[i][j] for i in range(n) for j in range(n) if i != j):
        return None
    # row i beside column i pairs each w_ij with w_ji; the diagonal stays 0.0
    s = [[_log(Fraction(x, y)) if x else 0.0 for x, y in zip(row, col)] for row, col in zip(w, zip(*w))]
    return max(abs(s[i][j] - (s[i][0] - s[j][0])) for i in range(n) for j in range(n) if i != j)


def bt_embeddable(t: PairwiseTally) -> RewardVector | None:
    """Recover rewards with sigma(r_i - r_j) = P_ij, or None if impossible.

    Decided exactly by `bt_odds`; the rewards are `RewardVector.exact` of the
    odds against candidate 0, so no solve runs and their softmax is exact.
    """
    t.require_all_pairs()
    odds = bt_odds(t)
    return None if odds is None else RewardVector.exact(odds)


def fit_mle(weights: WeightMatrix) -> RewardVector:
    """The MLE rewards of a weight matrix: in closed form when its odds factor, else solved.

    When `bt_odds` finds the weights in detailed balance, the odds q against
    candidate 0 have w_ij * q_j == w_ji * q_i on every pair, so the gradient
    at r = log q is exactly 0, and with every pair weighed both ways that
    minimiser is the only one (Ford 1957): the fit is `RewardVector.exact(q)`
    and no solve runs.  Any other weights go to `solve_mle`.
    """
    odds = bt_odds(weights)
    return solve_mle(weights) if odds is None else RewardVector.exact(odds)
