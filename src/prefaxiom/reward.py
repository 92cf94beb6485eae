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
`gradient`, `softmax`, `WeightMatrix.array`) import on first call, so that
exact-only work never pays numpy's import.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .distributions import ResponseDistribution
from .errors import (
    DisconnectedGraphError,
    NoUniqueTopError,
    NotConstantTotalError,
    NotConvergedError,
    ZeroProbabilityError,
)
from .profiles import Outcome, PairwiseTally, Ranking, TiePolicy, majority_relation
from .rules import ranking_from_scores

if TYPE_CHECKING:
    from numpy import ndarray

# solver stop: largest absolute gradient entry at convergence
GRAD_TOL = 1e-10


class Condensation(NamedTuple):
    """Strongly connected components of the digraph with an edge i -> j iff w_ij > 0.

    `components` lists them in topological order (every edge between two
    components runs from the earlier to the later one), each as ascending
    candidate indices.  `sources` are the components no edge enters: their
    members never lose weight to anyone outside.  `sinks` are the components
    no edge leaves: their members never win weight from anyone outside.
    `unreachable` lists, ascending, the candidates that the undirected
    comparison graph (i -- j iff w_ij + w_ji > 0) cannot reach from 0.
    """

    components: tuple[tuple[int, ...], ...]
    sources: tuple[tuple[int, ...], ...]
    sinks: tuple[tuple[int, ...], ...]
    unreachable: tuple[int, ...]


def _condensation(rows: tuple[tuple[Fraction, ...], ...]) -> Condensation:
    """A walk of the comparison graph from 0, then Tarjan's algorithm.

    Both are iterative so large n cannot exhaust the call stack.
    """
    n = len(rows)
    # weights are nonnegative, so every nonzero entry is an edge; a
    # Fraction's truth test reads its numerator, far cheaper than `> 0`
    succ = [[j for j, x in enumerate(row) if x] for row in rows]
    # the comparison graph ignores direction: walk the edges both ways
    neighbours = [list(targets) for targets in succ]
    for i in range(n):
        for j in succ[i]:
            neighbours[j].append(i)
    seen = [False] * n
    seen[0] = True
    frontier = [0]
    while frontier:
        for j in neighbours[frontier.pop()]:
            if not seen[j]:
                seen[j] = True
                frontier.append(j)
    order = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    found: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, targets = work[-1]
            for u in targets:
                if order[u] < 0:
                    order[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    on_stack[u] = True
                    work.append((u, iter(succ[u])))
                    break
                if on_stack[u]:
                    low[v] = min(low[v], order[u])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == order[v]:
                    members = []
                    while True:
                        u = stack.pop()
                        on_stack[u] = False
                        members.append(u)
                        if u == v:
                            break
                    found.append(tuple(sorted(members)))
    # Tarjan completes a component only after every component it reaches
    components = tuple(reversed(found))
    where = [0] * n
    for k, members in enumerate(components):
        for i in members:
            where[i] = k
    entered = [False] * len(components)
    left = [False] * len(components)
    for i in range(n):
        for j in succ[i]:
            if where[i] != where[j]:
                left[where[i]] = True
                entered[where[j]] = True
    return Condensation(
        components,
        tuple(c for k, c in enumerate(components) if not entered[k]),
        tuple(c for k, c in enumerate(components) if not left[k]),
        tuple(i for i in range(n) if not seen[i]),
    )


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


@dataclass(frozen=True)
class WeightMatrix:
    """Nonnegative per-ordered-pair weights, exact.

    `WeightMatrix(rows)` converts each entry that is not already a Fraction
    to one.  Everything else is derived from the rows on first use and
    cached: `pair_total` (the common positive value of w[i][j] + w[j][i] when
    every pair has the same one, else None, which leaves the score shortcut
    unavailable but the solver still applies), the read-only float form
    `array`, and the `condensation` of the weight graph.
    """

    w: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in self.w
        )
        object.__setattr__(self, "w", rows)
        n = len(rows)
        if n < 2 or any(len(row) != n for row in rows):
            raise ValueError("weights must form a square matrix over >= 2 candidates")
        if any(rows[i][i] != 0 for i in range(n)):
            raise ValueError("diagonal weights must be zero")
        if any(x.numerator < 0 for row in rows for x in row):
            raise ValueError("weights must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.w)

    @cached_property
    def pair_total(self) -> Fraction | None:
        w = self.w
        n = len(w)
        # each pair's w_ij + w_ji as an unreduced integer ratio p/q, compared
        # with the first pair's by cross-multiplying: no Fraction is built
        pairs = [(w[i][j], w[j][i]) for i in range(n) for j in range(i + 1, n)]
        totals = [
            (x.numerator * y.denominator + y.numerator * x.denominator, x.denominator * y.denominator)
            for x, y in pairs
        ]
        p0, q0 = totals[0]
        if p0 == 0 or any(p * q0 != p0 * q for p, q in totals):
            return None
        return Fraction(p0, q0)

    @property
    def is_constant_total(self) -> bool:
        return self.pair_total is not None

    def require_constant_total(self) -> Fraction:
        """The common pair total; NotConstantTotalError when pairs differ."""
        return require_constant(self.pair_total)

    @cached_property
    def array(self) -> ndarray:
        """The weights as a float matrix, built once and read-only."""
        from . import _newton

        return _newton.weight_array(self.w)

    @cached_property
    def condensation(self) -> Condensation:
        """Strongly connected components of the positive-weight digraph, computed once."""
        return _condensation(self.w)


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
    """Per-candidate rewards in the sum-zero gauge, plus solver status."""

    r: tuple[float, ...]
    status: SolverStatus

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(float(x) for x in self.r))
        if self.status.kind is StatusKind.CONVERGED and abs(sum(self.r)) > 1e-12:
            raise ValueError("converged rewards must sum to zero within 1e-12")

    @property
    def n(self) -> int:
        return len(self.r)

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
    missing = weights.condensation.unreachable
    if missing:
        raise DisconnectedGraphError(
            f"comparison graph splits; candidates {list(missing)} unreachable from 0"
        )


def minimizer_exists(weights: WeightMatrix) -> bool:
    """Whether the loss attains a finite minimum (Ford's condition).

    A finite minimizer exists iff the digraph with an edge i -> j whenever
    w_ij > 0 is strongly connected; otherwise some dominant candidate set
    never loses weight across the cut and its rewards drift to infinity.
    """
    return len(weights.condensation.components) == 1


def top_component(weights: WeightMatrix) -> tuple[int, ...]:
    """The candidates whose rewards outgrow all others when no finite MLE exists.

    This is the one source component of the condensation: its members never
    lose weight to an outsider, and every other component is reachable from
    it, so along the ridge path its rewards pull away from everyone else's.
    On a strongly connected instance it is every candidate.  Raises
    DisconnectedGraphError when the comparison graph splits and
    NoUniqueTopError when several components are sources.
    """
    _check_connected(weights)
    sources = weights.condensation.sources
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
    all-ones null direction, with Armijo backtracking; a steepest-descent step
    stands in when the Newton system is singular or its solution non-finite.
    The loop stops once the largest gradient entry is at most GRAD_TOL.

    The status follows Ford's condition, read from the weight graph: CONVERGED
    when the positive-weight digraph is strongly connected, DIVERGED when it
    is not.  A diverged solve attaches the members of the condensation's
    source components as `drift_up` (they never lose weight to an outsider)
    and of its sink components as `drift_down` (they never win weight from
    one); its rewards are the iterate at the stop, where the drifting gaps
    are already wide enough to make the gradient vanish.  MAX_ITERS means a
    strongly connected solve stalled or ran out of its `max_iters` steps.

    `ridge` > 0 adds an explicit Tikhonov term ridge * sum(r_k^2), which makes
    the objective strictly convex, so every connected instance then has a
    finite optimum and never reports DIVERGED.
    """
    from . import _newton

    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    _check_connected(weights)
    diverged = ridge == 0.0 and not minimizer_exists(weights)
    r, gnorm, at_tol, steps = _newton.newton(
        weights.array, ridge, max_iters, GRAD_TOL, recenter=not diverged
    )
    if diverged:
        cond = weights.condensation
        status = SolverStatus(
            StatusKind.DIVERGED,
            gnorm,
            steps,
            tuple(sorted(i for c in cond.sources for i in c)),
            tuple(sorted(i for c in cond.sinks for i in c)),
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
    total = weights.require_constant_total()
    values = []
    for row in weights.w:
        # integer numerators over this row's own lcm: one exact division per
        # row, and no common denominator across rows (at mle-gpm's n = 40 a
        # matrix-wide lcm runs to thousands of digits)
        common = math.lcm(*(x.denominator for x in row))
        numerator = sum(x.numerator * (common // x.denominator) for x in row)
        values.append(Fraction(numerator * total.denominator, common * total.numerator))
    return tuple(values)


def rank_by_scores(weights: WeightMatrix) -> Ranking:
    """The MLE ordering via the exact score shortcut (constant-total mode only)."""
    return ranking_from_scores(scores(weights))


def softmax(r: "RewardVector | Sequence[float]") -> ResponseDistribution:
    """Softmax of rewards; RewardVector inputs must be converged."""
    from . import _newton

    if isinstance(r, RewardVector) and not r.converged:
        raise NotConvergedError("softmax needs a converged reward vector")
    return ResponseDistribution(_newton.softmax(_values(r)))


def weights_standard(t: PairwiseTally) -> WeightMatrix:
    """Raw win counts as weights; constant-total mode when per-pair totals agree."""
    return WeightMatrix(t.wins)


def weights_copeland(
    t: PairwiseTally, tie_policy: TiePolicy = TiePolicy.HALF_POINT
) -> WeightMatrix:
    """Majority indicators as weights: 1 to the majority side, half each on ties.

    Under STRICT_ONLY, tied pairs get weight 0 both ways, which leaves
    constant-total mode only when no pair is tied.
    """
    t.require_all_pairs()
    outcomes = majority_relation(t).outcomes
    n = t.n
    zero, half, one = Fraction(0), Fraction(1, 2), Fraction(1)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out = outcomes[i][j]
            if out is Outcome.WIN:
                rows[i][j] = one
            elif out is Outcome.LOSS:
                rows[j][i] = one
            elif tie_policy is TiePolicy.HALF_POINT:
                rows[i][j] = half
                rows[j][i] = half
    return WeightMatrix(rows)


def weights_gpm(pstar: ResponseDistribution) -> WeightMatrix:
    """w_ij = p_i / (p_i + p_j): the loss whose stationary point is r = log p*.

    Over the distribution's common denominator D, p_i = N_i / D with integer
    N_i, so w_ij = N_i / (N_i + N_j): one exact division per entry.
    """
    p = [Fraction(x) for x in require_positive(pstar)]
    common = math.lcm(*(x.denominator for x in p))
    numerators = [x.numerator * (common // x.denominator) for x in p]
    zero = Fraction(0)
    rows = [
        [zero if i == j else Fraction(ni, ni + nj) for j, nj in enumerate(numerators)]
        for i, ni in enumerate(numerators)
    ]
    return WeightMatrix(rows)


def _anchored_embedding(t: PairwiseTally) -> "tuple[list[float], float] | None":
    """Log-odds against candidate 0 as rewards, and their worst pair residual.

    None when some proportion is 0 or 1 (no finite embedding exists at all).
    """
    t.require_all_pairs()
    n = t.n
    s = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            p = t.prop(i, j)
            if p == 0 or p == 1:
                return None
            s[i][j] = math.log(p.numerator) - math.log(p.denominator - p.numerator)
    r = [s[i][0] for i in range(n)]
    residual = max(
        abs(s[i][j] - (r[i] - r[j])) for i in range(n) for j in range(n) if i != j
    )
    return r, residual


def embedding_residual(t: PairwiseTally) -> float | None:
    """Worst additive inconsistency of the log-odds under the anchored embedding.

    None when some proportion is 0 or 1 (no finite embedding exists at all).
    """
    embedding = _anchored_embedding(t)
    return None if embedding is None else embedding[1]


def bt_embeddable(t: PairwiseTally, tol: float = 1e-8) -> RewardVector | None:
    """Recover rewards with sigma(r_i - r_j) = P_ij, or None if impossible.

    All proportions must be strictly interior and their log-odds additively
    consistent within `tol` (anchored at candidate 0, checked on every pair).
    The returned vector is re-centered to the sum-zero gauge; its status
    records the residual in grad_norm.
    """
    embedding = _anchored_embedding(t)
    if embedding is None:
        return None
    r, residual = embedding
    if residual > tol:
        return None
    n = t.n
    mean = sum(r) / n
    centered = [x - mean for x in r]
    shift = sum(centered) / n  # second pass kills the last rounding drift
    centered = tuple(x - shift for x in centered)
    return RewardVector(centered, SolverStatus(StatusKind.CONVERGED, residual, 0))
