"""Weighted pairwise-logistic loss: gradients, solver, scores, embeddings."""
from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import closure, random_weights
from prefaxiom import (
    DimensionMismatchError,
    DisconnectedGraphError,
    EpsilonPolicy,
    NoUniqueTopError,
    NotConstantTotalError,
    NotConvergedError,
    PairwiseTally,
    ResponseDistribution,
    RewardVector,
    SolverStatus,
    StatusKind,
    TiePolicy,
    WeightMatrix,
    ZeroProbabilityError,
    bt_embeddable,
    bt_odds,
    borda_scores,
    copeland_scores,
    embedding_residual,
    generalized_profile,
    generate_complete,
    gpmd,
    gradient,
    loss,
    minimizer_exists,
    rank_by_scores,
    ranking_from_scores,
    scores,
    softmax,
    solve_mle,
    tally,
    top_component,
    weights_copeland,
    weights_gpm,
    weights_standard,
)
from prefaxiom.reward import GRAD_TOL

# Frozen oracle: bisection root of sigma(s) + sigma(2s) = 5/4, the stationarity
# condition of the four-voter fixture under the gauge r = (s, 0, -s).
FIXED_POINT_S = 0.3430064055342722
FIXTURE_SOFTMAX = (0.45183167018558856, 0.3206349645119311, 0.22753336530248028)


@pytest.mark.parametrize("kind", list(StatusKind))
def test_only_converged_rewards_must_sum_to_zero(kind):
    status = SolverStatus(kind, 0.0, 0)
    if kind is StatusKind.CONVERGED:
        with pytest.raises(ValueError, match="converged rewards must sum to zero"):
            RewardVector((1.0, 0.0), status)
    else:
        assert RewardVector((1.0, 0.0), status).r == (1.0, 0.0)


@pytest.mark.parametrize("fn", [loss, gradient])
@pytest.mark.parametrize("r", [(0.0, 0.0), (0.0,) * 4])
def test_loss_and_gradient_refuse_reward_vectors_of_the_wrong_length(fn, r):
    w = WeightMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(DimensionMismatchError, match="reward vector must have length 3"):
        fn(w, r)


# --------------------------------------------------------------- weight matrix

def test_weight_matrix_infers_constant_total():
    w = WeightMatrix([[0, 3, 1], [1, 0, 2], [3, 2, 0]])
    assert w.pair_total == 4 and type(w.pair_total) is int
    u = WeightMatrix([[0, 3, 1], [1, 0, 2], [1, 2, 0]])
    assert u.pair_total is None


def test_weights_gpm_pair_total_is_inferred():
    w = weights_gpm(ResponseDistribution((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))))
    assert w.pair_total == 1


def test_float_form_is_built_once_and_read_only():
    w = WeightMatrix([[0, Fraction(1, 3), 2], [Fraction(2, 3), 0, 1], [0, 1, 0]])
    a = w.array
    assert a.tolist() == [[float(x) for x in row] for row in w.w]
    assert w.array is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 1] = 5.0


def test_integer_weights_stay_integers_and_solve_alike():
    w = WeightMatrix([[0, 3, 2], [1, 0, Fraction(5, 2)], [2, 0.5, 0]])
    assert [type(x) for x in w.w[0]] == [int, int, int]
    assert w.w[1][2] == Fraction(5, 2) and type(w.w[2][1]) is Fraction
    # bools are ints, but not exactly int: they still become Fractions
    assert type(WeightMatrix([[0, True], [False, 0]]).w[0][1]) is Fraction
    as_fractions = WeightMatrix([[Fraction(x) for x in row] for row in w.w])
    assert w.pair_total is None and as_fractions.pair_total is None
    assert w.array.tolist() == as_fractions.array.tolist()
    t = tally(generate_complete(7, 9, 3))
    counts = weights_standard(t)
    assert counts.w == t.wins and all(type(x) is int for row in counts.w for x in row)
    exact = WeightMatrix([[Fraction(x) for x in row] for row in t.wins])
    assert counts.pair_total == exact.pair_total == 9
    assert scores(counts) == scores(exact)
    assert solve_mle(counts).r == solve_mle(exact).r
    # Copeland's wins and losses stay int, and only a half-split is a Fraction;
    # an even electorate has half-splits, an odd one none
    half_splits = 0
    for t in (tally(generate_complete(5, 4, 1)), tally(generate_complete(5, 3, 1))):
        for tie_policy in TiePolicy:
            w = weights_copeland(t, tie_policy)
            assert all((type(x) is int) == (x.denominator == 1) for row in w.w for x in row)
            half_splits += sum(x == Fraction(1, 2) for row in w.w for x in row)
            exact = WeightMatrix([[Fraction(x) for x in row] for row in w.w])
            assert w.pair_total == exact.pair_total
            assert w.array.tolist() == exact.array.tolist()
            if w.pair_total is None:
                with pytest.raises(NotConstantTotalError):
                    scores(w)
            else:
                assert scores(w) == scores(exact)
            assert solve_mle(w).r == solve_mle(exact).r
    assert half_splits > 0


@pytest.mark.parametrize("build, noun", [(PairwiseTally, "win counts"), (WeightMatrix, "weights")])
@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0, 1, 2], [1, 0, 2]], "{} must form a square matrix over >= 2 candidates"),
        ([[0]], "{} must form a square matrix over >= 2 candidates"),
        ([[1, 1], [1, 0]], "diagonal {} must be zero"),
        ([[0, -1], [1, 0]], "{} must be nonnegative"),
    ],
)
def test_tallies_and_weights_share_one_validator(build, noun, rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(noun))}$"):
        build(rows)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: WeightMatrix([[0, v], [1, 0]]),
        EpsilonPolicy.finite,
    ],
    ids=["WeightMatrix", "EpsilonPolicy.finite"],
)
def test_non_finite_numbers_raise_a_value_error_naming_them(build, value):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(value))} is not a finite number$"):
        build(value)


def test_weight_matrix_rejects_negative_and_diagonal():
    with pytest.raises(ValueError):
        WeightMatrix([[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        WeightMatrix([[1, 1], [1, 0]])


# ------------------------------------------------------------- loss & gradient

def test_gradient_matches_finite_differences():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(2, 6)
        w = random_weights(rng, n, rng.randint(1, 9))
        r = [rng.uniform(-2, 2) for _ in range(n)]
        g = gradient(w, r)
        h = 1e-6
        for k in range(n):
            up = list(r)
            dn = list(r)
            up[k] += h
            dn[k] -= h
            fd = (loss(w, up) - loss(w, dn)) / (2 * h)
            assert abs(g[k] - fd) < 1e-6, (n, k, g[k], fd)


def test_loss_gauge_invariance():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 6)
        w = random_weights(rng, n, 5)
        r = [rng.uniform(-3, 3) for _ in range(n)]
        base = loss(w, r)
        for c in (-10.0, 0.5, 4.0):
            assert abs(loss(w, [x + c for x in r]) - base) <= 1e-10 * max(1.0, abs(base))


def test_loss_convexity_midpoint():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 6)
        w = random_weights(rng, n, 6)
        a = [rng.uniform(-3, 3) for _ in range(n)]
        b = [rng.uniform(-3, 3) for _ in range(n)]
        mid = [(x + y) / 2 for x, y in zip(a, b)]
        assert loss(w, mid) <= (loss(w, a) + loss(w, b)) / 2 + 1e-9


# ----------------------------------------------------------------------- solve

def test_paradox_converges_to_zero(paradox):
    sol = solve_mle(weights_standard(tally(paradox)))
    assert sol.status.kind is StatusKind.CONVERGED
    assert max(abs(x) for x in sol.r) < 1e-9
    assert softmax(sol).linf_distance(ResponseDistribution((Fraction(1, 3),) * 3)) < 1e-9


def test_four_voter_fixture_matches_bisection_oracle(four_voter):
    sol = solve_mle(weights_standard(tally(four_voter)))
    assert sol.status.kind is StatusKind.CONVERGED
    assert abs(sol.r[0] - FIXED_POINT_S) < 1e-9
    assert abs(sol.r[1]) < 1e-9
    assert abs(sol.r[2] + FIXED_POINT_S) < 1e-9
    p = softmax(sol)
    for got, want in zip(p, FIXTURE_SOFTMAX):
        assert abs(got - want) < 1e-9


def test_gauge_zero_sum_on_convergence():
    rng = random.Random(3)
    for _ in range(20):
        w = random_weights(rng, rng.randint(2, 6), 7)
        sol = solve_mle(w)
        if sol.status.kind is StatusKind.CONVERGED:
            assert abs(sum(sol.r)) <= 1e-12 * max(1, len(sol.r))


def test_divergence_strict_copeland_order():
    # scores (2, 1, 0): no finite minimizer; top drifts up, bottom down
    t = tally(generate_complete(3, 1, 1))
    order = rank_by_scores(weights_copeland(t)).order
    w = weights_copeland(t)
    assert not minimizer_exists(w)
    sol = solve_mle(w)
    assert sol.status.kind is StatusKind.DIVERGED
    assert sol.status.drift_up == (order[0],)
    assert sol.status.drift_down == (order[-1],)
    with pytest.raises(NotConvergedError):
        softmax(sol)


def test_divergence_unanimous_profile():
    from prefaxiom import complete_profile

    p = complete_profile(
        ["a", "b", "c", "d"],
        [["a", "b", "c", "d"], ["a", "b", "c", "d"]],
    )
    sol = solve_mle(weights_standard(tally(p)))
    assert sol.status.kind is StatusKind.DIVERGED
    assert 0 in sol.status.drift_up
    assert 3 in sol.status.drift_down


def test_boundary_wins_diverge_without_spinning():
    # candidate 2 never loses; 0 and 1 each beat the other
    w = WeightMatrix(((0, 1, 0), (3, 0, 0), (4, 4, 0)))
    sol = solve_mle(w)
    assert sol.status.kind is StatusKind.DIVERGED
    assert sol.status.drift_up == (2,)
    assert sol.status.drift_down == (0, 1)
    assert sol.status.iterations < 100


def test_chain_of_components_drifts_from_its_source_to_its_sink():
    # 3 beats everyone, the cycle 0 <-> 1 beats 2, and 2 beats nobody
    w = WeightMatrix([[0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 1, 1, 0]])
    assert not minimizer_exists(w)
    assert top_component(w) == (3,)
    status = solve_mle(w).status
    assert status.kind is StatusKind.DIVERGED
    assert (status.drift_up, status.drift_down) == ((3,), (2,))


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_unreachable_matches_the_undirected_closure(raw):
    n = len(raw)
    rows = [[0 if i == j else raw[i][j] for j in range(n)] for i in range(n)]
    w = WeightMatrix(rows)
    linked = closure(n, lambda i, j: rows[i][j] + rows[j][i] > 0)
    missing = [j for j in range(n) if not linked[0][j]]
    if missing:
        message = f"comparison graph splits; candidates {missing} unreachable from 0"
        with pytest.raises(DisconnectedGraphError, match=re.escape(message)):
            solve_mle(w)
        with pytest.raises(DisconnectedGraphError, match=re.escape(message)):
            top_component(w)
    else:
        assert solve_mle(w).status.iterations < 100


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_solver_status_follows_the_condensation(raw):
    n = len(raw)
    rows = [[0 if i == j else raw[i][j] for j in range(n)] for i in range(n)]
    assume(all(closure(n, lambda i, j: rows[i][j] + rows[j][i] > 0)[0]))
    w = WeightMatrix(rows)
    reach = closure(n, lambda i, j: rows[i][j] > 0)

    strongly_connected = all(all(row) for row in reach)
    assert minimizer_exists(w) == strongly_connected
    sol = solve_mle(w)
    assert sol.status.kind is (StatusKind.CONVERGED if strongly_connected else StatusKind.DIVERGED)
    assert sol.status.iterations < 100
    # i sits in a source component iff everything that reaches i is reached
    # from i, and in a sink component iff everything i reaches reaches i
    up = tuple(i for i in range(n) if all(reach[i][k] for k in range(n) if reach[k][i]))
    down = tuple(i for i in range(n) if all(reach[k][i] for k in range(n) if reach[i][k]))
    if not strongly_connected:
        assert sol.status.drift_up == up
        assert sol.status.drift_down == down
    # the source components, listed descending by smallest member
    components = {tuple(k for k in range(n) if reach[i][k] and reach[k][i]) for i in up}
    sources = sorted(components, reverse=True)
    if len(sources) == 1:
        assert top_component(w) == up
    else:
        message = f"no finite MLE and {len(sources)} undominated candidate sets {sources}"
        with pytest.raises(NoUniqueTopError, match=re.escape(message)):
            top_component(w)


def test_single_cyclic_voter_converges():
    p = generalized_profile(
        ["a", "b", "c"], {"v1": [("a", "b"), ("b", "c"), ("c", "a")]}
    )
    w = weights_standard(tally(p))
    assert minimizer_exists(w)
    sol = solve_mle(w)
    assert sol.status.kind is StatusKind.CONVERGED
    assert max(abs(x) for x in sol.r) < 1e-9


def test_ridge_is_explicit_and_orders_like_scores():
    t = tally(generate_complete(3, 1, 1))
    w = weights_copeland(t)
    sol = solve_mle(w, ridge=1e-8)
    assert sol.status.kind is StatusKind.CONVERGED
    assert ranking_from_scores(sol.r, tol=1e-8).order == rank_by_scores(w).order


def test_disconnected_graph_raises():
    p = generalized_profile(
        ["a", "b", "c", "d"], {"v1": [("a", "b")], "v2": [("c", "d")]}
    )
    with pytest.raises(DisconnectedGraphError):
        solve_mle(weights_standard(tally(p)))


def test_solver_respects_config():
    t = tally(generate_complete(4, 3, 2))
    sol = solve_mle(weights_standard(t), max_iters=1)
    assert sol.status.kind in (StatusKind.MAX_ITERS, StatusKind.CONVERGED)


@pytest.mark.parametrize("max_iters", range(5))
def test_status_reads_the_gradient_at_the_returned_rewards(max_iters):
    w = weights_standard(tally(generate_complete(4, 3, 2)))
    sol = solve_mle(w, max_iters=max_iters)
    assert sol.status.grad_norm == max(abs(g) for g in gradient(w, sol))
    assert sol.status.iterations <= max_iters
    want = StatusKind.CONVERGED if sol.status.grad_norm <= GRAD_TOL else StatusKind.MAX_ITERS
    assert sol.status.kind is want


def test_step_cap_at_a_stationary_start_converges():
    # every pair splits evenly, so r = 0 is already the optimum
    w = WeightMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    status = solve_mle(w, max_iters=0).status
    assert (status.kind, status.grad_norm, status.iterations) == (StatusKind.CONVERGED, 0.0, 0)
    with pytest.raises(ValueError, match=r"^max_iters must be a nonnegative integer, got -3$"):
        solve_mle(w, max_iters=-3)


def test_solver_stalls_when_no_backtracked_step_is_accepted(monkeypatch):
    from prefaxiom import _newton

    # a loss that is finite only at the start: Armijo halves the first step below 1e-14
    monkeypatch.setattr(_newton, "_nll", lambda w, r: 0.0 if not r.any() else math.inf)
    w = WeightMatrix([[0, 2, 1], [1, 0, 1], [1, 1, 0]])
    sol = solve_mle(w)
    assert (sol.status.kind, sol.status.iterations) == (StatusKind.MAX_ITERS, 1)
    assert sol.r == (0.0, 0.0, 0.0)
    assert sol.status.grad_norm == max(abs(g) for g in gradient(w, (0.0, 0.0, 0.0))) == 0.5


# a float cap never equals the step count: unchecked, 20000.5 ran 199,584 steps here
LOPSIDED = [[0, 2, 1], [0, 0, 2000000], [0, 0, 0]]


@pytest.mark.parametrize(
    "rows, option, value, message",
    [
        ([[0, 1], [1, 0]], "ridge", math.nan, "ridge must be finite and nonnegative, got nan"),
        ([[0, 1], [1, 0]], "ridge", math.inf, "ridge must be finite and nonnegative, got inf"),
        ([[0, 1], [1, 0]], "ridge", -math.inf, "ridge must be finite and nonnegative, got -inf"),
        (LOPSIDED, "max_iters", 2.5, "max_iters must be a nonnegative integer, got 2.5"),
        (LOPSIDED, "max_iters", 20000.5, "max_iters must be a nonnegative integer, got 20000.5"),
    ],
)
def test_bad_ridge_or_step_cap_raises_before_any_step(monkeypatch, rows, option, value, message):
    from prefaxiom import _newton

    def no_step(*args, **kwargs):
        raise AssertionError("a Newton step ran")

    monkeypatch.setattr(_newton, "newton", no_step)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_mle(WeightMatrix(rows), **{option: value})


def _constant_total(n: int, total: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rng.randint(1, total - 1)
        rows[j][i] = total - rows[i][j]
    return rows


MIXED_SCALE = [[0, 10**6, 3 * 10**6], [3, 0, 2 * 10**6], [2, 3, 0]]


@pytest.mark.parametrize(
    "rows, ridge",
    [
        (_constant_total(5, 10**7, 1), 0.0),
        (_constant_total(10, 10**7, 1), 0.0),
        (MIXED_SCALE, 0.0),
        (MIXED_SCALE, 0.1),
    ],
    ids=["total-1e7-n5", "total-1e7-n10", "mixed-scale", "mixed-scale-ridge"],
)
def test_large_weights_stop_at_the_gradients_rounding_floor(rows, ridge):
    # GRAD_TOL lies below these gradients' rounding noise, which no step can
    # remove; only the rounding floor lets the solve stop
    sol = solve_mle(WeightMatrix(rows), ridge=ridge)
    assert sol.status.kind is StatusKind.CONVERGED
    assert sol.status.iterations < 20


# lopsided weights whose Newton steps overshoot: the Armijo search halves
# the step, and where the Newton direction does not descend a
# steepest-descent step stands in
@pytest.mark.parametrize(
    "rows, kind, drift",
    [
        ([[0, 2, 3, 3], [10**6, 0, 1000, 3], [1000, 0, 0, 10**9], [10**6, 3, 0, 0]],
         StatusKind.CONVERGED, ((), ())),
        ([[0, 1, 1000, 1000], [10**9, 0, 0, 2], [0, 3, 0, 0], [3, 10**9, 10**9, 0]],
         StatusKind.CONVERGED, ((), ())),
        ([[0, 1, 0], [10**9, 0, 2], [0, 0, 0]], StatusKind.DIVERGED, ((0, 1), (2,))),
    ],
    ids=["halvings", "halvings-and-fallback", "diverged-fallback"],
)
def test_lopsided_weights_backtrack_and_fall_back(rows, kind, drift):
    w = WeightMatrix(rows)
    sol = solve_mle(w)
    status = sol.status
    assert status.kind is kind
    assert status.grad_norm == max(abs(g) for g in gradient(w, sol))
    assert (status.drift_up, status.drift_down) == drift
    if kind is StatusKind.CONVERGED:
        # at most the gradient's rounding floor: 16 eps times the largest row sum of w + w.T
        t = np.array(rows, dtype=float)
        assert status.grad_norm <= 16.0 * np.finfo(float).eps * float((t + t.T).sum(axis=1).max())
        assert abs(sum(sol.r)) <= 1e-12


def test_strongly_connected_lopsided_weights_converge():
    w = WeightMatrix([[0, 2, 1000, 0], [1, 0, 2, 3], [0, 10**9, 0, 1], [10**9, 10**6, 3, 0]])
    assert minimizer_exists(w)
    # the saturated pairs' curvature is rebuilt from sigma(-d) when 1 - sigma(d) rounds to 0
    assert solve_mle(w).status.kind is StatusKind.CONVERGED


# ---------------------------------------------------------------------- scores

def test_scores_match_borda_and_copeland(four_voter):
    t = tally(four_voter)
    assert scores(weights_standard(t)) == borda_scores(t)
    assert (
        scores(weights_copeland(t, TiePolicy.HALF_POINT))
        == copeland_scores(t, TiePolicy.HALF_POINT)
    )


def test_scores_require_constant_totals():
    p = generalized_profile(
        ["a", "b", "c"],
        {"v1": [("a", "b"), ("a", "c")], "v2": [("a", "b")]},
    )
    with pytest.raises(NotConstantTotalError):
        scores(weights_standard(tally(p)))


def _lcm_scores(weights: WeightMatrix) -> tuple[Fraction, ...]:
    """Reference: each row's numerators over that row's own lcm, one division per row."""
    total = weights.pair_total
    values = []
    for row in weights.w:
        common = math.lcm(*(x.denominator for x in row))
        numerator = sum(x.numerator * (common // x.denominator) for x in row)
        values.append(Fraction(numerator * total.denominator, common * total.numerator))
    return tuple(values)


@st.composite
def _constant_total_weights(draw) -> WeightMatrix:
    """Int, Fraction and zero entries whose pairs share an int or a Fraction total."""
    n = draw(st.integers(2, 7))
    total = draw(st.integers(1, 12) | st.fractions(Fraction(1, 50), 12, max_denominator=60))
    rows: list[list] = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if type(total) is int and draw(st.booleans()):
            share = draw(st.integers(0, total))
        else:
            edges = st.sampled_from([Fraction(0), Fraction(total), Fraction(total) / 2])
            share = draw(edges | st.fractions(0, total, max_denominator=97))
        rows[i][j], rows[j][i] = share, total - share
    w = WeightMatrix(rows)
    assert w.pair_total == total
    return w


@given(_constant_total_weights())
@settings(max_examples=200, deadline=None)
def test_scores_equal_the_per_row_lcm_sums(w):
    expected = _lcm_scores(w)
    got = scores(w)
    assert got == expected
    assert all(type(x) is Fraction for x in got)


def test_scores_equal_the_per_row_lcm_sums_on_mle_gpm_weights_at_n40():
    w = weights_gpm(gpmd(generate_complete(40, 10, 5), EpsilonPolicy.finite(Fraction(1, 1000))))
    assert w.pair_total == 1
    assert scores(w) == _lcm_scores(w)


@given(st.integers(2, 6), st.integers(1, 9), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_converged_solver_orders_like_scores(n, m, seed):
    w = weights_standard(tally(generate_complete(n, m, seed)))
    expected = rank_by_scores(w)
    if minimizer_exists(w):
        sol = solve_mle(w)
        assert sol.status.kind is StatusKind.CONVERGED
    else:
        sol = solve_mle(w, ridge=1e-8)
    assert ranking_from_scores(sol.r, tol=1e-8).classes() == expected.classes()


def test_equal_scores_give_equal_rewards(paradox):
    sol = solve_mle(weights_standard(tally(paradox)))
    assert max(sol.r) - min(sol.r) <= 1e-8


# ------------------------------------------------------------------ embeddings

def test_bt_round_trip_exact_strengths():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 8)
        raw = [rng.uniform(-3.0, 3.0) for _ in range(n)]
        # wins[i][j] = N_i: each pair's proportion is exactly N_i / (N_i + N_j)
        counts = [round(math.exp(x) * 10**6) for x in raw]
        t = PairwiseTally([[0 if i == j else counts[i] for j in range(n)] for i in range(n)])
        fitted = bt_embeddable(t)
        assert fitted is not None
        target = [math.log(c / 10**6) for c in counts]
        centered = [x - sum(target) / n for x in target]
        assert max(abs(a - b) for a, b in zip(fitted.r, centered)) <= 1e-9


def test_solver_recovers_bt_ground_truth():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 6)
        raw = [rng.uniform(-2.0, 2.0) for _ in range(n)]
        counts = [round(math.exp(x) * 10**4) for x in raw]
        t = PairwiseTally([[0 if i == j else counts[i] for j in range(n)] for i in range(n)])
        sol = solve_mle(weights_standard(t))
        assert sol.status.kind is StatusKind.CONVERGED
        target = [math.log(c / 10**4) for c in counts]
        centered = [x - sum(target) / n for x in target]
        assert max(abs(a - b) for a, b in zip(sol.r, centered)) <= 1e-8


def test_paradox_is_not_embeddable(paradox):
    t = tally(paradox)
    assert bt_embeddable(t) is None
    assert abs(embedding_residual(t) - 3 * math.log(2)) <= 1e-12


def test_embedding_residual_none_on_boundary():
    t = tally(generate_complete(3, 1, 4))  # props are 0/1
    assert embedding_residual(t) is None
    assert bt_embeddable(t) is None


def test_bt_odds_are_exact_strength_ratios():
    # strengths 3, 1, 2, each pair scaled by i + j
    strengths = (3, 1, 2)
    t = PairwiseTally([[0 if i == j else strengths[i] * (i + j) for j in range(3)] for i in range(3)])
    assert bt_odds(t) == (1, Fraction(1, 3), Fraction(2, 3))


def test_bt_odds_none_on_cycles_and_boundaries(paradox):
    assert bt_odds(tally(paradox)) is None
    assert bt_odds(tally(generate_complete(3, 1, 4))) is None
    # one one-sided pair, every other pair interior: still judged one way
    assert bt_odds(PairwiseTally([[0, 2, 1], [0, 0, 1], [1, 1, 0]])) is None


def _anchored_log_odds(t: PairwiseTally) -> tuple[float, ...]:
    """Log-odds against candidate 0, centered twice to the sum-zero gauge."""
    n = t.n
    r = [0.0]
    for i in range(1, n):
        p = t.prop(i, 0)
        r.append(math.log(p.numerator) - math.log(p.denominator - p.numerator))
    mean = sum(r) / n
    centered = [x - mean for x in r]
    shift = sum(centered) / n
    return tuple(x - shift for x in centered)


@st.composite
def _small_tallies(draw):
    """Small integer tallies with every pair compared: built from integer BT
    strengths, then some counts nudged, so both outcomes occur."""
    n = draw(st.integers(2, 5))
    strength = [draw(st.integers(1, 4)) for _ in range(n)]
    wins = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            scale = draw(st.integers(1, 3))
            wins[i][j] = max(0, strength[i] * scale + draw(st.integers(-1, 1)))
            wins[j][i] = max(0, strength[j] * scale + draw(st.integers(-1, 1)))
            if wins[i][j] + wins[j][i] == 0:
                wins[i][j] = 1
    return wins


@given(_small_tallies())
@settings(max_examples=400, deadline=None)
def test_exact_bt_decision_agrees_with_the_float_residual(wins):
    t = PairwiseTally(wins)
    fitted = bt_embeddable(t)
    residual = embedding_residual(t)
    assert (fitted is not None) == (residual is not None and residual <= 1e-8)
    if fitted is not None:
        assert fitted.r == _anchored_log_odds(t)
        assert fitted.status.grad_norm == 0.0


# ------------------------------------------------------------------ gpm bridge

def test_weights_gpm_stationary_at_log_target():
    target = ResponseDistribution((Fraction(5, 10), Fraction(3, 10), Fraction(2, 10)))
    w = weights_gpm(target)
    sol = solve_mle(w)
    assert sol.status.kind is StatusKind.CONVERGED
    assert softmax(sol).linf_distance(target) <= 1e-10


def test_weights_gpm_rejects_boundary():
    with pytest.raises(ZeroProbabilityError):
        weights_gpm(ResponseDistribution((Fraction(1), Fraction(0), Fraction(0))))


def test_softmax_accepts_raw_sequences():
    p = softmax([0.0, 0.0])
    assert p.linf_distance(ResponseDistribution((Fraction(1, 2),) * 2)) < 1e-15
