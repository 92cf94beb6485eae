"""Weighted pairwise-logistic loss: gradients, solver, scores, embeddings."""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import reward_ranking
from prefaxiom import (
    DisconnectedGraphError,
    NotConstantTotalError,
    NotConvergedError,
    ResponseDistribution,
    StatusKind,
    TiePolicy,
    WeightMatrix,
    ZeroProbabilityError,
    bt_embeddable,
    borda_scores,
    copeland_scores,
    embedding_residual,
    generalized_profile,
    generate_complete,
    gradient,
    loss,
    minimizer_exists,
    rank_by_scores,
    ranking_from_scores,
    scores,
    softmax,
    solve_mle,
    tally,
    tally_from_props,
    weights_copeland,
    weights_gpm,
    weights_standard,
)

# Frozen oracle: bisection root of sigma(s) + sigma(2s) = 5/4, the stationarity
# condition of the four-voter fixture under the gauge r = (s, 0, -s).
FIXED_POINT_S = 0.3430064055342722
FIXTURE_SOFTMAX = (0.45183167018558856, 0.3206349645119311, 0.22753336530248028)


def _reach(n: int, edge) -> list[list[bool]]:
    """Reflexive-transitive closure of `edge` by Floyd-Warshall: an oracle."""
    reach = [[i == j or edge(i, j) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return reach


def _random_weights(rng: random.Random, n: int, m: int) -> WeightMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.randint(0, m)
            rows[i][j] = w
            rows[j][i] = m - w
    return WeightMatrix(rows)


# --------------------------------------------------------------- weight matrix

def test_weight_matrix_infers_constant_total():
    w = WeightMatrix([[0, 3, 1], [1, 0, 2], [3, 2, 0]])
    assert w.is_constant_total and w.pair_total == 4
    u = WeightMatrix([[0, 3, 1], [1, 0, 2], [1, 2, 0]])
    assert not u.is_constant_total and u.pair_total is None


def test_weights_gpm_pair_total_is_inferred():
    w = weights_gpm(ResponseDistribution((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))))
    assert w.pair_total == 1 and w.is_constant_total


def test_float_form_is_built_once_and_read_only():
    w = WeightMatrix([[0, Fraction(1, 3), 2], [Fraction(2, 3), 0, 1], [0, 1, 0]])
    a = w.array
    assert a.tolist() == [[float(x) for x in row] for row in w.w]
    assert w.array is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 1] = 5.0


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
        w = _random_weights(rng, n, rng.randint(1, 9))
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
        w = _random_weights(rng, n, 5)
        r = [rng.uniform(-3, 3) for _ in range(n)]
        base = loss(w, r)
        for c in (-10.0, 0.5, 4.0):
            assert abs(loss(w, [x + c for x in r]) - base) <= 1e-10 * max(1.0, abs(base))


def test_loss_convexity_midpoint():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 6)
        w = _random_weights(rng, n, 6)
        a = [rng.uniform(-3, 3) for _ in range(n)]
        b = [rng.uniform(-3, 3) for _ in range(n)]
        mid = [(x + y) / 2 for x, y in zip(a, b)]
        assert loss(w, mid) <= (loss(w, a) + loss(w, b)) / 2 + 1e-9


# ----------------------------------------------------------------------- solve

def test_paradox_converges_to_zero(paradox):
    sol = solve_mle(weights_standard(tally(paradox)))
    assert sol.status.kind is StatusKind.CONVERGED
    assert max(abs(x) for x in sol.r) < 1e-9
    assert softmax(sol).linf_distance(ResponseDistribution.uniform(3)) < 1e-9


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
        w = _random_weights(rng, rng.randint(2, 6), 7)
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


def test_condensation_in_topological_order():
    # 3 beats everyone, the cycle 0 <-> 1 beats 2, and 2 beats nobody
    w = WeightMatrix([[0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 1, 1, 0]])
    cond = w.condensation
    assert cond.components == ((3,), (0, 1), (2,))
    assert cond.sources == ((3,),)
    assert cond.sinks == ((2,),)


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
    linked = _reach(n, lambda i, j: rows[i][j] + rows[j][i] > 0)
    missing = tuple(j for j in range(n) if not linked[0][j])
    assert w.condensation.unreachable == missing
    if missing:
        message = f"comparison graph splits; candidates {list(missing)} unreachable from 0"
        with pytest.raises(DisconnectedGraphError, match=re.escape(message)):
            solve_mle(w)


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
    assume(all(_reach(n, lambda i, j: rows[i][j] + rows[j][i] > 0)[0]))
    w = WeightMatrix(rows)
    reach = _reach(n, lambda i, j: rows[i][j] > 0)

    components = w.condensation.components
    assert sorted(i for c in components for i in c) == list(range(n))
    for k, comp in enumerate(components):
        assert all(reach[i][j] for i in comp for j in comp)
        assert not any(reach[j][i] for later in components[k + 1:] for j in later for i in comp)

    strongly_connected = all(all(row) for row in reach)
    assert minimizer_exists(w) == strongly_connected
    sol = solve_mle(w)
    assert sol.status.kind is (StatusKind.CONVERGED if strongly_connected else StatusKind.DIVERGED)
    assert sol.status.iterations < 100
    if not strongly_connected:
        # i sits in a source component iff everything that reaches i is reached
        # from i, and in a sink component iff everything i reaches reaches i
        up = tuple(i for i in range(n) if all(reach[i][k] for k in range(n) if reach[k][i]))
        down = tuple(i for i in range(n) if all(reach[k][i] for k in range(n) if reach[i][k]))
        assert sol.status.drift_up == up
        assert sol.status.drift_down == down


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
    assert reward_ranking(sol.r).order == rank_by_scores(w).order


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
    assert reward_ranking(sol.r).classes() == expected.classes()


def test_equal_scores_give_equal_rewards(paradox):
    sol = solve_mle(weights_standard(tally(paradox)))
    assert max(sol.r) - min(sol.r) <= 1e-8


# ------------------------------------------------------------------ embeddings

def test_bt_round_trip_exact_strengths():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 8)
        raw = [rng.uniform(-3.0, 3.0) for _ in range(n)]
        strengths = [Fraction(round(math.exp(x) * 10**6), 10**6) for x in raw]
        props = {}
        for i in range(n):
            for j in range(i + 1, n):
                props[(i, j)] = Fraction(strengths[i], strengths[i] + strengths[j])
        t = tally_from_props(n, props)
        fitted = bt_embeddable(t)
        assert fitted is not None
        target = [math.log(float(s)) for s in strengths]
        centered = [x - sum(target) / n for x in target]
        assert max(abs(a - b) for a, b in zip(fitted.r, centered)) <= 1e-9


def test_solver_recovers_bt_ground_truth():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 6)
        raw = [rng.uniform(-2.0, 2.0) for _ in range(n)]
        strengths = [Fraction(round(math.exp(x) * 10**4), 10**4) for x in raw]
        props = {
            (i, j): Fraction(strengths[i], strengths[i] + strengths[j])
            for i in range(n)
            for j in range(i + 1, n)
        }
        w = weights_standard(tally_from_props(n, props))
        sol = solve_mle(w)
        assert sol.status.kind is StatusKind.CONVERGED
        target = [math.log(float(s)) for s in strengths]
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


# ------------------------------------------------------------------ gpm bridge

def test_weights_gpm_stationary_at_log_target():
    target = ResponseDistribution((Fraction(5, 10), Fraction(3, 10), Fraction(2, 10)))
    w = weights_gpm(target)
    sol = solve_mle(w)
    assert sol.status.kind is StatusKind.CONVERGED
    assert softmax(sol).linf_distance(target) <= 1e-10


def test_weights_gpm_rejects_boundary():
    with pytest.raises(ZeroProbabilityError):
        weights_gpm(ResponseDistribution.point_mass(3, 0))


def test_softmax_accepts_raw_sequences():
    p = softmax([0.0, 0.0])
    assert p.linf_distance(ResponseDistribution.uniform(2)) < 1e-15
