"""End-to-end acceptance checks.

One test per criterion; `pytest -v` therefore prints one pass/fail line for
each.  Every tolerance is stated inline next to the assertion it guards.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from click.testing import CliRunner

from conftest import reward_ranking
from prefaxiom import (
    EpsilonPolicy,
    ExhaustiveComplete,
    ORDINAL_AXIOMS,
    RandomComplete,
    ResponseDistribution,
    RuleKind,
    StatusKind,
    TiePolicy,
    apply_permutation,
    borda_scores,
    bt_embeddable,
    complete_profile,
    condorcet_winner,
    copeland_scores,
    counterexample_search,
    embedding_residual,
    enumerate_embeddable_partitions,
    generate_complete,
    gpmd,
    gpmd_via_partition,
    gradient,
    iter_profiles,
    loss,
    make_rule,
    minimizer_exists,
    profile_from_pairs,
    rank_by_scores,
    ranking_from_scores,
    softmax,
    solve_mle,
    tally,
    tally_from_props,
    weights_copeland,
    weights_gpm,
    weights_standard,
)

PARADOX = complete_profile(
    ["y1", "y2", "y3"],
    [["y1", "y2", "y3"], ["y2", "y3", "y1"], ["y3", "y1", "y2"]],
)
FOUR_VOTER = complete_profile(
    ["y1", "y2", "y3"],
    [["y1", "y2", "y3"], ["y1", "y2", "y3"], ["y2", "y3", "y1"], ["y3", "y1", "y2"]],
)
# bisection oracle for the four-voter fixture (root of sigma(s)+sigma(2s)=5/4)
FIXTURE_GAP = 0.07063496451193108


def _random_weight_matrix(rng: random.Random, n: int, m: int):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.randint(0, m)
            rows[i][j] = w
            rows[j][i] = m - w
    from prefaxiom import WeightMatrix

    return WeightMatrix(rows)


def test_criterion_01_mle_standard_implements_borda():
    start = time.monotonic()
    rng = random.Random(101)
    for _ in range(500):
        n = rng.randint(2, 6)
        m = rng.randint(1, 9)
        profile = generate_complete(n, m, rng.randrange(10**9))
        w = weights_standard(tally(profile))
        expected = ranking_from_scores(borda_scores(tally(profile))).classes()
        if minimizer_exists(w):
            sol = solve_mle(w)
            assert sol.status.kind is StatusKind.CONVERGED
        else:
            sol = solve_mle(w, ridge=1e-8)  # boundary props: regularized path
            assert sol.status.kind is StatusKind.CONVERGED
        assert reward_ranking(sol.r).classes() == expected
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"criterion 1: 500 random profiles, MLE ordering == Borda ordering ({elapsed:.1f}s)")


def test_criterion_02_mle_copeland_implements_copeland():
    checked = 0
    for profile in iter_profiles(ExhaustiveComplete(3, 3)):
        t = tally(profile)
        assert (
            rank_by_scores(weights_copeland(t, TiePolicy.HALF_POINT)).classes()
            == ranking_from_scores(copeland_scores(t, TiePolicy.HALF_POINT)).classes()
        )
        checked += 1
    assert checked == 216
    rng = random.Random(202)
    for _ in range(1000):
        n = rng.randint(2, 6)
        t = tally(generate_complete(n, rng.randint(1, 9), rng.randrange(10**9)))
        assert (
            rank_by_scores(weights_copeland(t, TiePolicy.HALF_POINT)).classes()
            == ranking_from_scores(copeland_scores(t, TiePolicy.HALF_POINT)).classes()
        )
    print("criterion 2: score shortcut == Copeland on 216 exhaustive + 1000 random (exact)")


def test_criterion_03_tournament_condorcet_and_order_recovery():
    violations = 0
    for n in (4, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for code in range(2 ** len(pairs)):
            winners = [
                (i, j) if code >> k & 1 else (j, i) for k, (i, j) in enumerate(pairs)
            ]
            profile = profile_from_pairs(n, winners)
            t = tally(profile)
            ranking = rank_by_scores(weights_standard(t))
            w = condorcet_winner(t)
            if w is not None and ranking.top_class() != (w,):
                violations += 1
            outdeg = [sum(t.wins[i]) for i in range(n)]
            if sorted(outdeg) == list(range(n)):  # transitive tournament
                want = tuple(sorted(range(n), key=lambda i: -outdeg[i]))
                if not (ranking.is_strict and ranking.order == want):
                    violations += 1
    assert violations == 0
    print("criterion 3: 64 + 1024 tournaments, Condorcet winner and full-order recovery exact")


def test_criterion_04_copeland_clean_borda_fails_condorcet():
    copeland = make_rule("copeland", RuleKind.ORDINAL)
    for axiom in ORDINAL_AXIOMS:
        out = counterexample_search(copeland, axiom, ExhaustiveComplete(3, 3))
        assert not out.found and out.examined == 216, axiom
        rnd = counterexample_search(
            copeland, axiom, RandomComplete(4, 5, 5000, seed=404)
        )
        assert not rnd.found and rnd.examined == 5000, axiom
    borda = make_rule("borda", RuleKind.ORDINAL)
    hit = counterexample_search(borda, "condorcet", ExhaustiveComplete(3, 3))
    assert hit.found and hit.index == 3
    print("criterion 4: Copeland passes 4 axioms x (216 + 5000); Borda fails Condorcet at index 3")


def test_criterion_05_bt_embedding_round_trip_and_paradox_rejection():
    rng = random.Random(505)
    worst = 0.0
    for _ in range(200):
        n = rng.randint(2, 8)
        raw = [rng.uniform(-3.0, 3.0) for _ in range(n)]
        strengths = [Fraction(round(math.exp(x) * 10**6), 10**6) for x in raw]
        props = {
            (i, j): Fraction(strengths[i], strengths[i] + strengths[j])
            for i in range(n)
            for j in range(i + 1, n)
        }
        fitted = bt_embeddable(tally_from_props(n, props))
        assert fitted is not None
        target = [math.log(float(s)) for s in strengths]
        centered = [x - sum(target) / n for x in target]
        worst = max(worst, max(abs(a - b) for a, b in zip(fitted.r, centered)))
    assert worst <= 1e-9, worst
    t = tally(PARADOX)
    assert bt_embeddable(t) is None
    assert abs(embedding_residual(t) - 3 * math.log(2)) <= 1e-12
    print(f"criterion 5: 200 BT round-trips worst {worst:.2e} <= 1e-9; paradox residual 3 log 2")


def test_criterion_06_forced_symmetry_yields_equal_probabilities():
    rng = random.Random(606)
    rule = make_rule("mle-standard", RuleKind.PROBABILISTIC)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(2, 5)
        m = rng.randint(1, 5)
        base = generate_complete(n, m, rng.randrange(10**9))
        i, j = rng.sample(range(n), 2)
        swap = list(range(n))
        swap[i], swap[j] = swap[j], swap[i]
        mirrored = apply_permutation(base, tuple(swap))
        labels = base.candidates.names
        rankings = [
            [labels[k] for k in v.ranking.order] for v in base.voters + mirrored.voters
        ]
        doubled = complete_profile(labels, rankings)
        dist = rule(doubled)
        worst = max(worst, abs(float(dist[i]) - float(dist[j])))
    assert worst <= 1e-6, worst
    print(f"criterion 6: 100 symmetrized profiles, worst |p_i - p_j| = {worst:.2e} <= 1e-6")


def test_criterion_07_gpmd_partition_independence():
    rng = random.Random(707)
    partitions_checked = 0
    for _ in range(100):
        n = rng.randint(2, 5)
        m = rng.randint(1, 6)
        profile = generate_complete(n, m, rng.randrange(10**9))
        base = gpmd(profile, EpsilonPolicy.limit())
        for part in enumerate_embeddable_partitions(profile, EpsilonPolicy.limit(), budget=64):
            via = gpmd_via_partition(profile, part, EpsilonPolicy.limit())
            assert via.linf_distance(base) <= 1e-12
            partitions_checked += 1
    assert partitions_checked >= 100
    print(f"criterion 7: {partitions_checked} embeddable partitions all reproduce gpmd within 1e-12")


def test_criterion_08_gpm_weights_recover_target():
    rng = random.Random(808)
    worst = 0.0
    for _ in range(200):
        n = rng.randint(2, 8)
        weights = [rng.randint(1, 50) for _ in range(n)]
        target = ResponseDistribution(tuple(Fraction(w, sum(weights)) for w in weights))
        sol = solve_mle(weights_gpm(target))
        assert sol.status.kind is StatusKind.CONVERGED
        worst = max(worst, softmax(sol).linf_distance(target))
    assert worst <= 1e-6, worst
    print(f"criterion 8: 200 GPM-weighted solves, worst recovery gap {worst:.2e} <= 1e-6")


def test_criterion_09_mle_differs_from_gpmd():
    from prefaxiom.cli import main

    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "search",
            "--rule",
            "mle-standard",
            "--axiom",
            "gpm",
            "--space",
            "random-complete:n=3,m=4,trials=10000",
            "--seed",
            "909",
            "--tol",
            "0.05",
            "--format",
            "json",
        ],
    )
    assert res.exit_code == 0, res.output
    import json as _json

    doc = _json.loads(res.output)
    assert doc["found"], "no profile with gap > 0.05 in 10^4 trials"
    # fixture gap against the fixed-point oracle
    sol = solve_mle(weights_standard(tally(FOUR_VOTER)))
    gap = softmax(sol).linf_distance(gpmd(FOUR_VOTER, EpsilonPolicy.limit()))
    assert abs(gap - FIXTURE_GAP) < 1e-9
    assert 0.05 < gap < 0.08
    print(f"criterion 9: search finds gap > 0.05 at index {doc['index']}; fixture gap {gap:.4f}")


def test_criterion_10_gradient_and_convexity():
    rng = random.Random(1010)
    worst_grad = 0.0
    for _ in range(100):
        n = rng.randint(2, 6)
        w = _random_weight_matrix(rng, n, rng.randint(1, 9))
        r = [rng.uniform(-2, 2) for _ in range(n)]
        g = gradient(w, r)
        h = 1e-6
        for k in range(n):
            up, dn = list(r), list(r)
            up[k] += h
            dn[k] -= h
            fd = (loss(w, up) - loss(w, dn)) / (2 * h)
            worst_grad = max(worst_grad, abs(g[k] - fd))
    assert worst_grad <= 1e-6, worst_grad
    for _ in range(100):
        n = rng.randint(2, 6)
        w = _random_weight_matrix(rng, n, rng.randint(1, 9))
        a = [rng.uniform(-3, 3) for _ in range(n)]
        b = [rng.uniform(-3, 3) for _ in range(n)]
        mid = [(x + y) / 2 for x, y in zip(a, b)]
        assert loss(w, mid) <= (loss(w, a) + loss(w, b)) / 2 + 1e-9
    print(f"criterion 10: gradient vs central differences worst {worst_grad:.2e}; midpoint convexity holds")


def test_criterion_11_cycle_frequency():
    exact_hits = sum(
        1 for p in iter_profiles(ExhaustiveComplete(3, 3)) if condorcet_winner(tally(p)) is None
    )
    exact = Fraction(exact_hits, 216)
    assert exact == Fraction(1, 18)  # exhaustive oracle: 12 of 216 profiles

    trials = 10_000
    hits3 = sum(
        1
        for t in range(trials)
        if condorcet_winner(tally(generate_complete(3, 3, 1111 * 1_000_003 + t))) is None
    )
    freq3 = hits3 / trials
    se = math.sqrt(float(exact) * (1 - float(exact)) / trials)
    assert abs(freq3 - float(exact)) <= 3 * se, (freq3, float(exact), 3 * se)

    hits10 = sum(
        1
        for t in range(trials)
        if condorcet_winner(tally(generate_complete(10, 3, 2222 * 1_000_003 + t))) is None
    )
    freq10 = hits10 / trials
    assert freq10 > freq3
    print(
        f"criterion 11: exact 1/18; empirical n=3 {freq3:.4f} within 3se={3*se:.4f}; n=10 {freq10:.4f} > n=3"
    )
