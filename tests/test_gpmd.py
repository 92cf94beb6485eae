"""Geometric matching distributions, group averages, partitions, pipeline."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefaxiom import (
    BlockNotEmbeddableError,
    EpsilonPolicy,
    ExhaustiveComplete,
    NotCompleteProfileError,
    PairwiseTally,
    Partition,
    ResponseDistribution,
    RuleKind,
    apply_permutation,
    block_embeddable,
    block_pm_distribution,
    complete_profile,
    counterexample_search,
    enumerate_embeddable_partitions,
    first_place_shares,
    generalized_profile,
    generate_complete,
    gpmd,
    gpmd_via_partition,
    limit_embeddable,
    make_rule,
    partition_discrepancy,
    softmax,
    solve_mle,
    tally,
    weights_gpm,
)

LIMIT = EpsilonPolicy.limit()


# -------------------------------------------------------------------- epsilon

def test_epsilon_policy_bounds():
    with pytest.raises(ValueError):
        EpsilonPolicy.finite(Fraction(1, 2))
    with pytest.raises(ValueError):
        EpsilonPolicy.finite(0)
    assert EpsilonPolicy.finite().epsilon == Fraction(1, 1000)
    assert LIMIT.is_limit


# ------------------------------------------------ one voter: geometric shares

def one_voter_gpmd(order: tuple[int, ...], eps: Fraction) -> ResponseDistribution:
    """gpmd at smoothing eps of the profile whose one voter ranks `order`."""
    labels = [f"y{i + 1}" for i in range(len(order))]
    return gpmd(complete_profile(labels, [[labels[i] for i in order]]), EpsilonPolicy.finite(eps))


def test_geometric_quarter_epsilon_closed_form():
    # c = (1/4)/(3/4) = 1/3: shares are 9/13, 3/13, 1/13
    p = one_voter_gpmd((0, 1, 2), Fraction(1, 4))
    assert p.p == (Fraction(9, 13), Fraction(3, 13), Fraction(1, 13))


def test_geometric_follows_ranking_order():
    p = one_voter_gpmd((2, 0, 1), Fraction(1, 4))
    assert p.p == (Fraction(3, 13), Fraction(1, 13), Fraction(9, 13))


@given(st.integers(2, 7), st.integers(1, 30), st.integers(2, 31))
@settings(max_examples=60, deadline=None)
def test_geometric_adjacent_win_probability_is_one_minus_eps(n, num, den):
    # any exact epsilon in (0, 1/2)
    if Fraction(num, den) >= Fraction(1, 2):
        num, den = den - num if den - num > 0 else 1, den
    eps = Fraction(num, den)
    if not (0 < eps < Fraction(1, 2)):
        return
    p = one_voter_gpmd(tuple(range(n)), eps)
    assert sum(p.p) == 1
    for k in range(n - 1):
        assert Fraction(p.p[k], p.p[k] + p.p[k + 1]) == 1 - eps


def test_geometric_concentrates_as_eps_shrinks():
    tops = [float(one_voter_gpmd((0, 1, 2, 3), Fraction(1, 10**k)).p[0]) for k in (1, 2, 3, 4)]
    assert tops == sorted(tops)
    assert tops[-1] > 0.999


# ----------------------------------------------------------------------- gpmd

def test_gpmd_limit_is_first_place_shares(four_voter, paradox):
    assert gpmd(four_voter, LIMIT).p == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert gpmd(paradox, LIMIT).p == (Fraction(1, 3),) * 3
    assert gpmd(four_voter, LIMIT).p == first_place_shares(four_voter).p


def test_gpmd_requires_complete_profile():
    p = generalized_profile(["a", "b"], {"v1": [("a", "b")]})
    with pytest.raises(NotCompleteProfileError):
        gpmd(p, LIMIT)


def test_gpmd_is_computed_once_per_profile_and_policy(four_voter, monkeypatch):
    import importlib

    # the package namespace binds the name gpmd to the function
    gpmd_module = importlib.import_module("prefaxiom.gpmd")
    finite = EpsilonPolicy.finite(Fraction(1, 1000))
    first = gpmd(four_voter, finite)
    # an equal policy built anew finds the same distribution
    assert gpmd(four_voter, EpsilonPolicy.finite(Fraction(1, 1000))) is first
    assert gpmd(four_voter, LIMIT) is gpmd(four_voter, LIMIT) != first
    fresh = complete_profile(
        four_voter.candidates.names,
        [[four_voter.candidates.label(i) for i in v.ranking.order] for v in four_voter.voters],
    )
    assert gpmd(fresh, finite) == first

    computed = []
    original = gpmd_module._group_matching

    def counting(profile, policy):
        computed.append(policy)
        return original(profile, policy)

    monkeypatch.setattr(gpmd_module, "_group_matching", counting)
    # the rule's domain step and the gpm premise both ask for the target
    space = ExhaustiveComplete(3, 2)
    for name, policy in (("mle-gpm", finite), ("gpmd-limit", LIMIT)):
        computed.clear()
        rule = make_rule(name, RuleKind.PROBABILISTIC, epsilon_policy=policy)
        outcome = counterexample_search(rule, "gpm", space, epsilon_policy=policy)
        assert outcome.applicable == outcome.examined == len(computed)
        assert set(computed) == {policy}


def test_gpmd_finite_is_positive_and_near_limit(four_voter):
    fin = gpmd(four_voter, EpsilonPolicy.finite(Fraction(1, 1000)))
    assert all(x > 0 for x in fin.p)
    assert sum(fin.p) == 1
    assert fin.linf_distance(gpmd(four_voter, LIMIT)) < 0.01


def test_gpmd_gap_shrinks_monotonically(four_voter):
    limit = gpmd(four_voter, LIMIT)
    gaps = [
        gpmd(four_voter, EpsilonPolicy.finite(Fraction(1, 10**k))).linf_distance(limit)
        for k in (2, 3, 4)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


EPSILONS = st.one_of(
    st.sampled_from([Fraction(1, 3), Fraction(49, 100), Fraction(1, 1000)]),
    st.fractions(min_value=Fraction(1, 10**4), max_value=Fraction(4999, 10**4)),
)


@given(st.integers(2, 7), st.integers(1, 9), st.integers(0, 10**6), EPSILONS)
@settings(max_examples=80, deadline=None)
def test_gpmd_closed_form_is_the_average_of_the_textbook_geometric(n, m, seed, eps):
    # each voter gives position k the textbook (1 - c) c^k / (1 - c^n)
    profile = generate_complete(n, m, seed)
    c = eps / (1 - eps)
    average = [Fraction(0)] * n
    for v in profile.voters:
        for k, candidate in enumerate(v.ranking.order):
            average[candidate] += (1 - c) * c**k / (1 - c**n) / m
    assert gpmd(profile, EpsilonPolicy.finite(eps)).p == tuple(average)


@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_gpmd_permutation_equivariance(n, m, seed, pseed):
    profile = generate_complete(n, m, seed)
    pi = list(range(n))
    random.Random(pseed).shuffle(pi)
    base = gpmd(profile, LIMIT)
    mapped = gpmd(apply_permutation(profile, tuple(pi)), LIMIT)
    for i in range(n):
        assert mapped.p[pi[i]] == base.p[i]


# ------------------------------------------------------------------ partitions

def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        Partition(((0,), ()))  # empty block
    p = Partition(((2,), (0, 1)))
    assert p.blocks == ((0, 1), (2,))  # canonical order
    assert p.covers(3) and not p.covers(4)
    assert Partition.singletons(3).blocks == ((0,), (1,), (2,))


def test_limit_embeddable_accepts_identical_and_rejects_cycle(paradox):
    same = complete_profile(
        ["a", "b", "c"], [["a", "b", "c"], ["a", "b", "c"], ["a", "b", "c"]]
    )
    assert limit_embeddable(tally(same))
    assert not limit_embeddable(tally(paradox))


@st.composite
def _tiered_tallies(draw, min_tier=1):
    """A BT-limit tally: tiers over a random order, unanimous across tiers,
    integer per-candidate weights inside a tier; plus the tier list."""
    n = draw(st.integers(max(2, min_tier), 6))
    order = draw(st.permutations(range(n)))
    big = draw(st.integers(min_tier, n))  # one tier at least `min_tier` strong
    start = draw(st.integers(0, n - big))
    cuts = {start, start + big}
    for k in list(range(1, start)) + list(range(start + big + 1, n)):
        if draw(st.booleans()):
            cuts.add(k)
    bounds = sorted(cuts | {0, n})
    tiers = [order[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]
    rank = {c: k for k, tier in enumerate(tiers) for c in tier}
    weight = [draw(st.integers(1, 5)) for _ in range(n)]
    wins = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            scale = draw(st.integers(1, 3))
            if rank[i] == rank[j]:
                wins[i][j], wins[j][i] = weight[i] * scale, weight[j] * scale
            elif rank[i] < rank[j]:
                wins[i][j] = scale
            else:
                wins[j][i] = scale
    return wins, tiers


@given(_tiered_tallies())
@settings(max_examples=200, deadline=None)
def test_limit_embeddable_accepts_tiered_bt_tallies(case):
    wins, _ = case
    assert limit_embeddable(PairwiseTally(wins))


@given(_tiered_tallies(min_tier=3), st.data())
@settings(max_examples=200, deadline=None)
def test_limit_embeddable_rejects_a_raised_interior_count(case, data):
    wins, tiers = case
    tier = data.draw(st.sampled_from([t for t in tiers if len(t) >= 3]))
    a, b = data.draw(st.permutations(tier))[:2]
    wins[a][b] += data.draw(st.integers(1, 4))
    # the pair stays interior, but its odds no longer factor through weights
    assert not limit_embeddable(PairwiseTally(wins))


def test_block_embeddable_limit(paradox):
    assert block_embeddable(paradox, (0,), LIMIT)
    assert not block_embeddable(paradox, (0, 1, 2), LIMIT)


def test_enumerate_partitions_paradox_only_singletons(paradox):
    parts = enumerate_embeddable_partitions(paradox, LIMIT)
    # pairs of distinct cyclic rotations pool into majority ties with cyclic
    # strict directions; no merge survives, so only the singleton partition
    assert [p.blocks for p in parts] == [((0,), (1,), (2,))]


def test_enumerate_partitions_identical_profile_merges():
    same = complete_profile(["a", "b"], [["a", "b"], ["a", "b"], ["a", "b"]])
    parts = enumerate_embeddable_partitions(same, LIMIT)
    assert Partition(((0, 1, 2),)).blocks in [p.blocks for p in parts]
    assert len(parts) == 5  # all partitions of a 3-set are embeddable here


def test_enumerate_respects_budget(four_voter):
    parts = enumerate_embeddable_partitions(four_voter, LIMIT, budget=2)
    assert len(parts) <= 2
    assert parts[0].blocks == Partition.singletons(4).blocks


def test_partition_independence_exact(four_voter):
    base = gpmd(four_voter, LIMIT)
    for part in enumerate_embeddable_partitions(four_voter, LIMIT):
        via = gpmd_via_partition(four_voter, part, LIMIT)
        assert via.p == base.p  # exact rational equality


@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_partition_independence_random(n, m, seed):
    profile = generate_complete(n, m, seed)
    base = gpmd(profile, LIMIT)
    for part in enumerate_embeddable_partitions(profile, LIMIT, budget=16):
        via = gpmd_via_partition(profile, part, LIMIT)
        assert via.linf_distance(base) <= 1e-12


def test_block_pm_distribution_rejects_non_embeddable(paradox):
    with pytest.raises(BlockNotEmbeddableError):
        block_pm_distribution(paradox, (0, 1, 2), LIMIT)


def test_identical_block_finite_policy_is_exact():
    same = complete_profile(["a", "b", "c"], [["a", "b", "c"]] * 4)
    eps = EpsilonPolicy.finite(Fraction(1, 4))
    pooled = block_pm_distribution(same, (0, 1, 2, 3), eps)
    assert pooled.p == (Fraction(9, 13), Fraction(3, 13), Fraction(1, 13))
    assert partition_discrepancy(same, Partition(((0, 1, 2, 3),)), eps) == 0.0


def test_partition_discrepancy_reports_finite_eps_gap():
    # two distinct-but-compatible voters: pooled tally embeds, yet the pooled
    # distribution need not equal the member average at finite epsilon
    profile = complete_profile(
        ["a", "b", "c"],
        [["a", "b", "c"], ["a", "c", "b"], ["a", "b", "c"], ["a", "c", "b"]],
    )
    eps = EpsilonPolicy.finite(Fraction(1, 100))
    merged = None
    for part in enumerate_embeddable_partitions(profile, eps, budget=32):
        if any(len(b) > 1 for b in part.blocks):
            merged = part
            break
    if merged is None:
        pytest.skip("no mixed embeddable block under this policy")
    gap = partition_discrepancy(profile, merged, eps)
    assert gap >= 0.0  # surfaced, not assumed zero


def test_mixed_finite_block_pools_exact_bt_odds():
    # reversed rankings pool to 1/2 on every pair: odds 1 : 1 : 1, so the
    # pooled block is uniform, exactly, while the member average is not
    profile = complete_profile(["a", "b", "c"], [["a", "b", "c"], ["c", "b", "a"]])
    eps = EpsilonPolicy.finite(Fraction(1, 100))
    assert block_pm_distribution(profile, (0, 1), eps).p == (Fraction(1, 3),) * 3
    assert gpmd(profile, eps).p == (Fraction(4901, 9901), Fraction(99, 9901), Fraction(4901, 9901))
    merged = Partition(((0, 1),))
    assert gpmd_via_partition(profile, merged, eps).p == (Fraction(1, 3),) * 3
    assert partition_discrepancy(profile, merged, eps) == float(Fraction(9604, 29703))
    parts = enumerate_embeddable_partitions(profile, eps)
    assert [p.blocks for p in parts] == [((0,), (1,)), ((0, 1),)]


def test_mixed_finite_block_rejects_inconsistent_odds(paradox):
    eps = EpsilonPolicy.finite(Fraction(1, 100))
    with pytest.raises(BlockNotEmbeddableError, match="not BT-consistent"):
        block_pm_distribution(paradox, (0, 1, 2), eps)


# -------------------------------------------------------------------- pipeline

def test_pipeline_round_trip(four_voter):
    target = gpmd(four_voter, EpsilonPolicy.finite(Fraction(1, 1000)))
    fitted = solve_mle(weights_gpm(target))
    assert fitted.converged
    assert softmax(fitted).linf_distance(target) <= 1e-9


def test_pipeline_limit_policy_rejects_zero_shares():
    from prefaxiom import ZeroProbabilityError

    # y3 never ranked first: the limit target has a zero entry
    profile = complete_profile(
        ["a", "b", "c"], [["a", "b", "c"], ["b", "a", "c"]]
    )
    with pytest.raises(ZeroProbabilityError):
        make_rule("mle-gpm", RuleKind.PROBABILISTIC, epsilon_policy=LIMIT)(profile)


def test_pipeline_round_trip_wide_reward_range():
    # 40 candidates at epsilon 1/1000: log-targets span hundreds of units
    target = gpmd(generate_complete(40, 10, 1), EpsilonPolicy.finite(Fraction(1, 1000)))
    fitted = solve_mle(weights_gpm(target))
    assert fitted.converged
    assert softmax(fitted).linf_distance(target) <= 1e-9


@given(st.integers(2, 6), st.integers(1, 9), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_pipeline_round_trip_random(n, m, seed):
    profile = generate_complete(n, m, seed)
    policy = EpsilonPolicy.finite(Fraction(1, 1000))
    recovered = make_rule("mle-gpm", RuleKind.PROBABILISTIC, epsilon_policy=policy)(profile)
    assert recovered.linf_distance(gpmd(profile, policy)) <= 1e-6


@pytest.mark.parametrize("block", [(0,), (0, 1)])
@pytest.mark.parametrize("policy", [EpsilonPolicy.finite(Fraction(1, 10)), LIMIT], ids=["finite", "limit"])
def test_block_pm_distribution_needs_full_rankings(block, policy):
    # the pooled tally of the two comparison voters is 1/2 on every pair:
    # interior and BT-consistent, yet no matching distribution is defined
    profile = generalized_profile(
        ["a", "b", "c"],
        {"v1": [("a", "b"), ("b", "c"), ("a", "c")], "v2": [("b", "a"), ("c", "b"), ("c", "a")]},
    )
    with pytest.raises(NotCompleteProfileError):
        block_pm_distribution(profile, block, policy)
    with pytest.raises(NotCompleteProfileError):
        block_embeddable(profile, block, policy)
