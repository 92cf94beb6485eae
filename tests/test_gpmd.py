"""Geometric matching distributions, group averages, linearity, pipeline."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gpmd_by_blocks, relabel
from prefaxiom import (
    EpsilonPolicy,
    ExhaustiveComplete,
    NotCompleteProfileError,
    ResponseDistribution,
    RuleKind,
    bt_odds,
    complete_profile,
    counterexample_search,
    first_place_shares,
    generalized_profile,
    generate_complete,
    gpmd,
    iter_profiles,
    make_rule,
    softmax,
    solve_mle,
    tally,
    weights_gpm,
)

LIMIT = EpsilonPolicy.limit()


# -------------------------------------------------------------- distributions

@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ResponseDistribution((1,)), "distribution needs at least two candidates"),
        (lambda: ResponseDistribution((0.5, 0.4)), "probabilities must sum to 1, got 0.9"),
        (
            lambda: ResponseDistribution((0.5, 0.5)).linf_distance(ResponseDistribution((0.25,) * 4)),
            "distributions differ in length",
        ),
    ],
)
def test_distribution_refuses_short_or_unnormalised_entries_and_mixed_lengths(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
    mapped = gpmd(relabel(profile, pi), LIMIT)
    for i in range(n):
        assert mapped.p[pi[i]] == base.p[i]


# ------------------------------------------------- linearity and the pm conflict

def _set_partitions(m: int) -> set[tuple[tuple[int, ...], ...]]:
    """Every split of voters 0..m-1 into non-empty blocks, each listed once."""
    found = set()
    for labels in itertools.product(range(m), repeat=m):
        blocks = {}
        for k, b in enumerate(labels):
            blocks.setdefault(b, []).append(k)
        found.add(tuple(sorted(tuple(b) for b in blocks.values())))
    return found


def _pm_target(profile) -> tuple[Fraction, ...] | None:
    """Preference matching's required output: the tally's BT odds, normalized."""
    odds = bt_odds(tally(profile))
    return None if odds is None else tuple(x / sum(odds) for x in odds)


def test_partition_independence_exact(four_voter):
    # the 15 splits of four voters: gpmd is linear in the voters, exactly
    partitions = _set_partitions(four_voter.m)
    assert len(partitions) == 15
    for policy in (LIMIT, EpsilonPolicy.finite(Fraction(1, 100))):
        base = gpmd(four_voter, policy).p
        for blocks in partitions:
            assert gpmd_by_blocks(four_voter, blocks, policy) == base


@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10**6), st.integers(0, 10**6), EPSILONS)
@settings(max_examples=30, deadline=None)
def test_partition_independence_random(n, m, seed, split_seed, eps):
    profile = generate_complete(n, m, seed)
    rng = random.Random(split_seed)
    labels = [rng.randrange(m) for _ in range(m)]
    blocks = [[k for k in range(m) if labels[k] == b] for b in set(labels)]
    for policy in (LIMIT, EpsilonPolicy.finite(eps)):
        assert gpmd_by_blocks(profile, blocks, policy) == gpmd(profile, policy).p


def test_identical_block_finite_policy_is_exact():
    same = complete_profile(["a", "b", "c"], [["a", "b", "c"]] * 4)
    eps = EpsilonPolicy.finite(Fraction(1, 4))
    assert gpmd(same, eps).p == (Fraction(9, 13), Fraction(3, 13), Fraction(1, 13))


def test_mixed_finite_block_pools_exact_bt_odds():
    # reversed rankings pool to 1/2 on every pair: odds 1 : 1 : 1, so
    # preference matching requires the uniform distribution, exactly, while
    # gpm requires the member average
    profile = complete_profile(["a", "b", "c"], [["a", "b", "c"], ["c", "b", "a"]])
    eps = EpsilonPolicy.finite(Fraction(1, 100))
    pm = _pm_target(profile)
    assert pm == (Fraction(1, 3),) * 3
    group = gpmd(profile, eps).p
    assert group == (Fraction(4901, 9901), Fraction(99, 9901), Fraction(4901, 9901))
    assert max(abs(x - y) for x, y in zip(pm, group)) == Fraction(9604, 29703)


def test_preference_matching_and_gpm_conflict_wherever_both_apply():
    # gpm's premise holds on every complete profile, so both axioms apply
    # exactly where the BT odds exist; their required outputs never agree
    finite = EpsilonPolicy.finite(Fraction(1, 100))
    both = []
    for idx, profile in enumerate(iter_profiles(ExhaustiveComplete(3, 4))):
        pm = _pm_target(profile)
        if pm is None:
            continue
        both.append(idx)
        assert pm != gpmd(profile, LIMIT).p and pm != gpmd(profile, finite).p, idx
    assert len(both) == 378 and both[0] == 11


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
