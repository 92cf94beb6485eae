"""Borda, Copeland, winner detectors, score-based rankings."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefaxiom import (
    NotCompleteProfileError,
    TiePolicy,
    apply_permutation,
    borda_scores,
    condorcet_winner,
    copeland_scores,
    first_place_shares,
    generate_complete,
    majority_winner,
    generalized_profile,
    pm_consistent_ranking,
    ranking_from_scores,
    tally,
)


def test_paradox_scores_all_tie(paradox):
    t = tally(paradox)
    assert borda_scores(t) == (Fraction(1), Fraction(1), Fraction(1))
    assert copeland_scores(t) == (Fraction(1), Fraction(1), Fraction(1))


def test_four_voter_scores(four_voter):
    t = tally(four_voter)
    assert borda_scores(t) == (Fraction(5, 4), Fraction(1), Fraction(3, 4))
    # y1 beats y2, ties y3; y2 beats y3; y3 ties y1
    assert copeland_scores(t, TiePolicy.HALF_POINT) == (
        Fraction(3, 2),
        Fraction(1),
        Fraction(1, 2),
    )
    assert copeland_scores(t, TiePolicy.STRICT_ONLY) == (
        Fraction(1),
        Fraction(1),
        Fraction(0),
    )


@given(st.integers(2, 6), st.integers(1, 9), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_score_sums_equal_pair_count(n, m, seed):
    t = tally(generate_complete(n, m, seed))
    pairs = Fraction(n * (n - 1), 2)
    assert sum(borda_scores(t)) == pairs
    assert sum(copeland_scores(t, TiePolicy.HALF_POINT)) == pairs


@given(st.integers(2, 5), st.integers(1, 7), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_scores_are_permutation_equivariant(n, m, seed, pseed):
    profile = generate_complete(n, m, seed)
    pi = list(range(n))
    random.Random(pseed).shuffle(pi)
    t = tally(profile)
    tp = tally(apply_permutation(profile, tuple(pi)))
    for fn in (borda_scores, copeland_scores):
        base = fn(t)
        mapped = fn(tp)
        for i in range(n):
            assert mapped[pi[i]] == base[i]


def test_condorcet_winner_detection(paradox, four_voter):
    assert condorcet_winner(tally(paradox)) is None
    assert condorcet_winner(tally(four_voter)) is None  # y1 only ties y3
    unanimous = generate_complete(3, 1, 0)
    assert condorcet_winner(tally(unanimous)) == unanimous.voters[0].ranking.top()


@given(st.integers(3, 6), st.integers(1, 9), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_condorcet_winner_has_max_copeland_score(n, m, seed):
    t = tally(generate_complete(n, m, seed))
    w = condorcet_winner(t)
    if w is None:
        return
    scores = copeland_scores(t, TiePolicy.HALF_POINT)
    assert scores[w] == n - 1
    assert all(scores[i] < n - 1 for i in range(n) if i != w)


def test_majority_winner_requires_complete_profile():
    p = generalized_profile(["a", "b"], {"v1": [("a", "b")]})
    with pytest.raises(NotCompleteProfileError):
        majority_winner(p)


def test_first_place_counts_are_counted_once(four_voter):
    counts = four_voter.first_place_counts
    assert counts == (2, 1, 1)
    assert four_voter.first_place_counts is counts
    assert first_place_shares(four_voter).p == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    with pytest.raises(NotCompleteProfileError):
        generalized_profile(["a", "b"], {"v1": [("a", "b")]}).first_place_counts


def test_majority_winner_strict_majority(four_voter, paradox):
    # 2 of 4 first places is not a strict majority
    assert majority_winner(four_voter) is None
    assert majority_winner(paradox) is None
    from prefaxiom import complete_profile

    p = complete_profile(
        ["a", "b", "c"],
        [["a", "b", "c"], ["a", "c", "b"], ["b", "a", "c"]],
    )
    assert majority_winner(p) == 0


def test_pm_consistent_ranking(paradox):
    assert pm_consistent_ranking(tally(paradox)) is None
    # transitive unanimous profile: the ranking is the voter's own order
    p = generate_complete(4, 1, 5)
    r = pm_consistent_ranking(tally(p))
    assert r is not None and r.order == p.voters[0].ranking.order


@given(st.integers(3, 5), st.integers(1, 7), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_pm_ranking_matches_copeland_when_it_exists(n, m, seed):
    t = tally(generate_complete(n, m, seed))
    r = pm_consistent_ranking(t)
    if r is None:
        return
    assert ranking_from_scores(copeland_scores(t, TiePolicy.HALF_POINT)).order == r.order


def test_ranking_from_scores_tie_handling():
    sv = (Fraction(1), Fraction(2), Fraction(1))
    grouped = ranking_from_scores(sv)
    assert grouped.classes() == ((1,), (0, 2))


def test_first_place_shares(four_voter):
    assert first_place_shares(four_voter).p == (
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 4),
    )
    p = generalized_profile(["a", "b"], {"v1": [("a", "b")]})
    with pytest.raises(NotCompleteProfileError):
        first_place_shares(p)


def test_copeland_sum_not_conserved_under_strict_only():
    # strict-only tie policy drops half-points, so ties shrink the total
    profile = generate_complete(3, 2, 11)
    t = tally(profile)
    total = sum(copeland_scores(t, TiePolicy.STRICT_ONLY))
    assert total <= Fraction(3)


def test_exhaustive_small_space_score_ranges():
    from prefaxiom import complete_profile, default_labels

    perms = list(itertools.permutations(range(3)))
    for combo in itertools.product(perms, repeat=2):
        profile = complete_profile(
            default_labels(3), [[f"y{i+1}" for i in p] for p in combo]
        )
        t = tally(profile)
        for v in copeland_scores(t, TiePolicy.HALF_POINT):
            assert 0 <= v <= 2 and v.denominator in (1, 2)
        for v in borda_scores(t):
            assert 0 <= v <= 2
