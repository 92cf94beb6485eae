"""Profiles, tallies, majority relations, generators, serialization."""
from __future__ import annotations

import hashlib
import itertools
import json
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closure, relabel
from prefaxiom import (
    CandidateSet,
    Comparison,
    DimensionMismatchError,
    EpsilonPolicy,
    NotCompleteProfileError,
    PairwiseTally,
    PreferenceProfile,
    Ranking,
    SchemaError,
    TiesNotAllowedError,
    UndefinedPairError,
    Voter,
    axiom_premise,
    complete_profile,
    default_labels,
    generalized_profile,
    generate_assumption1,
    generate_complete,
    gpmd,
    has_condorcet_cycle,
    is_transitive,
    majority_relation,
    majority_winner,
    parse_profile,
    pm_consistent_ranking,
    profile_from_pairs,
    profiles_equal_as_multisets,
    serialize_profile,
    tally,
)


# ---------------------------------------------------------------- construction

def test_candidate_set_rejects_duplicates_and_small_n():
    with pytest.raises(ValueError):
        CandidateSet(("a", "a"))
    with pytest.raises(ValueError):
        CandidateSet(("a",))


def test_candidate_set_index_reads_positions():
    cset = CandidateSet(("c", "a", "b"))
    assert [cset.index(x) for x in ("a", "b", "c")] == [1, 2, 0]
    assert cset == CandidateSet(("c", "a", "b")) and hash(cset) == hash(CandidateSet(("c", "a", "b")))
    with pytest.raises(ValueError, match="unknown candidate label 'z'"):
        cset.index("z")
    with pytest.raises(ValueError, match="unknown candidate label 'z'"):
        complete_profile(["a", "b"], [["a", "z"]])


def test_comparison_rejects_self_pair():
    with pytest.raises(ValueError):
        Comparison(1, 1)


def test_ranking_must_be_permutation():
    with pytest.raises(ValueError):
        Ranking((0, 0, 1))
    with pytest.raises(ValueError):
        Ranking((0, 2))  # skips index 1


def test_ranking_ties_must_be_contiguous():
    # classes must partition the order without reordering it
    with pytest.raises(ValueError):
        Ranking((0, 1, 2), ((0, 2), (1,)))
    r = Ranking((0, 1, 2), ((0, 1), (2,)))
    assert r.classes() == ((0, 1), (2,))
    assert not r.is_strict
    # all-singleton tie structure normalizes away
    assert Ranking((1, 0, 2), ((1,), (0,), (2,))).ties is None


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: PreferenceProfile(CandidateSet(("a", "b", "c")), (Voter("v1", ranking=Ranking((0, 1))),)),
            DimensionMismatchError,
            "voter 'v1' ranks 2 candidates, profile has 3",
        ),
        (
            lambda: PreferenceProfile(CandidateSet(("a", "b")), (Voter("v1", comparisons=(Comparison(2, 0),)),)),
            DimensionMismatchError,
            "voter 'v1' compares candidate index out of range",
        ),
        (lambda: Comparison(-1, 0), ValueError, "candidate indices must be nonnegative"),
        (lambda: Ranking((0, 1), ((0, 1), ())), ValueError, "tie classes must be non-empty"),
    ],
)
def test_construction_refuses_out_of_range_indices_and_empty_tie_classes(build, error, message):
    with pytest.raises(error, match=message):
        build()


@st.composite
def tied_rankings(draw):
    """Strict rankings and rankings cut into tie classes at random places."""
    n = draw(st.integers(1, 8))
    order = tuple(draw(st.permutations(range(n))))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
    ties = tuple(order[a:b] for a, b in zip([0, *cuts], [*cuts, n]))
    return Ranking(order, draw(st.sampled_from([None, ties])))


@given(tied_rankings())
@settings(max_examples=150, deadline=None)
def test_strictly_above_matches_a_scan_of_the_classes(ranking):
    def scanned_class(i):
        return next(k for k, cls in enumerate(ranking.classes()) if i in cls)

    for i, j in itertools.product(range(ranking.n), repeat=2):
        assert ranking.class_index(i) == scanned_class(i)
        assert ranking.strictly_above(i, j) == (scanned_class(i) < scanned_class(j))
    with pytest.raises(ValueError, match="not in ranking"):
        ranking.class_index(ranking.n)


def test_voter_requires_exactly_one_payload():
    with pytest.raises(ValueError):
        Voter("v1", ranking=None, comparisons=None)
    with pytest.raises(ValueError):
        Voter("v1", ranking=Ranking((0, 1)), comparisons=(Comparison(0, 1),))


def test_complete_profile_rejects_tied_ranking():
    cs = CandidateSet(("a", "b", "c"))
    tied = Ranking((0, 1, 2), ((0, 1), (2,)))
    with pytest.raises(TiesNotAllowedError):
        PreferenceProfile(cs, (Voter("v1", ranking=tied),))


def test_generalized_profile_rejects_duplicate_pair_per_voter():
    with pytest.raises(ValueError):
        generalized_profile(["a", "b"], {"v1": [("a", "b"), ("b", "a")]})


def test_profile_rejects_duplicate_voter_ids():
    cs = CandidateSet(("a", "b"))
    v = Voter("v1", ranking=Ranking((0, 1)))
    with pytest.raises(ValueError):
        PreferenceProfile(cs, (v, v))


def test_same_pair_from_two_voters_is_allowed():
    p = generalized_profile(["a", "b"], {"v1": [("a", "b")], "v2": [("a", "b")]})
    assert tally(p).wins[0][1] == 2


# --------------------------------------------------------------------- tallies

def test_paradox_props(paradox):
    t = tally(paradox)
    assert t.prop(0, 1) == Fraction(2, 3)
    assert t.prop(1, 2) == Fraction(2, 3)
    assert t.prop(2, 0) == Fraction(2, 3)
    assert t.prop(1, 0) == Fraction(1, 3)


def test_four_voter_props(four_voter):
    t = tally(four_voter)
    assert t.prop(0, 1) == Fraction(3, 4)
    assert t.prop(1, 2) == Fraction(3, 4)
    assert t.prop(0, 2) == Fraction(1, 2)


def test_props_undefined_where_no_comparisons():
    p = generalized_profile(["a", "b", "c"], {"v1": [("a", "b")]})
    t = tally(p)
    assert t.prop(0, 1) == 1
    assert t.prop(0, 2) is None
    with pytest.raises(UndefinedPairError, match=r"^pair \(0, 2\) has no comparisons$"):
        t.require_all_pairs()


@given(st.integers(2, 6), st.integers(1, 7), st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_pair_totals_are_scanned_once_and_match_a_naive_scan(n, m, seed, complete):
    import random

    if complete:
        profile = generate_complete(n, m, seed)
    else:
        rng = random.Random(seed)
        pairs = list(itertools.combinations(range(n), 2))
        profile = generalized_profile(
            list(default_labels(n)),
            {
                f"v{k + 1}": [
                    (f"y{i + 1}", f"y{j + 1}") if rng.random() < 0.5 else (f"y{j + 1}", f"y{i + 1}")
                    for i, j in rng.sample(pairs, rng.randint(1, len(pairs)))
                ]
                for k in range(m)
            },
        )
    t = tally(profile)
    # the profile's own tally and one built from the same counts agree
    assert PairwiseTally(t.wins) == t
    totals = {(i, j): t.total(i, j) for i, j in itertools.combinations(range(n), 2)}
    missing = [pair for pair, total in totals.items() if total == 0]
    if missing:
        with pytest.raises(UndefinedPairError, match=re.escape(f"pair {missing[0]} has")):
            t.require_all_pairs()
    else:
        t.require_all_pairs()
    common = set(totals.values())
    assert t.pair_total == (common.pop() if len(common) == 1 and not missing else None)
    if complete:
        assert t.pair_total == m


@given(st.integers(2, 6), st.integers(1, 9), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_conservation_and_complete_totals(n, m, seed):
    profile = generate_complete(n, m, seed)
    t = tally(profile)
    for i in range(n):
        assert t.wins[i][i] == 0
        touching = sum(t.wins[i][j] + t.wins[j][i] for j in range(n) if j != i)
        assert touching == m * (n - 1)  # each voter compares y_i with every rival once
        for j in range(n):
            if i != j:
                assert t.total(i, j) == m
                assert t.prop(i, j) + t.prop(j, i) == 1


@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_tally_permutation_equivariance(n, m, seed, pseed):
    import random

    profile = generate_complete(n, m, seed)
    pi = list(range(n))
    random.Random(pseed).shuffle(pi)
    t = tally(profile)
    tp = tally(relabel(profile, pi))
    for i in range(n):
        for j in range(n):
            if i != j:
                assert tp.wins[pi[i]][pi[j]] == t.wins[i][j]


def naive_wins(profile: PreferenceProfile) -> tuple[tuple[int, ...], ...]:
    """One += 1 per voter per judged pair: the count the packed tally must equal."""
    n = profile.n
    wins = [[0] * n for _ in range(n)]
    for v in profile.voters:
        if v.ranking is not None:
            order = v.ranking.order
            judged = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)]
        else:
            judged = [(c.winner, c.loser) for c in v.comparisons]
        for winner, loser in judged:
            wins[winner][loser] += 1
    return tuple(tuple(row) for row in wins)


@st.composite
def mixed_profiles(draw):
    """Voters that each give a full ranking or a random set of comparisons."""
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    voters = []
    for k in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            voters.append(Voter(f"v{k + 1}", ranking=Ranking(tuple(draw(st.permutations(range(n)))))))
        else:
            judged = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
            flips = draw(st.lists(st.booleans(), min_size=len(judged), max_size=len(judged)))
            comps = tuple(Comparison(j, i) if f else Comparison(i, j) for (i, j), f in zip(judged, flips))
            voters.append(Voter(f"v{k + 1}", comparisons=comps))
    return PreferenceProfile(CandidateSet(default_labels(n)), tuple(voters))


@given(st.integers(2, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_packed_tally_matches_a_naive_count_on_complete_profiles(n, data):
    labels = default_labels(n)
    orders = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=12))
    profile = complete_profile(labels, [[labels[i] for i in order] for order in orders])
    assert tally(profile).wins == naive_wins(profile)


@given(st.integers(2, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_packed_tally_matches_a_naive_count_on_comparison_voters(n, data):
    labels = default_labels(n)
    pairs = list(itertools.combinations(labels, 2))
    by_voter = {}
    for k in range(data.draw(st.integers(1, 8))):
        judged = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        by_voter[f"v{k + 1}"] = [(b, a) if data.draw(st.booleans()) else (a, b) for a, b in judged]
    profile = generalized_profile(labels, by_voter)
    assert tally(profile).wins == naive_wins(profile)
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    tournament = profile_from_pairs(
        n, [(j, i) if f else (i, j) for (i, j), f in zip(itertools.combinations(range(n), 2), flips)]
    )
    assert tally(tournament).wins == naive_wins(tournament)


@given(mixed_profiles(), st.data())
@settings(max_examples=60, deadline=None)
def test_tally_is_anonymous(profile, data):
    # voters are counted, never told apart: any order of them gives the same wins
    seats = data.draw(st.permutations(range(profile.m)))
    shuffled = PreferenceProfile(profile.candidates, tuple(profile.voters[k] for k in seats))
    assert tally(shuffled).wins == tally(profile).wins == naive_wins(profile)


def test_packed_tally_on_the_smallest_profiles():
    assert tally(complete_profile(["a", "b"], [["b", "a"]])).wins == ((0, 0), (1, 0))
    assert tally(generalized_profile(["a", "b"], {"v1": [("a", "b")]})).wins == ((0, 1), (0, 0))


@pytest.mark.parametrize("m", [255, 256, 257])
@pytest.mark.parametrize("n", [2, 9])
def test_packed_tally_on_both_sides_of_the_field_width_step(n, m):
    # m = 255 packs one byte per field, m >= 256 two; the top candidate of
    # the unanimous voters wins one pair in every ballot, a field of exactly m
    unanimous = complete_profile(default_labels(n), [default_labels(n)] * m)
    assert tally(unanimous).wins[0][1:] == (m,) * (n - 1)
    assert tally(unanimous).wins == naive_wins(unanimous)
    profile = generate_complete(n, m, m)
    assert tally(profile).wins == naive_wins(profile)
    mixed = PreferenceProfile(
        profile.candidates,
        profile.voters[:-1] + (Voter("c", comparisons=(Comparison(n - 1, 0),)),),
    )
    assert tally(mixed).wins == naive_wins(mixed)


# ----------------------------------------------------------- majority relation

def test_majority_relation_paradox_is_cyclic(paradox):
    tally(paradox).require_all_pairs()
    assert pm_consistent_ranking(tally(paradox)) is None
    cyclic, witness = has_condorcet_cycle(tally(paradox))
    assert cyclic
    # witness is a directed majority cycle
    k = len(witness)
    t = tally(paradox)
    for a in range(k):
        i, j = witness[a], witness[(a + 1) % k]
        assert t.prop(i, j) > Fraction(1, 2)


@given(st.lists(st.integers(0, 4), min_size=6, max_size=6))
@settings(max_examples=80, deadline=None)
def test_majority_relation_matches_exact_proportions(counts):
    # integer win comparisons must agree with P(i over j) against 1/2
    t = PairwiseTally(((0, counts[0], counts[1]), (counts[2], 0, counts[3]), (counts[4], counts[5], 0)))
    uncompared = [(i, j) for i, j in itertools.combinations(range(3), 2) if t.prop(i, j) is None]
    if uncompared:
        with pytest.raises(UndefinedPairError, match=re.escape(f"pair {uncompared[0]} has")):
            majority_relation(t)
        return
    rel = majority_relation(t)
    half = Fraction(1, 2)
    for i in range(3):
        for j in range(3):
            p = half if i == j else t.prop(i, j)
            assert rel[i][j] == (1 if p > half else -1 if p < half else 0)


def test_majority_relation_tie_is_policy_independent(four_voter):
    # the relation takes no tie policy: an exact half-split is always a tie
    rel = majority_relation(tally(four_voter))
    assert any(rel[i][j] == 0 for i, j in itertools.permutations(range(3), 2))
    assert pm_consistent_ranking(tally(four_voter)) is None


def test_no_cycle_when_linear_order_exhaustive():
    # every profile with a strict-linear-order majority relation is acyclic
    for n in (2, 3, 4):
        perms = list(itertools.permutations(range(n)))
        for m in (1, 2, 3):
            if n == 4 and m == 3:
                # full space is 24^3; a deterministic stratified slice keeps
                # runtime sane while still crossing all first-voter types
                combos = itertools.islice(itertools.product(perms, repeat=m), 0, None, 7)
            else:
                combos = itertools.product(perms, repeat=m)
            for rankings in combos:
                profile = complete_profile(
                    default_labels(n), [[f"y{i+1}" for i in perm] for perm in rankings]
                )
                if pm_consistent_ranking(tally(profile)) is not None:
                    assert not has_condorcet_cycle(tally(profile))[0]


def test_single_transitive_voter_never_cycles():
    for n in (3, 4, 5):
        for seed in range(20):
            profile = generate_complete(n, 1, seed)
            assert pm_consistent_ranking(tally(profile)) is not None
            assert not has_condorcet_cycle(tally(profile))[0]


def test_condorcet_cycle_needs_every_pair_compared():
    # pair (0, 2) was never compared
    t = PairwiseTally(((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    with pytest.raises(UndefinedPairError, match=r"pair \(0, 2\) has no comparisons"):
        has_condorcet_cycle(t)


@st.composite
def small_tallies(draw):
    """2-6 candidates, 0-2 wins each way per pair: uncompared pairs and ties included.

    Half the draws put each pair's larger count on the candidate a random
    order ranks higher, so strict linear majorities are common too.
    """
    n = draw(st.integers(2, 6))
    rank = draw(st.permutations(range(n)))
    oriented = draw(st.booleans())
    wins = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        x, y = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        if oriented:
            hi, lo = (i, j) if rank.index(i) < rank.index(j) else (j, i)
            wins[hi][lo], wins[lo][hi] = max(x, y), min(x, y)
        else:
            wins[i][j], wins[j][i] = x, y
    return PairwiseTally(tuple(tuple(row) for row in wins))


@given(small_tallies())
@settings(max_examples=200, deadline=None)
def test_strict_linear_order_matches_the_three_part_test(t):
    n = t.n
    pairs = list(itertools.combinations(range(n), 2))
    compared = all(t.total(i, j) > 0 for i, j in pairs)
    untied = all(t.wins[i][j] != t.wins[j][i] for i, j in pairs)
    wins = [sum(t.wins[i][j] > t.wins[j][i] for j in range(n)) for i in range(n)]
    if not compared:
        with pytest.raises(UndefinedPairError):
            pm_consistent_ranking(t)
        return
    want = untied and sorted(wins) == list(range(n))
    assert (pm_consistent_ranking(t) is not None) is want


def test_is_transitive():
    cyc = (Comparison(0, 1), Comparison(1, 2), Comparison(2, 0))
    chain = (Comparison(0, 1), Comparison(1, 2))
    assert not is_transitive(cyc)
    assert is_transitive(chain)


@given(
    st.integers(2, 7).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=2 * n,
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_is_transitive_matches_the_closure(edges):
    comparisons = [Comparison(a, b) for a, b in edges]
    n = 1 + max(max(e) for e in edges)
    reach = closure(n, lambda i, j: (i, j) in edges)
    cyclic = any(reach[i][j] and reach[j][i] for i in range(n) for j in range(n) if i != j)
    assert is_transitive(comparisons) is not cyclic
    assert is_transitive(iter(comparisons)) is not cyclic


# ------------------------------------------------------------------ generators

def test_generate_complete_deterministic():
    a = generate_complete(4, 5, 123)
    b = generate_complete(4, 5, 123)
    assert Counter(a.orders) == Counter(b.orders)
    assert serialize_profile(a) == serialize_profile(b)
    c = generate_complete(4, 5, 124)
    assert serialize_profile(a) != serialize_profile(c)


# sha256 of the voter ids and orders of the first 8 profiles of the stream
# generate_complete(n, m, seed * 1000003 + t), as RandomComplete draws them;
# computed before voters were shared between profiles
PINNED_STREAMS = {
    (3, 3, 0): "a84d2cf49a7d0a6a50505dcf1201d91d6f0b15930689459b702e07a9a0438b44",
    (4, 5, 1): "33d643b45b453094d48e2689c59458997fc061d281198bf73607c5db242f13de",
    (4, 5, 31000095): "9f133a5a6fa9f05e332fd02ee66fa4a285030a35725ecf17503e8677bc7e6004",
    (10, 3, 12345): "52227474a350bb93771af2a5cacd8c3a945cb4f495c07391e33aad7e8ae5da09",
}


@pytest.mark.parametrize("n,m,seed", list(PINNED_STREAMS))
def test_generate_complete_stream_is_pinned(n, m, seed):
    import hashlib

    h = hashlib.sha256()
    for t in range(8):
        profile = generate_complete(n, m, seed * 1_000_003 + t)
        h.update(repr([(v.id, v.ranking.order) for v in profile.voters]).encode())
    assert h.hexdigest() == PINNED_STREAMS[n, m, seed]


def test_generate_complete_shares_voters_and_candidates():
    a = generate_complete(4, 5, 123)
    b = generate_complete(4, 5, 123)
    assert a == b
    assert a.candidates is b.candidates
    assert all(x is y for x, y in zip(a.voters, b.voters))


def test_generate_complete_is_roughly_uniform():
    counts = Counter()
    for seed in range(2000):
        profile = generate_complete(3, 3, seed)
        for voter in profile.voters:
            counts[voter.ranking.order] += 1
    assert len(counts) == 6
    for perm, c in counts.items():
        assert abs(c - 1000) < 150, (perm, c)


@pytest.mark.parametrize("count", [1.5, 2.0, Fraction(3, 2)], ids=repr)
def test_tally_refuses_non_integer_counts(count):
    with pytest.raises(ValueError, match="win counts must be integers"):
        PairwiseTally(((0, count), (1, 0)))


def test_generate_assumption1_one_voter_per_pair():
    profile = generate_assumption1(4, seed=9)
    with pytest.raises(NotCompleteProfileError):
        profile.orders
    assert profile.m == 6
    t = tally(profile)
    for i in range(4):
        for j in range(i + 1, 4):
            assert t.total(i, j) == 1


# sha256 of the candidates, voter ids and judgments of generate_assumption1(n, seed)
# for seeds 0-199, computed when each comparison still carried its voter's id
PINNED_TOURNAMENT_STREAMS = {
    2: "7f8f922554a4097768c7d7aedb6d8c41ae48689dca7eea17358ddddcd23be2c2",
    3: "b10a83a3dee7ffdc56849e8552564d95545f45dab1fdde13c9e5428efe3cf935",
    4: "f11b671ad7cafcce138da27bd61c7ba0d1ae73c26ed97ee4369a84273dde7862",
    5: "c4d19decaae2e48b3d51ab25f9706bbec2fafa9ab60045b312af52f2912745b4",
    6: "fb129e4af077fc9aab9aa16614ad204509502fb07102bd3267dddddb67cbf57f",
}


@pytest.mark.parametrize("n", list(PINNED_TOURNAMENT_STREAMS))
def test_generate_assumption1_stream_is_pinned(n):
    h = hashlib.sha256()
    for seed in range(200):
        p = generate_assumption1(n, seed)
        judgments = [(v.id, [(c.winner, c.loser) for c in v.comparisons]) for v in p.voters]
        h.update(repr((p.candidates.names, judgments)).encode())
    assert h.hexdigest() == PINNED_TOURNAMENT_STREAMS[n]


def test_generate_assumption1_covers_many_orientations():
    codes = set()
    for seed in range(200):
        t = tally(generate_assumption1(4, seed=seed))
        code = 0
        for bit, (i, j) in enumerate(itertools.combinations(range(4), 2)):
            if t.wins[i][j]:
                code |= 1 << bit
        codes.add(code)
    assert len(codes) > 40  # out of 64 possible tournaments


def test_profile_from_pairs():
    profile = profile_from_pairs(3, [(0, 1), (2, 1), (2, 0)])
    t = tally(profile)
    assert t.prop(0, 1) == 1 and t.prop(1, 2) == 0 and t.prop(0, 2) == 0
    with pytest.raises(ValueError):
        profile_from_pairs(3, [(0, 1), (1, 0), (2, 0)])  # pair (0,1) twice


# ----------------------------------------------------------- full-rankings gate

@given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_orders_lists_each_voters_ranking_once(n, m, seed):
    profile = generate_complete(n, m, seed)
    assert profile.orders == tuple(v.ranking.order for v in profile.voters)
    assert profile.orders is profile.orders


MIXED = PreferenceProfile(
    CandidateSet(("a", "b", "c")),
    (
        Voter("r1", ranking=Ranking((0, 1, 2))),
        Voter("r2", ranking=Ranking((1, 0, 2))),
        Voter("c1", comparisons=(Comparison(2, 0),)),
    ),
)
FINITE = EpsilonPolicy.finite(Fraction(1, 10))
LIMIT = EpsilonPolicy.limit()
NAMES_C1 = "needs full rankings; voter 'c1' gives comparisons"


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda p: p.first_place_counts, id="first-place-counts"),
        pytest.param(majority_winner, id="majority-winner"),
        pytest.param(lambda p: gpmd(p, FINITE), id="gpmd-finite"),
        pytest.param(lambda p: gpmd(p, LIMIT), id="gpmd-limit"),
        pytest.param(lambda p: axiom_premise("preference-equivalence", p), id="premise-pe"),
        pytest.param(lambda p: axiom_premise("gpm", p), id="premise-gpm"),
    ],
)
def test_full_rankings_gate_names_the_comparison_voter(call):
    with pytest.raises(NotCompleteProfileError, match=re.escape(NAMES_C1)):
        call(MIXED)


def test_majority_premise_is_vacuous_without_full_rankings():
    assert axiom_premise("majority", MIXED) is None


# --------------------------------------------------------------- serialization

@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_serialize_parse_round_trip(n, m, seed):
    profile = generate_complete(n, m, seed)
    again = parse_profile(serialize_profile(profile))
    assert Counter(again.orders) == Counter(profile.orders)
    assert serialize_profile(again) == serialize_profile(profile)


def test_serialize_mixed_voter_kinds():
    raw = json.dumps(
        {
            "candidates": ["y1", "y2", "y3"],
            "voters": [
                {"id": "v1", "ranking": ["y1", "y2", "y3"]},
                {"id": "v2", "comparisons": [["y2", "y3"], ["y3", "y1"]]},
            ],
        }
    ).encode()
    profile = parse_profile(raw)
    with pytest.raises(NotCompleteProfileError):
        profile.orders
    assert profile.m == 2
    t = tally(profile)
    assert t.wins[1][2] == 2  # ranking contributes y2 > y3 as well


def _one_voter(voter, candidates=("a", "b", "c")):
    return {"candidates": list(candidates), "voters": [voter]}


AB, ABC = ["a", "b"], ["a", "b", "c"]
# (test id, malformed document, the field path or line its SchemaError names);
# the first ten keep the ids they were first listed under
MALFORMED = [
    ("doc0-candidates", {"voters": []}, "candidates", None),
    ("doc1-voters", {"candidates": AB, "voters": []}, "voters", None),
    (
        "doc2-candidates",
        {"candidates": ["a", "a"], "voters": [{"id": "v", "ranking": ["a", "a"]}]},
        "candidates",
        None,
    ),
    ("doc3-voters[0]", _one_voter({"id": "v", "ranking": ["a", "z"]}, AB), "voters[0].ranking", None),
    ("doc4-voters[0]", _one_voter({"id": "v"}, AB), "voters[0]", None),
    (
        "doc5-voters[0]",
        _one_voter({"id": "v", "ranking": AB, "comparisons": [["a", "b"]]}, AB),
        "voters[0]",
        None,
    ),
    (
        "doc6-voters[0].comparisons[1]",
        _one_voter({"id": "v", "comparisons": [["a", "b"], ["b", "a"]]}),
        "voters[0].comparisons[1]",
        None,
    ),
    (
        "doc7-voters[1]",
        {"candidates": AB, "voters": [{"id": "v", "ranking": AB}, {"id": "v", "ranking": ["b", "a"]}]},
        "voters[1].id",
        None,
    ),
    (
        "doc8-candidates",
        {"candidates": ["", "a"], "voters": [{"id": "v", "ranking": ["", "a"]}]},
        "candidates",
        None,
    ),
    ("\xff\xfe{}-line: 1", b"\xff\xfe{}", None, 1),  # not UTF-8
    ("invalid-json", b"{nope", None, 1),
    ("invalid-json-line-4", b'{\n  "candidates": ["a", "b"],\n  "voters": [\n}\n', None, 4),
    ("top-level-list", [], None, None),
    ("top-level-string", "ab", None, None),
    ("unknown-top-level-key", {**_one_voter({"id": "v", "ranking": ABC}), "extra": 1}, None, None),
    ("candidates-string", {"candidates": "ab", "voters": [{"id": "v", "ranking": AB}]}, "candidates", None),
    ("candidates-non-string", {"candidates": ["a", 1], "voters": [{"id": "v", "ranking": AB}]}, "candidates", None),
    ("one-candidate", {"candidates": ["a"], "voters": [{"id": "v", "ranking": ["a"]}]}, "candidates", None),
    ("voters-missing", {"candidates": AB}, "voters", None),
    ("voters-object", {"candidates": AB, "voters": {"v": AB}}, "voters", None),
    ("voter-string", {"candidates": AB, "voters": ["v"]}, "voters[0]", None),
    ("id-missing", _one_voter({"ranking": ABC}), "voters[0].id", None),
    ("id-non-string", _one_voter({"id": 7, "ranking": ABC}), "voters[0].id", None),
    ("id-empty", _one_voter({"id": "", "ranking": ABC}), "voters[0].id", None),
    ("unknown-voter-key", _one_voter({"id": "v", "ranking": ABC, "weight": 2}), "voters[0]", None),
    ("ranking-string", _one_voter({"id": "v", "ranking": "abc"}), "voters[0].ranking", None),
    ("ranking-null", _one_voter({"id": "v", "ranking": None}), "voters[0].ranking", None),
    ("ranking-non-string", _one_voter({"id": "v", "ranking": [0, 1, 2]}), "voters[0].ranking", None),
    ("ranking-repeated-label", _one_voter({"id": "v", "ranking": ["a", "a", "c"]}), "voters[0].ranking", None),
    ("ranking-short", _one_voter({"id": "v", "ranking": AB}), "voters[0].ranking", None),
    ("ranking-long", _one_voter({"id": "v", "ranking": ABC + ["a"]}), "voters[0].ranking", None),
    ("comparisons-string", _one_voter({"id": "v", "comparisons": "ab"}), "voters[0].comparisons", None),
    ("comparisons-null", _one_voter({"id": "v", "comparisons": None}), "voters[0].comparisons", None),
    ("comparisons-empty", _one_voter({"id": "v", "comparisons": []}), "voters[0].comparisons", None),
    ("comparison-string", _one_voter({"id": "v", "comparisons": ["ab"]}), "voters[0].comparisons[0]", None),
    ("comparison-one-label", _one_voter({"id": "v", "comparisons": [["a"]]}), "voters[0].comparisons[0]", None),
    (
        "comparison-non-string",
        _one_voter({"id": "v", "comparisons": [["a", 1]]}),
        "voters[0].comparisons[0]",
        None,
    ),
    (
        "comparison-three-labels",
        _one_voter({"id": "v", "comparisons": [ABC]}),
        "voters[0].comparisons[0]",
        None,
    ),
    (
        "comparison-unknown-label",
        _one_voter({"id": "v", "comparisons": [["a", "b"], ["a", "z"]]}),
        "voters[0].comparisons[1]",
        None,
    ),
    ("self-comparison", _one_voter({"id": "v", "comparisons": [["a", "a"]]}), "voters[0].comparisons[0]", None),
    (
        "duplicate-pair",
        _one_voter({"id": "v", "comparisons": [["a", "b"], ["c", "a"], ["a", "b"]]}),
        "voters[0].comparisons[2]",
        None,
    ),
    (
        "second-voter-short-ranking",
        {"candidates": ABC, "voters": [{"id": "v1", "ranking": ABC}, {"id": "v2", "ranking": ["c", "b"]}]},
        "voters[1].ranking",
        None,
    ),
    (
        "second-voter-self-comparison",
        {
            "candidates": ABC,
            "voters": [{"id": "v1", "ranking": ABC}, {"id": "v2", "comparisons": [["b", "c"], ["c", "c"]]}],
        },
        "voters[1].comparisons[1]",
        None,
    ),
    # json.loads raises neither as a JSONDecodeError
    (
        "integer-literal-too-long",
        b'{"candidates": ' + b"9" * (sys.get_int_max_str_digits() + 1) + b"}",
        None,
        None,
    ),
    ("nested-too-deeply", b"[" * 100_000, None, None),
]


def malformed_bytes(doc) -> bytes:
    return doc if isinstance(doc, bytes) else json.dumps(doc).encode()


@pytest.mark.parametrize(
    "doc, field, line", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_parse_errors_carry_field_paths(doc, field, line):
    with pytest.raises(SchemaError) as exc:
        parse_profile(malformed_bytes(doc))
    assert (exc.value.field, exc.value.line) == (field, line)


def test_parse_rejects_non_json():
    with pytest.raises(SchemaError):
        parse_profile(b"{nope")


# ----------------------------------------------------------------- equivalence

def test_multiset_equality_ignores_voter_order_and_ids(paradox):
    reordered = complete_profile(
        ["y1", "y2", "y3"],
        [["y3", "y1", "y2"], ["y1", "y2", "y3"], ["y2", "y3", "y1"]],
        ids=["a", "b", "c"],
    )
    assert profiles_equal_as_multisets(paradox, reordered)


def test_multiset_equality_detects_difference(paradox, four_voter):
    with pytest.raises(DimensionMismatchError):
        profiles_equal_as_multisets(paradox, four_voter)  # different m
    other = complete_profile(
        ["y1", "y2", "y3"],
        [["y1", "y2", "y3"], ["y2", "y3", "y1"], ["y3", "y2", "y1"]],
    )
    assert not profiles_equal_as_multisets(paradox, other)
