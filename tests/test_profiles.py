"""Profiles, tallies, majority relations, generators, serialization."""
from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefaxiom import (
    CandidateSet,
    Comparison,
    DimensionMismatchError,
    Outcome,
    PairwiseTally,
    PreferenceProfile,
    ProfileKind,
    Ranking,
    SchemaError,
    TiesNotAllowedError,
    UndefinedPairError,
    Voter,
    apply_permutation,
    complete_profile,
    default_labels,
    generalized_profile,
    generate_assumption1,
    generate_complete,
    has_condorcet_cycle,
    is_transitive,
    majority_relation,
    parse_profile,
    profile_from_pairs,
    profiles_equal_as_multisets,
    serialize_profile,
    tally,
    tally_from_props,
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
        Comparison("v1", 1, 1)


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


def test_voter_requires_exactly_one_payload():
    with pytest.raises(ValueError):
        Voter("v1", ranking=None, comparisons=None)
    with pytest.raises(ValueError):
        Voter("v1", ranking=Ranking((0, 1)), comparisons=(Comparison("v1", 0, 1),))


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
    assert not t.defined_on_all_pairs


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
    assert t.defined_on_all_pairs == (not missing)
    if missing:
        with pytest.raises(UndefinedPairError, match=re.escape(f"pair {missing[0]} has")):
            t.require_all_pairs()
    else:
        t.require_all_pairs()
    common = set(totals.values())
    assert t.constant_total == (common.pop() if len(common) == 1 and not missing else None)
    if complete:
        assert t.constant_total == m


def test_tally_from_props_round_trip():
    t = tally_from_props(3, {(0, 1): Fraction(3, 4), (0, 2): Fraction(1, 2), (1, 2): Fraction(2, 3)})
    assert t.prop(0, 1) == Fraction(3, 4)
    assert t.prop(2, 1) == Fraction(1, 3)


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
    tp = tally(apply_permutation(profile, tuple(pi)))
    for i in range(n):
        for j in range(n):
            if i != j:
                assert tp.wins[pi[i]][pi[j]] == t.wins[i][j]


# ----------------------------------------------------------- majority relation

def test_majority_relation_paradox_is_cyclic(paradox):
    rel = majority_relation(tally(paradox))
    assert rel.is_complete
    assert not rel.is_strict_linear_order()
    cyclic, witness = has_condorcet_cycle(rel)
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
    rel = majority_relation(t)
    for i in range(3):
        for j in range(3):
            p = None if i == j else t.prop(i, j)
            want = None if p is None else (
                Outcome.WIN if p > Fraction(1, 2) else Outcome.LOSS if p < Fraction(1, 2) else Outcome.TIE
            )
            assert rel.outcomes[i][j] is want


def test_majority_relation_tie_is_policy_independent(four_voter):
    # the relation takes no tie policy: an exact half-split is always a tie
    rel = majority_relation(tally(four_voter))
    assert rel.has_ties()
    assert not rel.is_strict_linear_order()


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
                rel = majority_relation(tally(profile))
                if rel.is_strict_linear_order():
                    assert not has_condorcet_cycle(rel)[0]


def test_single_transitive_voter_never_cycles():
    for n in (3, 4, 5):
        for seed in range(20):
            profile = generate_complete(n, 1, seed)
            rel = majority_relation(tally(profile))
            assert rel.is_strict_linear_order()
            assert not has_condorcet_cycle(rel)[0]


def test_is_transitive():
    cyc = (Comparison("v", 0, 1), Comparison("v", 1, 2), Comparison("v", 2, 0))
    chain = (Comparison("v", 0, 1), Comparison("v", 1, 2))
    assert not is_transitive(cyc)
    assert is_transitive(chain)


# ------------------------------------------------------------------ generators

def test_generate_complete_deterministic():
    a = generate_complete(4, 5, 123)
    b = generate_complete(4, 5, 123)
    assert profiles_equal_as_multisets(a, b)
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
    assert profile.kind is ProfileKind.GENERALIZED
    assert profile.m == 6
    t = tally(profile)
    for i in range(4):
        for j in range(i + 1, 4):
            assert t.total(i, j) == 1


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


# --------------------------------------------------------------- serialization

@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_serialize_parse_round_trip(n, m, seed):
    profile = generate_complete(n, m, seed)
    again = parse_profile(serialize_profile(profile))
    assert profiles_equal_as_multisets(profile, again)
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
    assert profile.kind is ProfileKind.GENERALIZED
    assert profile.m == 2
    t = tally(profile)
    assert t.wins[1][2] == 2  # ranking contributes y2 > y3 as well


@pytest.mark.parametrize(
    "doc, needle",
    [
        ({"voters": []}, "candidates"),
        ({"candidates": ["a", "b"], "voters": []}, "voters"),
        ({"candidates": ["a", "a"], "voters": [{"id": "v", "ranking": ["a", "a"]}]}, "candidates"),
        (
            {"candidates": ["a", "b"], "voters": [{"id": "v", "ranking": ["a", "z"]}]},
            "voters[0]",
        ),
        (
            {"candidates": ["a", "b"], "voters": [{"id": "v"}]},
            "voters[0]",
        ),
        (
            {
                "candidates": ["a", "b"],
                "voters": [{"id": "v", "ranking": ["a", "b"], "comparisons": [["a", "b"]]}],
            },
            "voters[0]",
        ),
        (
            {
                "candidates": ["a", "b", "c"],
                "voters": [{"id": "v", "comparisons": [["a", "b"], ["b", "a"]]}],
            },
            "voters[0].comparisons[1]",
        ),
        (
            {
                "candidates": ["a", "b"],
                "voters": [
                    {"id": "v", "ranking": ["a", "b"]},
                    {"id": "v", "ranking": ["b", "a"]},
                ],
            },
            "voters[1]",
        ),
        ({"candidates": ["", "a"], "voters": [{"id": "v", "ranking": ["", "a"]}]}, "candidates"),
        (b"\xff\xfe{}", "line: 1"),  # not UTF-8
    ],
)
def test_parse_errors_carry_field_paths(doc, needle):
    data = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
    with pytest.raises(SchemaError) as exc:
        parse_profile(data)
    assert needle in str(exc.value)


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


def test_apply_permutation_round_trip(four_voter):
    pi = (2, 0, 1)
    inv = tuple(pi.index(k) for k in range(3))
    back = apply_permutation(apply_permutation(four_voter, pi), inv)
    assert profiles_equal_as_multisets(four_voter, back)
