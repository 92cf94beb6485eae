"""Axiom checkers, vacuous-truth discipline, rule registry, search harness."""
from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefaxiom import (
    Assumption1,
    AxiomReport,
    EpsilonPolicy,
    ExhaustiveComplete,
    NoUniqueTopError,
    NotCompleteProfileError,
    ORDINAL_AXIOMS,
    ORDINAL_RULES,
    PROBABILISTIC_AXIOMS,
    PROBABILISTIC_RULES,
    RULE_NAMES,
    RandomComplete,
    Ranking,
    ResponseDistribution,
    RuleKind,
    RuleUnderTest,
    SpaceTooLargeError,
    TiePolicy,
    ZeroProbabilityError,
    apply_permutation,
    axiom_conclusion,
    axiom_kind,
    axiom_premise,
    complete_profile,
    counterexample_search,
    generalized_profile,
    generate_complete,
    iter_profiles,
    make_rule,
    minimizer_exists,
    profile_from_pairs,
    profiles_equal_as_multisets,
    rank_by_scores,
    rule_weights,
    run_check,
    softmax,
    solve_mle,
    space_size,
    tally,
    weights_copeland,
    weights_standard,
)

FIXTURE_GAP = 0.07063496451193108  # fixed-point oracle for the 4-voter profile


# ---------------------------------------------------------------- report type

def test_report_vacuous_discipline_enforced():
    with pytest.raises(ValueError):
        AxiomReport("pareto", applicable=False, satisfied=False)
    r = AxiomReport.vacuous("pareto")
    assert r.satisfied and not r.applicable and not r.violated
    assert r.to_json_dict()["axiom"] == "pareto"


# -------------------------------------------------------------------- checkers

def test_pareto_violated_by_cyclic_unanimity():
    profile = generalized_profile(
        ["a", "b", "c"], {"v1": [("a", "b"), ("b", "c"), ("c", "a")]}
    )
    tied = Ranking((0, 1, 2), ((0, 1, 2),))
    rep = run_check("pareto", profile, tied)
    assert rep.applicable and not rep.satisfied
    assert tuple(rep.witness["pair"]) in ((0, 1), (1, 2), (2, 0))


def test_pareto_satisfied_on_unanimous_profile():
    p = complete_profile(["a", "b"], [["a", "b"], ["a", "b"]])
    rep = run_check("pareto", p, Ranking((0, 1)))
    assert rep.applicable and rep.satisfied


def test_pareto_vacuous_without_unanimous_pair(paradox):
    rep = run_check("pareto", paradox, Ranking((0, 1, 2)))
    assert not rep.applicable and rep.satisfied


def test_majority_checker():
    p = complete_profile(
        ["a", "b", "c"], [["a", "b", "c"], ["a", "c", "b"], ["b", "a", "c"]]
    )
    assert run_check("majority", p, Ranking((0, 1, 2))).satisfied
    bad = run_check("majority", p, Ranking((1, 0, 2)))
    assert bad.applicable and not bad.satisfied and bad.witness["majority_winner"] == 0
    # no strict majority of first places -> vacuous
    vac = run_check(
        "majority", complete_profile(["a", "b"], [["a", "b"], ["b", "a"]]), Ranking((0, 1))
    )
    assert not vac.applicable and vac.satisfied


def test_majority_vacuous_on_generalized_profiles():
    p = generalized_profile(["a", "b"], {"v1": [("a", "b")]})
    rep = run_check("majority", p, Ranking((0, 1)))
    assert not rep.applicable and rep.satisfied


def test_pairwise_majority_checker(four_voter):
    p = generate_complete(4, 1, 8)
    want = p.voters[0].ranking
    assert run_check("pairwise-majority", p, want).satisfied
    wrong = Ranking(tuple(reversed(want.order)))
    rep = run_check("pairwise-majority", p, wrong)
    assert rep.applicable and not rep.satisfied
    # majority relation has a tie -> not a strict linear order -> vacuous
    assert not run_check("pairwise-majority", four_voter, Ranking((0, 1, 2))).applicable


def test_condorcet_checker(paradox):
    p = complete_profile(
        ["a", "b", "c"], [["a", "b", "c"], ["a", "c", "b"], ["b", "a", "c"]]
    )
    assert run_check("condorcet", p, Ranking((0, 1, 2))).satisfied
    tied_top = Ranking((0, 1, 2), ((0, 1), (2,)))
    rep = run_check("condorcet", p, tied_top)
    assert rep.applicable and not rep.satisfied
    assert not run_check("condorcet", paradox, Ranking((0, 1, 2))).applicable


def test_preference_matching_checker():
    # n=2, props 3/4: embeddable; p = (3/4, 1/4) matches exactly
    p = complete_profile(
        ["a", "b"], [["a", "b"], ["a", "b"], ["a", "b"], ["b", "a"]]
    )
    good = run_check("preference-matching", p, ResponseDistribution((0.75, 0.25)))
    assert good.applicable and good.satisfied
    bad = run_check("preference-matching", p, ResponseDistribution((0.5, 0.5)))
    assert bad.applicable and not bad.satisfied


@pytest.mark.parametrize(
    "probs", [(math.nan, math.nan, 0.0), (math.nan, 0.5)], ids=["nan-nan-zero", "nan-half"]
)
def test_distribution_with_a_nan_entry_is_refused(probs):
    # every comparison with NaN is false, so a check written as "x < 0 fails"
    # would let it through, and both preference checkers would pass it
    with pytest.raises(ValueError):
        ResponseDistribution(probs)


def test_preference_matching_vacuous_on_cycle(paradox):
    rep = run_check("preference-matching", paradox, ResponseDistribution.uniform(3))
    assert not rep.applicable and rep.satisfied


def test_equally_preferred_and_equivalence_checker():
    sym = complete_profile(
        ["a", "b", "c"], [["a", "b", "c"], ["b", "a", "c"]]
    )
    pairs = axiom_premise("preference-equivalence", sym)
    assert (0, 1) in pairs
    assert (0, 2) not in pairs
    rep = run_check("preference-equivalence", sym, ResponseDistribution((0.4, 0.4, 0.2)))
    assert rep.applicable and rep.satisfied
    rep2 = run_check("preference-equivalence", sym, ResponseDistribution((0.5, 0.3, 0.2)))
    assert rep2.applicable and not rep2.satisfied
    assert tuple(rep2.witness["pair"]) == (0, 1)


@st.composite
def _profile_and_pair(draw):
    n = draw(st.integers(2, 5))
    orders = [
        tuple(draw(st.permutations(range(n)))) for _ in range(draw(st.integers(1, 5)))
    ]
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        # append each voter's order with i and j swapped: a symmetric electorate
        swap = {i: j, j: i}
        orders += [tuple(swap.get(k, k) for k in order) for order in orders]
    labels = [f"c{k}" for k in range(n)]
    return complete_profile(labels, [[labels[k] for k in order] for order in orders]), i, j


@given(_profile_and_pair())
@settings(max_examples=200, deadline=None)
def test_equally_preferred_matches_the_permuted_profile(drawn):
    profile, i, j = drawn
    perm = list(range(profile.n))
    perm[i], perm[j] = perm[j], perm[i]
    expected = profiles_equal_as_multisets(profile, apply_permutation(profile, perm))
    pairs = axiom_premise("preference-equivalence", profile) or ()
    assert ((min(i, j), max(i, j)) in pairs) == expected


def test_gpm_checker_fixture_gap(four_voter):
    dist = make_rule("mle-standard", RuleKind.PROBABILISTIC)(four_voter)
    rep = run_check("gpm", four_voter, dist)
    assert rep.applicable and not rep.satisfied
    assert abs(rep.witness["linf_gap"] - FIXTURE_GAP) < 1e-9
    # gpmd itself matches trivially
    ok = run_check("gpm", four_voter, make_rule("gpmd-limit", RuleKind.PROBABILISTIC)(four_voter))
    assert ok.satisfied


@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_checker_verdicts_are_permutation_equivariant(n, m, seed, pseed):
    profile = generate_complete(n, m, seed)
    pi = list(range(n))
    random.Random(pseed).shuffle(pi)
    permuted = apply_permutation(profile, tuple(pi))
    for name in ("borda", "copeland"):
        rule = make_rule(name, RuleKind.ORDINAL)
        out = rule(profile)
        pout = rule(permuted)
        for axiom in ORDINAL_AXIOMS:
            a = run_check(axiom, profile, out, tol=1e-6, epsilon_policy=None)
            b = run_check(axiom, permuted, pout, tol=1e-6, epsilon_policy=None)
            assert (a.applicable, a.satisfied) == (b.applicable, b.satisfied)


@given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_vacuous_discipline_holds_everywhere(n, m, seed):
    profile = generate_complete(n, m, seed)
    ranking = make_rule("borda", RuleKind.ORDINAL)(profile)
    dist = make_rule("gpmd-limit", RuleKind.PROBABILISTIC)(profile)
    for axiom in ORDINAL_AXIOMS:
        rep = run_check(axiom, profile, ranking, tol=1e-6, epsilon_policy=None)
        if not rep.applicable:
            assert rep.satisfied
    for axiom in PROBABILISTIC_AXIOMS:
        rep = run_check(axiom, profile, dist, tol=1e-6, epsilon_policy=None)
        if not rep.applicable:
            assert rep.satisfied


# -------------------------------------------------------------------- registry

def test_make_rule_registry(four_voter):
    assert ORDINAL_RULES == ("borda", "copeland", "mle-standard", "mle-copeland", "mle-gpm")
    assert PROBABILISTIC_RULES == ("mle-standard", "mle-copeland", "mle-gpm", "gpmd-limit")
    # every (name, kind) pair in the tables builds; every other one refuses
    tables = {RuleKind.ORDINAL: ORDINAL_RULES, RuleKind.PROBABILISTIC: PROBABILISTIC_RULES}
    for name in RULE_NAMES + ("schulze",):
        for kind, table in tables.items():
            if name in table:
                rule = make_rule(name, kind)
                assert (rule.name, rule.kind) == (name, kind)
                assert rule(four_voter).n == 3
            else:
                message = f"rule {name!r} has no {kind.value} form"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    make_rule(name, kind)


def test_rule_weights_names_only_the_mle_rules(four_voter):
    t = tally(four_voter)
    assert rule_weights("mle-standard", four_voter) == weights_standard(t)
    assert rule_weights(
        "mle-copeland", four_voter, tie_policy=TiePolicy.STRICT_ONLY
    ) == weights_copeland(t, TiePolicy.STRICT_ONLY)
    for name in ("borda", "copeland", "gpmd-limit"):
        with pytest.raises(ValueError):
            rule_weights(name, four_voter)


def test_rules_are_deterministic(four_voter):
    for name, kind in (
        ("borda", RuleKind.ORDINAL),
        ("mle-standard", RuleKind.PROBABILISTIC),
        ("gpmd-limit", RuleKind.PROBABILISTIC),
    ):
        rule = make_rule(name, kind)
        a, b = rule(four_voter), rule(four_voter)
        if kind is RuleKind.ORDINAL:
            assert a.order == b.order and a.classes() == b.classes()
        else:
            assert a.p == b.p


@pytest.mark.parametrize(
    "name, weigh", [("mle-standard", weights_standard), ("mle-copeland", weights_copeland)]
)
def test_probabilistic_mle_rule_is_the_ridge_limit_without_finite_mle(name, weigh):
    rule = make_rule(name, RuleKind.PROBABILISTIC)
    divergent = 0
    for profile in iter_profiles(ExhaustiveComplete(3, 3)):
        w = weigh(tally(profile))
        if minimizer_exists(w):
            continue
        divergent += 1
        ridge_path = softmax(solve_mle(w, ridge=1e-8))
        assert rule(profile).linf_distance(ridge_path) <= 1e-6
    assert divergent > 0


def test_probabilistic_mle_rule_refuses_two_undominated_sets():
    # a > c and b > c only: {a} and {b} both never lose, and the graph does
    # not say how the limit splits mass between them
    profile = generalized_profile(["a", "b", "c"], {"v1": [("a", "c")], "v2": [("b", "c")]})
    with pytest.raises(NoUniqueTopError):
        make_rule("mle-standard", RuleKind.PROBABILISTIC)(profile)


def test_mle_rules_coincide_on_assumption1_tournaments():
    # one labeler per pair, outcomes 0/1: standard and indicator weights agree
    pairs = list(itertools.combinations(range(4), 2))
    for code in range(2**6):
        winners = [
            (i, j) if code >> k & 1 else (j, i) for k, (i, j) in enumerate(pairs)
        ]
        profile = profile_from_pairs(4, winners)
        t = tally(profile)
        std = rank_by_scores(weights_standard(t))
        cop = rank_by_scores(weights_copeland(t, TiePolicy.HALF_POINT))
        assert std.order == cop.order and std.classes() == cop.classes()


# ---------------------------------------------------------------------- spaces

def test_space_sizes():
    assert space_size(ExhaustiveComplete(3, 3)) == 216
    assert space_size(Assumption1(4)) == 64
    assert space_size(RandomComplete(3, 3, 500, seed=1)) == 500


def test_exhaustive_space_yields_distinct_profiles():
    seen = set()
    for profile in iter_profiles(ExhaustiveComplete(3, 2)):
        seen.add(tuple(v.ranking.order for v in profile.voters))
    assert len(seen) == 36


def test_exhaustive_space_too_large():
    with pytest.raises(SpaceTooLargeError):
        list(iter_profiles(ExhaustiveComplete(6, 10)))


def test_random_space_requires_seed():
    with pytest.raises(ValueError):
        list(iter_profiles(RandomComplete(3, 3, 10, seed=None)))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: ExhaustiveComplete(1, 3), id="exhaustive-n-1"),
        pytest.param(lambda: ExhaustiveComplete(3, 0), id="exhaustive-m-0"),
        pytest.param(lambda: RandomComplete(3, 0, 5, 1), id="random-m-0"),
        pytest.param(lambda: RandomComplete(3, 3, -4, 1), id="random-trials-neg"),
        pytest.param(lambda: RandomComplete(3, 3, 0, 1), id="random-trials-0"),
        pytest.param(lambda: RandomComplete(3, 3, 5, None), id="random-no-seed"),
        pytest.param(lambda: Assumption1(1), id="assumption1-n-1"),
        pytest.param(lambda: Assumption1(3, 0, 1), id="assumption1-trials-0"),
        pytest.param(lambda: Assumption1(3, 5), id="assumption1-no-seed"),
    ],
)
def test_bad_space_is_refused_when_built(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: ExhaustiveComplete(3, 2.5), id="exhaustive-m-float"),
        pytest.param(lambda: ExhaustiveComplete(3.0, 2), id="exhaustive-n-integral-float"),
        pytest.param(lambda: RandomComplete(3, 3, 2.5, 1), id="random-trials-float"),
        pytest.param(lambda: RandomComplete(3, Fraction(3), 5, 1), id="random-m-fraction"),
        pytest.param(lambda: Assumption1(3.5), id="assumption1-n-float"),
        pytest.param(lambda: Assumption1(3, 2.0, 1), id="assumption1-trials-float"),
    ],
)
def test_non_integer_space_parameter_is_refused_when_built(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_axiom_kind_reads_the_table_and_resolves_the_alias():
    assert [axiom_kind(a) for a in ORDINAL_AXIOMS] == [RuleKind.ORDINAL] * len(ORDINAL_AXIOMS)
    assert [axiom_kind(a) for a in PROBABILISTIC_AXIOMS] == [RuleKind.PROBABILISTIC] * len(
        PROBABILISTIC_AXIOMS
    )
    assert axiom_kind("group-preference-matching") is RuleKind.PROBABILISTIC
    with pytest.raises(ValueError, match="unknown axiom"):
        axiom_kind("monotonicity")


def test_random_space_deterministic():
    a = [tuple(v.ranking.order for v in p.voters) for p in iter_profiles(RandomComplete(3, 4, 20, seed=5))]
    b = [tuple(v.ranking.order for v in p.voters) for p in iter_profiles(RandomComplete(3, 4, 20, seed=5))]
    assert a == b


# ---------------------------------------------------------------------- search

def test_borda_condorcet_counterexample_found_early():
    rule = make_rule("borda", RuleKind.ORDINAL)
    out = counterexample_search(rule, "condorcet", ExhaustiveComplete(3, 3))
    assert out.found and out.index == 3 and out.examined == 4
    assert out.report.violated
    # the witness profile really has a Condorcet winner Borda does not rank top
    t = tally(out.profile)
    from prefaxiom import borda_scores, condorcet_winner, ranking_from_scores

    w = condorcet_winner(t)
    assert w is not None
    assert ranking_from_scores(borda_scores(t)).top_class() != (w,)


def test_copeland_passes_ordinal_axioms_exhaustive():
    rule = make_rule("copeland", RuleKind.ORDINAL)
    for axiom in ORDINAL_AXIOMS:
        out = counterexample_search(rule, axiom, ExhaustiveComplete(3, 3))
        assert not out.found and out.examined == 216


def test_search_budget_caps_examined():
    rule = make_rule("copeland", RuleKind.ORDINAL)
    out = counterexample_search(rule, "condorcet", ExhaustiveComplete(3, 3), budget=50)
    assert not out.found and out.examined == 50


def test_search_rejects_mismatched_kind():
    rule = make_rule("borda", RuleKind.ORDINAL)
    for axiom in ("gpm", "group-preference-matching"):
        with pytest.raises(ValueError):
            counterexample_search(rule, axiom, ExhaustiveComplete(3, 3))


def test_search_gpm_alias():
    rule = make_rule("gpmd-limit", RuleKind.PROBABILISTIC)
    out = counterexample_search(
        rule, "group-preference-matching", ExhaustiveComplete(3, 2), tol=1e-9
    )
    # gpmd matches itself everywhere
    assert not out.found and out.examined == 36


def test_run_check_rejects_unknown_axiom(four_voter):
    with pytest.raises(ValueError):
        run_check("iia", four_voter, Ranking((0, 1, 2)), tol=1e-6, epsilon_policy=None)


# ------------------------------------------------- premise first, rule second

RULE_AXIOM_PAIRS = [
    (name, RuleKind.ORDINAL, axiom) for name in ORDINAL_RULES for axiom in ORDINAL_AXIOMS
] + [
    (name, RuleKind.PROBABILISTIC, axiom)
    for name in PROBABILISTIC_RULES
    for axiom in PROBABILISTIC_AXIOMS
]
SMALL_SPACES = st.one_of(
    st.sampled_from([(2, 1), (2, 3), (2, 4), (3, 1), (3, 2)]).map(lambda nm: ExhaustiveComplete(*nm)),
    st.builds(
        RandomComplete, st.integers(2, 4), st.integers(1, 4), st.integers(1, 12), st.integers(0, 99)
    ),
    st.builds(Assumption1, st.integers(2, 4)),
    st.builds(Assumption1, st.integers(2, 4), st.integers(1, 8), st.integers(0, 99)),
)
POLICIES = st.sampled_from([None, EpsilonPolicy.limit(), EpsilonPolicy.finite(Fraction(1, 100))])


def _reference_search(rule, axiom, space, epsilon_policy):
    """The search as a plain loop: the whole rule, then the whole check."""
    examined = applicable = 0
    for idx, profile in enumerate(iter_profiles(space)):
        examined += 1
        report = run_check(axiom, profile, rule(profile), epsilon_policy=epsilon_policy)
        applicable += report.applicable
        if report.violated:
            return True, idx, examined, report, applicable
    return False, None, examined, None, applicable


@given(
    st.sampled_from(RULE_AXIOM_PAIRS),
    SMALL_SPACES,
    st.sampled_from(list(TiePolicy)),
    POLICIES,
    POLICIES,
)
@settings(max_examples=80, deadline=None)
def test_search_matches_rule_then_check_reference(pairing, space, tie_policy, rule_policy, check_policy):
    name, kind, axiom = pairing
    rule = make_rule(name, kind, tie_policy=tie_policy, epsilon_policy=rule_policy)
    try:
        expected = _reference_search(rule, axiom, space, check_policy)
    except Exception as e:  # the search must fail the same way
        with pytest.raises(type(e)) as caught:
            counterexample_search(rule, axiom, space, epsilon_policy=check_policy)
        assert str(caught.value) == str(e)
        return
    out = counterexample_search(rule, axiom, space, epsilon_policy=check_policy)
    assert (out.found, out.index, out.examined, out.report, out.applicable) == expected
    assert out.applicable + out.vacuous == out.examined


def test_search_evaluates_the_rule_only_where_the_premise_holds():
    base = make_rule("mle-standard", RuleKind.PROBABILISTIC)
    evaluated = []

    def evaluate(prepared):
        evaluated.append(prepared)
        return base.evaluate(prepared)

    rule = RuleUnderTest(base.name, base.kind, base.domain, evaluate)
    out = counterexample_search(rule, "preference-equivalence", ExhaustiveComplete(3, 4))
    assert not out.found and out.examined == 1296
    # at even m some electorates are symmetric under a swap of two candidates
    assert (out.applicable, out.vacuous) == (270, 1026)
    assert len(evaluated) == out.applicable


def test_search_on_vacuous_profiles_still_raises_domain_errors():
    # no profile of the space has two equally-preferred candidates (m is odd),
    # yet the limit-policy gpm weights are undefined where a share is zero
    rule = make_rule("mle-gpm", RuleKind.PROBABILISTIC, epsilon_policy=EpsilonPolicy.limit())
    with pytest.raises(ZeroProbabilityError):
        counterexample_search(rule, "preference-equivalence", ExhaustiveComplete(3, 3))
    with pytest.raises(NotCompleteProfileError):
        counterexample_search(
            make_rule("mle-gpm", RuleKind.PROBABILISTIC), "preference-matching", Assumption1(3)
        )


def test_premise_and_conclusion_compose_to_run_check(four_voter, paradox):
    ranking = make_rule("borda", RuleKind.ORDINAL)(four_voter)
    dist = make_rule("mle-standard", RuleKind.PROBABILISTIC)(four_voter)
    for axiom in ORDINAL_AXIOMS + PROBABILISTIC_AXIOMS:
        output = ranking if axiom in ORDINAL_AXIOMS else dist
        facts = axiom_premise(axiom, four_voter)
        assert axiom_conclusion(axiom, facts, output) == run_check(axiom, four_voter, output)
        assert run_check(axiom, four_voter, output).applicable == (facts is not None)
    assert axiom_premise("condorcet", paradox) is None
    assert axiom_premise("pareto", paradox) is None
    with pytest.raises(ValueError):
        axiom_conclusion("iia", None, ranking)


@st.composite
def swap_symmetric_profiles(draw):
    """Each drawn voter together with its image under swapping candidates a and b."""
    n = draw(st.integers(3, 5))
    a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    swap = {a: b, b: a}
    labels = [f"c{i}" for i in range(n)]
    rankings = []
    for order in draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3)):
        rankings.append([labels[k] for k in order])
        rankings.append([labels[swap.get(k, k)] for k in order])
    return complete_profile(labels, rankings), (min(a, b), max(a, b))


@given(swap_symmetric_profiles())
@settings(max_examples=40, deadline=None)
def test_probabilistic_mle_rules_satisfy_preference_equivalence(drawn):
    # the paper's claim, on electorates where the premise provably holds
    profile, pair = drawn
    assert pair in axiom_premise("preference-equivalence", profile)
    for name in ("mle-standard", "mle-copeland", "mle-gpm"):
        report = run_check(
            "preference-equivalence", profile, make_rule(name, RuleKind.PROBABILISTIC)(profile)
        )
        assert report.applicable and report.satisfied, (name, report.witness)
