"""Axiom checkers, vacuous-truth discipline, rule registry, search harness."""
from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relabel
from prefaxiom import (
    Assumption1,
    AxiomReport,
    CandidateSet,
    Comparison,
    EpsilonPolicy,
    ExhaustiveComplete,
    NoUniqueTopError,
    NotCompleteProfileError,
    ORDINAL_AXIOMS,
    ORDINAL_RULES,
    PROBABILISTIC_AXIOMS,
    PROBABILISTIC_RULES,
    RULE_NAMES,
    PreferenceProfile,
    PrefaxiomError,
    RandomComplete,
    Ranking,
    ResponseDistribution,
    RuleKind,
    RuleUnderTest,
    SpaceTooLargeError,
    TiePolicy,
    Voter,
    WeightMatrix,
    ZeroProbabilityError,
    axiom_conclusion,
    axiom_kind,
    axiom_name,
    axiom_premise,
    bt_odds,
    complete_profile,
    counterexample_search,
    default_labels,
    generalized_profile,
    generate_complete,
    gpmd,
    gradient,
    iter_profiles,
    make_rule,
    minimizer_exists,
    profile_from_pairs,
    rank_by_scores,
    rule_weights,
    run_check,
    softmax,
    solve_mle,
    space_size,
    tally,
    top_component,
    weights_copeland,
    weights_standard,
)
from prefaxiom.axioms import rule_mle
from test_cli import _rank_corpus

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
    rep = run_check("preference-matching", paradox, ResponseDistribution((Fraction(1, 3),) * 3))
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
    expected = Counter(profile.orders) == Counter(relabel(profile, perm).orders)
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
    permuted = relabel(profile, pi)
    for name in ORDINAL_RULES:
        rule = make_rule(name, RuleKind.ORDINAL)
        out = rule(profile)
        pout = rule(permuted)
        # relabelling maps each tie class, as a set, through pi, classes in order
        assert [{pi[i] for i in c} for c in out.classes()] == [set(c) for c in pout.classes()]
        for axiom in ORDINAL_AXIOMS:
            a = run_check(axiom, profile, out, tol=1e-6, epsilon_policy=None)
            b = run_check(axiom, permuted, pout, tol=1e-6, epsilon_policy=None)
            assert (a.applicable, a.satisfied) == (b.applicable, b.satisfied)


@st.composite
def _complete_or_comparison_profile(draw) -> PreferenceProfile:
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return generate_complete(n, m, draw(st.integers(0, 10**6)))
    pairs = list(itertools.combinations(range(n), 2))
    voters = []
    for k in range(m):
        judged = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        comps = tuple(Comparison(*(p[::-1] if draw(st.booleans()) else p)) for p in judged)
        voters.append(Voter(f"v{k + 1}", comparisons=comps))
    return PreferenceProfile(CandidateSet(default_labels(n)), tuple(voters))


def _outcome(f) -> str:
    """The repr of f()'s value, or the type of what it raises.

    Not the message: NotCompleteProfileError names the first voter who gives
    comparisons, and which voter is first is what a reordering changes.
    """
    try:
        return repr(f())
    except Exception as e:
        return repr(type(e))


def _everything_a_profile_decides(profile: PreferenceProfile) -> list[str]:
    """Every rule output and axiom premise under both tie policies and three epsilons."""
    epsilons = (None, EpsilonPolicy.limit(), EpsilonPolicy.finite(Fraction(1, 100)))
    rules = [(name, RuleKind.ORDINAL) for name in ORDINAL_RULES]
    rules += [(name, RuleKind.PROBABILISTIC) for name in PROBABILISTIC_RULES]
    outcomes = []
    for tie, eps, (name, kind) in itertools.product(TiePolicy, epsilons, rules):
        rule = make_rule(name, kind, tie_policy=tie, epsilon_policy=eps)
        outcomes.append(_outcome(lambda: rule(profile)))
    for eps in epsilons:
        for axiom in ORDINAL_AXIOMS + PROBABILISTIC_AXIOMS:
            outcomes.append(_outcome(lambda: axiom_premise(axiom, profile, epsilon_policy=eps)))
    return outcomes


@given(_complete_or_comparison_profile(), st.data())
@settings(max_examples=40, deadline=None)
def test_rules_and_premises_are_anonymous(profile, data):
    # voters are counted, never told apart: reordering them, ids and all,
    # changes no ranking, no distribution's bits, no premise and no error
    seats = data.draw(st.permutations(range(profile.m)))
    shuffled = PreferenceProfile(profile.candidates, tuple(profile.voters[k] for k in seats))
    assert _everything_a_profile_decides(shuffled) == _everything_a_profile_decides(profile)


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


def _mle_softmax(weights: WeightMatrix) -> ResponseDistribution:
    """A probabilistic MLE rule's evaluation on weights given directly."""
    return make_rule("mle-standard", RuleKind.PROBABILISTIC).evaluate((weights, top_component(weights)))


@st.composite
def _balanced_weights(draw):
    """Weights in detailed balance, w_ij = c_ij q_i / (q_i + q_j), and q."""
    n = draw(st.integers(2, 6))
    fractions = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))
    q = draw(st.lists(fractions, min_size=n, max_size=n))
    c = {pair: draw(fractions) for pair in itertools.combinations(range(n), 2)}
    rows = [
        [0 if i == j else c[min(i, j), max(i, j)] * q[i] / (q[i] + q[j]) for j in range(n)]
        for i in range(n)
    ]
    return WeightMatrix(rows), q


@given(_balanced_weights())
@settings(max_examples=60, deadline=None)
def test_mle_softmax_is_exact_in_detailed_balance(drawn):
    w, q = drawn
    exact = tuple(x / sum(q) for x in q)
    dist = _mle_softmax(w)
    assert dist.p == exact and all(type(x) is Fraction for x in dist)
    # log q is the stationary point, and the float solve lands on it
    scale = max(sum(float(x) for x in row) for row in w.w)
    assert max(abs(g) for g in gradient(w, [math.log(x) for x in q])) <= 1e-12 * scale
    assert softmax(solve_mle(w)).linf_distance(ResponseDistribution(exact)) <= 1e-9


def test_mle_softmax_solves_weights_that_do_not_factor(paradox, four_voter):
    profiles = [paradox, four_voter] + [generate_complete(4, 5, seed) for seed in range(20)]
    cases = [weights_standard(tally(p)) for p in profiles if bt_odds(tally(p)) is None]
    cases.append(WeightMatrix([[0, 2, 1], [1, 0, 3], [1, 2, 0]]))
    cases = [w for w in cases if minimizer_exists(w)]
    assert len(cases) >= 10
    for w in cases:
        assert _mle_softmax(w).p == softmax(solve_mle(w)).p


def test_mle_softmax_of_a_top_component_that_factors():
    # {0, 1, 2} never loses to 3, and inside it w_ij = q_i / (q_i + q_j) for q = (1, 2, 3)
    q = (1, 2, 3)
    rows = [[0 if i == j else Fraction(q[i], q[i] + q[j]) for j in range(3)] + [1] for i in range(3)]
    w = WeightMatrix(rows + [[0, 0, 0, 0]])
    assert top_component(w) == (0, 1, 2)
    dist = _mle_softmax(w)
    assert dist.p == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), 0)
    assert all(type(x) is Fraction for x in dist)
    assert dist.linf_distance(softmax(solve_mle(w, ridge=1e-8))) <= 1e-6
    # a two-candidate top always factors; a single top is certain
    pair_top = WeightMatrix([[0, 1, 1], [2, 0, 1], [0, 0, 0]])
    assert _mle_softmax(pair_top).p == (Fraction(1, 3), Fraction(2, 3), 0)
    assert _mle_softmax(WeightMatrix([[0, 1, 1], [0, 0, 1], [0, 0, 0]])).p == (1.0, 0.0, 0.0)


def test_mle_gpm_returns_the_group_matching_distribution_exactly():
    # the theorem probabilistic mle-gpm rests on, on the generic MLE path:
    # the MLE softmax of its weights is p*, exactly
    spaces = (ExhaustiveComplete(3, 3), ExhaustiveComplete(3, 4), ExhaustiveComplete(4, 2))
    checked = 0
    for epsilon, space in itertools.product((Fraction(1, 3), Fraction(1, 100), Fraction(1, 1000)), spaces):
        policy = EpsilonPolicy.finite(epsilon)
        rule = make_rule("mle-gpm", RuleKind.PROBABILISTIC, epsilon_policy=policy)
        for profile in iter_profiles(space):
            w = rule_weights("mle-gpm", profile, epsilon_policy=policy)
            assert _mle_softmax(w).p == gpmd(profile, policy).p == rule(profile).p
            checked += 1
    assert checked == 6264


def test_probabilistic_mle_gpm_builds_no_weight_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("built a weight matrix")

    monkeypatch.setattr(WeightMatrix, "__post_init__", refuse)
    policy = EpsilonPolicy.finite(Fraction(1, 100))
    rule = make_rule("mle-gpm", RuleKind.PROBABILISTIC, epsilon_policy=policy)
    outcome = counterexample_search(rule, "gpm", ExhaustiveComplete(3, 3), epsilon_policy=policy)
    assert (outcome.found, outcome.examined, outcome.applicable) == (False, 216, 216)


def _uneven_comparison_profiles(rng: random.Random, count: int):
    """Comparison voters judging random subsets of pairs, so pair totals mostly differ."""
    for _ in range(count):
        labels = default_labels(rng.randint(3, 5))
        voters = {}
        for v in range(rng.randint(2, 7)):
            order = rng.sample(labels, len(labels))
            pairs = [p for p in itertools.combinations(order, 2) if rng.random() < 0.6]
            if pairs:
                voters[f"v{v}"] = pairs
        if voters:
            yield generalized_profile(labels, voters)


def test_rank_fit_and_probabilistic_rule_are_one_mle():
    # rank's MLE block softmaxes rule_mle; the probabilistic rule softmaxes
    # the same fit wherever the weights are strongly connected
    profiles = [*_rank_corpus(), *_uneven_comparison_profiles(random.Random(7), 300)]
    cases = [("mle-standard", tie) for tie in TiePolicy]
    cases += [("mle-copeland", tie) for tie in TiePolicy] + [("mle-gpm", TiePolicy.HALF_POINT)]
    seen = Counter()
    for (name, tie), profile in itertools.product(cases, profiles):
        try:
            if name != "mle-gpm" and not minimizer_exists(rule_weights(name, profile, tie_policy=tie)):
                continue
            fit = rule_mle(name, profile, tie_policy=tie)
        except PrefaxiomError:
            continue
        if not fit.converged:
            continue
        dist = make_rule(name, RuleKind.PROBABILISTIC, tie_policy=tie)(profile)
        fitted = softmax(fit)
        assert fitted.p == dist.p
        assert [type(x) for x in fitted] == [type(x) for x in dist]
        seen[name, fit.odds is not None] += 1
    # mle-standard and mle-copeland fit both ways, mle-gpm always in closed form
    both = {(rule, closed) for rule in ("mle-standard", "mle-copeland") for closed in (True, False)}
    assert set(seen) == both | {("mle-gpm", True)}
    assert sum(seen.values()) > 600


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
    # the logarithm that iter_profiles reads before it builds or prints a size
    for space in (ExhaustiveComplete(3, 3), ExhaustiveComplete(30, 30), Assumption1(4), Assumption1(9, 7, seed=1)):
        assert space.size_log10 == pytest.approx(math.log10(space.size), rel=1e-12)


def test_exhaustive_space_yields_distinct_profiles():
    seen = set()
    for profile in iter_profiles(ExhaustiveComplete(3, 2)):
        seen.add(tuple(v.ranking.order for v in profile.voters))
    assert len(seen) == 36


def test_exhaustive_space_draws_the_voters_generate_complete_shares():
    labels = default_labels(3)
    profiles = list(iter_profiles(ExhaustiveComplete(3, 2)))
    # index order: each voter's ranking in lexicographic order, the last voter fastest
    assert profiles == [
        complete_profile(labels, rankings) for rankings in itertools.product(itertools.permutations(labels), repeat=2)
    ]
    seated = {(k, v.ranking.order): v for p in profiles for k, v in enumerate(p.voters)}
    drawn = generate_complete(3, 2, 1)
    assert drawn.candidates is profiles[0].candidates
    assert all(v is seated[k, v.ranking.order] for k, v in enumerate(drawn.voters))


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
        pytest.param(lambda: RandomComplete(3, 3, 5, 1.5), id="random-seed-float"),
        pytest.param(lambda: RandomComplete(3, 3, 5, "x"), id="random-seed-str"),
        pytest.param(lambda: Assumption1(3, 2, 2.5), id="assumption1-seed-float"),
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


def test_axiom_name_resolves_the_alias_to_the_table_name():
    assert [axiom_name(a) for a in ORDINAL_AXIOMS + PROBABILISTIC_AXIOMS] == list(
        ORDINAL_AXIOMS + PROBABILISTIC_AXIOMS
    )
    assert axiom_name("group-preference-matching") == "gpm"
    with pytest.raises(ValueError, match="unknown axiom 'monotonicity'"):
        axiom_name("monotonicity")


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


@pytest.mark.parametrize("budget", [-1, 2.5])
def test_search_rejects_a_bad_budget_before_the_first_profile(monkeypatch, budget):
    # unchecked, both surfaced itertools.islice's message about its stop argument
    from prefaxiom import axioms

    def no_profiles(space):
        raise AssertionError("a profile was requested")

    monkeypatch.setattr(axioms, "iter_profiles", no_profiles)
    rule = make_rule("copeland", RuleKind.ORDINAL)
    with pytest.raises(ValueError, match=f"^budget must be a nonnegative integer, got {re.escape(repr(budget))}$"):
        counterexample_search(rule, "condorcet", ExhaustiveComplete(3, 3), budget=budget)


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


BAD_TOLS = pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])


@BAD_TOLS
def test_checkers_reject_a_bad_tolerance(four_voter, tol):
    # unchecked, NaN passed any output and -1 failed gpm on gpmd itself
    target = gpmd(four_voter, EpsilonPolicy.limit())
    for axiom, output in (("preference-equivalence", ResponseDistribution((0.9, 0.05, 0.05))), ("gpm", target)):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            run_check(axiom, four_voter, output, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            axiom_conclusion(axiom, axiom_premise(axiom, four_voter), output, tol=tol)


@BAD_TOLS
def test_search_rejects_a_bad_tolerance_before_any_profile(tol):
    rule = make_rule("gpmd-limit", RuleKind.PROBABILISTIC)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        counterexample_search(rule, "gpm", ExhaustiveComplete(3, 2), tol=tol, budget=0)


def test_zero_tolerance_is_accepted():
    rule = make_rule("gpmd-limit", RuleKind.PROBABILISTIC)
    out = counterexample_search(rule, "gpm", ExhaustiveComplete(3, 2), tol=0.0)
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
