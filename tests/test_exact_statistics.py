"""Integer statistics paths against the Fraction-sum formulas they replaced.

Tallies and majority relations are computed once per profile, scores are
summed as integer numerators over a common lcm, and ordinal rules rank by
exact integer keys instead of Fraction scores or weight-matrix scores.  Every test here
recomputes the same quantity the plain way (Fraction sums, proportions
against 1, the weight-matrix path) and asserts exact equality.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefaxiom import (
    Assumption1,
    AxiomReport,
    CandidateSet,
    Comparison,
    EpsilonPolicy,
    ExhaustiveComplete,
    NotConstantTotalError,
    ORDINAL_AXIOMS,
    PairwiseTally,
    PrefaxiomError,
    PreferenceProfile,
    RandomComplete,
    Ranking,
    RewardVector,
    RuleKind,
    TiePolicy,
    UndefinedPairError,
    Voter,
    WeightMatrix,
    borda_scores,
    condorcet_winner,
    copeland_half_points,
    copeland_scores,
    counterexample_search,
    default_labels,
    generate_complete,
    gpmd,
    has_condorcet_cycle,
    make_rule,
    majority_relation,
    minimizer_exists,
    pm_consistent_ranking,
    rank_by_scores,
    ranking_from_scores,
    rule_weights,
    run_check,
    scores,
    solve_mle,
    tally,
    top_component,
    weights_copeland,
    weights_gpm,
    weights_standard,
)
from test_profiles import small_tallies

MLE_RULES = ("mle-standard", "mle-copeland", "mle-gpm")


def comparison_profile(n: int, m: int, seed: int, *, all_pairs: bool) -> PreferenceProfile:
    """m comparison voters, each judging a random non-empty set of pairs.

    With all_pairs, one more voter judges every pair nobody else did, so
    every proportion is defined; per-pair totals stay uneven.
    """
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    voters = []
    judged = set()
    for k in range(m):
        chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
        judged.update(chosen)
        vid = f"v{k + 1}"
        comps = [Comparison(*(p if rng.random() < 0.5 else p[::-1])) for p in chosen]
        voters.append(Voter(vid, comparisons=tuple(comps)))
    missing = [p for p in pairs if p not in judged]
    if all_pairs and missing:
        vid = f"v{m + 1}"
        voters.append(Voter(vid, comparisons=tuple(Comparison(i, j) for i, j in missing)))
    return PreferenceProfile(CandidateSet(default_labels(n)), tuple(voters))


def random_profile(n: int, m: int, seed: int, complete: bool, *, all_pairs: bool = False):
    if complete:
        return generate_complete(n, m, seed)
    return comparison_profile(n, m, seed, all_pairs=all_pairs)


def fraction_borda(t) -> tuple[Fraction, ...]:
    n = t.n
    return tuple(sum((t.prop(i, j) for j in range(n) if j != i), Fraction(0)) for i in range(n))


def fraction_pair_total(w: WeightMatrix) -> Fraction | None:
    n = w.n
    totals = {w.w[i][j] + w.w[j][i] for i in range(n) for j in range(i + 1, n)}
    total = totals.pop() if len(totals) == 1 else 0
    return total if total > 0 else None


def fraction_scores(w: WeightMatrix) -> tuple[Fraction, ...] | None:
    total = fraction_pair_total(w)
    if total is None:
        return None
    n = w.n
    return tuple(
        sum((w.w[k][j] for j in range(n) if j != k), Fraction(0)) / total for k in range(n)
    )


def assert_scores_match(weights: WeightMatrix) -> None:
    assert weights.pair_total == fraction_pair_total(weights)
    expected = fraction_scores(weights)
    if expected is None:
        with pytest.raises(NotConstantTotalError):
            scores(weights)
    else:
        assert scores(weights) == expected


def proportion_tally(n: int, seed: int) -> PairwiseTally:
    """Each pair's two counts drawn directly, total 1 to 12: uneven per-pair totals."""
    rng = random.Random(seed)
    wins = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        total = rng.randint(1, 12)
        wins[i][j] = rng.randint(0, total)
        wins[j][i] = total - wins[i][j]
    return PairwiseTally(wins)


PROFILE_ARGS = (st.integers(2, 6), st.integers(1, 7), st.integers(0, 10**6), st.booleans())


# ------------------------------------------------------------------ tallies

@given(*PROFILE_ARGS)
@settings(max_examples=80, deadline=None)
def test_tally_is_counted_once_and_matches_a_naive_count(n, m, seed, complete):
    profile = random_profile(n, m, seed, complete)
    t = tally(profile)
    assert tally(profile) is t
    wins = [[0] * n for _ in range(n)]
    for v in profile.voters:
        if v.ranking is not None:
            pairs = itertools.combinations(v.ranking.order, 2)
        else:
            pairs = ((c.winner, c.loser) for c in v.comparisons)
        for winner, loser in pairs:
            wins[winner][loser] += 1
    assert t.wins == tuple(tuple(row) for row in wins)
    if all(wins[i][j] + wins[j][i] for i, j in itertools.combinations(range(n), 2)):
        assert majority_relation(t) is majority_relation(t)
    else:
        with pytest.raises(UndefinedPairError):
            majority_relation(t)


# ------------------------------------------------------------------- scores

@given(*PROFILE_ARGS)
@settings(max_examples=80, deadline=None)
def test_borda_matches_fraction_sums_on_uneven_totals(n, m, seed, complete):
    t = tally(random_profile(n, m, seed, complete, all_pairs=True))
    assert borda_scores(t) == fraction_borda(t)
    t = proportion_tally(n, seed)
    assert borda_scores(t) == fraction_borda(t)


@given(*PROFILE_ARGS)
@settings(max_examples=80, deadline=None)
def test_scores_match_fraction_sums(n, m, seed, complete):
    t = tally(random_profile(n, m, seed, complete, all_pairs=True))
    # raw counts: constant total on complete profiles, none on uneven ones
    assert_scores_match(weights_standard(t))
    # Copeland indicators, half weights on ties
    for policy in TiePolicy:
        assert_scores_match(weights_copeland(t, policy))
    # proportions as weights: total 1, a different denominator on every pair
    for tt in (t, proportion_tally(n, seed)):
        props = [[tt.prop(i, j) if i != j else 0 for j in range(n)] for i in range(n)]
        assert_scores_match(WeightMatrix(props))


def _outcome(f, weights):
    """f(weights), or the type and the message of the package error it raises."""
    try:
        return f(weights)
    except PrefaxiomError as e:
        return type(e), str(e)


def _bits(sol) -> tuple:
    """A solve's rewards and gradient norm as exact float bit patterns (-0.0 is not 0.0)."""
    return [x.hex() for x in sol.r], sol.status.grad_norm.hex()


@given(*PROFILE_ARGS, st.booleans())
@settings(max_examples=80, deadline=None)
def test_a_tally_answers_as_the_weight_matrix_of_its_counts(n, m, seed, complete, all_pairs):
    # complete tallies, comparison-voter tallies, and ones with a pair never compared
    profile = random_profile(n, m, seed, complete, all_pairs=all_pairs)
    t = tally(profile)
    w = WeightMatrix(t.wins)
    assert isinstance(t, WeightMatrix) and weights_standard(t) is t
    assert rule_weights("mle-standard", profile) is t
    assert (t.pair_total, type(t.pair_total)) == (w.pair_total, type(w.pair_total))
    assert (t.array.dtype, t.array.shape) == (w.array.dtype, w.array.shape)
    assert t.array.tobytes() == w.array.tobytes()
    assert minimizer_exists(t) == minimizer_exists(w)
    assert _outcome(top_component, t) == _outcome(top_component, w)
    assert _outcome(scores, t) == _outcome(scores, w)
    solved = _outcome(solve_mle, t), _outcome(solve_mle, w)
    assert solved[0] == solved[1]
    if isinstance(solved[0], RewardVector):
        assert _bits(solved[0]) == _bits(solved[1])


@given(st.integers(2, 7), st.integers(1, 9), st.integers(0, 10**6),
       st.sampled_from([Fraction(1, 3), Fraction(49, 100), Fraction(1, 1000)]))
@settings(max_examples=60, deadline=None)
def test_gpm_weights_and_scores_match_fraction_sums(n, m, seed, eps):
    target = gpmd(generate_complete(n, m, seed), EpsilonPolicy.finite(eps))
    weights = weights_gpm(target)
    p = target.p
    assert weights.w == tuple(
        tuple(Fraction(0) if i == j else p[i] / (p[i] + p[j]) for j in range(n)) for i in range(n)
    )
    assert_scores_match(weights)


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_ranking_from_scores_matches_the_negated_key_sort(values):
    ranking = ranking_from_scores(tuple(values))
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    assert ranking.order == tuple(order)
    classes = [list(g) for _, g in itertools.groupby(order, key=lambda i: values[i])]
    assert ranking.classes() == tuple(tuple(c) for c in classes)


# floats on a grid of half the tolerance, so near-ties and gaps of exactly
# 1e-8 are common, mixed with arbitrary floats and both zeros
NEAR_TIES = st.one_of(
    st.integers(-6, 6).map(lambda k: k * 0.5e-8),
    st.floats(-3, 3),
    st.sampled_from([0.0, -0.0]),
)


@given(st.lists(NEAR_TIES, min_size=1, max_size=8), st.sampled_from([1e-8, 0.5, 2.0]))
@settings(max_examples=200, deadline=None)
def test_ranking_from_scores_within_tol_groups_the_runs_of_the_descending_sort(values, tol):
    values = tuple(values)
    desc = sorted(range(len(values)), key=lambda i: (-values[i], i))
    # the maximal runs whose consecutive gaps are at most tol
    cuts = [k for k in range(1, len(desc)) if values[desc[k - 1]] - values[desc[k]] > tol]
    runs = [desc[a:b] for a, b in zip([0] + cuts, cuts + [len(desc)])]
    ranking = ranking_from_scores(values, tol=tol)
    assert ranking.classes() == tuple(tuple(sorted(run)) for run in runs)
    assert ranking.order == tuple(i for run in runs for i in sorted(run))
    # at tol = 0 only equal values tie
    exact = ranking_from_scores(values).classes()
    assert sorted(map(sorted, exact)) == sorted(
        sorted(i for i in range(len(values)) if values[i] == x) for x in set(values)
    )


# ------------------------------------------------- Borda and Copeland by key

def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except PrefaxiomError as e:
        return type(e), str(e)


def pair_oracle(t, name: str, tie_policy: TiePolicy) -> tuple[Fraction, ...]:
    """Borda or Copeland scores summed pair by pair over Fraction proportions."""
    n = t.n
    for i, j in itertools.combinations(range(n), 2):
        if t.total(i, j) == 0:
            raise UndefinedPairError(f"pair {(i, j)} has no comparisons")
    half = Fraction(1, 2)
    tie = half if tie_policy is TiePolicy.HALF_POINT else Fraction(0)

    def points(p: Fraction) -> Fraction:
        if name == "borda":
            return p
        return Fraction(1) if p > half else tie if p == half else Fraction(0)

    return tuple(
        sum((points(t.prop(i, j)) for j in range(n) if j != i), Fraction(0)) for i in range(n)
    )


def tally_profile(t) -> PreferenceProfile:
    """Comparison voters whose tally is t: voter k casts the k-th judgment of each pair."""
    judgments: dict[int, list[tuple[int, int]]] = {}
    for i, j in itertools.combinations(range(t.n), 2):
        pair = [(i, j)] * t.wins[i][j] + [(j, i)] * t.wins[j][i]
        for k, judgment in enumerate(pair):
            judgments.setdefault(k, []).append(judgment)
    voters = tuple(
        Voter(f"v{k + 1}", comparisons=tuple(Comparison(*c) for c in judgments[k]))
        for k in sorted(judgments)
    )
    return PreferenceProfile(CandidateSet(default_labels(t.n)), voters)


def assert_rules_match_pair_oracle(profile: PreferenceProfile) -> None:
    t = tally(profile)
    for tie_policy in TiePolicy:
        expected = outcome(lambda: pair_oracle(t, "borda", tie_policy))
        assert outcome(lambda: borda_scores(t)) == expected
        expected = outcome(lambda: pair_oracle(t, "copeland", tie_policy))
        assert outcome(lambda: copeland_scores(t, tie_policy)) == expected
        for name in ("borda", "copeland"):
            rule = make_rule(name, RuleKind.ORDINAL, tie_policy=tie_policy)
            expected = outcome(lambda: ranking_from_scores(pair_oracle(t, name, tie_policy)))
            assert outcome(lambda: rule(profile)) == expected, (name, tie_policy)


@given(*PROFILE_ARGS, st.sampled_from(["complete-or-comparison", "all-pairs", "uneven"]))
@settings(max_examples=150, deadline=None)
def test_borda_and_copeland_rank_like_a_per_pair_fraction_oracle(n, m, seed, complete, shape):
    # complete profiles (pair total m), comparison voters that may leave a
    # pair uncompared, comparison voters covering every pair, and voters
    # realizing random proportions (a different total on nearly every pair)
    if shape == "uneven":
        t = proportion_tally(n, seed)
        profile = tally_profile(t)
        assert tally(profile).wins == t.wins
    else:
        profile = random_profile(n, m, seed, complete, all_pairs=shape == "all-pairs")
    assert_rules_match_pair_oracle(profile)


@pytest.mark.parametrize("space", [ExhaustiveComplete(3, 4), Assumption1(4)], ids=repr)
def test_borda_and_copeland_rank_like_a_per_pair_fraction_oracle_exhaustively(space):
    # even m splits pairs evenly: tie classes under both tie policies
    for profile in space.profiles():
        assert_rules_match_pair_oracle(profile)


# ------------------------------------------------- majority questions

def sign_oracle(t) -> list[list[int]]:
    """Each pair's Fraction proportion against 1/2: 1 above, -1 below, 0 at it."""
    n = t.n
    for i, j in itertools.combinations(range(n), 2):
        if t.total(i, j) == 0:
            raise UndefinedPairError(f"pair {(i, j)} has no comparisons")
    half = Fraction(1, 2)

    def sign(p: Fraction) -> int:
        return 1 if p > half else -1 if p < half else 0

    return [[0 if i == j else sign(t.prop(i, j)) for j in range(n)] for i in range(n)]


def linear_order_oracle(signs: list[list[int]]) -> Ranking | None:
    """The order in which every earlier candidate beats every later one, if any."""
    n = len(signs)
    order = sorted(range(n), key=lambda i: -signs[i].count(1))
    if all(signs[a][b] == 1 for a, b in itertools.combinations(order, 2)):
        return Ranking(tuple(order))
    return None


def acyclic_oracle(signs: list[list[int]]) -> bool:
    """True iff peeling off candidates no remaining one beats empties the field."""
    left = set(range(len(signs)))
    while left:
        sources = {i for i in left if not any(signs[j][i] == 1 for j in left)}
        if not sources:
            return False
        left -= sources
    return True


@given(small_tallies(), st.sampled_from(list(TiePolicy)))
@settings(max_examples=300, deadline=None)
def test_majority_questions_match_a_per_pair_fraction_oracle(t, tie_policy):
    # ties and uncompared pairs included; values, or exception types and messages
    signs = outcome(lambda: sign_oracle(t))
    assert outcome(lambda: [list(row) for row in majority_relation(t)]) == signs
    rule = make_rule("mle-copeland", RuleKind.ORDINAL, tie_policy=tie_policy)
    if not isinstance(signs, list):
        for question in (
            lambda: copeland_half_points(t, tie_policy),
            lambda: weights_copeland(t, tie_policy),
            lambda: condorcet_winner(t),
            lambda: pm_consistent_ranking(t),
            lambda: has_condorcet_cycle(t),
        ):
            assert outcome(question) == signs
        expected_rule = signs
    else:
        n = t.n
        tie = Fraction(1, 2) if tie_policy is TiePolicy.HALF_POINT else Fraction(0)
        points = {1: Fraction(1), 0: tie, -1: Fraction(0)}
        weights = [[0 if i == j else points[signs[i][j]] for j in range(n)] for i in range(n)]
        assert [list(row) for row in weights_copeland(t, tie_policy).w] == weights
        half_points = tuple(2 * sum(row) for row in weights)
        assert copeland_half_points(t, tie_policy) == half_points
        winners = [i for i in range(n) if all(signs[i][j] == 1 for j in range(n) if j != i)]
        assert condorcet_winner(t) == (winners[0] if winners else None)
        assert pm_consistent_ranking(t) == linear_order_oracle(signs)
        cyclic, witness = has_condorcet_cycle(t)
        assert cyclic is not acyclic_oracle(signs)
        if cyclic:
            assert len(set(witness)) == len(witness) >= 3
            for a, b in zip(witness, witness[1:] + witness[:1]):
                assert signs[a][b] == 1
        else:
            assert witness is None
        # mle-copeland's domain refuses any half-split under STRICT_ONLY
        split = any(signs[i][j] == 0 for i, j in itertools.combinations(range(n), 2))
        if split and tie_policy is TiePolicy.STRICT_ONLY:
            expected_rule = (NotConstantTotalError, "scores need a constant per-pair total")
        else:
            expected_rule = ranking_from_scores(half_points)
    if any(map(any, t.wins)):
        # a tally with no judgment at all is no profile's
        assert outcome(lambda: rule(tally_profile(t))) == expected_rule


# ------------------------------------------------- ordinal MLE rules by key

def assert_key_matches_weights(profile: PreferenceProfile, policy: EpsilonPolicy | None) -> None:
    for name in MLE_RULES:
        for tie_policy in TiePolicy:
            rule = make_rule(name, RuleKind.ORDINAL, tie_policy=tie_policy, epsilon_policy=policy)
            expected = outcome(lambda: rank_by_scores(
                rule_weights(name, profile, tie_policy=tie_policy, epsilon_policy=policy)
            ))
            assert outcome(lambda: rule(profile)) == expected, (name, tie_policy, policy)


EPSILON_POLICIES = st.one_of(
    st.none(),
    st.just(EpsilonPolicy.limit()),
    st.builds(
        lambda den, num: EpsilonPolicy.finite(Fraction(num % ((den - 1) // 2) + 1, den)),
        st.integers(3, 1000),
        st.integers(0, 10**6),
    ),
)


@given(*PROFILE_ARGS, st.booleans(), EPSILON_POLICIES)
@settings(max_examples=150, deadline=None)
def test_ordinal_mle_keys_rank_like_weight_scores(n, m, seed, complete, all_pairs, policy):
    # complete profiles (pair total m), comparison profiles with every pair
    # compared (uneven totals) and with some pair never compared
    assert_key_matches_weights(random_profile(n, m, seed, complete, all_pairs=all_pairs), policy)


@pytest.mark.parametrize(
    "space", [ExhaustiveComplete(3, 4), ExhaustiveComplete(4, 2), Assumption1(4)], ids=repr
)
def test_ordinal_mle_keys_rank_like_weight_scores_exhaustively(space):
    # even m splits pairs and first places evenly: tie classes in every key
    for profile in space.profiles():
        for policy in (None, EpsilonPolicy.limit(), EpsilonPolicy.finite(Fraction(49, 100))):
            assert_key_matches_weights(profile, policy)


def test_ordinal_mle_search_builds_no_weight_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("an ordinal MLE search built a WeightMatrix")

    monkeypatch.setattr(WeightMatrix, "__post_init__", refuse)
    spaces = (ExhaustiveComplete(3, 3), RandomComplete(4, 4, 50, 3), Assumption1(3))
    for name in MLE_RULES:
        for tie_policy in TiePolicy:
            rule = make_rule(name, RuleKind.ORDINAL, tie_policy=tie_policy)
            for axiom in ORDINAL_AXIOMS:
                for space in spaces:
                    try:
                        counterexample_search(rule, axiom, space)
                    except PrefaxiomError:
                        pass  # a profile outside the rule's domain stops the scan
    # the patch is live: a call that does build a weight matrix refuses
    with pytest.raises(AssertionError):
        weights_copeland(tally(generate_complete(3, 3, 1)))


# ------------------------------------------------------------------- pareto

def fraction_pareto(profile: PreferenceProfile, ranking: Ranking) -> AxiomReport:
    t = tally(profile)
    n = t.n
    unanimous = [
        (i, j) for i in range(n) for j in range(n)
        if i != j and t.total(i, j) > 0 and t.prop(i, j) == 1
    ]
    if not unanimous:
        return AxiomReport.vacuous("pareto")
    for i, j in unanimous:
        if not ranking.strictly_above(i, j):
            return AxiomReport(
                "pareto", True, False, {"pair": [i, j], "note": "unanimous pair not strictly separated"}
            )
    return AxiomReport("pareto", True, True)


@given(*PROFILE_ARGS, st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_pareto_integer_test_matches_unanimous_proportions(n, m, seed, complete, rseed):
    profile = random_profile(n, m, seed, complete)
    rng = random.Random(rseed)
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    ties = [tuple(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    ranking = Ranking(tuple(order), tuple(ties))
    assert run_check("pareto", profile, ranking) == fraction_pareto(profile, ranking)
