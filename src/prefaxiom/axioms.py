"""Mechanical checkers for ordinal and distributional consistency properties.

Each checker returns an AxiomReport separating applicability (does the
profile satisfy the axiom's premise?) from satisfaction (does the rule output
honor the conclusion?).  A report with applicable=False always carries
satisfied=True: axioms hold vacuously where their premise fails, and search
treats such instances as non-witnesses.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Mapping

from .distributions import ResponseDistribution
from .errors import NotCompleteProfileError, SpaceTooLargeError
from .gpmd import EpsilonPolicy, gpmd
from .profiles import (
    CandidateSet,
    PairwiseTally,
    PreferenceProfile,
    ProfileKind,
    Ranking,
    TiePolicy,
    Voter,
    default_labels,
    generate_assumption1,
    generate_complete,
    profile_from_pairs,
    tally,
)
from .reward import (
    WeightMatrix,
    bt_embeddable,
    minimizer_exists,
    rank_by_scores,
    softmax,
    solve_mle,
    top_component,
    weights_copeland,
    weights_gpm,
    weights_standard,
)
from .rules import (
    borda_scores,
    condorcet_winner,
    copeland_scores,
    majority_winner,
    pm_consistent_ranking,
    ranking_from_scores,
)

ENUMERATION_BOUND = 10**7


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    applicable: bool
    satisfied: bool
    witness: Mapping | None = None

    def __post_init__(self):
        if not self.applicable and not self.satisfied:
            raise ValueError("a non-applicable axiom holds vacuously")

    @classmethod
    def vacuous(cls, axiom: str) -> "AxiomReport":
        return cls(axiom, applicable=False, satisfied=True)

    @property
    def violated(self) -> bool:
        return self.applicable and not self.satisfied

    def to_json_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "applicable": self.applicable,
            "satisfied": self.satisfied,
            "witness": dict(self.witness) if self.witness is not None else None,
        }


def check_pareto(profile: PreferenceProfile, ranking: Ranking) -> AxiomReport:
    """Unanimously preferred candidates must be ranked strictly higher.

    Applicable iff some compared pair is unanimous; a tie class containing
    both members of a unanimous pair violates.
    """
    w = tally(profile).wins
    # i over j is unanimous iff P(i over j) = 1: some judgment for i, none for j
    unanimous = [
        (i, j) for i, row in enumerate(w) for j, x in enumerate(row) if x > 0 and w[j][i] == 0
    ]
    if not unanimous:
        return AxiomReport.vacuous("pareto")
    for i, j in unanimous:
        if not ranking.strictly_above(i, j):
            return AxiomReport(
                "pareto",
                applicable=True,
                satisfied=False,
                witness={"pair": [i, j], "note": "unanimous pair not strictly separated"},
            )
    return AxiomReport("pareto", applicable=True, satisfied=True)


def check_majority(profile: PreferenceProfile, ranking: Ranking) -> AxiomReport:
    """A candidate ranked first by over half the voters must be the unique top."""
    try:
        winner = majority_winner(profile)
    except NotCompleteProfileError:
        return AxiomReport.vacuous("majority")
    if winner is None:
        return AxiomReport.vacuous("majority")
    top = ranking.top_class()
    if top == (winner,):
        return AxiomReport("majority", applicable=True, satisfied=True)
    return AxiomReport(
        "majority",
        applicable=True,
        satisfied=False,
        witness={"majority_winner": winner, "top_class": list(top)},
    )


def check_pairwise_majority(t: PairwiseTally, ranking: Ranking) -> AxiomReport:
    """When the majority relation is a strict linear order, return exactly it."""
    expected = pm_consistent_ranking(t)
    if expected is None:
        return AxiomReport.vacuous("pairwise-majority")
    if ranking.is_strict and ranking.order == expected.order:
        return AxiomReport("pairwise-majority", applicable=True, satisfied=True)
    return AxiomReport(
        "pairwise-majority",
        applicable=True,
        satisfied=False,
        witness={
            "expected_order": list(expected.order),
            "actual_order": list(ranking.order),
            "actual_has_ties": not ranking.is_strict,
        },
    )


def check_condorcet(t: PairwiseTally, ranking: Ranking) -> AxiomReport:
    """A candidate beating every other by majority must be the unique top."""
    winner = condorcet_winner(t)
    if winner is None:
        return AxiomReport.vacuous("condorcet")
    top = ranking.top_class()
    if top == (winner,):
        return AxiomReport("condorcet", applicable=True, satisfied=True)
    return AxiomReport(
        "condorcet",
        applicable=True,
        satisfied=False,
        witness={"condorcet_winner": winner, "top_class": list(top)},
    )


def check_preference_matching(
    t: PairwiseTally, dist: ResponseDistribution, tol: float = 1e-6
) -> AxiomReport:
    """On BT-embeddable tallies, p_i / (p_i + p_j) must reproduce each proportion."""
    axiom = "preference-matching"
    if not t.defined_on_all_pairs:
        return AxiomReport.vacuous(axiom)
    if bt_embeddable(t) is None:
        return AxiomReport.vacuous(axiom)
    n = t.n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            target = float(t.prop(i, j))
            denom = float(dist[i]) + float(dist[j])
            if denom == 0.0:
                return AxiomReport(
                    axiom,
                    applicable=True,
                    satisfied=False,
                    witness={"pair": [i, j], "note": "both probabilities are zero"},
                )
            actual = float(dist[i]) / denom
            if abs(actual - target) > tol:
                return AxiomReport(
                    axiom,
                    applicable=True,
                    satisfied=False,
                    witness={"pair": [i, j], "target": target, "actual": actual},
                )
    return AxiomReport(axiom, applicable=True, satisfied=True)


def equally_preferred(profile: PreferenceProfile, i: int, j: int) -> bool:
    """Whether swapping candidates i and j maps the electorate onto itself."""
    if profile.kind is not ProfileKind.COMPLETE:
        raise NotCompleteProfileError("preference equivalence needs full rankings")
    if i == j:
        raise ValueError("need two distinct candidates")
    # a strict ranking is its order tuple, so comparing the multisets of
    # orders before and after the swap needs no permuted copy of the profile
    swap = {i: j, j: i}
    orders = Counter(v.ranking.order for v in profile.voters)
    swapped = Counter(tuple(swap.get(k, k) for k in v.ranking.order) for v in profile.voters)
    return orders == swapped


def check_preference_equivalence(
    profile: PreferenceProfile, dist: ResponseDistribution, tol: float = 1e-6
) -> AxiomReport:
    """Equally-preferred candidates must receive equal probability."""
    axiom = "preference-equivalence"
    pairs = [
        (i, j)
        for i in range(profile.n)
        for j in range(i + 1, profile.n)
        if equally_preferred(profile, i, j)
    ]
    if not pairs:
        return AxiomReport.vacuous(axiom)
    for i, j in pairs:
        if abs(float(dist[i]) - float(dist[j])) > tol:
            return AxiomReport(
                axiom,
                applicable=True,
                satisfied=False,
                witness={"pair": [i, j], "p_i": float(dist[i]), "p_j": float(dist[j])},
            )
    return AxiomReport(axiom, applicable=True, satisfied=True)


def check_group_preference_matching(
    profile: PreferenceProfile,
    dist: ResponseDistribution,
    epsilon_policy: EpsilonPolicy | None = None,
    tol: float = 1e-6,
) -> AxiomReport:
    """The distribution must equal the group matching distribution within tol."""
    axiom = "gpm"
    policy = epsilon_policy or EpsilonPolicy.limit()
    target = gpmd(profile, policy)
    gap = dist.linf_distance(target)
    if gap <= tol:
        return AxiomReport(axiom, applicable=True, satisfied=True)
    return AxiomReport(
        axiom,
        applicable=True,
        satisfied=False,
        witness={
            "linf_gap": gap,
            "target": [float(x) for x in target],
            "actual": [float(x) for x in dist],
        },
    )


ORDINAL_AXIOMS = ("pareto", "majority", "pairwise-majority", "condorcet")
PROBABILISTIC_AXIOMS = ("preference-matching", "preference-equivalence", "gpm")


class RuleKind(Enum):
    ORDINAL = "ordinal"
    PROBABILISTIC = "probabilistic"


@dataclass(frozen=True)
class RuleUnderTest:
    """A named map from profiles to rankings (ordinal) or distributions."""

    name: str
    kind: RuleKind
    fn: Callable[[PreferenceProfile], "Ranking | ResponseDistribution"]

    def __call__(self, profile: PreferenceProfile):
        return self.fn(profile)


ORDINAL_RULES = ("borda", "copeland", "mle-standard", "mle-copeland", "mle-gpm")
PROBABILISTIC_RULES = ("mle-standard", "mle-copeland", "mle-gpm", "gpmd-limit")
RULE_NAMES = tuple(dict.fromkeys(ORDINAL_RULES + PROBABILISTIC_RULES))


def rule_weights(
    name: str,
    profile: PreferenceProfile,
    *,
    tie_policy: TiePolicy = TiePolicy.HALF_POINT,
    epsilon_policy: EpsilonPolicy | None = None,
) -> WeightMatrix:
    """The weight matrix whose pairwise-logistic MLE is the named rule.

    mle-standard weighs raw win counts (its MLE orders by Borda), mle-copeland
    majority indicators (Copeland), and mle-gpm the weights whose stationary
    point is the group matching distribution under `epsilon_policy`
    (default: the finite policy).
    """
    if name == "mle-standard":
        return weights_standard(tally(profile))
    if name == "mle-copeland":
        return weights_copeland(tally(profile), tie_policy)
    if name == "mle-gpm":
        return weights_gpm(gpmd(profile, epsilon_policy or EpsilonPolicy.finite()))
    raise ValueError(f"rule {name!r} is not an MLE rule")


def _mle_distribution(weights: WeightMatrix) -> ResponseDistribution:
    """Softmax of the MLE rewards, or its ridge -> 0 limit when they are infinite.

    Along the ridge path the top component's rewards pull away from every
    other candidate's while their differences inside the component tend to
    the component's own MLE, so the limit is that component's softmax and
    zero elsewhere.
    """
    if minimizer_exists(weights):
        return softmax(solve_mle(weights))
    top = top_component(weights)
    probs = [0.0] * weights.n
    if len(top) == 1:
        probs[top[0]] = 1.0
    else:
        inner = WeightMatrix([[weights.w[i][j] for j in top] for i in top])
        for i, p in zip(top, softmax(solve_mle(inner))):
            probs[i] = p
    return ResponseDistribution(tuple(probs))


def make_rule(
    name: str,
    kind: RuleKind,
    *,
    tie_policy: TiePolicy = TiePolicy.HALF_POINT,
    epsilon_policy: EpsilonPolicy | None = None,
) -> RuleUnderTest:
    """Construct a registry rule; raises ValueError for unsupported pairings.

    ORDINAL_RULES and PROBABILISTIC_RULES list the names each kind accepts;
    the mle-* rules take their weights from rule_weights.  Ordinal rules
    group equal scores into tie classes.  Ordinal MLE rules route through the
    exact score shortcut (rank_by_scores), the sanctioned path for axiom
    verdicts.  Probabilistic MLE rules softmax the solved rewards when a
    finite MLE exists (the positive-weight digraph is strongly connected).
    Otherwise they return the exact ridge -> 0 limit of the regularized
    softmax: the top component's own softmax, zero elsewhere.  A generalized
    profile whose condensation has several source components has no such top
    and raises NoUniqueTopError.
    """
    if name not in (ORDINAL_RULES if kind is RuleKind.ORDINAL else PROBABILISTIC_RULES):
        raise ValueError(f"rule {name!r} has no {kind.value} form")
    if name == "borda":
        return RuleUnderTest(name, kind, lambda p: ranking_from_scores(borda_scores(tally(p))))
    if name == "copeland":
        return RuleUnderTest(
            name, kind, lambda p: ranking_from_scores(copeland_scores(tally(p), tie_policy))
        )
    if name == "gpmd-limit":
        return RuleUnderTest(name, kind, lambda p: gpmd(p, EpsilonPolicy.limit()))

    def weights(p: PreferenceProfile) -> WeightMatrix:
        return rule_weights(name, p, tie_policy=tie_policy, epsilon_policy=epsilon_policy)

    if kind is RuleKind.ORDINAL:
        return RuleUnderTest(name, kind, lambda p: rank_by_scores(weights(p)))
    return RuleUnderTest(name, kind, lambda p: _mle_distribution(weights(p)))


@dataclass(frozen=True)
class ExhaustiveComplete:
    """Every m-tuple of strict rankings over n candidates, lexicographic."""

    n: int
    m: int


@dataclass(frozen=True)
class RandomComplete:
    """Seeded uniform complete profiles; trial t uses seed*1000003 + t."""

    n: int
    m: int
    trials: int
    seed: int


@dataclass(frozen=True)
class Assumption1:
    """Tournaments: exhaustive over all orientations when trials is None."""

    n: int
    trials: int | None = None
    seed: int | None = None


def _derive(seed: int, t: int) -> int:
    return seed * 1_000_003 + t


def space_size(space) -> int:
    if isinstance(space, ExhaustiveComplete):
        return math.factorial(space.n) ** space.m
    if isinstance(space, RandomComplete):
        return space.trials
    if isinstance(space, Assumption1):
        if space.trials is not None:
            return space.trials
        return 2 ** (space.n * (space.n - 1) // 2)
    raise TypeError(f"unknown search space {space!r}")


def iter_profiles(space) -> Iterator[PreferenceProfile]:
    """Deterministic profile stream for a search space.

    Exhaustive spaces larger than the enumeration bound (10^7) are refused;
    random spaces require a seed.
    """
    size = space_size(space)
    if isinstance(space, (ExhaustiveComplete, Assumption1)) and (
        not isinstance(space, Assumption1) or space.trials is None
    ):
        if size > ENUMERATION_BOUND:
            raise SpaceTooLargeError(
                f"{size} instances exceed the enumeration bound {ENUMERATION_BOUND}"
            )
    if isinstance(space, (RandomComplete,)) and space.seed is None:
        raise ValueError("random spaces need a seed")
    if isinstance(space, Assumption1) and space.trials is not None and space.seed is None:
        raise ValueError("random spaces need a seed")

    if isinstance(space, ExhaustiveComplete):
        return _iter_exhaustive_complete(space.n, space.m)
    if isinstance(space, RandomComplete):
        return (
            generate_complete(space.n, space.m, _derive(space.seed, t))
            for t in range(space.trials)
        )
    if isinstance(space, Assumption1):
        if space.trials is None:
            return _iter_tournaments(space.n)
        return (
            generate_assumption1(space.n, _derive(space.seed, t))
            for t in range(space.trials)
        )
    raise TypeError(f"unknown search space {space!r}")


def _iter_exhaustive_complete(n: int, m: int) -> Iterator[PreferenceProfile]:
    cset = CandidateSet(default_labels(n))
    rankings = [Ranking(order) for order in sorted(itertools.permutations(range(n)))]
    # one Voter per (seat, ranking), shared by every profile of the scan
    seats = [
        tuple(Voter(id=f"v{k + 1}", ranking=ranking) for ranking in rankings) for k in range(m)
    ]
    for voters in itertools.product(*seats):
        yield PreferenceProfile(cset, voters)


def _iter_tournaments(n: int) -> Iterator[PreferenceProfile]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for code in range(2 ** len(pairs)):
        winners = []
        for bit, (i, j) in enumerate(pairs):
            if code >> bit & 1:
                winners.append((i, j))
            else:
                winners.append((j, i))
        yield profile_from_pairs(n, winners)


def run_check(
    axiom: str,
    profile: PreferenceProfile,
    output: "Ranking | ResponseDistribution",
    *,
    tol: float = 1e-6,
    epsilon_policy: EpsilonPolicy | None = None,
) -> AxiomReport:
    """Dispatch one axiom checker on a rule output."""
    if axiom == "pareto":
        return check_pareto(profile, output)
    if axiom == "majority":
        return check_majority(profile, output)
    if axiom == "pairwise-majority":
        return check_pairwise_majority(tally(profile), output)
    if axiom == "condorcet":
        return check_condorcet(tally(profile), output)
    if axiom == "preference-matching":
        return check_preference_matching(tally(profile), output, tol)
    if axiom == "preference-equivalence":
        return check_preference_equivalence(profile, output, tol)
    if axiom in ("gpm", "group-preference-matching"):
        return check_group_preference_matching(profile, output, epsilon_policy, tol)
    raise ValueError(f"unknown axiom {axiom!r}")


@dataclass(frozen=True)
class SearchOutcome:
    """Either a first violation (lowest index) or an exhaustion proof."""

    found: bool
    examined: int
    index: int | None = None
    profile: PreferenceProfile | None = None
    report: AxiomReport | None = None


def counterexample_search(
    rule: RuleUnderTest,
    axiom: str,
    space,
    *,
    tol: float = 1e-6,
    epsilon_policy: EpsilonPolicy | None = None,
    budget: int | None = None,
) -> SearchOutcome:
    """Scan a space for the first profile where the rule violates the axiom.

    Instances are checked one at a time in the space's deterministic index
    order, at most `budget` of them, so the first violation found is the
    lowest-index one.
    """
    if axiom in ORDINAL_AXIOMS and rule.kind is not RuleKind.ORDINAL:
        raise ValueError(f"axiom {axiom!r} needs an ordinal rule")
    if axiom in PROBABILISTIC_AXIOMS and rule.kind is not RuleKind.PROBABILISTIC:
        raise ValueError(f"axiom {axiom!r} needs a probabilistic rule")

    stream = iter_profiles(space)
    if budget is not None:
        stream = itertools.islice(stream, budget)

    examined = 0
    for idx, profile in enumerate(stream):
        examined += 1
        report = run_check(axiom, profile, rule(profile), tol=tol, epsilon_policy=epsilon_policy)
        if report.violated:
            return SearchOutcome(True, examined, idx, profile, report)
    return SearchOutcome(False, examined)
