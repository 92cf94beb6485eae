"""Mechanical checkers for ordinal and distributional consistency properties.

Each axiom is a premise and a conclusion.  The premise (`axiom_premise`)
reads only the profile or its tally and returns the facts the conclusion
needs: the unanimous pairs, the majority winner, the pairwise-majority
order, the Condorcet winner, the BT-embeddable tally, the equally-preferred
pairs or the group matching target.  It returns None where the axiom holds
vacuously.  The conclusion (`axiom_conclusion`) judges a rule output against
those facts.  One table maps each axiom name to its rule kind, premise and
conclusion, and `run_check` is the one checker: the premise followed by the
conclusion.

A checker returns an AxiomReport separating applicability (does the profile
satisfy the axiom's premise?) from satisfaction (does the rule output honor
the conclusion?).  A report with applicable=False always carries
satisfied=True: axioms hold vacuously where their premise fails, and search
treats such instances as non-witnesses.

A rule under test splits the same way, into a domain step that raises what
the rule raises on a profile and the evaluation proper.  A second table maps
each rule name to its forms: the ordinal domain step and the exact key the
rule ranks by, and the MLE weights or the distribution of its probabilistic
form.  Borda and mle-standard rank by one key, Copeland and mle-copeland by
another, and differ only in their domain steps.  So `counterexample_search`
runs the domain step and the premise on every profile, and evaluates the
rule only where the premise holds: a vacuous profile costs no solve, yet a
profile outside the rule's domain still raises.

Search spaces check their own parameters when built and know their size and
its log10, whether they are exhaustive, and their deterministic profile stream.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, Iterator, Mapping, NamedTuple

from .distributions import ResponseDistribution
from .errors import NotCompleteProfileError, SpaceTooLargeError
from .gpmd import EpsilonPolicy, gpmd
from .profiles import (
    PairwiseTally,
    PreferenceProfile,
    Ranking,
    TiePolicy,
    enumerate_complete,
    generate_assumption1,
    generate_complete,
    majority_relation,
    profile_from_pairs,
    require_count,
    require_finite_nonnegative,
    tally,
)
from .reward import (
    RewardVector,
    WeightMatrix,
    bt_odds,
    fit_mle,
    require_constant,
    require_positive,
    softmax,
    top_component,
    weights_copeland,
    weights_gpm,
    weights_standard,
)
from .rules import (
    borda_points,
    condorcet_winner,
    copeland_half_points,
    majority_winner,
    pm_consistent_ranking,
    ranking_from_scores,
)

ENUMERATION_BOUND = 10**7


class RuleKind(Enum):
    ORDINAL = "ordinal"
    PROBABILISTIC = "probabilistic"


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


# ------------------------------------------------------------------ premises


def _unanimous_pairs(t: PairwiseTally) -> list[tuple[int, int]] | None:
    """Compared pairs (i, j) that every judgment of the pair puts i first."""
    w = t.wins
    # i over j is unanimous iff P(i over j) = 1: some judgment for i, none for j
    pairs = [
        (i, j) for i, row in enumerate(w) for j, x in enumerate(row) if x > 0 and w[j][i] == 0
    ]
    return pairs or None


def _majority_premise(profile: PreferenceProfile) -> int | None:
    """The majority winner; None on profiles without one or without full rankings."""
    try:
        return majority_winner(profile)
    except NotCompleteProfileError:
        return None


def _bt_embeddable_tally(t: PairwiseTally) -> PairwiseTally | None:
    """The tally itself when its proportions embed in a Bradley-Terry model.

    `bt_odds` decides that exactly, and its odds exist only when every pair
    was judged both ways.
    """
    return None if bt_odds(t) is None else t


def _swap_invariant(orders: Counter, i: int, j: int) -> bool:
    """Whether swapping i and j maps a multiset of strict orders onto itself."""
    # a strict ranking is its order tuple, so comparing the multisets of
    # orders before and after the swap needs no permuted copy of the profile;
    # the swap is a bijection on orders, so counts carry over key by key
    swap = {i: j, j: i}
    return orders == Counter(
        {tuple(swap.get(k, k) for k in order): c for order, c in orders.items()}
    )


def _equally_preferred_pairs(profile: PreferenceProfile) -> list[tuple[int, int]] | None:
    orders = Counter(profile.orders)
    w = tally(profile).wins
    # a swap-invariant electorate splits the swapped pair evenly, a cheap
    # test on the cached tally that rules out most pairs (every pair, at odd m)
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(profile.n), 2)
        if w[i][j] == w[j][i] and _swap_invariant(orders, i, j)
    ]
    return pairs or None


# --------------------------------------------------------------- conclusions
# Each conclusion takes the premise's facts, the rule output and the
# tolerance, and returns the witness of a violation, or None.


def _pareto(unanimous: list[tuple[int, int]], ranking: Ranking, tol: float) -> dict | None:
    for i, j in unanimous:
        if not ranking.strictly_above(i, j):
            return {"pair": [i, j], "note": "unanimous pair not strictly separated"}
    return None


def _unique_top(key: str, winner: int, ranking: Ranking, tol: float) -> dict | None:
    """The winner must be the ranking's unique top; `key` names it in the witness."""
    top = ranking.top_class()
    if top == (winner,):
        return None
    return {key: winner, "top_class": list(top)}


def _pairwise_majority(expected: Ranking, ranking: Ranking, tol: float) -> dict | None:
    if ranking.is_strict and ranking.order == expected.order:
        return None
    return {
        "expected_order": list(expected.order),
        "actual_order": list(ranking.order),
        "actual_has_ties": not ranking.is_strict,
    }


def _preference_matching(t: PairwiseTally, dist: ResponseDistribution, tol: float) -> dict | None:
    n = t.n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            target = float(t.prop(i, j))
            denom = float(dist[i]) + float(dist[j])
            if denom == 0.0:
                return {"pair": [i, j], "note": "both probabilities are zero"}
            actual = float(dist[i]) / denom
            if abs(actual - target) > tol:
                return {"pair": [i, j], "target": target, "actual": actual}
    return None


def _preference_equivalence(
    pairs: list[tuple[int, int]], dist: ResponseDistribution, tol: float
) -> dict | None:
    for i, j in pairs:
        if abs(float(dist[i]) - float(dist[j])) > tol:
            return {"pair": [i, j], "p_i": float(dist[i]), "p_j": float(dist[j])}
    return None


def _group_preference_matching(
    target: ResponseDistribution, dist: ResponseDistribution, tol: float
) -> dict | None:
    gap = dist.linf_distance(target)
    if gap <= tol:
        return None
    return {
        "linf_gap": gap,
        "target": [float(x) for x in target],
        "actual": [float(x) for x in dist],
    }


# --------------------------------------------------------------- the table


class _Axiom(NamedTuple):
    kind: RuleKind
    premise: Callable[[PreferenceProfile, EpsilonPolicy | None], object]
    conclusion: Callable[[object, "Ranking | ResponseDistribution", float], "dict | None"]


# The premises call tally, gpmd and the other statistics through this
# module's globals at call time, so whoever rebinds those names (a tracer)
# sees every call; the table holds no reference to them.
_AXIOMS = {
    "pareto": _Axiom(
        RuleKind.ORDINAL, lambda p, eps: _unanimous_pairs(tally(p)), _pareto
    ),
    "majority": _Axiom(
        RuleKind.ORDINAL,
        lambda p, eps: _majority_premise(p),
        functools.partial(_unique_top, "majority_winner"),
    ),
    "pairwise-majority": _Axiom(
        RuleKind.ORDINAL, lambda p, eps: pm_consistent_ranking(tally(p)), _pairwise_majority
    ),
    "condorcet": _Axiom(
        RuleKind.ORDINAL,
        lambda p, eps: condorcet_winner(tally(p)),
        functools.partial(_unique_top, "condorcet_winner"),
    ),
    "preference-matching": _Axiom(
        RuleKind.PROBABILISTIC,
        lambda p, eps: _bt_embeddable_tally(tally(p)),
        _preference_matching,
    ),
    "preference-equivalence": _Axiom(
        RuleKind.PROBABILISTIC, lambda p, eps: _equally_preferred_pairs(p), _preference_equivalence
    ),
    # the premise always holds: the group matching target, by default in the limit
    "gpm": _Axiom(
        RuleKind.PROBABILISTIC,
        lambda p, eps: gpmd(p, eps or EpsilonPolicy.limit()),
        _group_preference_matching,
    ),
}
_ALIASES = {"group-preference-matching": "gpm"}

ORDINAL_AXIOMS = tuple(a for a, e in _AXIOMS.items() if e.kind is RuleKind.ORDINAL)
PROBABILISTIC_AXIOMS = tuple(a for a, e in _AXIOMS.items() if e.kind is RuleKind.PROBABILISTIC)


def _lookup(axiom: str) -> tuple[str, _Axiom]:
    """The canonical name and table entry of an axiom name or alias."""
    name = _ALIASES.get(axiom, axiom)
    entry = _AXIOMS.get(name)
    if entry is None:
        raise ValueError(f"unknown axiom {axiom!r}")
    return name, entry


def axiom_name(axiom: str) -> str:
    """The canonical name of an axiom name or alias; ValueError for unknown names."""
    return _lookup(axiom)[0]


def axiom_kind(axiom: str) -> RuleKind:
    """The rule kind an axiom name or alias judges; ValueError for unknown names."""
    return _lookup(axiom)[1].kind


def axiom_premise(
    axiom: str, profile: PreferenceProfile, *, epsilon_policy: EpsilonPolicy | None = None
):
    """The facts the axiom's conclusion needs, or None where the axiom is vacuous.

    Reads only the profile and its tally, never a rule output, and raises
    what the axiom's checker raises on this profile.  The gpm premise always
    holds: its facts are the group matching target under `epsilon_policy`
    (default: the limit policy).
    """
    return _lookup(axiom)[1].premise(profile, epsilon_policy)


def axiom_conclusion(
    axiom: str, facts, output: "Ranking | ResponseDistribution", *, tol: float = 1e-6
) -> AxiomReport:
    """Judge a rule output against the facts `axiom_premise` returned.

    None facts give the vacuous report; `tol` bounds the distributional
    comparisons and must be finite and nonnegative (else ValueError).
    """
    require_finite_nonnegative(tol, "tol")
    name, entry = _lookup(axiom)
    if facts is None:
        return AxiomReport.vacuous(name)
    witness = entry.conclusion(facts, output, tol)
    return AxiomReport(name, applicable=True, satisfied=witness is None, witness=witness)


def run_check(
    axiom: str,
    profile: PreferenceProfile,
    output: "Ranking | ResponseDistribution",
    *,
    tol: float = 1e-6,
    epsilon_policy: EpsilonPolicy | None = None,
) -> AxiomReport:
    """One axiom checker on a rule output: the premise, then the conclusion."""
    facts = axiom_premise(axiom, profile, epsilon_policy=epsilon_policy)
    return axiom_conclusion(axiom, facts, output, tol=tol)


@dataclass(frozen=True)
class RuleUnderTest:
    """A named map from profiles to rankings (ordinal) or distributions.

    `domain` takes a profile and raises whatever the rule raises on it before
    it evaluates; it returns what `evaluate` needs, which then computes the
    output.  Calling the rule runs both.  An ordinal rule's `key` reads the
    same and returns (D, k): the exact key k that its ranking sorts, and the
    one denominator D that turns k into the rule's scores.
    """

    name: str
    kind: RuleKind
    domain: Callable[[PreferenceProfile], object]
    evaluate: Callable[[object], "Ranking | ResponseDistribution"]
    key: Callable[[object], tuple] | None = None

    def __call__(self, profile: PreferenceProfile):
        return self.evaluate(self.domain(profile))


def _complete_tally(profile: PreferenceProfile) -> PairwiseTally:
    """The tally of a profile that compares every pair (UndefinedPairError otherwise)."""
    t = tally(profile)
    t.require_all_pairs()
    return t


def _pair_total_tally(profile: PreferenceProfile) -> PairwiseTally:
    """The tally of a profile whose pairs share one total (NotConstantTotalError otherwise)."""
    t = tally(profile)
    require_constant(t.pair_total)
    return t


def _copeland_weights_tally(profile: PreferenceProfile, tie_policy: TiePolicy) -> PairwiseTally:
    """The tally, raising what mle-copeland's weights and their constant-total check raise.

    Under STRICT_ONLY a tied pair weighs 0 both ways while every other pair
    weighs 1, so pair totals agree only where the majority has no tie.
    """
    t = _complete_tally(profile)
    if tie_policy is TiePolicy.STRICT_ONLY:
        # a row's only 0 is its diagonal unless the row has a half-split
        require_constant(None if any(row.count(0) > 1 for row in majority_relation(t)) else 1)
    return t


def _mle_domain(weights: WeightMatrix) -> tuple[WeightMatrix, tuple[int, ...]]:
    """The weights and their top component: every candidate when a finite MLE exists.

    Raises what top_component raises on a split graph or an infinite MLE with no unique top.
    """
    return weights, top_component(weights)


def _mle_distribution(domain: tuple[WeightMatrix, tuple[int, ...]]) -> ResponseDistribution:
    """Softmax of the MLE rewards, or its ridge -> 0 limit when a smaller top makes them infinite.

    Along the ridge path the top component's rewards pull away from every
    other candidate's while their differences inside the component tend to
    the component's own MLE, so the limit is that component's softmax and
    zero elsewhere.  Either softmax is of a `fit_mle` fit, exact and with no
    solve when its weights factor.
    """
    weights, top = domain
    if len(top) == weights.n:
        return softmax(fit_mle(weights))
    if len(top) == 1:
        inner = (1.0,)
    else:
        inner = softmax(fit_mle(WeightMatrix([[weights.w[i][j] for j in top] for i in top])))
    # zero elsewhere, exact beside an exact component
    probs = [0 * inner[0]] * weights.n
    for i, p in zip(top, inner):
        probs[i] = p
    return ResponseDistribution(tuple(probs))


def _gpm_target(profile: PreferenceProfile, eps: EpsilonPolicy | None) -> ResponseDistribution:
    """p* under `eps` (else the finite 1/1000 policy); ZeroProbabilityError unless every entry is positive."""
    return require_positive(gpmd(profile, eps or EpsilonPolicy.finite()))


class _Rule(NamedTuple):
    """A rule's forms; a form is None where the rule has none.

    Every callable takes the tie policy and the epsilon policy after its
    argument.  The ordinal form is `domain`, which takes the profile and
    raises what the rule raises, and `key`, which reads what the domain
    returns and gives the rule's exact scores over one denominator D as
    (D, numerators); the numerators have the scores' order and ties.  The
    probabilistic form is `distribution`, computed with no solve, where the
    rule has one, else the MLE of `weights`, an MLE rule's weight matrix.
    """

    domain: Callable | None = None
    key: Callable | None = None
    weights: Callable[..., WeightMatrix] | None = None
    distribution: Callable[..., ResponseDistribution] | None = None


# Borda and mle-standard share one key, Copeland and mle-copeland another:
# within each pair only the domain step differs.  The entries call tally,
# gpmd and majority_relation through this module's globals at call time, so
# whoever rebinds those names (a tracer) sees every call.
_RULES = {
    "borda": _Rule(
        domain=lambda p, tie, eps: _complete_tally(p),
        key=lambda t, tie, eps: borda_points(t),
    ),
    "copeland": _Rule(
        domain=lambda p, tie, eps: _complete_tally(p),
        key=lambda t, tie, eps: (2, copeland_half_points(t, tie)),
    ),
    "mle-standard": _Rule(
        domain=lambda p, tie, eps: _pair_total_tally(p),
        key=lambda t, tie, eps: borda_points(t),
        weights=lambda p, tie, eps: weights_standard(tally(p)),
    ),
    "mle-copeland": _Rule(
        domain=lambda p, tie, eps: _copeland_weights_tally(p, tie),
        key=lambda t, tie, eps: (2, copeland_half_points(t, tie)),
        weights=lambda p, tie, eps: weights_copeland(tally(p), tie),
    ),
    # over a common denominator p_i = N_i / D, and the score
    # s_i = sum_j N_i / (N_i + N_j) is strictly increasing in N_i, so p*
    # itself ranks like the scores, ties included; and w_ij * p_j ==
    # w_ji * p_i on every pair, so the MLE softmax of the weights is p*
    "mle-gpm": _Rule(
        domain=lambda p, tie, eps: _gpm_target(p, eps),
        key=lambda pstar, tie, eps: (1, pstar.p),
        weights=lambda p, tie, eps: weights_gpm(_gpm_target(p, eps)),
        distribution=lambda p, tie, eps: _gpm_target(p, eps),
    ),
    "gpmd-limit": _Rule(distribution=lambda p, tie, eps: gpmd(p, EpsilonPolicy.limit())),
}

ORDINAL_RULES = tuple(name for name, e in _RULES.items() if e.key is not None)
PROBABILISTIC_RULES = tuple(
    name for name, e in _RULES.items() if e.weights is not None or e.distribution is not None
)
RULE_NAMES = tuple(_RULES)


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
    weights = _RULES[name].weights if name in _RULES else None
    if weights is None:
        raise ValueError(f"rule {name!r} is not an MLE rule")
    return weights(profile, tie_policy, epsilon_policy)


def rule_mle(
    name: str,
    profile: PreferenceProfile,
    *,
    tie_policy: TiePolicy = TiePolicy.HALF_POINT,
    epsilon_policy: EpsilonPolicy | None = None,
) -> RewardVector:
    """An MLE rule's fit: its rewards in the sum-zero gauge and their status.

    mle-gpm's is exact from its distribution p*, its weights' MLE softmax,
    with no weight matrix built; any other rule's is `fit_mle` of its
    weights.  ValueError for a rule with no weights.
    """
    entry = _RULES.get(name, _Rule())
    if entry.weights and entry.distribution:
        return RewardVector.exact(entry.distribution(profile, tie_policy, epsilon_policy).p)
    return fit_mle(rule_weights(name, profile, tie_policy=tie_policy, epsilon_policy=epsilon_policy))


def make_rule(
    name: str,
    kind: RuleKind,
    *,
    tie_policy: TiePolicy = TiePolicy.HALF_POINT,
    epsilon_policy: EpsilonPolicy | None = None,
) -> RuleUnderTest:
    """Construct a registry rule; raises ValueError for unsupported pairings.

    ORDINAL_RULES and PROBABILISTIC_RULES list the names each kind accepts.
    An ordinal rule ranks by an exact integer or rational key with the order
    and ties of its exact scores, and ranking_from_scores groups equal keys
    into tie classes: Borda and mle-standard by borda_points over L,
    Copeland and mle-copeland by Copeland's half points over 2, mle-gpm by
    the group matching distribution p* itself over 1; the rule's `key`
    returns the denominator and the key.  So an ordinal MLE rule ranks like
    rank_by_scores(rule_weights(...)) without a weight matrix.  Probabilistic
    mle-gpm returns p* itself, the exact MLE softmax of its weights, and
    builds no weight matrix.  The other probabilistic MLE rules take their
    weights from rule_weights and softmax the MLE rewards when a finite MLE
    exists (the positive-weight digraph is strongly connected).  Otherwise
    they return the exact ridge -> 0 limit of the regularized softmax: the
    top component's own softmax, zero elsewhere.  Either softmax is exact
    and runs no solve when `bt_odds` finds its weights in detailed balance,
    as mle-standard's are on a Bradley-Terry-embeddable tally; any other
    weights are solved in floats.  A generalized profile whose digraph has
    several source components (strongly connected components that no edge
    enters) has no such top and raises NoUniqueTopError.

    Each rule's domain step does everything up to the evaluation and raises
    what the rule raises: the tally and its every-pair check for Borda and
    Copeland; for ordinal MLE, what the weights and their constant-total
    check raise (NotConstantTotalError for mle-standard, UndefinedPairError
    and then, under STRICT_ONLY, NotConstantTotalError for mle-copeland,
    gpmd's errors and then ZeroProbabilityError for mle-gpm, in either form);
    the weights and top_component for the other probabilistic MLE rules; and
    gpmd itself for gpmd-limit.
    counterexample_search runs it on every profile, and the evaluation (key
    and ranking, or solve and softmax) only where the axiom's premise holds.
    """
    if name not in (ORDINAL_RULES if kind is RuleKind.ORDINAL else PROBABILISTIC_RULES):
        raise ValueError(f"rule {name!r} has no {kind.value} form")
    entry = _RULES[name]
    tie, eps = tie_policy, epsilon_policy
    if kind is RuleKind.ORDINAL:
        domain, key = entry.domain, entry.key
        # ranking_from_scores too is looked up each time the rule runs
        return RuleUnderTest(
            name, kind, lambda p: domain(p, tie, eps),
            lambda x: ranking_from_scores(key(x, tie, eps)[1]), lambda x: key(x, tie, eps),
        )
    if entry.distribution is not None:
        distribution = entry.distribution
        return RuleUnderTest(name, kind, lambda p: distribution(p, tie, eps), lambda d: d)
    weights = entry.weights
    return RuleUnderTest(name, kind, lambda p: _mle_domain(weights(p, tie, eps)), _mle_distribution)


def _require_integer(key: str, value) -> None:
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"space parameter {key!r} must be an integer") from None


def _require_at_least(space, **lows: int) -> None:
    for key, low in lows.items():
        value = getattr(space, key)
        if value is None:
            continue
        _require_integer(key, value)
        if value < low:
            raise ValueError(f"space parameter {key!r} must be at least {low}")


def _require_seed(seed: int | None) -> None:
    if seed is None:
        raise ValueError("random spaces need a seed")
    _require_integer("seed", seed)


def _derive(seed: int, t: int) -> int:
    return seed * 1_000_003 + t


@dataclass(frozen=True)
class ExhaustiveComplete:
    """Every m-tuple of strict rankings over n candidates, lexicographic."""

    n: int
    m: int
    exhaustive: ClassVar[bool] = True

    def __post_init__(self):
        _require_at_least(self, n=2, m=1)

    @property
    def size(self) -> int:
        return math.factorial(self.n) ** self.m

    @property
    def size_log10(self) -> float:
        return self.m * math.lgamma(self.n + 1) / math.log(10)

    def profiles(self) -> Iterator[PreferenceProfile]:
        return enumerate_complete(self.n, self.m)


@dataclass(frozen=True)
class RandomComplete:
    """Seeded uniform complete profiles; trial t uses seed*1000003 + t."""

    n: int
    m: int
    trials: int
    seed: int
    exhaustive: ClassVar[bool] = False

    def __post_init__(self):
        _require_at_least(self, n=2, m=1, trials=1)
        _require_seed(self.seed)

    @property
    def size(self) -> int:
        return self.trials

    def profiles(self) -> Iterator[PreferenceProfile]:
        return (generate_complete(self.n, self.m, _derive(self.seed, t)) for t in range(self.trials))


@dataclass(frozen=True)
class Assumption1:
    """Tournaments: exhaustive over all orientations when trials is None."""

    n: int
    trials: int | None = None
    seed: int | None = None

    def __post_init__(self):
        _require_at_least(self, n=2, trials=1)
        if self.trials is not None:
            _require_seed(self.seed)

    @property
    def exhaustive(self) -> bool:
        return self.trials is None

    @property
    def size(self) -> int:
        return 2 ** (self.n * (self.n - 1) // 2) if self.trials is None else self.trials

    @property
    def size_log10(self) -> float:
        return self.n * (self.n - 1) / 2 * math.log10(2) if self.trials is None else math.log10(self.trials)

    def profiles(self) -> Iterator[PreferenceProfile]:
        if self.trials is None:
            return _iter_tournaments(self.n)
        return (generate_assumption1(self.n, _derive(self.seed, t)) for t in range(self.trials))


def space_size(space) -> int:
    return space.size


def iter_profiles(space) -> Iterator[PreferenceProfile]:
    """Deterministic profile stream for a search space.

    Exhaustive spaces larger than the enumeration bound (10^7) are refused
    here, before the first profile.  A size of 4,200 digits or more is
    neither built (2000!^2000 takes seconds) nor printed in full, and one
    whose digit count is past float range is not counted either.
    """
    if space.exhaustive:
        try:
            digits = space.size_log10
        except OverflowError:  # a parameter past float range
            digits = math.inf
        if digits < 4200:
            size = space.size
        else:
            size = f"about 10^{digits:.0f}" if digits < math.inf else "more than 10^(10^308)"
        if digits >= 4200 or size > ENUMERATION_BOUND:
            raise SpaceTooLargeError(f"{size} instances exceed the enumeration bound {ENUMERATION_BOUND}")
    return space.profiles()


def _iter_tournaments(n: int) -> Iterator[PreferenceProfile]:
    pairs = list(itertools.combinations(range(n), 2))
    for code in range(2 ** len(pairs)):
        yield profile_from_pairs(
            n, [(i, j) if code >> bit & 1 else (j, i) for bit, (i, j) in enumerate(pairs)]
        )


@dataclass(frozen=True)
class SearchOutcome:
    """Either a first violation (lowest index) or an exhaustion proof.

    Of the `examined` profiles, the axiom's premise held on `applicable` (the
    violation included) and failed on the rest, the `vacuous` ones.
    """

    found: bool
    examined: int
    index: int | None = None
    profile: PreferenceProfile | None = None
    report: AxiomReport | None = None
    applicable: int = 0

    @property
    def vacuous(self) -> int:
        return self.examined - self.applicable


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
    lowest-index one.  Each profile goes through the rule's domain step
    (which raises what the rule would), then the axiom's premise; the rule
    is evaluated and the conclusion judged only where the premise holds.
    A non-finite or negative `tol`, or a `budget` that is not a nonnegative
    integer, raises ValueError before any profile.
    """
    require_finite_nonnegative(tol, "tol")
    stop = None if budget is None else require_count(budget, "budget")
    name, entry = _lookup(axiom)
    if rule.kind is not entry.kind:
        raise ValueError(f"axiom {axiom!r} needs a rule of kind {entry.kind.value}")

    stream = itertools.islice(iter_profiles(space), stop)

    examined = applicable = 0
    for idx, profile in enumerate(stream):
        examined += 1
        prepared = rule.domain(profile)
        facts = entry.premise(profile, epsilon_policy)
        if facts is None:
            continue
        applicable += 1
        witness = entry.conclusion(facts, rule.evaluate(prepared), tol)
        if witness is not None:
            report = AxiomReport(name, applicable=True, satisfied=False, witness=witness)
            return SearchOutcome(True, examined, idx, profile, report, applicable)
    return SearchOutcome(False, examined, applicable=applicable)
