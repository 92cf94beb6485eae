"""Preference aggregation under ordinal consistency properties.

Exact pairwise tallies and voting rules, a weighted pairwise-logistic reward
solver with a rational score shortcut, group preference matching
distributions, and mechanical axiom checkers with counterexample search.
"""

from .axioms import (
    AxiomReport,
    Assumption1,
    ExhaustiveComplete,
    ORDINAL_AXIOMS,
    ORDINAL_RULES,
    PROBABILISTIC_AXIOMS,
    PROBABILISTIC_RULES,
    RULE_NAMES,
    RandomComplete,
    RuleKind,
    RuleUnderTest,
    SearchOutcome,
    axiom_conclusion,
    axiom_kind,
    axiom_name,
    axiom_premise,
    counterexample_search,
    iter_profiles,
    make_rule,
    rule_weights,
    run_check,
    space_size,
)
from .distributions import ResponseDistribution
from .errors import (
    DimensionMismatchError,
    DisconnectedGraphError,
    NoUniqueTopError,
    NotCompleteProfileError,
    NotConstantTotalError,
    NotConvergedError,
    PrefaxiomError,
    SchemaError,
    SpaceTooLargeError,
    TiesNotAllowedError,
    UndefinedPairError,
    ZeroProbabilityError,
)
from .gpmd import (
    EpsilonPolicy,
    gpmd,
)
from .profiles import (
    CandidateSet,
    Comparison,
    PairwiseTally,
    PreferenceProfile,
    Ranking,
    TiePolicy,
    Voter,
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
)
from .reward import (
    RewardVector,
    SolverStatus,
    StatusKind,
    WeightMatrix,
    bt_embeddable,
    bt_odds,
    embedding_residual,
    gradient,
    loss,
    minimizer_exists,
    rank_by_scores,
    scores,
    softmax,
    solve_mle,
    top_component,
    weights_copeland,
    weights_gpm,
    weights_standard,
)
from .rules import (
    borda_points,
    borda_scores,
    condorcet_winner,
    copeland_half_points,
    copeland_scores,
    first_place_shares,
    majority_winner,
    pm_consistent_ranking,
    ranking_from_scores,
)

__version__ = "0.1.0"
