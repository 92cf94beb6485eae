"""Ordinal aggregation rules on pairwise tallies: Borda, Copeland, majority notions."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .distributions import ResponseDistribution
from .profiles import (
    Outcome,
    PairwiseTally,
    PreferenceProfile,
    Ranking,
    TiePolicy,
    majority_relation,
)


@dataclass(frozen=True)
class ScoreVector:
    """Exact per-candidate scores."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(v if type(v) is Fraction else Fraction(v) for v in self.values)
        )

    @property
    def n(self) -> int:
        return len(self.values)


def borda_scores(t: PairwiseTally) -> ScoreVector:
    """Sum of win proportions against every opponent (unnormalized).

    Each row sums integer win counts over the lcm of that row's pair totals,
    so one exact division per candidate replaces n - 1 Fraction adds.
    """
    t.require_all_pairs()
    w = t.wins
    values = []
    for i, row in enumerate(w):
        totals = [x + w[j][i] for j, x in enumerate(row)]  # 0 only on the diagonal
        common = math.lcm(*(total for total in totals if total))
        numerator = sum(x * (common // total) for x, total in zip(row, totals) if total)
        values.append(Fraction(numerator, common))
    return ScoreVector(tuple(values))


def copeland_half_points(
    t: PairwiseTally, tie_policy: TiePolicy = TiePolicy.HALF_POINT
) -> tuple[int, ...]:
    """Copeland scores in half points: 2 per majority win, 1 per half-split under HALF_POINT."""
    t.require_all_pairs()
    half_points = {Outcome.WIN: 2, Outcome.TIE: 1 if tie_policy is TiePolicy.HALF_POINT else 0}
    return tuple(
        sum(half_points.get(out, 0) for out in row) for row in majority_relation(t).outcomes
    )


def copeland_scores(t: PairwiseTally, tie_policy: TiePolicy = TiePolicy.HALF_POINT) -> ScoreVector:
    """One point per majority win; exact half-splits score per the tie policy."""
    # counted in half points, so each score is one exact division by 2
    return ScoreVector(tuple(Fraction(h, 2) for h in copeland_half_points(t, tie_policy)))


def condorcet_winner(t: PairwiseTally) -> int | None:
    """Candidate beating every other by strict majority, or None."""
    t.require_all_pairs()
    rel = majority_relation(t)
    for i in range(t.n):
        if all(rel.outcomes[i][j] is Outcome.WIN for j in range(t.n) if j != i):
            return i
    return None


def majority_winner(profile: PreferenceProfile) -> int | None:
    """Candidate ranked first by a strict majority of voters, or None."""
    for i, c in enumerate(profile.first_place_counts):
        if 2 * c > profile.m:
            return i
    return None


def pm_consistent_ranking(t: PairwiseTally) -> Ranking | None:
    """The majority relation itself as a ranking, when it is a strict linear order."""
    t.require_all_pairs()
    rel = majority_relation(t)
    if not rel.is_strict_linear_order():
        return None
    order = tuple(sorted(range(t.n), key=lambda i: -rel.win_count(i)))
    return Ranking(order)


def ranking_from_scores(scores: "ScoreVector | Sequence") -> Ranking:
    """Descending-score ranking; equal scores share a tie class, ascending by index.

    `scores` is a ScoreVector or any sequence of exactly comparable values,
    such as the integer key an ordinal MLE rule ranks by.
    """
    values = scores.values if isinstance(scores, ScoreVector) else scores
    # a stable descending sort keeps equal scores in ascending index order
    order = tuple(sorted(range(len(values)), key=values.__getitem__, reverse=True))
    classes: list[list[int]] = []
    for i in order:
        if classes and values[classes[-1][0]] == values[i]:
            classes[-1].append(i)
        else:
            classes.append([i])
    return Ranking(order, tuple(tuple(c) for c in classes))


def first_place_shares(profile: PreferenceProfile) -> ResponseDistribution:
    """Fraction of voters ranking each candidate first, as exact rationals."""
    m = profile.m
    return ResponseDistribution(tuple(Fraction(c, m) for c in profile.first_place_counts))
