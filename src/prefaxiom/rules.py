"""Ordinal aggregation rules on pairwise tallies: Borda, Copeland, majority notions."""
from __future__ import annotations

import math
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


def _borda_over_lcm(t: PairwiseTally) -> tuple[int, tuple[int, ...]]:
    """L and every Borda score times L, all integers.

    L is the lcm of the distinct pair totals.  Each total is at most m, so L
    stays small, and when every pair has the same total T it is T itself and
    the points are the win row sums.
    """
    t.require_all_pairs()
    w = t.wins
    common = t.constant_total
    if common is not None:
        return common, tuple(sum(row) for row in w)
    totals = [[x + w[j][i] for j, x in enumerate(row)] for i, row in enumerate(w)]
    common = math.lcm(*{total for row in totals for total in row if total})
    return common, tuple(
        # a zero total is the diagonal's
        sum(x * (common // total) for x, total in zip(row, row_totals) if total)
        for row, row_totals in zip(w, totals)
    )


def borda_points(t: PairwiseTally) -> tuple[int, ...]:
    """Borda scores as integer numerators over L, the lcm of the distinct pair totals.

    One common denominator ranks like the scores themselves, so Borda and
    mle-standard both rank by these points.
    """
    return _borda_over_lcm(t)[1]


def borda_scores(t: PairwiseTally) -> tuple[Fraction, ...]:
    """Sum of win proportions against every opponent (unnormalized): borda_points over L."""
    common, points = _borda_over_lcm(t)
    return tuple(Fraction(p, common) for p in points)


def copeland_half_points(
    t: PairwiseTally, tie_policy: TiePolicy = TiePolicy.HALF_POINT
) -> tuple[int, ...]:
    """Copeland scores in half points: 2 per majority win, 1 per half-split under HALF_POINT."""
    t.require_all_pairs()
    half_points = {Outcome.WIN: 2, Outcome.TIE: 1 if tie_policy is TiePolicy.HALF_POINT else 0}
    return tuple(
        sum(half_points.get(out, 0) for out in row) for row in majority_relation(t).outcomes
    )


def copeland_scores(
    t: PairwiseTally, tie_policy: TiePolicy = TiePolicy.HALF_POINT
) -> tuple[Fraction, ...]:
    """One point per majority win; exact half-splits score per the tie policy."""
    # counted in half points, so each score is one exact division by 2
    return tuple(Fraction(h, 2) for h in copeland_half_points(t, tie_policy))


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


def ranking_from_scores(values: Sequence) -> Ranking:
    """Descending-score ranking; equal scores share a tie class, ascending by index.

    `values` is any sequence of exactly comparable scores, such as the
    Fractions of borda_scores or the integer key an ordinal rule ranks by.
    """
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
