"""Ordinal aggregation rules on pairwise tallies: Borda, Copeland, majority notions."""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .distributions import ResponseDistribution
from .profiles import (
    PairwiseTally,
    PreferenceProfile,
    Ranking,
    TiePolicy,
    majority_relation,
)


def borda_points(t: PairwiseTally) -> tuple[int, tuple[int, ...]]:
    """The Borda scores over one denominator: L, and every score times L, all integers.

    L is the lcm of the distinct pair totals.  Each total is at most m, so L
    stays small, and when every pair has the same total T it is T itself and
    the points are the win row sums.  One common denominator ranks like the
    scores themselves, so Borda and mle-standard both rank by these points.
    """
    t.require_all_pairs()
    w = t.wins
    common = t.pair_total
    if common is not None:
        return common, tuple(sum(row) for row in w)
    totals = [[x + w[j][i] for j, x in enumerate(row)] for i, row in enumerate(w)]
    common = math.lcm(*{total for row in totals for total in row if total})
    return common, tuple(
        # a zero total is the diagonal's
        sum(x * (common // total) for x, total in zip(row, row_totals) if total)
        for row, row_totals in zip(w, totals)
    )


def borda_scores(t: PairwiseTally) -> tuple[Fraction, ...]:
    """Sum of win proportions against every opponent (unnormalized): borda_points over L."""
    common, points = borda_points(t)
    return tuple(Fraction(p, common) for p in points)


def copeland_half_points(
    t: PairwiseTally, tie_policy: TiePolicy = TiePolicy.HALF_POINT
) -> tuple[int, ...]:
    """Copeland scores in half points: 2 per majority win, 1 per half-split under HALF_POINT."""
    tie = 1 if tie_policy is TiePolicy.HALF_POINT else 0
    # each row's 0s are its half-splits and its own diagonal entry
    return tuple(2 * row.count(1) + tie * (row.count(0) - 1) for row in majority_relation(t))


def copeland_scores(
    t: PairwiseTally, tie_policy: TiePolicy = TiePolicy.HALF_POINT
) -> tuple[Fraction, ...]:
    """One point per majority win; exact half-splits score per the tie policy."""
    # counted in half points, so each score is one exact division by 2
    return tuple(Fraction(h, 2) for h in copeland_half_points(t, tie_policy))


def condorcet_winner(t: PairwiseTally) -> int | None:
    """Candidate beating every other by strict majority, or None."""
    for i, row in enumerate(majority_relation(t)):
        if row.count(1) == t.n - 1:
            return i
    return None


def majority_winner(profile: PreferenceProfile) -> int | None:
    """Candidate ranked first by a strict majority of voters, or None."""
    for i, c in enumerate(profile.first_place_counts):
        if 2 * c > profile.m:
            return i
    return None


def pm_consistent_ranking(t: PairwiseTally) -> Ranking | None:
    """The majority relation itself as a ranking, when it is a strict linear order.

    It is one exactly when the win counts are 0..n-1: they then sum to
    C(n, 2), one strict win per pair, so no pair is tied and the wins are
    transitive.
    """
    wins = [row.count(1) for row in majority_relation(t)]
    if sorted(wins) != list(range(t.n)):
        return None
    return Ranking(tuple(sorted(range(t.n), key=wins.__getitem__, reverse=True)))


def ranking_from_scores(values: Sequence, tol: float = 0) -> Ranking:
    """Descending-score ranking; a score within `tol` of the class above joins it.

    Classes list their members by index.  The default 0 ties equal scores
    only; solved float rewards take a small `tol`, as rounding splits ties.
    """
    # a stable descending sort keeps equal scores in ascending index order
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    classes: list[list[int]] = []
    for i in order:
        # prev scores the class's last member; at tol = 0 no exact score is subtracted
        if classes and (values[i] == prev or tol and prev - values[i] <= tol):
            classes[-1].append(i)
        else:
            classes.append([i])
        prev = values[i]
    if tol:
        classes = [sorted(c) for c in classes]
        order = [i for c in classes for i in c]
    return Ranking(tuple(order), tuple(tuple(c) for c in classes))


def first_place_shares(profile: PreferenceProfile) -> ResponseDistribution:
    """Fraction of voters ranking each candidate first, as exact rationals."""
    m = profile.m
    return ResponseDistribution(tuple(Fraction(c, m) for c in profile.first_place_counts))
