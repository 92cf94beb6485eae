"""Shared fixtures and small helpers for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from prefaxiom import EpsilonPolicy, PreferenceProfile, WeightMatrix, complete_profile, gpmd


@pytest.fixture
def paradox() -> PreferenceProfile:
    # the three cyclic rotations: every pairwise proportion is 2/3
    return complete_profile(
        ["y1", "y2", "y3"],
        [["y1", "y2", "y3"], ["y2", "y3", "y1"], ["y3", "y1", "y2"]],
    )


@pytest.fixture
def four_voter() -> PreferenceProfile:
    # 2 voters y1>y2>y3, 1 voter y2>y3>y1, 1 voter y3>y1>y2; props 3/4, 3/4, 1/2
    return complete_profile(
        ["y1", "y2", "y3"],
        [
            ["y1", "y2", "y3"],
            ["y1", "y2", "y3"],
            ["y2", "y3", "y1"],
            ["y3", "y1", "y2"],
        ],
    )


def random_weights(rng: random.Random, n: int, m: int) -> WeightMatrix:
    """Random integer weights over n candidates whose every pair totals m."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.randint(0, m)
            rows[i][j] = w
            rows[j][i] = m - w
    return WeightMatrix(rows)


def gpmd_by_blocks(
    profile: PreferenceProfile, blocks, policy: EpsilonPolicy
) -> tuple[Fraction, ...]:
    """Sum over voter blocks B of |B|/m times gpmd of B's own profile, exact.

    Each block's profile is built afresh from its voters' rankings, so
    nothing computed for the whole profile is reused.
    """
    labels = profile.candidates.names
    orders = profile.orders
    acc = [Fraction(0)] * profile.n
    for block in blocks:
        sub = complete_profile(labels, [[labels[i] for i in orders[k]] for k in block])
        share = Fraction(len(block), profile.m)
        for i, x in enumerate(gpmd(sub, policy)):
            acc[i] += share * x
    return tuple(acc)


def relabel(profile: PreferenceProfile, perm) -> PreferenceProfile:
    """The complete profile with candidate i renamed perm[i] in every ranking."""
    labels = profile.candidates.names
    return complete_profile(labels, [[labels[perm[i]] for i in order] for order in profile.orders])


def closure(n: int, edge) -> list[list[bool]]:
    """Reflexive-transitive closure of `edge` by Floyd-Warshall: an oracle."""
    reach = [[i == j or edge(i, j) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return reach
