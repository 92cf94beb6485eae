"""Probability distributions over a candidate set."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterator

Prob = "float | Fraction"


@dataclass(frozen=True)
class ResponseDistribution:
    """A point on the n-simplex: one generation probability per candidate.

    Entries may be floats or exact rationals; exact inputs are kept exact so
    callers can compare distributions without rounding.
    """

    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(self.p))
        if len(self.p) < 2:
            raise ValueError("distribution needs at least two candidates")
        # written so that a NaN entry fails: every comparison with NaN is false
        if not all(x >= 0 for x in self.p):
            raise ValueError("probabilities must be nonnegative")
        if not abs(float(sum(self.p)) - 1.0) <= 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {float(sum(self.p))!r}")

    @property
    def n(self) -> int:
        return len(self.p)

    def __len__(self) -> int:
        return len(self.p)

    def __getitem__(self, i: int):
        return self.p[i]

    def __iter__(self) -> Iterator:
        return iter(self.p)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(x, Rational) for x in self.p)

    def linf_distance(self, other: "ResponseDistribution") -> float:
        if len(self.p) != len(other.p):
            raise ValueError("distributions differ in length")
        return max(abs(float(a - b)) for a, b in zip(self.p, other.p))

    @classmethod
    def uniform(cls, n: int) -> "ResponseDistribution":
        return cls(tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def point_mass(cls, n: int, index: int) -> "ResponseDistribution":
        if not 0 <= index < n:
            raise ValueError("point mass index out of range")
        return cls(tuple(Fraction(1) if i == index else Fraction(0) for i in range(n)))
