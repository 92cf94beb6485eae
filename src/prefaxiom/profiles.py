"""Preference profiles: candidates, voters, pairwise tallies, generators, serialization.

A profile is a finite electorate expressing ordinal preferences over a fixed
candidate set, either as full strict rankings or as sets of pairwise
comparisons.  Tallies are kept in exact integer and rational arithmetic so
that downstream majority and score decisions never depend on floating-point
rounding; the majority relation is the sign of each pair's integer margin.
A tally is the `WeightMatrix` of its win counts, the reward model's weights.
Each profile is tallied once, counts its first places once, lists its
voters' orders once (the one check that every voter gives a full ranking)
and keeps its group matching distribution per epsilon policy; each tally
scans its pair totals once and derives its majority relation once (the one
check that every pair was compared): all are cached on first use.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    NotCompleteProfileError,
    SchemaError,
    TiesNotAllowedError,
    UndefinedPairError,
)

if TYPE_CHECKING:
    from numpy import ndarray


@dataclass(frozen=True)
class CandidateSet:
    """Ordered set of distinct candidate labels."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) < 2:
            raise ValueError("need at least two candidates")
        if len(set(self.names)) != len(self.names):
            raise ValueError("candidate labels must be distinct")
        if any(not isinstance(x, str) or not x for x in self.names):
            raise ValueError("candidate labels must be non-empty strings")

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.names)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise ValueError(f"unknown candidate label {label!r}") from None

    def label(self, i: int) -> str:
        return self.names[i]


@dataclass(frozen=True)
class Comparison:
    """One pairwise judgment: candidate `winner` is preferred over `loser`."""

    winner: int
    loser: int

    def __post_init__(self):
        if self.winner == self.loser:
            raise ValueError("comparison needs two distinct candidates")
        if self.winner < 0 or self.loser < 0:
            raise ValueError("candidate indices must be nonnegative")

    def pair(self) -> tuple[int, int]:
        return (min(self.winner, self.loser), max(self.winner, self.loser))


@dataclass(frozen=True)
class Ranking:
    """Best-first order over all candidates, optionally with tie classes.

    `order` lists every candidate index exactly once.  `ties`, when present,
    partitions `order` into contiguous indifference classes; a value of None
    means the ranking is strict.  All-singleton tie classes normalize to None.
    """

    order: tuple[int, ...]
    ties: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must list each candidate index exactly once")
        if self.ties is not None:
            classes = tuple(tuple(c) for c in self.ties)
            flat = tuple(itertools.chain.from_iterable(classes))
            if flat != self.order:
                raise ValueError("tie classes must partition the order contiguously")
            if any(len(c) == 0 for c in classes):
                raise ValueError("tie classes must be non-empty")
            if all(len(c) == 1 for c in classes):
                classes = None
            object.__setattr__(self, "ties", classes)

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def is_strict(self) -> bool:
        return self.ties is None

    def classes(self) -> tuple[tuple[int, ...], ...]:
        if self.ties is None:
            return tuple((i,) for i in self.order)
        return self.ties

    @cached_property
    def _class_of(self) -> dict[int, int]:
        """Each candidate's tie-class index, mapped once per ranking."""
        return {i: k for k, cls in enumerate(self.classes()) for i in cls}

    def class_index(self, i: int) -> int:
        try:
            return self._class_of[i]
        except KeyError:
            raise ValueError(f"candidate {i} not in ranking") from None

    def strictly_above(self, i: int, j: int) -> bool:
        return self.class_index(i) < self.class_index(j)

    def top_class(self) -> tuple[int, ...]:
        return self.classes()[0]

    def as_label_classes(self, candidates: CandidateSet) -> list[list[str]]:
        return [[candidates.label(i) for i in cls] for cls in self.classes()]


@dataclass(frozen=True)
class Voter:
    """One electorate member holding either a full ranking or a comparison set."""

    id: str
    ranking: Ranking | None = None
    comparisons: tuple[Comparison, ...] | None = None

    def __post_init__(self):
        if (self.ranking is None) == (self.comparisons is None):
            raise ValueError("voter must hold exactly one of ranking or comparisons")
        if self.comparisons is not None:
            object.__setattr__(self, "comparisons", tuple(self.comparisons))
            if len(self.comparisons) == 0:
                raise ValueError("comparison set must be non-empty")
        if self.ranking is not None and self.ranking.ties is not None:
            raise TiesNotAllowedError("voter rankings must be strict")


@dataclass(frozen=True)
class PreferenceProfile:
    candidates: CandidateSet
    voters: tuple[Voter, ...]

    def __post_init__(self):
        object.__setattr__(self, "voters", tuple(self.voters))
        if len(self.voters) == 0:
            raise ValueError("profile needs at least one voter")
        ids = [v.id for v in self.voters]
        if len(set(ids)) != len(ids):
            raise ValueError("voter ids must be distinct")
        n = self.candidates.n
        for v in self.voters:
            if v.ranking is not None:
                if v.ranking.n != n:
                    raise DimensionMismatchError(
                        f"voter {v.id!r} ranks {v.ranking.n} candidates, profile has {n}"
                    )
            else:
                seen = set()
                for c in v.comparisons:
                    if c.winner >= n or c.loser >= n:
                        raise DimensionMismatchError(
                            f"voter {v.id!r} compares candidate index out of range"
                        )
                    if c.pair() in seen:
                        raise ValueError(
                            f"voter {v.id!r} judges pair {c.pair()} more than once"
                        )
                    seen.add(c.pair())

    @property
    def n(self) -> int:
        return self.candidates.n

    @property
    def m(self) -> int:
        return len(self.voters)

    @cached_property
    def pairwise_tally(self) -> "PairwiseTally":
        """Pairwise win counts, counted once; `tally(profile)` returns this.

        Each candidate's row of wins is counted as one int holding one field
        per opponent, each `width` bytes wide, with `width` the byte length
        of m.  A voter adds at most 1 to a field, so no field exceeds m and
        none ever carries into the next.  A ranking voter, read from last
        place up, adds to each candidate's row the packed set of candidates
        already passed: 2n big-int additions instead of C(n, 2) counts.  A
        comparison voter adds one opponent's unit to its winner's row.
        """
        n = self.n
        width = (self.m.bit_length() + 7) // 8
        unit = [1 << (8 * width * j) for j in range(n)]
        acc = [0] * n
        for v in self.voters:
            if v.ranking is not None:
                below = 0
                for c in reversed(v.ranking.order):
                    acc[c] += below
                    below += unit[c]
            else:
                for c in v.comparisons:
                    acc[c.winner] += unit[c.loser]
        size = n * width
        packed = [row.to_bytes(size, "little") for row in acc]
        if width == 1:
            rows = tuple(tuple(b) for b in packed)
        else:
            rows = tuple(
                tuple(int.from_bytes(b[k:k + width], "little") for k in range(0, size, width))
                for b in packed
            )
        # nonnegative integers, square and zero on the diagonal by construction
        return PairwiseTally._of_counts(rows)

    @cached_property
    def group_matching(self) -> dict:
        """Group matching distributions by epsilon policy; `gpmd` fills this in."""
        return {}

    @cached_property
    def orders(self) -> tuple[tuple[int, ...], ...]:
        """Each voter's strict ranking as an order tuple, listed once.

        The one check that every voter gives a full ranking: raises
        NotCompleteProfileError naming the first voter who gives comparisons.
        `Counter(profile.orders)` is the profile up to voter names.
        """
        vid = next((v.id for v in self.voters if v.ranking is None), None)
        if vid is not None:
            raise NotCompleteProfileError(f"needs full rankings; voter {vid!r} gives comparisons")
        return tuple(v.ranking.order for v in self.voters)

    @cached_property
    def first_place_counts(self) -> tuple[int, ...]:
        """How many voters rank each candidate first, counted once from `orders`."""
        counts = [0] * self.n
        for order in self.orders:
            counts[order[0]] += 1
        return tuple(counts)


def complete_profile(
    candidates: Sequence[str],
    rankings: Sequence[Sequence[str]],
    ids: Sequence[str] | None = None,
) -> PreferenceProfile:
    """Build a complete profile from label rankings (best first)."""
    cset = CandidateSet(tuple(candidates))
    if ids is None:
        ids = [f"v{k + 1}" for k in range(len(rankings))]
    voters = []
    for vid, ranking in zip(ids, rankings, strict=True):
        order = tuple(cset.index(label) for label in ranking)
        voters.append(Voter(id=vid, ranking=Ranking(order)))
    return PreferenceProfile(cset, tuple(voters))


def generalized_profile(
    candidates: Sequence[str],
    comparisons_by_voter: Mapping[str, Sequence[tuple[str, str]]],
) -> PreferenceProfile:
    """Build a profile from per-voter (winner, loser) label pairs."""
    cset = CandidateSet(tuple(candidates))
    voters = []
    for vid, pairs in comparisons_by_voter.items():
        comps = tuple(
            Comparison(winner=cset.index(w), loser=cset.index(l)) for w, l in pairs
        )
        voters.append(Voter(id=vid, comparisons=comps))
    return PreferenceProfile(cset, tuple(voters))


def finite_fraction(value: Fraction | float | str) -> Fraction:
    """`value` as an exact Fraction; ValueError naming it when it is an infinite or NaN float."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return Fraction(value)


def require_count(value: int, noun: str) -> int:
    """`value` as a nonnegative int; a ValueError naming `noun` otherwise, floats included."""
    count = operator.index(value) if hasattr(value, "__index__") else -1
    if count < 0:
        raise ValueError(f"{noun} must be a nonnegative integer, got {value!r}")
    return count


def require_finite_nonnegative(value: float, noun: str) -> None:
    if not (value >= 0 and math.isfinite(value)):  # NaN fails too
        raise ValueError(f"{noun} must be finite and nonnegative, got {value!r}")


def require_pair_matrix(rows: Sequence[Sequence], noun: str) -> None:
    """Square over >= 2 candidates, zero diagonal, nonnegative; else a ValueError naming `noun`."""
    n = len(rows)
    if n < 2 or any(len(row) != n for row in rows):
        raise ValueError(f"{noun} must form a square matrix over >= 2 candidates")
    if any(rows[i][i] != 0 for i in range(n)):
        raise ValueError(f"diagonal {noun} must be zero")
    if any(x < 0 for row in rows for x in row):
        raise ValueError(f"{noun} must be nonnegative")


# maps a row of 0/1 flag bytes to the digits of a base-2 numeral
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _mask(flags: bytes) -> int:
    """The bitmask with bit j set where flags[j] is 1."""
    return int(flags[::-1].translate(_BINARY_DIGITS), 2)


@dataclass(frozen=True)
class WeightMatrix:
    """Nonnegative per-ordered-pair weights, exact.

    `WeightMatrix(rows)` keeps each entry that is already a Fraction or an
    int, converts every other entry, bools and floats included, to a
    Fraction, and makes the pair-matrix checks.  Derived on first use and
    cached: one scan of the pair totals, which `pair_total` reads (the
    common positive w[i][j] + w[j][i], an int on int entries, else None: no
    score shortcut, but the solver still applies), the read-only float form
    `array`, and the weight graph's bitmasks.  A PairwiseTally is the weight
    matrix of its win counts.
    """

    w: tuple[tuple[Fraction | int, ...], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(x if type(x) is int or type(x) is Fraction else finite_fraction(x) for x in row)
            for row in self.w
        )
        object.__setattr__(self, "w", rows)
        require_pair_matrix(rows, "weights")

    @property
    def n(self) -> int:
        return len(self.w)

    @cached_property
    def _pair_totals(self) -> tuple[tuple[int, int] | None, Fraction | int | None]:
        """The first pair (i < j) with no weight either way, and the common pair total.

        The total is None unless every pair has the same positive w[i][j] + w[j][i].
        """
        w, totals = self.w, set()
        for i, j in itertools.combinations(range(len(w)), 2):
            total = w[i][j] + w[j][i]
            if total == 0:
                return (i, j), None
            totals.add(total)
        return None, totals.pop() if len(totals) == 1 else None

    @property
    def pair_total(self) -> Fraction | int | None:
        """The common positive total of every pair, or None when pairs differ."""
        return self._pair_totals[1]

    @cached_property
    def array(self) -> ndarray:
        """The weights as a float matrix, built once and read-only."""
        from . import _newton

        return _newton.weight_array(self.w)

    @cached_property
    def _graph(self) -> tuple[list[int], list[int]]:
        """Successor and predecessor bitmasks of the digraph with an edge i -> j iff w_ij > 0."""
        # weights are nonnegative: one truth test per entry decides its edge
        flags = [bytes(map(bool, row)) for row in self.w]
        return [_mask(f) for f in flags], [_mask(bytes(col)) for col in zip(*flags)]


@dataclass(frozen=True)
class PairwiseTally(WeightMatrix):
    """Pairwise win counts with exact rational proportions: the weight matrix of the counts.

    wins[i][j] = w[i][j] counts judgments of i over j; prop(i, j) = wins /
    (wins both ways) as a Fraction, or None when the pair was never compared.
    """

    def __post_init__(self):
        try:
            rows = tuple(tuple(operator.index(x) for x in row) for row in self.w)
        except TypeError:
            raise ValueError("win counts must be integers") from None
        object.__setattr__(self, "w", rows)
        require_pair_matrix(rows, "win counts")

    @classmethod
    def _of_counts(cls, wins: tuple[tuple[int, ...], ...]) -> "PairwiseTally":
        """A tally of counts already known to be valid: no conversion, no checks."""
        t = object.__new__(cls)
        object.__setattr__(t, "w", wins)
        return t

    @property
    def wins(self) -> tuple[tuple[int, ...], ...]:
        return self.w

    def total(self, i: int, j: int) -> int:
        return self.w[i][j] + self.w[j][i]

    def prop(self, i: int, j: int) -> Fraction | None:
        t = self.total(i, j)
        if t == 0:
            return None
        return Fraction(self.w[i][j], t)

    def require_all_pairs(self) -> None:
        missing = self._pair_totals[0]
        if missing is not None:
            raise UndefinedPairError(f"pair {missing} has no comparisons")

    @cached_property
    def majority(self) -> tuple[tuple[int, ...], ...]:
        """The majority signs, derived once; `majority_relation(t)` returns this.

        Raises UndefinedPairError, and caches nothing, when some pair was
        never compared.
        """
        self.require_all_pairs()
        w = self.w
        # row i beside column i pairs each w_ij with w_ji; the diagonal is 0
        return tuple(
            tuple((x > y) - (x < y) for x, y in zip(row, col)) for row, col in zip(w, zip(*w))
        )


def tally(profile: PreferenceProfile) -> PairwiseTally:
    """Pairwise wins; each full ranking expands to all its C(n,2) pairs.

    The count runs once per profile: every later call returns the same tally.
    """
    return profile.pairwise_tally


class TiePolicy(Enum):
    """How exact half-splits are scored: ignored entirely, or half a point each."""

    STRICT_ONLY = "strict"
    HALF_POINT = "half"


def majority_relation(t: PairwiseTally) -> tuple[tuple[int, ...], ...]:
    """Pairwise majority signs from exact integer win counts: sign(W - W^T).

    Row i holds 1 where i beats j (P(i over j) > 1/2, that is wins[i][j] >
    wins[j][i]), -1 where j beats i, and 0 on an exact half-split and on the
    diagonal.  How a half-split scores is the caller's TiePolicy, not part
    of the relation.  This is the one check behind every majority question:
    it raises UndefinedPairError when some pair was never compared.
    Derived once per tally.
    """
    return t.majority


def has_condorcet_cycle(t: PairwiseTally) -> tuple[bool, tuple[int, ...] | None]:
    """Detect a directed cycle among the tally's strict majority wins.

    Returns (True, witness) with a shortest cycle as a candidate index tuple,
    deterministically the one found first from the lowest starting index.
    Raises UndefinedPairError when some pair was never compared.
    """
    adj = [[j for j, sign in enumerate(row) if sign > 0] for row in majority_relation(t)]
    best: tuple[int, ...] | None = None
    for start in range(t.n):
        # BFS shortest path back to start over win edges
        parent = {start: None}
        queue = deque([start])
        found = None
        while queue and found is None:
            u = queue.popleft()
            for v in adj[u]:
                if v == start and u != start:
                    found = u
                    break
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        if found is not None:
            path = [found]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            cycle = tuple(reversed(path))
            if best is None or len(cycle) < len(best):
                best = cycle
    return (best is not None, best)


def reachable(adjacent: Sequence[int], start: int) -> int:
    """The bitmask of the vertices a digraph reaches from `start`, start included.

    `adjacent[i]` is the bitmask of i's successors.  Given each vertex's
    predecessors instead, the answer is the set of vertices that reach
    `start`.  Each reached vertex is expanded once.
    """
    seen = frontier = 1 << start
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adjacent[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return seen


def is_transitive(comparisons: Iterable[Comparison]) -> bool:
    """True iff the comparison digraph is acyclic: no loser reaches its winner."""
    edges = [(c.winner, c.loser) for c in comparisons]
    index = {v: k for k, v in enumerate({v for edge in edges for v in edge})}
    succ = [0] * len(index)
    for a, b in edges:
        succ[index[a]] |= 1 << index[b]
    return not any(reachable(succ, index[b]) >> index[a] & 1 for a, b in edges)


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"y{i + 1}" for i in range(n))


@functools.lru_cache(maxsize=16)
def _default_candidates(n: int) -> CandidateSet:
    return CandidateSet(default_labels(n))


@functools.lru_cache(maxsize=1024)
def _seated_voter(seat: int, order: tuple[int, ...]) -> Voter:
    """Voter v{seat + 1} holding `order`, validated once while it stays cached."""
    return Voter(id=f"v{seat + 1}", ranking=Ranking(order))


def generate_complete(n: int, m: int, seed: int) -> PreferenceProfile:
    """m voters, each an independent uniform strict ranking of n candidates.

    Voters and candidate sets are immutable, so profiles share them: a
    bounded cache holds one per (seat, order) and one per n.
    """
    rng = random.Random(seed)
    voters = []
    for k in range(m):
        order = list(range(n))
        rng.shuffle(order)
        voters.append(_seated_voter(k, tuple(order)))
    return PreferenceProfile(_default_candidates(n), tuple(voters))


def enumerate_complete(n: int, m: int) -> Iterator[PreferenceProfile]:
    """Every profile of m strict rankings of n candidates: each voter runs
    through the n! orders lexicographically, the last voter fastest.

    Voters come from `generate_complete`'s cache; each seat's tuple holds
    its n! voters for the whole scan, so a scan wider than the cache only
    costs later rebuilds.
    """
    candidates = _default_candidates(n)
    orders = sorted(itertools.permutations(range(n)))
    seats = [tuple(_seated_voter(k, order) for order in orders) for k in range(m)]
    for voters in itertools.product(*seats):
        yield PreferenceProfile(candidates, voters)


def generate_assumption1(n: int, seed: int) -> PreferenceProfile:
    """Exactly one comparison per unordered pair across the whole profile.

    Each pair is judged by its own voter and oriented by a fair coin, so
    every per-pair total is 1 and all proportions are 0 or 1 (a tournament).
    """
    rng = random.Random(seed)
    pairs = itertools.combinations(range(n), 2)
    return profile_from_pairs(n, [(i, j) if rng.random() < 0.5 else (j, i) for i, j in pairs])


def profile_from_pairs(n: int, winners: Sequence[tuple[int, int]]) -> PreferenceProfile:
    """Assumption-1 profile from explicit (winner, loser) pairs, one voter each.

    `winners` must orient every unordered pair exactly once; useful for
    exhaustive tournament enumeration.
    """
    expected = {(min(w, l), max(w, l)) for w, l in winners}
    required = set(itertools.combinations(range(n), 2))
    if expected != required or len(winners) != len(required):
        raise ValueError("winners must orient each unordered pair exactly once")
    voters = tuple(
        Voter(id=f"v{k + 1}", comparisons=(Comparison(w, l),)) for k, (w, l) in enumerate(winners)
    )
    return PreferenceProfile(_default_candidates(n), voters)


def profiles_equal_as_multisets(a: PreferenceProfile, b: PreferenceProfile) -> bool:
    """True iff the two electorates express the same multiset of preference sets.

    Voter identity is ignored; each voter canonicalizes to the set of ordered
    (winner, loser) pairs they assert, a ranking to all C(n, 2) of its pairs.
    """
    if a.n != b.n or a.m != b.m:
        raise DimensionMismatchError("profiles differ in candidate or voter count")
    if a.candidates.names != b.candidates.names:
        raise DimensionMismatchError("profiles use different candidate labels")
    return Counter(map(_asserted_pairs, a.voters)) == Counter(map(_asserted_pairs, b.voters))


def _asserted_pairs(v: Voter) -> frozenset[tuple[int, int]]:
    if v.ranking is not None:
        return frozenset(itertools.combinations(v.ranking.order, 2))
    return frozenset((c.winner, c.loser) for c in v.comparisons)


def serialize_profile(profile: PreferenceProfile) -> bytes:
    """Stable JSON encoding; parse_profile(serialize_profile(p)) == p."""
    labels = profile.candidates.names
    voters = []
    for v in profile.voters:
        if v.ranking is not None:
            voters.append({"id": v.id, "ranking": [labels[i] for i in v.ranking.order]})
        else:
            voters.append(
                {"id": v.id, "comparisons": [[labels[c.winner], labels[c.loser]] for c in v.comparisons]}
            )
    doc = {"candidates": list(labels), "voters": voters}
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _at(field: str, build):
    """build(), its ValueError raised again as a SchemaError at JSON path `field`."""
    try:
        return build()
    except ValueError as e:
        raise SchemaError(str(e), field=field) from None


def parse_profile(data: "bytes | str") -> PreferenceProfile:
    """Parse the JSON profile schema, raising SchemaError with field context.

    Checks only what the model cannot know, and builds each model object at
    its JSON path, so that its constructor's refusal names the path.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            line = data.count(b"\n", 0, e.start) + 1
            raise SchemaError(f"invalid UTF-8: {e.reason}", line=line) from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e.msg}", line=e.lineno) from None
    except ValueError:  # the one left: an integer past the int-to-str digit limit
        raise SchemaError("invalid JSON: integer literal too long") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    unknown = set(doc) - {"candidates", "voters"}
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")

    labels = doc.get("candidates")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("must be a list of strings", field="candidates")
    cset = _at("candidates", lambda: CandidateSet(tuple(labels)))

    raw_voters = doc.get("voters")
    if not isinstance(raw_voters, list):
        raise SchemaError("must be a non-empty list", field="voters")

    voters: dict[str, Voter] = {}
    for k, rv in enumerate(raw_voters):
        where = f"voters[{k}]"
        if not isinstance(rv, dict):
            raise SchemaError("voter must be an object", field=where)
        vid = rv.get("id")
        if not isinstance(vid, str) or not vid:
            raise SchemaError("id must be a non-empty string", field=f"{where}.id")
        if vid in voters:
            raise SchemaError(f"duplicate voter id {vid!r}", field=f"{where}.id")
        unknown = set(rv) - {"id", "ranking", "comparisons"}
        if unknown:
            raise SchemaError(f"unknown keys: {sorted(unknown)}", field=where)
        ranking = comparisons = None
        if "ranking" in rv:
            rk, where_r = rv["ranking"], f"{where}.ranking"
            if not isinstance(rk, list) or not all(isinstance(x, str) for x in rk):
                raise SchemaError("ranking must be a list of labels", field=where_r)
            if len(rk) != cset.n:
                raise SchemaError("ranking must list every candidate exactly once", field=where_r)
            ranking = _at(where_r, lambda: Ranking(tuple(map(cset.index, rk))))
        if "comparisons" in rv:
            comps, where_c = rv["comparisons"], f"{where}.comparisons"
            if not isinstance(comps, list):
                raise SchemaError("comparisons must be a non-empty list", field=where_c)
            pairs: dict[tuple[int, int], Comparison] = {}
            for t, entry in enumerate(comps):
                at = f"{where_c}[{t}]"
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not all(isinstance(x, str) for x in entry)
                ):
                    raise SchemaError("each comparison must be a [winner, loser] label pair", field=at)
                c = _at(at, lambda: Comparison(*map(cset.index, entry)))
                if c.pair() in pairs:
                    raise SchemaError(f"pair {entry!r} judged more than once by this voter", field=at)
                pairs[c.pair()] = c
            comparisons = tuple(pairs.values())
            # an empty list is refused at its own path
            where = where_c if ranking is None else where
        voters[vid] = _at(where, lambda: Voter(vid, ranking, comparisons))
    return _at("voters", lambda: PreferenceProfile(cset, tuple(voters.values())))
