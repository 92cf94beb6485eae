"""Preference profiles: candidates, voters, pairwise tallies, generators, serialization.

A profile is a finite electorate expressing ordinal preferences over a fixed
candidate set, either as full strict rankings or as sets of pairwise
comparisons.  Tallies and majority relations are kept in exact integer and
rational arithmetic so that downstream majority and score decisions never
depend on floating-point rounding.  Each profile is tallied once, counts
its first places once and keeps its group matching distribution per
epsilon policy; each tally scans its pair totals once and derives its
majority relation once: all are cached on first use.
"""
from __future__ import annotations

import functools
import itertools
import json
import operator
import random
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    IncompleteRelationError,
    NotCompleteProfileError,
    SchemaError,
    TiesNotAllowedError,
    UndefinedPairError,
)


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
    """One pairwise judgment: `voter` prefers candidate `winner` over `loser`."""

    voter: str
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

    def class_index(self, i: int) -> int:
        for k, cls in enumerate(self.classes()):
            if i in cls:
                return k
        raise ValueError(f"candidate {i} not in ranking")

    def strictly_above(self, i: int, j: int) -> bool:
        return self.class_index(i) < self.class_index(j)

    def top(self) -> int:
        return self.order[0]

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

    def implied_pairs(self) -> frozenset[tuple[int, int]]:
        """All (winner, loser) pairs this voter asserts; rankings expand fully."""
        if self.ranking is not None:
            order = self.ranking.order
            return frozenset(
                (order[a], order[b]) for a in range(len(order)) for b in range(a + 1, len(order))
            )
        return frozenset((c.winner, c.loser) for c in self.comparisons)


class ProfileKind(Enum):
    COMPLETE = "complete"
    GENERALIZED = "generalized"


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
                    if c.voter != v.id:
                        raise ValueError(
                            f"comparison voter tag {c.voter!r} does not match voter {v.id!r}"
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
    def kind(self) -> ProfileKind:
        if all(v.ranking is not None for v in self.voters):
            return ProfileKind.COMPLETE
        return ProfileKind.GENERALIZED

    @cached_property
    def pairwise_tally(self) -> "PairwiseTally":
        """Pairwise win counts, counted once; `tally(profile)` returns this."""
        n = self.n
        wins = [[0] * n for _ in range(n)]
        for v in self.voters:
            if v.ranking is not None:
                order = v.ranking.order
                for a in range(n - 1):
                    row = wins[order[a]]
                    for b in order[a + 1:]:
                        row[b] += 1
            else:
                for c in v.comparisons:
                    wins[c.winner][c.loser] += 1
        # nonnegative integers, square and zero on the diagonal by construction
        return PairwiseTally._of_counts(tuple(tuple(row) for row in wins))

    @cached_property
    def group_matching(self) -> dict:
        """Group matching distributions by epsilon policy; `gpmd` fills this in."""
        return {}

    @cached_property
    def first_place_counts(self) -> tuple[int, ...]:
        """How many voters rank each candidate first, counted once.

        Raises NotCompleteProfileError when some voter gives comparisons only.
        """
        if self.kind is not ProfileKind.COMPLETE:
            raise NotCompleteProfileError("first-place counts need full rankings")
        counts = [0] * self.n
        for v in self.voters:
            counts[v.ranking.top()] += 1
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
            Comparison(voter=vid, winner=cset.index(w), loser=cset.index(l)) for w, l in pairs
        )
        voters.append(Voter(id=vid, comparisons=comps))
    return PreferenceProfile(cset, tuple(voters))


@dataclass(frozen=True)
class PairwiseTally:
    """Pairwise win counts with exact rational proportions.

    wins[i][j] counts judgments of i over j; props[i][j] = wins / (wins both
    ways) as a Fraction, or None when the pair was never compared.
    """

    wins: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            rows = tuple(tuple(operator.index(x) for x in row) for row in self.wins)
        except TypeError:
            raise ValueError("win counts must be integers") from None
        object.__setattr__(self, "wins", rows)
        n = len(rows)
        if n < 2 or any(len(row) != n for row in rows):
            raise ValueError("wins must be a square matrix over >= 2 candidates")
        if any(rows[i][i] != 0 for i in range(n)):
            raise ValueError("diagonal win counts must be zero")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("win counts must be nonnegative")

    @classmethod
    def _of_counts(cls, wins: tuple[tuple[int, ...], ...]) -> "PairwiseTally":
        """A tally of counts already known to be valid: no conversion, no checks."""
        t = object.__new__(cls)
        object.__setattr__(t, "wins", wins)
        return t

    @property
    def n(self) -> int:
        return len(self.wins)

    def total(self, i: int, j: int) -> int:
        return self.wins[i][j] + self.wins[j][i]

    def prop(self, i: int, j: int) -> Fraction | None:
        t = self.total(i, j)
        if t == 0:
            return None
        return Fraction(self.wins[i][j], t)

    @cached_property
    def _pair_totals(self) -> tuple[tuple[int, int] | None, int | None]:
        """The first pair (i < j) never compared, and the common pair total.

        The total is None unless every pair has the same positive one.  One
        scan per tally serves every later question about pair totals.
        """
        w = self.wins
        totals = set()
        for i, row in enumerate(w):
            for j in range(i + 1, len(w)):
                total = row[j] + w[j][i]
                if total == 0:
                    return (i, j), None
                totals.add(total)
        return None, totals.pop() if len(totals) == 1 else None

    @property
    def defined_on_all_pairs(self) -> bool:
        return self._pair_totals[0] is None

    def require_all_pairs(self) -> None:
        missing = self._pair_totals[0]
        if missing is not None:
            raise UndefinedPairError(f"pair {missing} has no comparisons")

    @property
    def constant_total(self) -> int | None:
        """The common positive total of every pair, or None when pairs differ."""
        return self._pair_totals[1]

    @cached_property
    def majority(self) -> "MajorityRelation":
        """The majority relation, derived once; `majority_relation(t)` returns this."""
        w = self.wins
        rows = []
        for i, row_i in enumerate(w):
            row: list[Outcome | None] = []
            for j, x in enumerate(row_i):
                y = w[j][i]
                if i == j or x + y == 0:
                    row.append(None)
                elif x > y:
                    row.append(Outcome.WIN)
                elif x < y:
                    row.append(Outcome.LOSS)
                else:
                    row.append(Outcome.TIE)
            rows.append(tuple(row))
        return MajorityRelation(tuple(rows))


def tally(profile: PreferenceProfile) -> PairwiseTally:
    """Pairwise wins; each full ranking expands to all its C(n,2) pairs.

    The count runs once per profile: every later call returns the same tally.
    """
    return profile.pairwise_tally


def tally_from_props(n: int, props: Mapping[tuple[int, int], "Fraction | float"]) -> PairwiseTally:
    """Synthesize a tally realizing given proportions exactly.

    `props` maps upper-triangle pairs (i, j), i < j, to the desired P(i over j).
    Each pair gets the smallest integer counts with that exact proportion, so
    per-pair totals generally differ.
    """
    wins = [[0] * n for _ in range(n)]
    for (i, j), value in props.items():
        if not 0 <= i < j < n:
            raise ValueError(f"pair {(i, j)} must satisfy 0 <= i < j < n")
        p = Fraction(value)
        if not 0 <= p <= 1:
            raise ValueError(f"proportion for pair {(i, j)} must lie in [0, 1]")
        wins[i][j] = p.numerator
        wins[j][i] = p.denominator - p.numerator
    return PairwiseTally(tuple(tuple(row) for row in wins))


class TiePolicy(Enum):
    """How exact half-splits are scored: ignored entirely, or half a point each."""

    STRICT_ONLY = "strict"
    HALF_POINT = "half"


class Outcome(Enum):
    WIN = "win"
    LOSS = "loss"
    TIE = "tie"


@dataclass(frozen=True)
class MajorityRelation:
    """Ternary pairwise majority outcomes; None marks pairs never compared."""

    outcomes: tuple[tuple[Outcome | None, ...], ...]

    @property
    def n(self) -> int:
        return len(self.outcomes)

    @property
    def is_complete(self) -> bool:
        n = self.n
        return all(
            self.outcomes[i][j] is not None for i in range(n) for j in range(n) if i != j
        )

    def require_complete(self) -> None:
        if not self.is_complete:
            raise IncompleteRelationError("majority relation undefined on some pair")

    def win_count(self, i: int) -> int:
        return sum(1 for j in range(self.n) if j != i and self.outcomes[i][j] is Outcome.WIN)

    def has_ties(self) -> bool:
        n = self.n
        return any(
            self.outcomes[i][j] is Outcome.TIE for i in range(n) for j in range(i + 1, n)
        )

    def is_strict_linear_order(self) -> bool:
        """True iff complete, tie-free, and transitive (win counts are 0..n-1)."""
        if not self.is_complete or self.has_ties():
            return False
        return sorted(self.win_count(i) for i in range(self.n)) == list(range(self.n))


def majority_relation(t: PairwiseTally) -> MajorityRelation:
    """Pairwise majority outcomes from exact integer win counts.

    i beats j when P(i over j) > 1/2, that is when wins[i][j] > wins[j][i].
    An exact half-split is always a tie; how a tie scores is the caller's
    TiePolicy, not part of the relation.  Derived once per tally.
    """
    return t.majority


def has_condorcet_cycle(relation: MajorityRelation) -> tuple[bool, tuple[int, ...] | None]:
    """Detect a directed cycle among strict majority wins.

    Returns (True, witness) with a shortest cycle as a candidate index tuple,
    deterministically the one found first from the lowest starting index.
    """
    relation.require_complete()
    n = relation.n
    adj = [
        [j for j in range(n) if j != i and relation.outcomes[i][j] is Outcome.WIN]
        for i in range(n)
    ]
    best: tuple[int, ...] | None = None
    for start in range(n):
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


def is_transitive(comparisons: Iterable[Comparison]) -> bool:
    """True iff the comparison digraph is acyclic."""
    edges: dict[int, set[int]] = {}
    nodes: set[int] = set()
    for c in comparisons:
        edges.setdefault(c.winner, set()).add(c.loser)
        nodes.add(c.winner)
        nodes.add(c.loser)
    # Kahn's algorithm
    indeg = {u: 0 for u in nodes}
    for u, outs in edges.items():
        for v in outs:
            indeg[v] += 1
    queue = deque(u for u in nodes if indeg[u] == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for v in edges.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == len(nodes)


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


def generate_assumption1(n: int, seed: int) -> PreferenceProfile:
    """Exactly one comparison per unordered pair across the whole profile.

    Each pair is judged by its own voter and oriented by a fair coin, so
    every per-pair total is 1 and all proportions are 0 or 1 (a tournament).
    """
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    voters = []
    for k, (i, j) in enumerate(pairs):
        vid = f"v{k + 1}"
        winner, loser = (i, j) if rng.random() < 0.5 else (j, i)
        voters.append(Voter(id=vid, comparisons=(Comparison(vid, winner, loser),)))
    return PreferenceProfile(CandidateSet(default_labels(n)), tuple(voters))


def profile_from_pairs(n: int, winners: Sequence[tuple[int, int]]) -> PreferenceProfile:
    """Assumption-1 profile from explicit (winner, loser) pairs, one voter each.

    `winners` must orient every unordered pair exactly once; useful for
    exhaustive tournament enumeration.
    """
    expected = {(min(w, l), max(w, l)) for w, l in winners}
    required = {(i, j) for i in range(n) for j in range(i + 1, n)}
    if expected != required or len(winners) != len(required):
        raise ValueError("winners must orient each unordered pair exactly once")
    voters = tuple(
        Voter(id=f"v{k + 1}", comparisons=(Comparison(f"v{k + 1}", w, l),))
        for k, (w, l) in enumerate(winners)
    )
    return PreferenceProfile(CandidateSet(default_labels(n)), voters)


def apply_permutation(profile: PreferenceProfile, perm: Sequence[int]) -> PreferenceProfile:
    """Relabel candidates: candidate i becomes perm[i] everywhere."""
    n = profile.n
    if sorted(perm) != list(range(n)):
        raise DimensionMismatchError("perm must be a bijection on candidate indices")
    voters = []
    for v in profile.voters:
        if v.ranking is not None:
            order = tuple(perm[i] for i in v.ranking.order)
            voters.append(Voter(id=v.id, ranking=Ranking(order)))
        else:
            comps = tuple(
                Comparison(voter=c.voter, winner=perm[c.winner], loser=perm[c.loser])
                for c in v.comparisons
            )
            voters.append(Voter(id=v.id, comparisons=comps))
    return PreferenceProfile(profile.candidates, tuple(voters))


def profiles_equal_as_multisets(a: PreferenceProfile, b: PreferenceProfile) -> bool:
    """True iff the two electorates express the same multiset of preference sets.

    Voter identity is ignored; each voter canonicalizes to the set of ordered
    pairs they assert (rankings expand fully).
    """
    if a.n != b.n or a.m != b.m:
        raise DimensionMismatchError("profiles differ in candidate or voter count")
    if a.candidates.names != b.candidates.names:
        raise DimensionMismatchError("profiles use different candidate labels")
    return Counter(v.implied_pairs() for v in a.voters) == Counter(
        v.implied_pairs() for v in b.voters
    )


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


def parse_profile(data: "bytes | str") -> PreferenceProfile:
    """Parse the JSON profile schema, raising SchemaError with field context."""
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
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    unknown = set(doc) - {"candidates", "voters"}
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")

    labels = doc.get("candidates")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("must be a list of strings", field="candidates")
    try:
        cset = CandidateSet(tuple(labels))
    except ValueError as e:
        raise SchemaError(str(e), field="candidates") from None

    raw_voters = doc.get("voters")
    if not isinstance(raw_voters, list) or len(raw_voters) == 0:
        raise SchemaError("must be a non-empty list", field="voters")

    sorted_labels = sorted(labels)
    voters = []
    seen_ids = set()
    for k, rv in enumerate(raw_voters):
        where = f"voters[{k}]"
        if not isinstance(rv, dict):
            raise SchemaError("voter must be an object", field=where)
        vid = rv.get("id")
        if not isinstance(vid, str) or not vid:
            raise SchemaError("id must be a non-empty string", field=f"{where}.id")
        if vid in seen_ids:
            raise SchemaError(f"duplicate voter id {vid!r}", field=f"{where}.id")
        seen_ids.add(vid)
        has_ranking = "ranking" in rv
        has_comps = "comparisons" in rv
        if has_ranking == has_comps:
            raise SchemaError(
                "voter must hold exactly one of 'ranking' or 'comparisons'", field=where
            )
        unknown = set(rv) - {"id", "ranking", "comparisons"}
        if unknown:
            raise SchemaError(f"unknown keys: {sorted(unknown)}", field=where)
        if has_ranking:
            rk = rv["ranking"]
            if not isinstance(rk, list) or not all(isinstance(x, str) for x in rk):
                raise SchemaError("ranking must be a list of labels", field=f"{where}.ranking")
            if sorted(rk) != sorted_labels:
                raise SchemaError(
                    "ranking must list every candidate exactly once", field=f"{where}.ranking"
                )
            order = tuple(cset.index(x) for x in rk)
            voters.append(Voter(id=vid, ranking=Ranking(order)))
        else:
            comps = rv["comparisons"]
            where_c = f"{where}.comparisons"
            if not isinstance(comps, list) or len(comps) == 0:
                raise SchemaError("comparisons must be a non-empty list", field=where_c)
            parsed = []
            seen_pairs = set()
            for t, entry in enumerate(comps):
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not all(isinstance(x, str) for x in entry)
                ):
                    raise SchemaError(
                        "each comparison must be a [winner, loser] label pair",
                        field=f"{where_c}[{t}]",
                    )
                w, l = entry
                if w not in cset._positions or l not in cset._positions:
                    raise SchemaError(
                        f"unknown candidate in pair {entry!r}", field=f"{where_c}[{t}]"
                    )
                if w == l:
                    raise SchemaError(
                        "winner and loser must differ", field=f"{where_c}[{t}]"
                    )
                iw, il = cset.index(w), cset.index(l)
                key = (min(iw, il), max(iw, il))
                if key in seen_pairs:
                    raise SchemaError(
                        f"pair {entry!r} judged more than once by this voter",
                        field=f"{where_c}[{t}]",
                    )
                seen_pairs.add(key)
                parsed.append(Comparison(voter=vid, winner=iw, loser=il))
            voters.append(Voter(id=vid, comparisons=tuple(parsed)))
    try:
        return PreferenceProfile(cset, tuple(voters))
    except (ValueError, DimensionMismatchError) as e:
        raise SchemaError(str(e)) from None
