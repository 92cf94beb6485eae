"""The benchmark's workloads: fixed work built from a seed, plus its gates.

Each workload object is built once per run (inputs made from the seed) and
then iterated; ``iteration`` does the workload's whole fixed work through
the package's stable entry points and returns what it saw.  All package
calls are looked up on the module at call time, so a traced iteration sees
the wrapped functions.

Operations are search cells (one rule x axiom x space) and in-process CLI
commands.  An operation that raises, or exits with a code it should not,
counts as failed and is listed with its exception type; it is never skipped.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import prefaxiom
import prefaxiom.cli

ORDINAL_RULES = ("borda", "copeland", "mle-standard", "mle-copeland", "mle-gpm")
PROBABILISTIC_RULES = ("mle-standard", "mle-copeland", "mle-gpm", "gpmd-limit")
AUDIT_EPSILON = Fraction(1, 100)


@dataclass(frozen=True)
class Sizes:
    exhaustive: tuple[int, int]  # (n, m) of the exhaustive space both audits scan
    ordinal_trials: int  # RandomComplete(4, 5, trials) in audit-ordinal
    cycle_trials: int  # experiment-cycles --n-list 3,10 --m 3 --trials
    prefix: int  # leading profiles of ExhaustiveComplete(3, 4) in audit-probabilistic
    probabilistic_trials: int  # RandomComplete(5, 5, trials) in audit-probabilistic
    wide: tuple[int, int]  # (n, m) of report-large's wide file
    mid: tuple[int, int]  # (n, m) of report-large's mid file


FULL = Sizes(
    exhaustive=(3, 3),
    ordinal_trials=500,
    cycle_trials=500,
    prefix=3,
    probabilistic_trials=30,
    wide=(200, 50),
    mid=(40, 10),
)
SMOKE = Sizes(
    exhaustive=(2, 3),
    ordinal_trials=20,
    cycle_trials=20,
    prefix=2,
    probabilistic_trials=5,
    wide=(12, 6),
    mid=(8, 4),
)


@dataclass
class Iteration:
    """What one pass over a workload's fixed work produced."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    gate_failures: list[str] = field(default_factory=list)
    profiles: int = 0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.gate_failures.append(message)

    def record(self, *parts) -> None:
        self.digest.update(repr(parts).encode())


def _search(it: Iteration, tracer, label: str, rule_name: str, kind, policy, axiom: str, space, budget=None):
    """One audit cell; returns the SearchOutcome or None when it raised."""
    axioms = prefaxiom.axioms
    tracer.begin_op(it.attempted)
    it.attempted += 1
    try:
        rule = axioms.make_rule(rule_name, kind, epsilon_policy=policy)
        outcome = axioms.counterexample_search(
            rule, axiom, space, epsilon_policy=policy, budget=budget
        )
    except Exception as e:  # a failed operation is counted, the run goes on
        it.failures.append(f"search {rule_name} x {axiom} on {label}: {type(e).__name__}")
        return None
    it.profiles += outcome.examined
    it.record(label, rule_name, axiom, outcome.found, outcome.index, outcome.examined)
    return outcome


def _cli(it: Iteration, tracer, args: list[str], expected=(0,)):
    """One in-process CLI command; returns (exit code, stdout) or None on failure."""
    tracer.begin_op(it.attempted)
    it.attempted += 1
    out, err = io.StringIO(), io.StringIO()
    code, error = 0, None

    def invoke():
        try:
            prefaxiom.cli.main.main(args=args, prog_name="prefaxiom", standalone_mode=False)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        return 0

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.call(
                f"cli.{args[0]}", invoke, info=lambda a, k, r: len(out.getvalue().encode())
            )
        except Exception as e:  # a failed operation is counted, the run goes on
            error = type(e).__name__
    text = out.getvalue()
    shown = " ".join(Path(a).name if a.endswith(".json") else a for a in args)
    it.record(shown, code, error, text)
    if error is not None:
        it.failures.append(f"{shown}: {error}")
        return None
    if code not in expected:
        it.failures.append(f"{shown}: exit {code}")
        return None
    return code, text


class AuditOrdinal:
    """5 ordinal rules x 4 ordinal axioms, then experiment-cycles via the CLI."""

    name = "audit-ordinal"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        n, m = sizes.exhaustive
        self.spaces = (
            (f"exhaustive-complete:n={n},m={m}", prefaxiom.ExhaustiveComplete(n, m)),
            (
                f"random-complete:n=4,m=5,trials={sizes.ordinal_trials}",
                prefaxiom.RandomComplete(4, 5, sizes.ordinal_trials, seed),
            ),
        )
        self.cycles = [
            "experiment-cycles", "--n-list", "3,10", "--m", "3",
            "--trials", str(sizes.cycle_trials), "--seed", str(seed), "--format", "json",
        ]
        self.cycle_profiles = 2 * sizes.cycle_trials

    def iteration(self, tracer) -> Iteration:
        it = Iteration()
        policy = prefaxiom.EpsilonPolicy.finite(AUDIT_EPSILON)
        kind = prefaxiom.RuleKind.ORDINAL
        for label, space in self.spaces:
            size = prefaxiom.space_size(space)
            cells = {}
            for rule in ORDINAL_RULES:
                for axiom in prefaxiom.ORDINAL_AXIOMS:
                    cells[rule, axiom] = _search(it, tracer, label, rule, kind, policy, axiom, space)
            for axiom in prefaxiom.ORDINAL_AXIOMS:
                borda, mle = cells["borda", axiom], cells["mle-standard", axiom]
                if borda is not None and mle is not None:
                    it.gate(
                        (borda.found, borda.index) == (mle.found, mle.index),
                        f"{label}: borda and mle-standard disagree on {axiom}",
                    )
                for rule in ("copeland", "mle-copeland"):
                    out = cells[rule, axiom]
                    if out is not None:
                        it.gate(
                            not out.found and out.examined == size,
                            f"{label}: {rule} does not scan clean on {axiom}",
                        )
        result = _cli(it, tracer, self.cycles)
        if result is not None:
            rows = json.loads(result[1])["rows"]
            it.gate([r["n"] for r in rows] == [3, 10], "experiment-cycles: wrong rows")
            it.gate(
                all(0 <= r["no_winner"] <= r["trials"] for r in rows),
                "experiment-cycles: no-winner count out of range",
            )
            it.profiles += self.cycle_profiles
        return it


class AuditProbabilistic:
    """4 probabilistic rules x 3 distributional axioms over three spaces.

    The leading profiles of ExhaustiveComplete(3, 4) include voters who all
    put one candidate on top; today the solver spins to max_iters on some of
    them.  They are a fixed part of every seed's work, so the cost of that
    defect is in every run at the same size.
    """

    name = "audit-probabilistic"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        n, m = sizes.exhaustive
        self.spaces = (
            (f"exhaustive-complete:n={n},m={m}", prefaxiom.ExhaustiveComplete(n, m), None),
            (f"exhaustive-complete:n=3,m=4[:{sizes.prefix}]", prefaxiom.ExhaustiveComplete(3, 4), sizes.prefix),
            (
                f"random-complete:n=5,m=5,trials={sizes.probabilistic_trials}",
                prefaxiom.RandomComplete(5, 5, sizes.probabilistic_trials, seed),
                None,
            ),
        )

    def iteration(self, tracer) -> Iteration:
        it = Iteration()
        finite = prefaxiom.EpsilonPolicy.finite(AUDIT_EPSILON)
        limit = prefaxiom.EpsilonPolicy.limit()
        kind = prefaxiom.RuleKind.PROBABILISTIC
        for label, space, budget in self.spaces:
            for rule in PROBABILISTIC_RULES:
                # mle-gpm targets the distribution it was built for, as in
                # scripts/axiom_audit.py; the others target the limit
                policy = finite if rule == "mle-gpm" else limit
                for axiom in prefaxiom.PROBABILISTIC_AXIOMS:
                    out = _search(it, tracer, label, rule, kind, policy, axiom, space, budget)
                    if out is None:
                        continue
                    if (rule, axiom) in (("gpmd-limit", "gpm"), ("mle-standard", "preference-matching")):
                        it.gate(not out.found, f"{label}: {rule} violates {axiom} at {out.index}")
        return it


def write_profile(path: Path, n: int, m: int, rng: random.Random) -> None:
    """A complete profile in the package's JSON schema, drawn by the benchmark."""
    labels = [f"c{i + 1}" for i in range(n)]
    voters = []
    for k in range(m):
        order = labels[:]
        rng.shuffle(order)
        voters.append({"id": f"v{k + 1}", "ranking": order})
    path.write_text(json.dumps({"candidates": labels, "voters": voters}, indent=2) + "\n")


class ReportLarge:
    """The CLI reports a user runs on big profile files, with --format json."""

    name = "report-large"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.wide = workdir / f"wide-{seed}.json"
        self.mid = workdir / f"mid-{seed}.json"
        self.m = sizes.wide[1]
        write_profile(self.wide, *sizes.wide, random.Random(f"report-large:wide:{seed}"))
        write_profile(self.mid, *sizes.mid, random.Random(f"report-large:mid:{seed}"))

    def iteration(self, tracer) -> Iteration:
        it = Iteration()
        wide, mid, js = str(self.wide), str(self.mid), ["--format", "json"]
        tally = _cli(it, tracer, ["tally", wide, *js])
        ranks = {
            rule: _cli(it, tracer, ["rank", wide, "--rule", rule, *js])
            for rule in ("borda", "copeland", "mle-standard", "mle-copeland")
        }
        dist = _cli(it, tracer, ["gpmd", wide, "--epsilon", "1/1000", *js])
        _cli(it, tracer, ["axioms", mid, "--rule", "mle-standard", "--checks", "all", *js], expected=(0, 4))
        # dies with ValueError from n ~ 40 today; counted as a failed operation
        _cli(it, tracer, ["rank", mid, "--rule", "mle-gpm", *js])

        if tally is not None:
            wins = json.loads(tally[1])["wins"]
            n = len(wins)
            it.gate(
                all(wins[i][j] + wins[j][i] == self.m for i in range(n) for j in range(i + 1, n)),
                "tally: a pair's wins do not sum to m",
            )
        ranking = {r: json.loads(v[1])["ranking"] for r, v in ranks.items() if v is not None}
        for mle, rule in (("mle-standard", "borda"), ("mle-copeland", "copeland")):
            if mle in ranking and rule in ranking:
                it.gate(ranking[mle] == ranking[rule], f"rank: {mle} and {rule} rankings differ")
        if dist is not None:
            exact = json.loads(dist[1])["distribution"].values()
            it.gate(sum(Fraction(x) for x in exact) == 1, "gpmd: exact fractions do not sum to 1")
        it.profiles += it.attempted  # each command loads one profile file
        return it


WORKLOADS = {w.name: w for w in (AuditOrdinal, AuditProbabilistic, ReportLarge)}
