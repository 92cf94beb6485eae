"""Command line interface: tally, rank, axioms, gpmd, search, experiments, demos.

Reports are deterministic: identical inputs and flags produce byte-identical
output.  Floats render to 12 significant digits; exact rationals render as
fraction strings.  JSON payloads carry "schema": 1.

Exit codes: 1 profile unsuited to the rule or check (package error), 2
malformed input (schema or usage), 3 disconnected comparison graph, 4 axiom
violation found by `axioms`, 5 exhaustive space too large.
"""
from __future__ import annotations

import csv as _csv
import dataclasses
import io
import json
import sys
from fractions import Fraction

import click

from . import __version__
from .axioms import (
    Assumption1,
    ExhaustiveComplete,
    ORDINAL_AXIOMS,
    ORDINAL_RULES,
    PROBABILISTIC_AXIOMS,
    PROBABILISTIC_RULES,
    RULE_NAMES,
    RandomComplete,
    RuleKind,
    axiom_kind,
    counterexample_search,
    iter_profiles,
    make_rule,
    rule_weights,
    run_check,
)
from .errors import (
    DisconnectedGraphError,
    PrefaxiomError,
    SchemaError,
    SpaceTooLargeError,
)
from .gpmd import EpsilonPolicy, gpmd
from .profiles import (
    PreferenceProfile,
    Ranking,
    TiePolicy,
    complete_profile,
    generalized_profile,
    has_condorcet_cycle,
    is_transitive,
    majority_relation,
    parse_profile,
    serialize_profile,
    tally,
)
from .reward import (
    StatusKind,
    embedding_residual,
    rank_by_scores,
    scores as weight_scores,
    softmax,
    solve_mle,
    weights_standard,
)
from .rules import borda_scores, condorcet_winner, copeland_scores, ranking_from_scores

EXIT_SCHEMA = 2
EXIT_DISCONNECTED = 3
EXIT_VIOLATION = 4
EXIT_SPACE = 5

AXIOM_CHOICES = ORDINAL_AXIOMS + PROBABILISTIC_AXIOMS
DEMO_NAMES = ("condorcet-paradox", "single-voter-cycle", "borda-vs-copeland")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _jnum(x: float) -> float:
    # round-trip through 12 significant digits so JSON numbers match the
    # textual renderings byte for byte
    return float(format(float(x), ".12g"))


def _frac(x) -> str:
    q = Fraction(x)
    # exact scores can outgrow the interpreter's int-to-str digit limit
    # (mle-gpm at n = 40 reaches ~9,000 digits); lift it for this one
    # rendering only, so importing the package changes no global state
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(q)
    finally:
        sys.set_int_max_str_digits(limit)


def _round_floats(obj):
    """Round every float inside a JSON-ish structure to 12 significant digits."""
    if isinstance(obj, float):
        return _jnum(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return lines


def _emit(fmt: str, payload: dict, md_lines: list[str], csv_rows: list[list] | None = None):
    if fmt == "json":
        click.echo(json.dumps({"schema": 1, **payload}, indent=2))
    elif fmt == "csv":
        if csv_rows is None:
            raise click.UsageError("this command has no csv rendering")
        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerows(csv_rows)
        click.echo(buf.getvalue(), nl=False)
    else:
        click.echo("\n".join(md_lines))


def _read_profile(path: str) -> PreferenceProfile:
    try:
        with open(path, "rb") as handle:
            return parse_profile(handle.read())
    except FileNotFoundError:
        click.echo(f"error: no such file: {path}", err=True)
        sys.exit(EXIT_SCHEMA)
    except OSError as e:
        click.echo(f"error: cannot read {path}: {e.strerror or e}", err=True)
        sys.exit(EXIT_SCHEMA)


def _parse_epsilon(value: str) -> EpsilonPolicy:
    if value == "limit":
        return EpsilonPolicy.limit()
    try:
        return EpsilonPolicy.finite(Fraction(value))
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"--epsilon must be a number in (0, 1/2) or 'limit', got {value!r}")


def _axiom_name(ctx, param, value: str) -> str:
    """An axiom name or alias, checked against the axiom table."""
    try:
        axiom_kind(value)
    except ValueError:
        raise click.BadParameter(f"unknown axiom {value!r}; expected one of {', '.join(AXIOM_CHOICES)}")
    return value


def _tie_policy(value: str) -> TiePolicy:
    return TiePolicy.HALF_POINT if value == "half" else TiePolicy.STRICT_ONLY


FORMAT_OPTION = click.option(
    "--format",
    "fmt",
    type=click.Choice(["markdown", "json", "csv"]),
    default="markdown",
    show_default=True,
    help="Report format.",
)


# exit code and stderr prefix per package error; any other one exits 1
_EXITS = {
    SchemaError: (EXIT_SCHEMA, "schema error"),
    DisconnectedGraphError: (EXIT_DISCONNECTED, "error"),
    SpaceTooLargeError: (EXIT_SPACE, "error"),
}


class _Main(click.Group):
    """Maps package errors to exit codes once, for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PrefaxiomError as e:
            code, prefix = _EXITS.get(type(e), (1, "error"))
            click.echo(f"{prefix}: {e}", err=True)
            sys.exit(code)


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="prefaxiom")
def main():
    """Preference aggregation with mechanical axiom checking."""


@main.command("tally")
@click.argument("input", type=click.Path())
@FORMAT_OPTION
def cmd_tally(input: str, fmt: str):
    """Pairwise win counts and exact proportions of a profile."""
    profile = _read_profile(input)
    t = tally(profile)
    labels = profile.candidates.names
    n = t.n
    # one Fraction per cell; win counts stay far below the int-to-str digit limit
    props = [["" if (p := t.prop(i, j)) is None else str(p) for j in range(n)] for i in range(n)]
    payload = {
        "command": "tally",
        "version": __version__,
        "candidates": list(labels),
        "wins": [list(row) for row in t.wins],
        "totals": [[t.total(i, j) if i != j else 0 for j in range(n)] for i in range(n)],
        "props": [[props[i][j] or None for j in range(n)] for i in range(n)],
    }
    md = [f"# Pairwise tally ({n} candidates, {profile.m} voters)", ""]
    md += _md_table(
        ["wins"] + list(labels),
        [[labels[i]] + [str(t.wins[i][j]) for j in range(n)] for i in range(n)],
    )
    md.append("")
    md += _md_table(
        ["prop"] + list(labels),
        [[labels[i]] + [props[i][j] or "-" for j in range(n)] for i in range(n)],
    )
    rows = [["winner", "loser", "wins", "losses", "prop"]]
    for i in range(n):
        for j in range(i + 1, n):
            rows.append([labels[i], labels[j], t.wins[i][j], t.wins[j][i], props[i][j] or ""])
    _emit(fmt, payload, md, rows)


def _ranking_text(ranking: Ranking, labels) -> str:
    parts = []
    for cls in ranking.classes():
        if len(cls) == 1:
            parts.append(labels[cls[0]])
        else:
            parts.append("(" + " = ".join(labels[i] for i in cls) + ")")
    return " > ".join(parts)


def _ranking_from_rewards(values: tuple[float, ...], tol: float = 1e-8) -> Ranking:
    """Ranking by solved float rewards; values within `tol` share a tie class.

    `ranking_from_scores` ties only exactly equal scores, and it can: its
    scores are exact rationals.  These rewards come out of a Newton solve, so
    symmetric candidates end with rewards that differ by rounding alone, and
    exact equality would split a true tie by that noise.
    """
    by_value = sorted(range(len(values)), key=lambda i: (-values[i], i))
    classes: list[list[int]] = []
    for i in by_value:
        if classes and abs(values[classes[-1][-1]] - values[i]) <= tol:
            classes[-1].append(i)
        else:
            classes.append([i])
    # canonical member order inside a class keeps reports deterministic
    canon = tuple(tuple(sorted(c)) for c in classes)
    return Ranking(tuple(i for c in canon for i in c), canon)


@main.command("rank")
@click.argument("input", type=click.Path())
@click.option("--rule", type=click.Choice(ORDINAL_RULES), required=True)
@click.option("--tie-policy", type=click.Choice(["half", "strict"]), default="half", show_default=True)
@click.option("--epsilon", default="0.001", show_default=True, help="Smoothing for mle-gpm: a number or 'limit'.")
@FORMAT_OPTION
def cmd_rank(input: str, rule: str, tie_policy: str, epsilon: str, fmt: str):
    """Aggregate ranking of a profile under one rule."""
    profile = _read_profile(input)
    policy = _tie_policy(tie_policy)
    labels = profile.candidates.names
    payload: dict = {"command": "rank", "version": __version__, "rule": rule}
    md = [f"# Ranking under {rule}", ""]
    notes: list[str] = []
    solver_block = None
    dist_block = None
    score_block = None

    if rule == "borda":
        score_block = borda_scores(tally(profile))
    elif rule == "copeland":
        score_block = copeland_scores(tally(profile), policy)
    else:
        eps_policy = None
        if rule == "mle-gpm":
            eps_policy = _parse_epsilon(epsilon)
            payload["epsilon"] = epsilon
        weights = rule_weights(rule, profile, tie_policy=policy, epsilon_policy=eps_policy)
        solution = solve_mle(weights)
        if weights.is_constant_total:
            score_block = weight_scores(weights)
        else:
            notes.append("pair totals differ, score shortcut unavailable; ranking from solved rewards")
            ranking = _ranking_from_rewards(solution.r)
        solver_block = solution
        if solution.converged:
            dist_block = softmax(solution)

    if score_block is not None:
        ranking = ranking_from_scores(score_block)
    payload["ranking"] = ranking.as_label_classes(profile.candidates)
    md.append(f"ranking: {_ranking_text(ranking, labels)}")
    if score_block is not None:
        rendered = [_frac(v) for v in score_block]
        payload["scores"] = dict(zip(labels, rendered))
        md.append("")
        md += _md_table(["candidate", "score"], [list(row) for row in zip(labels, rendered)])
    if solver_block is not None:
        status = solver_block.status
        payload["solver"] = {
            "status": status.kind.value,
            "iterations": status.iterations,
            "grad_norm": _jnum(status.grad_norm),
            "rewards": [_jnum(x) for x in solver_block.r],
        }
        if status.kind is StatusKind.DIVERGED:
            payload["solver"]["drift_up"] = [labels[i] for i in status.drift_up]
            payload["solver"]["drift_down"] = [labels[i] for i in status.drift_down]
            md.append("")
            md.append(
                f"solver diverged: no finite optimum; drifting up {[labels[i] for i in status.drift_up]}, "
                f"down {[labels[i] for i in status.drift_down]}"
            )
        else:
            md.append("")
            md.append(f"solver {status.kind.value} in {status.iterations} iterations, grad norm {_fmt(status.grad_norm)}")
            md += ["", "rewards: " + ", ".join(f"{labels[i]}={_fmt(x)}" for i, x in enumerate(solver_block.r))]
    if dist_block is not None:
        payload["softmax"] = {labels[i]: _jnum(x) for i, x in enumerate(dist_block)}
        md.append("softmax: " + ", ".join(f"{labels[i]}={_fmt(x)}" for i, x in enumerate(dist_block)))
    for note in notes:
        payload.setdefault("notes", []).append(note)
        md += ["", f"note: {note}"]
    rows = [["class", "candidate"]]
    for k, cls in enumerate(ranking.classes()):
        for i in cls:
            rows.append([k + 1, labels[i]])
    _emit(fmt, payload, md, rows)


@main.command("axioms")
@click.argument("input", type=click.Path())
@click.option("--rule", type=click.Choice(RULE_NAMES), required=True)
@click.option("--checks", default="all", show_default=True, help="'all' or comma-separated axiom names.")
@click.option("--tie-policy", type=click.Choice(["half", "strict"]), default="half", show_default=True)
@click.option("--epsilon", default="limit", show_default=True, help="Policy for the gpm check.")
@click.option("--tol", type=float, default=1e-6, show_default=True)
@FORMAT_OPTION
def cmd_axioms(input: str, rule: str, checks: str, tie_policy: str, epsilon: str, tol: float, fmt: str):
    """Run axiom checkers against one rule's output on a profile."""
    profile = _read_profile(input)
    policy = _tie_policy(tie_policy)
    eps_policy = _parse_epsilon(epsilon)

    has_form = {
        RuleKind.ORDINAL: rule in ORDINAL_RULES,
        RuleKind.PROBABILISTIC: rule in PROBABILISTIC_RULES,
    }
    if checks == "all":
        selected = [a for a in AXIOM_CHOICES if has_form[axiom_kind(a)]]
    else:
        selected = [c.strip() for c in checks.split(",") if c.strip()]
        for c in selected:
            try:
                kind = axiom_kind(c)
            except ValueError:
                raise click.UsageError(f"unknown axiom {c!r}")
            if not has_form[kind]:
                raise click.UsageError(f"rule {rule!r} has no {kind.value} form for {c!r}")

    kinds = [axiom_kind(a) for a in selected]
    # ordinal first: where both forms raise, the ordinal error is the one reported
    outputs = {
        kind: make_rule(rule, kind, tie_policy=policy)(profile)
        for kind in (RuleKind.ORDINAL, RuleKind.PROBABILISTIC)
        if kind in kinds
    }
    reports = [
        run_check(axiom, profile, outputs[kind], tol=tol, epsilon_policy=eps_policy)
        for axiom, kind in zip(selected, kinds)
    ]

    payload = {
        "command": "axioms",
        "version": __version__,
        "rule": rule,
        "reports": [_round_floats(r.to_json_dict()) for r in reports],
        "violations": sum(1 for r in reports if r.violated),
    }
    md = [f"# Axiom checks for {rule}", ""]
    md += _md_table(
        ["axiom", "applicable", "satisfied", "witness"],
        [
            [r.axiom, str(r.applicable).lower(), str(r.satisfied).lower(),
             json.dumps(_round_floats(dict(r.witness))) if r.witness else "-"]
            for r in reports
        ],
    )
    rows = [["axiom", "applicable", "satisfied"]]
    rows += [[r.axiom, str(r.applicable).lower(), str(r.satisfied).lower()] for r in reports]
    _emit(fmt, payload, md, rows)
    if any(r.violated for r in reports):
        sys.exit(EXIT_VIOLATION)


@main.command("gpmd")
@click.argument("input", type=click.Path())
@click.option("--epsilon", default="0.001", show_default=True, help="A number in (0, 1/2) or 'limit'.")
@FORMAT_OPTION
def cmd_gpmd(input: str, epsilon: str, fmt: str):
    """Group preference matching distribution of a complete profile."""
    profile = _read_profile(input)
    eps_policy = _parse_epsilon(epsilon)
    dist = gpmd(profile, eps_policy)
    labels = profile.candidates.names
    payload = {
        "command": "gpmd",
        "version": __version__,
        "epsilon": epsilon,
        "distribution": {labels[i]: _frac(x) for i, x in enumerate(dist)},
        "distribution_float": {labels[i]: _jnum(x) for i, x in enumerate(dist)},
    }
    md = [f"# Group preference matching distribution (epsilon = {epsilon})", ""]
    md += _md_table(
        ["candidate", "exact", "float"],
        [[labels[i], _frac(x), _fmt(x)] for i, x in enumerate(dist)],
    )
    rows = [["candidate", "exact", "float"]]
    rows += [[labels[i], _frac(x), _fmt(x)] for i, x in enumerate(dist)]
    _emit(fmt, payload, md, rows)


_SPACES = {
    "exhaustive-complete": ExhaustiveComplete,
    "random-complete": RandomComplete,
    "assumption1": Assumption1,
}


def _parse_space(text: str, seed: int | None):
    kind, _, rest = text.partition(":")
    params = {}
    for item in rest.split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        if not value:
            raise click.UsageError(f"bad space parameter {item!r}")
        if key in params:
            raise click.UsageError(f"space parameter {key!r} given more than once")
        try:
            params[key] = int(value)
        except ValueError:
            raise click.UsageError(f"space parameter {key!r} must be an integer")
    space_cls = _SPACES.get(kind)
    if space_cls is None:
        raise click.UsageError(
            f"unknown space {kind!r}; expected exhaustive-complete, random-complete, or assumption1"
        )
    args = {}
    for field in dataclasses.fields(space_cls):
        if field.name == "seed":
            args["seed"] = seed
        elif field.name in params:
            args[field.name] = params.pop(field.name)
        elif field.default is dataclasses.MISSING:
            raise click.UsageError(f"space {kind!r} needs parameter {field.name!r}")
    try:
        return space_cls(**args), params
    except ValueError as e:
        raise click.UsageError(str(e))


@main.command("search")
@click.option("--rule", type=click.Choice(RULE_NAMES), required=True)
@click.option(
    "--axiom",
    required=True,
    callback=_axiom_name,
    help=f"One of {', '.join(AXIOM_CHOICES)}, or an alias such as group-preference-matching.",
)
@click.option("--space", required=True, help="e.g. exhaustive-complete:n=3,m=3 or random-complete:n=3,m=4,trials=10000")
@click.option("--seed", type=int, default=None, help="Required for random spaces.")
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--epsilon", default="limit", show_default=True, help="Policy for the gpm check.")
@click.option("--budget", type=click.IntRange(min=0), default=None, help="Cap on examined instances.")
@click.option("--output", type=click.Path(), default=None, help="Write a found profile here.")
@FORMAT_OPTION
def cmd_search(rule, axiom, space, seed, tol, epsilon, budget, output, fmt):
    """Scan a profile space for the first axiom violation by a rule."""
    space_obj, extra = _parse_space(space, seed)
    if extra:
        raise click.UsageError(f"unknown space parameters {sorted(extra)}")
    kind = axiom_kind(axiom)
    eps_policy = _parse_epsilon(epsilon)
    try:
        rule_obj = make_rule(rule, kind)
    except ValueError as e:
        raise click.UsageError(str(e))
    outcome = counterexample_search(
        rule_obj, axiom, space_obj, tol=tol, epsilon_policy=eps_policy, budget=budget
    )

    payload = {
        "command": "search",
        "version": __version__,
        "rule": rule,
        "axiom": axiom,
        "space": space,
        "seed": seed,
        "examined": outcome.examined,
        "applicable": outcome.applicable,
        "vacuous": outcome.vacuous,
        "found": outcome.found,
    }
    md = [f"# Search: {rule} vs {axiom} on {space}", ""]
    if outcome.found:
        doc = json.loads(serialize_profile(outcome.profile))
        payload["index"] = outcome.index
        payload["profile"] = doc
        payload["report"] = _round_floats(outcome.report.to_json_dict())
        md.append(f"violation found at index {outcome.index} after examining {outcome.examined} instances")
        md.append("")
        md.append("```json")
        md.append(json.dumps(doc, indent=2))
        md.append("```")
        md.append("")
        md.append(f"witness: {json.dumps(_round_floats(outcome.report.to_json_dict()['witness']))}")
        if output:
            try:
                with open(output, "wb") as handle:
                    handle.write(serialize_profile(outcome.profile))
            except OSError as e:
                click.echo(f"error: cannot write {output}: {e.strerror or e}", err=True)
                sys.exit(EXIT_SCHEMA)
            md.append("")
            md.append(f"profile written to {output}")
    else:
        md.append(f"no violation; {outcome.examined} instances examined")
    rows = [["found", "index", "examined"]]
    rows.append([str(outcome.found).lower(), outcome.index if outcome.found else "", outcome.examined])
    _emit(fmt, payload, md, rows)


@main.command("experiment-cycles")
@click.option("--n-list", default="3,10", show_default=True, help="Comma-separated candidate counts.")
@click.option("--m", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=10000, show_default=True)
@click.option("--seed", type=int, required=True)
@FORMAT_OPTION
def cmd_experiment_cycles(n_list: str, m: int, trials: int, seed: int, fmt: str):
    """Frequency of profiles with no Condorcet winner, by candidate count."""
    try:
        ns = [int(x) for x in n_list.split(",") if x.strip()]
    except ValueError:
        raise click.UsageError("--n-list must be comma-separated integers")
    if not ns or any(n < 2 for n in ns):
        raise click.UsageError("--n-list needs integers >= 2")
    results = []
    for n in ns:
        space = RandomComplete(n, m, trials, seed)
        hits = sum(1 for p in iter_profiles(space) if condorcet_winner(tally(p)) is None)
        results.append({"n": n, "m": m, "trials": trials, "no_winner": hits,
                        "frequency": _jnum(hits / trials)})
    payload = {
        "command": "experiment-cycles",
        "version": __version__,
        "seed": seed,
        "rows": results,
    }
    md = [f"# No-Condorcet-winner frequency (m = {m}, {trials} trials, seed {seed})", ""]
    md += _md_table(
        ["n", "no winner", "frequency"],
        [[str(r["n"]), str(r["no_winner"]), _fmt(r["frequency"])] for r in results],
    )
    rows = [["n", "m", "trials", "no_winner", "frequency"]]
    rows += [[r["n"], r["m"], r["trials"], r["no_winner"], _fmt(r["frequency"])] for r in results]
    _emit(fmt, payload, md, rows)


def _paradox_profile() -> PreferenceProfile:
    return complete_profile(
        ["y1", "y2", "y3"],
        [["y1", "y2", "y3"], ["y2", "y3", "y1"], ["y3", "y1", "y2"]],
    )


def _demo_condorcet_paradox() -> tuple[dict, list[str]]:
    profile = _paradox_profile()
    t = tally(profile)
    labels = profile.candidates.names
    rel = majority_relation(t)
    cyclic, witness = has_condorcet_cycle(rel)
    borda = borda_scores(t)
    copeland = copeland_scores(t)
    solution = solve_mle(weights_standard(t))
    dist = softmax(solution)
    residual = embedding_residual(t)
    limit = gpmd(profile, EpsilonPolicy.limit())
    payload = {
        "profile": json.loads(serialize_profile(profile)),
        "props": [[None if t.prop(i, j) is None else _frac(t.prop(i, j)) for j in range(3)] for i in range(3)],
        "cycle": [labels[i] for i in witness],
        "borda": [_frac(v) for v in borda],
        "copeland": [_frac(v) for v in copeland],
        "mle_rewards": [_jnum(x) for x in solution.r],
        "softmax": [_jnum(x) for x in dist],
        "embedding_residual": _jnum(residual),
        "gpmd_limit": [_frac(x) for x in limit],
    }
    md = [
        "# The Condorcet paradox, end to end",
        "",
        "Three voters hold the three cyclic rotations of y1 > y2 > y3, so every",
        "pairwise proportion is 2/3 and the majority relation is a cycle:",
        "",
        f"majority cycle: {' -> '.join(labels[i] for i in witness)} -> {labels[witness[0]]}",
        "",
        f"Borda scores: {', '.join(_frac(v) for v in borda)} (three-way tie)",
        f"Copeland scores: {', '.join(_frac(v) for v in copeland)} (three-way tie)",
        "",
        "The pairwise-logistic MLE agrees with the tie: it converges to equal",
        f"rewards ({', '.join(_fmt(x) for x in solution.r)}) and the uniform softmax",
        f"({', '.join(_fmt(x) for x in dist)}).",
        "",
        "No Bradley-Terry model reproduces the cyclic proportions: the log-odds",
        f"around the cycle add up to {_fmt(residual)} (= 3 log 2) instead of 0,",
        "so the matching-distribution premise is not applicable here.",
        "",
        f"The group matching distribution is uniform: {[_frac(x) for x in limit]}.",
    ]
    return payload, md


def _demo_single_voter_cycle() -> tuple[dict, list[str]]:
    profile = generalized_profile(
        ["y1", "y2", "y3"],
        {"v1": [("y1", "y2"), ("y2", "y3"), ("y3", "y1")]},
    )
    t = tally(profile)
    labels = profile.candidates.names
    transitive = is_transitive(profile.voters[0].comparisons)
    solution = solve_mle(weights_standard(t))
    ranking = rank_by_scores(weights_standard(t))
    pareto = run_check("pareto", profile, ranking)
    payload = {
        "profile": json.loads(serialize_profile(profile)),
        "voter_transitive": transitive,
        "props": [[None if i == j or t.prop(i, j) is None else _frac(t.prop(i, j)) for j in range(3)] for i in range(3)],
        "mle_rewards": [_jnum(x) for x in solution.r],
        "ranking": ranking.as_label_classes(profile.candidates),
        "pareto": _round_floats(pareto.to_json_dict()),
    }
    md = [
        "# One intransitive labeler defeats Pareto",
        "",
        "A single voter reports the cycle y1 > y2, y2 > y3, y3 > y1 (allowed for",
        f"comparison voters; is_transitive = {str(transitive).lower()}).  Every compared pair is",
        "unanimous at proportion 1, yet the pairs cannot all be separated:",
        "",
        f"MLE rewards: ({', '.join(_fmt(x) for x in solution.r)}) (all equal; the cycle is",
        "strongly connected, so the optimum is finite and symmetric)",
        f"ranking: {_ranking_text(ranking, labels)}",
        "",
        f"Pareto check: applicable = {str(pareto.applicable).lower()}, satisfied = {str(pareto.satisfied).lower()},",
        f"witness pair = {pareto.witness and [labels[i] for i in pareto.witness['pair']]}",
        "",
        "Unanimity on each pair forces strict separation, but the aggregate ties",
        "all three candidates: Pareto is applicable and violated.",
    ]
    return payload, md


def _demo_borda_vs_copeland() -> tuple[dict, list[str]]:
    rule = make_rule("borda", RuleKind.ORDINAL)
    outcome = counterexample_search(rule, "condorcet", ExhaustiveComplete(3, 3))
    profile = outcome.profile
    labels = profile.candidates.names
    t = tally(profile)
    winner = condorcet_winner(t)
    borda_ranking = ranking_from_scores(borda_scores(t))
    copeland_ranking = ranking_from_scores(copeland_scores(t))
    payload = {
        "profile": json.loads(serialize_profile(profile)),
        "search_index": outcome.index,
        "condorcet_winner": labels[winner],
        "borda_scores": [_frac(v) for v in borda_scores(t)],
        "borda_ranking": borda_ranking.as_label_classes(profile.candidates),
        "copeland_scores": [_frac(v) for v in copeland_scores(t)],
        "copeland_ranking": copeland_ranking.as_label_classes(profile.candidates),
        "witness": _round_floats(outcome.report.to_json_dict()["witness"]),
    }
    md = [
        "# Borda misses a Condorcet winner; Copeland does not",
        "",
        f"Exhaustive scan of all 3-voter, 3-candidate profiles stops at index {outcome.index}:",
        "",
        "```json",
        json.dumps(json.loads(serialize_profile(profile)), indent=2),
        "```",
        "",
        f"{labels[winner]} beats every rival by majority, but the Borda scores are",
        f"{', '.join(_frac(v) for v in borda_scores(t))}, ranking {_ranking_text(borda_ranking, labels)}:",
        f"the Condorcet winner is not the unique top.",
        "",
        f"Copeland scores {', '.join(_frac(v) for v in copeland_scores(t))} give {_ranking_text(copeland_ranking, labels)},",
        "with the Condorcet winner strictly first, as its majority-margin",
        "construction guarantees.",
    ]
    return payload, md


@main.command("demo")
@click.argument("name", type=click.Choice(DEMO_NAMES))
@FORMAT_OPTION
def cmd_demo(name: str, fmt: str):
    """Deterministic walkthroughs of the central phenomena."""
    builders = {
        "condorcet-paradox": _demo_condorcet_paradox,
        "single-voter-cycle": _demo_single_voter_cycle,
        "borda-vs-copeland": _demo_borda_vs_copeland,
    }
    payload, md = builders[name]()
    payload = {"command": "demo", "version": __version__, "name": name, **payload}
    rows = [["key", "value"]]
    rows += [[k, json.dumps(v)] for k, v in payload.items() if k not in ("command", "version")]
    _emit(fmt, payload, md, rows)


if __name__ == "__main__":
    main()
