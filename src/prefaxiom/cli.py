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
import itertools
import json
import math
import sys
from fractions import Fraction
from typing import Iterable, Iterator

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
    axiom_name,
    counterexample_search,
    iter_profiles,
    make_rule,
    rule_mle,
    run_check,
)
from .errors import (
    DisconnectedGraphError,
    NotConstantTotalError,
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
    parse_profile,
    serialize_profile,
    tally,
)
from .reward import (
    StatusKind,
    embedding_residual,
    rank_by_scores,
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


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _jnum(x: float) -> float:
    # round-trip through 12 significant digits so JSON numbers match the
    # textual renderings byte for byte
    return float(_fmt(x))


def _frac(x) -> str:
    q = Fraction(x)
    # exact fractions can outgrow the interpreter's int-to-str digit limit
    # (gpmd at epsilon 1e-40 adds 40 digits per candidate); lift it for this
    # one rendering only, so importing the package changes no global state
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


# the types the stdlib writes as one JSON token; their subclasses (which it
# writes the same way) take the recursive path
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_key(key) -> str:
    """A dict key as the stdlib writes it: scalars coerced to their JSON text, then quoted."""
    if isinstance(key, str):
        return json.dumps(key)
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _indented_json(obj, pad: str = "\n") -> str:
    """Exactly json.dumps(obj, indent=2), with the C encoder writing each flat container.

    Given an indent, the stdlib falls back to its pure-Python encoder.  Here a
    list, tuple or str-keyed dict of scalars is one C-encoder call whose item
    separator carries the line break and indent, and only its brackets are
    re-framed; other containers recurse.  `pad` is the line break and indent
    of the line that closes obj.
    """
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _SCALARS.issuperset(map(type, obj)):
            body = json.dumps(obj, separators=("," + inner, ": "))[1:-1]
        else:
            body = ("," + inner).join(_indented_json(x, inner) for x in obj)
        return "[" + inner + body + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if _SCALARS.issuperset(map(type, obj.values())) and all(type(k) is str for k in obj):
            body = json.dumps(obj, separators=("," + inner, ": "))[1:-1]
        else:
            body = ("," + inner).join(f"{_json_key(k)}: {_indented_json(v, inner)}" for k, v in obj.items())
        return "{" + inner + body + pad + "}"
    return json.dumps(obj)


def _md_table(header: list[str], rows: Iterable) -> Iterator[str]:
    yield "| " + " | ".join(header) + " |"
    yield "|" + "|".join(" --- " for _ in header) + "|"
    for row in rows:
        yield "| " + " | ".join(str(c) for c in row) + " |"


def _emit(fmt: str, payload: dict, md_lines: Iterable[str], csv_rows: Iterable[list]):
    """Print the one rendering asked for; JSON reports open with one shared header."""
    if fmt == "json":
        command = click.get_current_context().command.name
        click.echo(_indented_json({"schema": 1, "command": command, "version": __version__, **payload}))
    elif fmt == "csv":
        buf = io.StringIO()
        _csv.writer(buf, lineterminator="\n").writerows(csv_rows)
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


def _tolerance(ctx, param, value: float) -> float:
    if not (value >= 0 and math.isfinite(value)):  # NaN fails too
        raise click.BadParameter(f"must be finite and nonnegative, got {value!r}")
    return value


def _rule_epsilon(policy: EpsilonPolicy) -> EpsilonPolicy | None:
    # mle-gpm is built at a finite --epsilon; built in the limit it would raise
    # wherever some candidate is never ranked first, so there it keeps 1/1000
    return None if policy.is_limit else policy


TOL_OPTION = click.option(
    "--tol", type=float, default=1e-6, show_default=True, callback=_tolerance,
    help="Tolerance of the distributional checks: finite and nonnegative.",
)
EPSILON_OPTION = click.option(
    "--epsilon", default="limit", show_default=True,
    help="Policy for the gpm check: a number in (0, 1/2) or 'limit'.  A number "
    "also smooths mle-gpm, which is built at 0.001 otherwise.",
)
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
    w = t.wins
    # totals[i][j] = w[i][j] + w[j][i], zero on the diagonal
    totals = [[x + y for x, y in zip(row, col)] for row, col in zip(w, zip(*w))]
    props = _exact_props(w)
    payload = {
        "candidates": list(labels),
        "wins": [list(row) for row in w],
        "totals": totals,
        "props": props,
    }
    # both renderings are lazy: only the printed one is built
    md = itertools.chain(
        [f"# Pairwise tally ({n} candidates, {profile.m} voters)", ""],
        _md_table(["wins", *labels], ([label, *row] for label, row in zip(labels, w))),
        [""],
        _md_table(["prop", *labels], ([label] + [p or "-" for p in row] for label, row in zip(labels, props))),
    )
    rows = itertools.chain(
        [["winner", "loser", "wins", "losses", "prop"]],
        (
            [labels[i], labels[j], w[i][j], w[j][i], props[i][j] or ""]
            for i, j in itertools.combinations(range(n), 2)
        ),
    )
    _emit(fmt, payload, md, rows)


def _proportion(wins: int, total: int) -> str | None:
    """wins/total in lowest terms, written as a Fraction prints; None when total is 0."""
    if total == 0:
        return None
    g = math.gcd(wins, total)
    return str(wins // g) if g == total else f"{wins // g}/{total // g}"


def _exact_props(w) -> list[list[str | None]]:
    """Each pair's exact proportion from the win counts; None where the pair is uncompared.

    Each distinct (wins, losses) pair is rendered once: a complete m-voter
    tally has at most m + 1 of them.
    """
    pairs = [list(zip(row, col)) for row, col in zip(w, zip(*w))]
    text = {p: _proportion(p[0], p[0] + p[1]) for p in set().union(*pairs)}
    return [list(map(text.get, row)) for row in pairs]


def _ranking_text(ranking: Ranking, labels) -> str:
    parts = []
    for cls in ranking.classes():
        if len(cls) == 1:
            parts.append(labels[cls[0]])
        else:
            parts.append("(" + " = ".join(labels[i] for i in cls) + ")")
    return " > ".join(parts)


@main.command("rank")
@click.argument("input", type=click.Path())
@click.option("--rule", type=click.Choice(ORDINAL_RULES), required=True)
@click.option("--tie-policy", type=click.Choice(["half", "strict"]), default="half", show_default=True)
@click.option("--epsilon", default="0.001", show_default=True, help="Smoothing for mle-gpm: a number or 'limit'.")
@FORMAT_OPTION
def cmd_rank(input: str, rule: str, tie_policy: str, epsilon: str, fmt: str):
    """Aggregate ranking of a profile under one rule."""
    profile = _read_profile(input)
    # parsed for every rule, so malformed input exits 2 whichever rule is asked
    options = {"tie_policy": TiePolicy(tie_policy), "epsilon_policy": _parse_epsilon(epsilon)}
    labels = profile.candidates.names
    payload: dict = {"rule": rule}
    if rule == "mle-gpm":
        payload["epsilon"] = epsilon
    ordinal = make_rule(rule, RuleKind.ORDINAL, **options)
    try:
        common, key = ordinal.key(ordinal.domain(profile))
    except NotConstantTotalError:
        # an MLE rule's pair totals differ: no exact key, so its MLE rewards rank
        key = None
    fit = rule_mle(rule, profile, **options) if rule in PROBABILISTIC_RULES else None
    ranking = ranking_from_scores(fit.r, tol=1e-8) if key is None else ranking_from_scores(key)
    payload["ranking"] = ranking.as_label_classes(profile.candidates)
    md = [f"# Ranking under {rule}", "", f"ranking: {_ranking_text(ranking, labels)}"]
    if key is not None:
        rendered = [_frac(Fraction(k, common)) for k in key]
        payload["scores"] = dict(zip(labels, rendered))
        md += ["", *_md_table(["candidate", "score"], zip(labels, rendered))]
    if fit is not None:
        status = fit.status
        rewards = [_fmt(x) for x in fit.r]
        payload["solver"] = {
            "status": status.kind.value,
            "iterations": status.iterations,
            "grad_norm": _jnum(status.grad_norm),
            "rewards": [float(x) for x in rewards],
        }
        if status.kind is StatusKind.DIVERGED:
            up = payload["solver"]["drift_up"] = [labels[i] for i in status.drift_up]
            down = payload["solver"]["drift_down"] = [labels[i] for i in status.drift_down]
            md += ["", f"solver diverged: no finite optimum; drifting up {up}, down {down}"]
        else:
            md += [
                "",
                f"solver {status.kind.value} in {status.iterations} iterations, grad norm {_fmt(status.grad_norm)}",
                "",
                "rewards: " + ", ".join(f"{label}={x}" for label, x in zip(labels, rewards)),
            ]
        if fit.converged:
            dist = [_fmt(x) for x in softmax(fit)]
            payload["softmax"] = {label: float(x) for label, x in zip(labels, dist)}
            md.append("softmax: " + ", ".join(f"{label}={x}" for label, x in zip(labels, dist)))
        if key is None:
            how = "solved" if fit.odds is None else "closed-form MLE"
            note = f"pair totals differ, score shortcut unavailable; ranking from {how} rewards"
            payload["notes"] = [note]
            md += ["", f"note: {note}"]
    rows = [["class", "candidate"]]
    rows += ([k + 1, labels[i]] for k, cls in enumerate(ranking.classes()) for i in cls)
    _emit(fmt, payload, md, rows)


@main.command("axioms")
@click.argument("input", type=click.Path())
@click.option("--rule", type=click.Choice(RULE_NAMES), required=True)
@click.option("--checks", default="all", show_default=True, help="'all' or comma-separated axiom names.")
@click.option("--tie-policy", type=click.Choice(["half", "strict"]), default="half", show_default=True)
@EPSILON_OPTION
@TOL_OPTION
@FORMAT_OPTION
def cmd_axioms(input: str, rule: str, checks: str, tie_policy: str, epsilon: str, tol: float, fmt: str):
    """Run axiom checkers against one rule's output on a profile."""
    profile = _read_profile(input)
    policy = TiePolicy(tie_policy)
    eps_policy = _parse_epsilon(epsilon)

    has_form = {
        RuleKind.ORDINAL: rule in ORDINAL_RULES,
        RuleKind.PROBABILISTIC: rule in PROBABILISTIC_RULES,
    }
    if checks == "all":
        selected = [a for a in AXIOM_CHOICES if has_form[axiom_kind(a)]]
    else:
        named = [c.strip() for c in checks.split(",") if c.strip()]
        if not named:
            raise click.UsageError("--checks names no axiom")
        selected = []
        for c in named:
            try:
                name = axiom_name(c)
            except ValueError:
                raise click.UsageError(f"unknown axiom {c!r}")
            kind = axiom_kind(name)
            if not has_form[kind]:
                raise click.UsageError(f"rule {rule!r} has no {kind.value} form for {c!r}")
            # an axiom named twice, or by name and alias, runs once, where first named
            if name not in selected:
                selected.append(name)

    kinds = [axiom_kind(a) for a in selected]
    # ordinal first: where both forms raise, the ordinal error is the one reported
    outputs = {
        kind: make_rule(rule, kind, tie_policy=policy, epsilon_policy=_rule_epsilon(eps_policy))(profile)
        for kind in (RuleKind.ORDINAL, RuleKind.PROBABILISTIC)
        if kind in kinds
    }
    reports = [
        run_check(axiom, profile, outputs[kind], tol=tol, epsilon_policy=eps_policy)
        for axiom, kind in zip(selected, kinds)
    ]

    violations = sum(1 for r in reports if r.violated)
    docs = [_round_floats(r.to_json_dict()) for r in reports]
    payload = {"rule": rule, "reports": docs, "violations": violations}
    # the text cells read the JSON dicts: true/false, and witnesses rounded once
    cells = [[d["axiom"], json.dumps(d["applicable"]), json.dumps(d["satisfied"])] for d in docs]
    md = [f"# Axiom checks for {rule}", ""]
    md += _md_table(
        ["axiom", "applicable", "satisfied", "witness"],
        ([*row, json.dumps(d["witness"]) if d["witness"] else "-"] for row, d in zip(cells, docs)),
    )
    _emit(fmt, payload, md, [["axiom", "applicable", "satisfied"], *cells])
    if violations:
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
    exact = [_frac(x) for x in dist]
    approx = [_fmt(x) for x in dist]
    payload = {
        "epsilon": epsilon,
        "distribution": dict(zip(labels, exact)),
        # float(_fmt(x)) is _jnum(x): the JSON number matches the text
        "distribution_float": {label: float(x) for label, x in zip(labels, approx)},
    }
    rows = [["candidate", "exact", "float"], *map(list, zip(labels, exact, approx))]
    md = [f"# Group preference matching distribution (epsilon = {epsilon})", ""]
    md += _md_table(rows[0], rows[1:])
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
        *others, last = _SPACES
        raise click.UsageError(f"unknown space {kind!r}; expected {', '.join(others)}, or {last}")
    args = {}
    for field in dataclasses.fields(space_cls):
        if field.name == "seed":
            args["seed"] = seed
        elif field.name in params:
            args[field.name] = params.pop(field.name)
        elif field.default is dataclasses.MISSING:
            raise click.UsageError(f"space {kind!r} needs parameter {field.name!r}")
    try:
        space = space_cls(**args)
    except ValueError as e:
        raise click.UsageError(str(e))
    if params:
        raise click.UsageError(f"unknown space parameters {sorted(params)}")
    return space


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
@TOL_OPTION
@EPSILON_OPTION
@click.option("--budget", type=click.IntRange(min=0), default=None, help="Cap on examined instances.")
@click.option("--output", type=click.Path(), default=None, help="Write a found profile here.")
@FORMAT_OPTION
def cmd_search(rule, axiom, space, seed, tol, epsilon, budget, output, fmt):
    """Scan a profile space for the first axiom violation by a rule."""
    space_obj = _parse_space(space, seed)
    kind = axiom_kind(axiom)
    eps_policy = _parse_epsilon(epsilon)
    try:
        rule_obj = make_rule(rule, kind, epsilon_policy=_rule_epsilon(eps_policy))
    except ValueError as e:
        raise click.UsageError(str(e))
    outcome = counterexample_search(
        rule_obj, axiom, space_obj, tol=tol, epsilon_policy=eps_policy, budget=budget
    )

    payload = {
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
        data = serialize_profile(outcome.profile)
        doc = json.loads(data)
        report = _round_floats(outcome.report.to_json_dict())
        payload.update(index=outcome.index, profile=doc, report=report)
        md += [
            f"violation found at index {outcome.index} after examining {outcome.examined} instances",
            "",
            "```json",
            _indented_json(doc),
            "```",
            "",
            f"witness: {json.dumps(report['witness'])}",
        ]
        if output:
            try:
                with open(output, "wb") as handle:
                    handle.write(data)
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
    payload = {"seed": seed, "rows": results}
    md = [f"# No-Condorcet-winner frequency (m = {m}, {trials} trials, seed {seed})", ""]
    md += _md_table(
        ["n", "no winner", "frequency"],
        [[str(r["n"]), str(r["no_winner"]), _fmt(r["frequency"])] for r in results],
    )
    rows = [["n", "m", "trials", "no_winner", "frequency"]]
    rows += [[r["n"], r["m"], r["trials"], r["no_winner"], _fmt(r["frequency"])] for r in results]
    _emit(fmt, payload, md, rows)


def _demo_condorcet_paradox() -> tuple[dict, list[str]]:
    profile = complete_profile(
        ["y1", "y2", "y3"],
        [["y1", "y2", "y3"], ["y2", "y3", "y1"], ["y3", "y1", "y2"]],
    )
    t = tally(profile)
    labels = profile.candidates.names
    cyclic, witness = has_condorcet_cycle(t)
    borda = [_frac(v) for v in borda_scores(t)]
    copeland = [_frac(v) for v in copeland_scores(t)]
    solution = solve_mle(weights_standard(t))
    dist = softmax(solution)
    residual = embedding_residual(t)
    limit = [_frac(x) for x in gpmd(profile, EpsilonPolicy.limit())]
    payload = {
        "profile": json.loads(serialize_profile(profile)),
        "props": _exact_props(t.wins),
        "cycle": [labels[i] for i in witness],
        "borda": borda,
        "copeland": copeland,
        "mle_rewards": [_jnum(x) for x in solution.r],
        "softmax": [_jnum(x) for x in dist],
        "embedding_residual": _jnum(residual),
        "gpmd_limit": limit,
    }
    md = [
        "# The Condorcet paradox, end to end",
        "",
        "Three voters hold the three cyclic rotations of y1 > y2 > y3, so every",
        "pairwise proportion is 2/3 and the majority relation is a cycle:",
        "",
        f"majority cycle: {' -> '.join(labels[i] for i in witness)} -> {labels[witness[0]]}",
        "",
        f"Borda scores: {', '.join(borda)} (three-way tie)",
        f"Copeland scores: {', '.join(copeland)} (three-way tie)",
        "",
        "The pairwise-logistic MLE agrees with the tie: it converges to equal",
        f"rewards ({', '.join(_fmt(x) for x in solution.r)}) and the uniform softmax",
        f"({', '.join(_fmt(x) for x in dist)}).",
        "",
        "No Bradley-Terry model reproduces the cyclic proportions: the log-odds",
        f"around the cycle add up to {_fmt(residual)} (= 3 log 2) instead of 0,",
        "so the matching-distribution premise is not applicable here.",
        "",
        f"The group matching distribution is uniform: {limit}.",
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
    weights = weights_standard(t)
    solution = solve_mle(weights)
    ranking = rank_by_scores(weights)
    pareto = run_check("pareto", profile, ranking)
    payload = {
        "profile": json.loads(serialize_profile(profile)),
        "voter_transitive": transitive,
        "props": _exact_props(t.wins),
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
    borda, copeland = borda_scores(t), copeland_scores(t)
    borda_ranking, copeland_ranking = ranking_from_scores(borda), ranking_from_scores(copeland)
    borda_text, copeland_text = [_frac(v) for v in borda], [_frac(v) for v in copeland]
    doc = json.loads(serialize_profile(profile))
    payload = {
        "profile": doc,
        "search_index": outcome.index,
        "condorcet_winner": labels[winner],
        "borda_scores": borda_text,
        "borda_ranking": borda_ranking.as_label_classes(profile.candidates),
        "copeland_scores": copeland_text,
        "copeland_ranking": copeland_ranking.as_label_classes(profile.candidates),
        "witness": _round_floats(outcome.report.to_json_dict()["witness"]),
    }
    md = [
        "# Borda misses a Condorcet winner; Copeland does not",
        "",
        f"Exhaustive scan of all 3-voter, 3-candidate profiles stops at index {outcome.index}:",
        "",
        "```json",
        _indented_json(doc),
        "```",
        "",
        f"{labels[winner]} beats every rival by majority, but the Borda scores are",
        f"{', '.join(borda_text)}, ranking {_ranking_text(borda_ranking, labels)}:",
        f"the Condorcet winner is not the unique top.",
        "",
        f"Copeland scores {', '.join(copeland_text)} give {_ranking_text(copeland_ranking, labels)},",
        "with the Condorcet winner strictly first, as its majority-margin",
        "construction guarantees.",
    ]
    return payload, md


_DEMOS = {
    "condorcet-paradox": _demo_condorcet_paradox,
    "single-voter-cycle": _demo_single_voter_cycle,
    "borda-vs-copeland": _demo_borda_vs_copeland,
}


@main.command("demo")
@click.argument("name", type=click.Choice(tuple(_DEMOS)))
@FORMAT_OPTION
def cmd_demo(name: str, fmt: str):
    """Deterministic walkthroughs of the central phenomena."""
    payload, md = _DEMOS[name]()
    payload = {"name": name, **payload}
    _emit(fmt, payload, md, [["key", "value"], *([k, json.dumps(v)] for k, v in payload.items())])


if __name__ == "__main__":
    main()
