"""Layer tracing from outside the package.

A traced iteration wraps each layer's public functions wherever a
``prefaxiom.*`` module namespace binds them (``axioms`` resolves ``tally``
and ``rank_by_scores`` through its own globals at call time, so patching
the defining module alone would miss those calls).  Every wrapped call
records a span: name, start, end, parent span and the request it served
(the profile index inside a search, or the operation index).  Spans stay in
memory and are reduced to per-layer metrics when the iteration ends; the
package is restored to its original functions afterwards.
"""
from __future__ import annotations

import statistics
import sys
from time import perf_counter

# layer -> public functions traced in it
TARGETS = {
    "profiles": (
        "generate_complete",
        "tally",
        "majority_relation",
        "profiles_equal_as_multisets",
        "parse_profile",
    ),
    "rules": ("borda_scores", "copeland_scores", "condorcet_winner", "ranking_from_scores"),
    "reward": (
        "solve_mle",
        "weights_standard",
        "weights_copeland",
        "weights_gpm",
        "scores",
        "rank_by_scores",
        "bt_embeddable",
        "softmax",
    ),
    "gpmd": ("gpmd",),
    "axioms": ("run_check", "counterexample_search"),
}
AXIOMS = (
    "pareto",
    "majority",
    "pairwise-majority",
    "condorcet",
    "preference-matching",
    "preference-equivalence",
    "gpm",
)
CLI_COMMANDS = ("tally", "rank", "axioms", "gpmd", "experiment-cycles")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request, info]
        self.stack: list[int] = []
        self.request: tuple[int, int | None] | None = None
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Start a new request: spans until the next call belong to operation op."""
        self.request = (op, None)

    def call(self, name, fn, *args, info=None, **kwargs):
        """Run fn inside a span; info(args, kwargs, result) annotates it."""
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.request, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.stack.pop()
        if info is not None:
            span[5] = info(args, kwargs, result)
        return result

    def _wrap(self, name, fn, info=None, name_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            return tracer.call(span_name, fn, *args, info=info, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _iter_profiles(self, fn):
        tracer = self

        def wrapper(space):
            stream = fn(space)  # the space-size refusal stays eager

            def numbered():
                op = tracer.request[0] if tracer.request else None
                for index, profile in enumerate(stream):
                    tracer.request = (op, index)
                    yield profile

            return numbered()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function in every loaded prefaxiom namespace."""
        replacements = {}
        for layer, names in TARGETS.items():
            # the package namespace rebinds some module names (gpmd) to functions
            module = sys.modules.get(f"{package.__name__}.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name, None)
                if original is None:
                    self.absent.append(f"{layer}.{fn_name}")
                    continue
                replacements[id(original)] = self._wrap(
                    f"{layer}.{fn_name}", original, *_annotations(fn_name)
                )
        iter_profiles = getattr(package.axioms, "iter_profiles", None)
        if iter_profiles is not None:
            replacements[id(iter_profiles)] = self._iter_profiles(iter_profiles)
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reduction -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (one iteration)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        solve_ms: list[float] = []
        solve = {"iterations": 0, "max_iters": 0, "max_iters_s": 0.0, "diverged": 0}
        checks = {a: [0, 0, 0] for a in AXIOMS}  # checked, applicable, violated
        examined = 0
        stdout_bytes = {c: 0 for c in CLI_COMMANDS}
        cli_self = 0.0
        for k, (name, start, end, _, _, info) in enumerate(self.spans):
            own = end - start - child[k]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            if info is None:
                continue
            if name == "reward.solve_mle":
                kind, iterations = info
                solve_ms.append((end - start) * 1e3)
                solve["iterations"] += iterations
                if kind == "max-iters":
                    solve["max_iters"] += 1
                    solve["max_iters_s"] += own
                elif kind == "diverged":
                    solve["diverged"] += 1
            elif name.startswith("axioms.run_check."):
                counts = checks.get(name.rsplit(".", 1)[1])
                if counts is not None:
                    counts[0] += 1
                    counts[1] += info[0]
                    counts[2] += info[1]
            elif name == "axioms.counterexample_search":
                examined += info
            elif name.startswith("cli."):
                command = name[4:]
                if command in stdout_bytes:
                    stdout_bytes[command] += info
                cli_self += own

        out: dict[str, float] = {}
        for fn in TARGETS["profiles"]:
            out[f"profiles.{fn}.calls"] = calls.get(f"profiles.{fn}", 0)
            out[f"profiles.{fn}.self_s"] = self_s.get(f"profiles.{fn}", 0.0)
        for fn in TARGETS["rules"]:
            out[f"rules.{fn}.self_s"] = self_s.get(f"rules.{fn}", 0.0)
        solve_ms.sort()
        out["reward.solve_mle.calls"] = calls.get("reward.solve_mle", 0)
        out["reward.solve_mle.self_s"] = self_s.get("reward.solve_mle", 0.0)
        out["reward.solve_mle.p50_ms"] = _percentile(solve_ms, 50)
        out["reward.solve_mle.p99_ms"] = _percentile(solve_ms, 99)
        for key, value in solve.items():
            out[f"reward.solve_mle.{key}"] = value
        for fn in (f for f in TARGETS["reward"] if f != "solve_mle"):
            out[f"reward.{fn}.self_s"] = self_s.get(f"reward.{fn}", 0.0)
        out["gpmd.gpmd.calls"] = calls.get("gpmd.gpmd", 0)
        out["gpmd.gpmd.self_s"] = self_s.get("gpmd.gpmd", 0.0)
        for axiom, (checked, applicable, violated) in checks.items():
            out[f"axioms.run_check.{axiom}.self_s"] = self_s.get(f"axioms.run_check.{axiom}", 0.0)
            out[f"axioms.run_check.{axiom}.checked"] = checked
            out[f"axioms.run_check.{axiom}.applicable"] = applicable
            out[f"axioms.run_check.{axiom}.violated"] = violated
        out["axioms.counterexample_search.examined"] = examined
        out["axioms.counterexample_search.self_s"] = self_s.get("axioms.counterexample_search", 0.0)
        for command in CLI_COMMANDS:
            out[f"cli.{command}.s"] = total_s.get(f"cli.{command}", 0.0)
            out[f"cli.{command}.stdout_bytes"] = stdout_bytes[command]
        out["cli.self_s"] = cli_self
        for missing in self.absent:
            layer, fn = missing.split(".", 1)
            for key in [k for k in out if k.startswith(f"{layer}.{fn}.")]:
                del out[key]
        return out



class NullTracer:
    """Stand-in for untraced iterations: no spans, package left unpatched."""

    def begin_op(self, op: int) -> None:
        pass

    def call(self, name, fn, *args, info=None, **kwargs):
        return fn(*args, **kwargs)


def _annotations(fn_name: str):
    """(info, name_of) for functions whose spans carry counts from results."""
    if fn_name == "solve_mle":
        return (lambda a, k, r: (r.status.kind.value, r.status.iterations)), None
    if fn_name == "run_check":
        def name_of(args, kwargs):
            axiom = args[0] if args else kwargs.get("axiom")
            return "axioms.run_check." + ("gpm" if axiom == "group-preference-matching" else str(axiom))

        return (lambda a, k, r: (bool(r.applicable), bool(r.violated))), name_of
    if fn_name == "counterexample_search":
        return (lambda a, k, r: r.examined), None
    return None, None


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over traced iterations."""
    keys = per_iteration[0].keys()
    return {key: statistics.median(m[key] for m in per_iteration) for key in keys}
