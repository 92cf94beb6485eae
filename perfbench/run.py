#!/usr/bin/env python3
"""prefaxiom benchmark: one workload per run, end-to-end or layer-traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit-ordinal --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout.  A run builds the
workload's inputs from ``--seed``, times a fresh interpreter's import of
``prefaxiom`` and ``prefaxiom.cli`` several times (``setup_s``, median),
then repeats the workload's fixed work until ``--seconds`` have passed and
reports medians over those iterations.  With ``--trace 1`` untraced and
traced iterations alternate, and the run reports per-layer metrics plus the
tracing overhead instead.  Every iteration checks the correctness gates;
the last line of stdout is one JSON object, and the exit code is 1 when a
gate fails.  ``--smoke`` runs tiny sizes and also checks that every metric
named in BENCHMARK.json is emitted.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
IMPORT = "import prefaxiom, prefaxiom.cli"
# single-threaded throughout, as a default CLI call on a small machine runs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure_setup(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", IMPORT]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)  # writes bytecode caches
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_iterations(workload, seconds: float, traced: bool, package):
    """Repeat the fixed work while another pass still fits in the time.

    Returns (wall, Iteration) pairs for the untraced passes,
    (wall, Iteration, layer metrics, absent targets) for the traced ones,
    and the peak RSS in MB after the first pass; with tracing on, untraced
    and traced passes alternate.
    """
    from tracing import NullTracer, Tracer

    untraced, traced_runs = [], []
    peak_rss_mb = None
    deadline = perf_counter() + seconds
    while True:
        round_start = start = perf_counter()
        it = workload.iteration(NullTracer())
        untraced.append((perf_counter() - start, it))
        if peak_rss_mb is None:
            # later passes only add allocator fragmentation, which grows
            # with the number of passes that fit in the time
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced:
            tracer = Tracer()
            tracer.install(package)
            try:
                start = perf_counter()
                it = workload.iteration(tracer)
                wall = perf_counter() - start
            finally:
                tracer.uninstall()
            traced_runs.append((wall, it, tracer.metrics(), tracer.absent))
        now = perf_counter()
        if now + (now - round_start) > deadline:
            return untraced, traced_runs, peak_rss_mb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="prefaxiom benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "prefaxiom" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prefaxiom
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, WORKDIR)

    setup_s = None if args.trace else measure_setup(2 if args.smoke else SETUP_REPEATS)
    untraced, traced, peak_rss_mb = run_iterations(workload, args.seconds, bool(args.trace), prefaxiom)
    iterations = [it for _, it in untraced] + [t[1] for t in traced]

    attempted = sum(it.attempted for it in iterations)
    failed = sum(len(it.failures) for it in iterations)
    gate_failures = sorted({g for it in iterations for g in it.gate_failures})
    digests = {it.digest.hexdigest() for it in iterations}
    if len(digests) > 1:
        gate_failures.append("passes over the same inputs gave different verdicts or output")
    walls = sorted(w for w, _ in untraced)
    wall_s = statistics.median(walls)
    profiles = iterations[0].profiles

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(untraced)}"
          + (f" untraced + {len(traced)} traced" if traced else ""))
    if args.trace:
        metrics = tracing.median_metrics([t[2] for t in traced])
        metrics["trace.overhead_ratio"] = statistics.median(t[0] for t in traced) / wall_s
        units = {name: tracing.unit_of(name) for name in metrics}
        for absent in traced[0][3]:
            print(f"  absent (not in the package): {absent}")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "profiles_per_s": profiles / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_s": "s", "profiles_per_s": "1/s", "peak_rss_mb": "MB"}
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    print(f"  {'wall_s per pass':<48} min {walls[0]:.6g}  median {wall_s:.6g}  max {walls[-1]:.6g} s")
    print(f"  {'failed_ratio':<48} {failed / attempted:.6g} ({failed}/{attempted} operations)")
    for failure in sorted({f for it in iterations for f in it.failures}):
        print(f"  failed: {failure}")
    print(f"  digest sha256:{sorted(digests)[0]}")
    for gate in gate_failures:
        print(f"  GATE FAILED: {gate}")

    if args.smoke:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        missing = [name for name in wanted if name not in metrics]
        extra = [name for name in metrics if name not in wanted]
        if missing or extra:
            gate_failures.append(f"metrics missing {missing}, not in BENCHMARK.json {extra}")
            print(f"  GATE FAILED: {gate_failures[-1]}")

    correct = not gate_failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
