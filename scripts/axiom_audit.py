#!/usr/bin/env python3
"""Audit every built-in rule against every applicable axiom.

Scans an exhaustive space plus a seeded random space and prints a
rule x axiom markdown matrix.  A cell reads `FAIL @ i` with the first
violating profile index, `pass (a/e)` when no violation was found and the
axiom's premise held on a of the e examined profiles, or `vacuous (e)` when
it held on none of them, so the scan is no evidence either way.
Deterministic for a fixed seed.

Usage:
    python3 scripts/axiom_audit.py
    python3 scripts/axiom_audit.py --n 4 --m 5 --trials 2000 --seed 11
"""
from __future__ import annotations

import argparse
from fractions import Fraction

from prefaxiom import (
    EpsilonPolicy,
    ExhaustiveComplete,
    ORDINAL_AXIOMS,
    ORDINAL_RULES,
    PROBABILISTIC_AXIOMS,
    PROBABILISTIC_RULES,
    RandomComplete,
    RuleKind,
    counterexample_search,
    make_rule,
)


def audit(space, epsilon: Fraction, tol: float) -> list[str]:
    lines = []
    finite = EpsilonPolicy.finite(epsilon)
    rows: list[tuple[str, RuleKind, EpsilonPolicy, tuple[str, ...]]] = []
    for name in ORDINAL_RULES:
        rows.append((name, RuleKind.ORDINAL, finite, ORDINAL_AXIOMS))
    for name in PROBABILISTIC_RULES:
        # mle-gpm targets the distribution it was built for; the limit
        # target is undefined for it whenever a first-place share is zero
        policy = finite if name == "mle-gpm" else EpsilonPolicy.limit()
        rows.append((name, RuleKind.PROBABILISTIC, policy, PROBABILISTIC_AXIOMS))

    axioms = ORDINAL_AXIOMS + PROBABILISTIC_AXIOMS
    lines.append("| rule (kind) | " + " | ".join(axioms) + " |")
    lines.append("|---" * (len(axioms) + 1) + "|")
    for name, kind, policy, applicable in rows:
        rule = make_rule(name, kind, epsilon_policy=policy)
        cells = []
        for axiom in axioms:
            if axiom not in applicable:
                cells.append("-")
                continue
            out = counterexample_search(rule, axiom, space, tol=tol, epsilon_policy=policy)
            if out.found:
                cells.append(f"FAIL @ {out.index}")
            elif out.applicable:
                cells.append(f"pass ({out.applicable}/{out.examined})")
            else:
                cells.append(f"vacuous ({out.examined})")
        lines.append(f"| {name} ({kind.value}) | " + " | ".join(cells) + " |")
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4, help="candidates in the random space")
    ap.add_argument("--m", type=int, default=5, help="voters in the random space")
    ap.add_argument("--trials", type=int, default=500, help="random profiles to scan")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--epsilon", type=Fraction, default=Fraction(1, 100))
    ap.add_argument("--tol", type=float, default=1e-6)
    args = ap.parse_args()

    print("## Exhaustive space: every 3-voter profile over 3 candidates (216)")
    print()
    for line in audit(ExhaustiveComplete(3, 3), args.epsilon, args.tol):
        print(line)
    print()
    print(
        f"## Random space: n={args.n}, m={args.m}, trials={args.trials}, seed={args.seed}"
    )
    print()
    space = RandomComplete(args.n, args.m, args.trials, seed=args.seed)
    for line in audit(space, args.epsilon, args.tol):
        print(line)
    print()
    print(
        "gpm column: mle-standard/mle-copeland/gpmd-limit are compared against the"
        f" limit-policy target; mle-gpm against its own finite policy (epsilon={args.epsilon})."
    )


if __name__ == "__main__":
    main()
