"""Exit codes, output formats, determinism of the command line front end."""
from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefaxiom import (
    ORDINAL_AXIOMS,
    ORDINAL_RULES,
    PROBABILISTIC_AXIOMS,
    PROBABILISTIC_RULES,
    Assumption1,
    EpsilonPolicy,
    ExhaustiveComplete,
    NotConstantTotalError,
    PrefaxiomError,
    RuleKind,
    TiePolicy,
    complete_profile,
    default_labels,
    generate_complete,
    gpmd,
    iter_profiles,
    make_rule,
    parse_profile,
    serialize_profile,
    tally,
)
from prefaxiom.cli import _fmt, _indented_json, main
from test_profiles import MALFORMED, malformed_bytes

PARADOX = {
    "candidates": ["y1", "y2", "y3"],
    "voters": [
        {"id": "v1", "ranking": ["y1", "y2", "y3"]},
        {"id": "v2", "ranking": ["y2", "y3", "y1"]},
        {"id": "v3", "ranking": ["y3", "y1", "y2"]},
    ],
}
FOUR_VOTER = {
    "candidates": ["y1", "y2", "y3"],
    "voters": [
        {"id": "v1", "ranking": ["y1", "y2", "y3"]},
        {"id": "v2", "ranking": ["y1", "y2", "y3"]},
        {"id": "v3", "ranking": ["y2", "y3", "y1"]},
        {"id": "v4", "ranking": ["y3", "y1", "y2"]},
    ],
}


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, doc, name="profile.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_tally_markdown(runner, tmp_path):
    res = runner.invoke(main, ["tally", _write(tmp_path, PARADOX)])
    assert res.exit_code == 0
    assert "| y1 | - | 2/3 | 1/3 |" in res.output


def test_tally_json_schema_field(runner, tmp_path):
    res = runner.invoke(main, ["tally", _write(tmp_path, PARADOX), "--format", "json"])
    doc = json.loads(res.output)
    assert doc["schema"] == 1
    assert doc["props"][0][1] == "2/3"


def test_tally_csv(runner, tmp_path):
    res = runner.invoke(main, ["tally", _write(tmp_path, PARADOX), "--format", "csv"])
    lines = res.output.strip().splitlines()
    assert lines[0] == "winner,loser,wins,losses,prop"
    assert "y1,y2,2,1,2/3" in lines


def test_rank_borda_json(runner, tmp_path):
    res = runner.invoke(
        main, ["rank", _write(tmp_path, FOUR_VOTER), "--rule", "borda", "--format", "json"]
    )
    doc = json.loads(res.output)
    assert doc["ranking"] == [["y1"], ["y2"], ["y3"]]
    assert doc["scores"] == {"y1": "5/4", "y2": "1", "y3": "3/4"}


def test_rank_refuses_rules_without_an_ordinal_form(runner, tmp_path):
    res = runner.invoke(main, ["rank", _write(tmp_path, FOUR_VOTER), "--rule", "gpmd-limit"])
    assert res.exit_code == 2


def test_rank_parses_epsilon_for_every_rule(runner, tmp_path):
    path = _write(tmp_path, FOUR_VOTER)
    for rule in ("borda", "copeland", "mle-standard", "mle-copeland", "mle-gpm"):
        for bad in ("junk", "0.7"):
            res = runner.invoke(main, ["rank", path, "--rule", rule, "--epsilon", bad])
            assert res.exit_code == 2 and "--epsilon must be" in res.output, (rule, res.output)
        # a well-formed epsilon leaves the rules that take none as they were
        plain = runner.invoke(main, ["rank", path, "--rule", rule])
        for good in ("0.001", "limit", "1/4"):
            res = runner.invoke(main, ["rank", path, "--rule", rule, "--epsilon", good])
            assert res.exit_code == plain.exit_code == 0
            if rule != "mle-gpm":
                assert res.stdout == plain.stdout


def test_rank_mle_reports_solver_and_softmax(runner, tmp_path):
    res = runner.invoke(
        main,
        ["rank", _write(tmp_path, FOUR_VOTER), "--rule", "mle-standard", "--format", "json"],
    )
    doc = json.loads(res.output)
    assert doc["solver"]["status"] == "converged"
    assert abs(doc["softmax"]["y1"] - 0.451831670186) < 1e-9
    assert abs(sum(doc["solver"]["rewards"])) < 1e-9


def test_rank_mle_divergence_reported(runner, tmp_path):
    doc = {
        "candidates": ["a", "b", "c"],
        "voters": [{"id": "v1", "ranking": ["a", "b", "c"]}],
    }
    res = runner.invoke(
        main, ["rank", _write(tmp_path, doc), "--rule", "mle-copeland", "--format", "json"]
    )
    out = json.loads(res.output)
    assert out["solver"]["status"] == "diverged"
    assert out["solver"]["drift_up"] == ["a"]
    assert out["solver"]["drift_down"] == ["c"]
    assert out["ranking"] == [["a"], ["b"], ["c"]]


def test_rank_mle_gpm_wide_rewards_converge_and_print_exact_scores(runner, tmp_path):
    # 40 candidates at epsilon 1/1000: p* spans hundreds of nats, where a
    # float solve reported convergence with rewards 10.8 off the exact ones
    profile = generate_complete(40, 10, 1)
    path = tmp_path / "n40.json"
    path.write_bytes(serialize_profile(profile))
    res = runner.invoke(main, ["rank", str(path), "--rule", "mle-gpm", "--format", "json"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    pstar = gpmd(profile, EpsilonPolicy.finite(Fraction(1, 1000))).p
    labels = profile.candidates.names
    logs = [math.log(p.numerator) - math.log(p.denominator) for p in pstar]
    centred = [x - math.fsum(logs) / len(logs) for x in logs]
    assert max(abs(r - c) for r, c in zip(doc["solver"]["rewards"], centred)) < 1e-9
    assert [doc["softmax"][label] for label in labels] == [float(_fmt(p)) for p in pstar]
    assert (doc["solver"]["status"], doc["solver"]["iterations"], doc["solver"]["grad_norm"]) == (
        "converged", 0, 0.0,
    )
    assert tuple(Fraction(doc["scores"][label]) for label in labels) == pstar


def test_gpmd_prints_entries_past_the_int_digit_limit(runner, tmp_path):
    # at epsilon 1e-40 each position carries 40 more digits, so p* at n = 120
    # runs past the interpreter's default int-to-str limit of 4,300 digits
    path = tmp_path / "n120.json"
    path.write_bytes(serialize_profile(generate_complete(120, 1, 3)))
    limit = sys.get_int_max_str_digits()
    res = runner.invoke(main, ["gpmd", str(path), "--epsilon", "1e-40", "--format", "json"])
    assert sys.get_int_max_str_digits() == limit
    assert res.exit_code == 0, res.output
    exact = json.loads(res.output)["distribution"].values()
    assert max(len(v) for v in exact) > limit
    sys.set_int_max_str_digits(0)
    try:
        assert sum(Fraction(v) for v in exact) == 1
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def strict_tie_file(tmp_path):
    # y2 and y4 split 3-3, and the strict Copeland weight graph is strongly
    # connected, so mle-copeland under --tie-policy strict solves to a finite optimum
    profile = generate_complete(4, 6, 66)
    assert tally(profile).wins[1][3] == tally(profile).wins[3][1] == 3
    path = tmp_path / "strict.json"
    path.write_bytes(serialize_profile(profile))
    return str(path)


def test_rank_copeland_strict_scores_no_point_for_a_tie(runner, strict_tie_file):
    args = ["rank", strict_tie_file, "--rule", "copeland", "--tie-policy", "strict"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert "ranking: y1 > (y2 = y3 = y4)\n" in res.stdout
    doc = json.loads(runner.invoke(main, [*args, "--format", "json"]).stdout)
    assert doc["ranking"] == [["y1"], ["y2", "y3", "y4"]]
    assert doc["scores"] == {"y1": "2", "y2": "1", "y3": "1", "y4": "1"}


def test_rank_mle_copeland_strict_ranks_from_solved_rewards(runner, strict_tie_file):
    # the tied pair carries no weight, so pair totals differ and no score shortcut applies
    args = ["rank", strict_tie_file, "--rule", "mle-copeland", "--tie-policy", "strict"]
    res = runner.invoke(main, [*args, "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["notes"] == ["pair totals differ, score shortcut unavailable; ranking from solved rewards"]
    assert "scores" not in doc
    assert doc["solver"]["status"] == "converged" and doc["solver"]["iterations"] == 4
    assert doc["ranking"] == [["y1"], ["y2", "y4"], ["y3"]]
    r1, r2, r3, r4 = doc["solver"]["rewards"]
    assert abs(r1 - 0.528048909513) < 1e-9 and abs(r1 + r3) < 1e-12
    assert abs(r2) < 1e-12 and abs(r4) < 1e-12
    assert doc["softmax"]["y2"] == doc["softmax"]["y4"]
    assert "ranking: y1 > (y2 = y4) > y3\n" in runner.invoke(main, args).stdout


def test_axioms_mle_copeland_strict_needs_a_constant_pair_total(runner, strict_tie_file):
    res = runner.invoke(main, ["axioms", strict_tie_file, "--rule", "mle-copeland", "--tie-policy", "strict"])
    assert res.exit_code == 1
    assert res.stderr == "error: scores need a constant per-pair total\n"
    assert res.stdout == ""


def test_axioms_exit_code_on_violation(runner, tmp_path):
    res = runner.invoke(
        main, ["axioms", _write(tmp_path, FOUR_VOTER), "--rule", "mle-standard"]
    )
    assert res.exit_code == 4
    assert "| gpm | true | false |" in res.output


def test_preference_matching_witnesses_a_pair_with_no_probability(runner, tmp_path):
    # every pair splits 1:1, so the tally is BT-embeddable, yet the limit
    # distribution is (0, 0, 1/2, 1/2): pair (a, b) has no probability to split
    doc = {
        "candidates": ["a", "b", "c", "d"],
        "voters": [
            {"id": "v1", "ranking": ["c", "a", "b", "d"]},
            {"id": "v2", "ranking": ["d", "b", "a", "c"]},
        ],
    }
    res = runner.invoke(
        main,
        ["axioms", _write(tmp_path, doc), "--rule", "gpmd-limit", "--checks", "preference-matching",
         "--format", "json"],
    )
    assert res.exit_code == 4
    (report,) = json.loads(res.output)["reports"]
    assert (report["applicable"], report["satisfied"]) == (True, False)
    assert report["witness"] == {"pair": [0, 1], "note": "both probabilities are zero"}


def test_axioms_all_pass_exit_zero(runner, tmp_path):
    res = runner.invoke(main, ["axioms", _write(tmp_path, PARADOX), "--rule", "borda"])
    assert res.exit_code == 0


def test_axioms_rejects_impossible_check(runner, tmp_path):
    res = runner.invoke(
        main,
        ["axioms", _write(tmp_path, PARADOX), "--rule", "borda", "--checks", "gpm"],
    )
    assert res.exit_code == 2


@pytest.mark.parametrize("checks", ["", " , "], ids=["empty", "commas"])
def test_axioms_checks_naming_no_axiom_is_a_usage_error(runner, tmp_path, checks):
    # an empty table exiting 0 would read as "no violation"
    res = runner.invoke(
        main, ["axioms", _write(tmp_path, PARADOX), "--rule", "borda", "--checks", checks]
    )
    assert res.exit_code == 2
    assert "--checks names no axiom" in res.output


@pytest.mark.parametrize("fmt", ["markdown", "json"])
def test_axioms_alias_check_runs_as_gpm(runner, tmp_path, fmt):
    path = _write(tmp_path, FOUR_VOTER)
    base = ["axioms", path, "--rule", "mle-standard", "--format", fmt, "--checks"]
    alias = runner.invoke(main, base + ["group-preference-matching"])
    canonical = runner.invoke(main, base + ["gpm"])
    assert alias.exit_code == canonical.exit_code == 4
    assert alias.output == canonical.output
    refused = runner.invoke(
        main, ["axioms", path, "--rule", "borda", "--checks", "group-preference-matching"]
    )
    assert refused.exit_code == 2
    assert "has no probabilistic form for 'group-preference-matching'" in refused.output


@pytest.mark.parametrize(
    "rule,checks,once",
    [
        ("borda", "pareto,pareto", "pareto"),
        ("borda", "condorcet,pareto,condorcet", "condorcet,pareto"),
        ("mle-standard", "gpm,group-preference-matching", "gpm"),
        ("mle-standard", "group-preference-matching,preference-matching,gpm", "gpm,preference-matching"),
    ],
)
def test_axioms_runs_each_named_check_once(runner, tmp_path, rule, checks, once):
    # the first mention of each axiom, by name or alias, keeps its place
    path = _write(tmp_path, FOUR_VOTER)
    base = ["axioms", path, "--rule", rule, "--format", "json", "--checks"]
    repeated = runner.invoke(main, base + [checks])
    single = runner.invoke(main, base + [once])
    assert repeated.exit_code == single.exit_code
    assert repeated.output == single.output
    assert [r["axiom"] for r in json.loads(repeated.output)["reports"]] == once.split(",")


def test_gpmd_exact_output(runner, tmp_path):
    res = runner.invoke(
        main, ["gpmd", _write(tmp_path, FOUR_VOTER), "--epsilon", "limit", "--format", "json"]
    )
    doc = json.loads(res.output)
    assert doc["distribution"] == {"y1": "1/2", "y2": "1/4", "y3": "1/4"}


def test_gpmd_finite_epsilon(runner, tmp_path):
    res = runner.invoke(
        main, ["gpmd", _write(tmp_path, FOUR_VOTER), "--epsilon", "0.25", "--format", "json"]
    )
    doc = json.loads(res.output)
    # voter v1 contributes (9/13, 3/13, 1/13) etc.; exact fractions survive
    assert all("/" in v or v == "0" for v in doc["distribution"].values())


def test_schema_error_exit_two(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["tally", str(bad)])
    assert res.exit_code == 2
    res2 = runner.invoke(main, ["tally", str(tmp_path / "missing.json")])
    assert res2.exit_code == 2
    # a directory is not a readable file: the same exit code, no traceback
    res_dir = runner.invoke(main, ["tally", str(tmp_path)])
    assert res_dir.exit_code == 2 and isinstance(res_dir.exception, SystemExit)
    assert res_dir.stderr.startswith(f"error: cannot read {tmp_path}: ")
    # an empty label and bytes that are not UTF-8: exit 2 with a location, no traceback
    empty_label = json.dumps({"candidates": ["", "a"], "voters": []}).encode()
    for data, where in ((empty_label, "(field: candidates)"), (b"\xff\xfe{}", "(line: 1)")):
        bad.write_bytes(data)
        res3 = runner.invoke(main, ["tally", str(bad)])
        assert res3.exit_code == 2 and isinstance(res3.exception, SystemExit)
        assert res3.stderr.startswith("schema error: ") and where in res3.stderr
        assert res3.stdout == ""


def test_every_malformed_document_exits_two_at_its_location(runner, tmp_path):
    bad = tmp_path / "bad.json"
    for _, doc, field, line in MALFORMED:
        bad.write_bytes(malformed_bytes(doc))
        res = runner.invoke(main, ["tally", str(bad)])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), doc
        where = f" (field: {field})" if field is not None else ""
        where += f" (line: {line})" if line is not None else ""
        assert res.stderr.startswith("schema error: ") and res.stderr.endswith(where + "\n"), doc
        assert res.stdout == ""


def test_disconnected_exit_three(runner, tmp_path):
    doc = {
        "candidates": ["a", "b", "c", "d"],
        "voters": [
            {"id": "v1", "comparisons": [["a", "b"]]},
            {"id": "v2", "comparisons": [["c", "d"]]},
        ],
    }
    path = _write(tmp_path, doc)
    for args in (
        ["rank", path, "--rule", "mle-standard"],
        ["axioms", path, "--rule", "mle-standard", "--checks", "preference-matching"],
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 3
        assert res.stderr == "error: comparison graph splits; candidates [2, 3] unreachable from 0\n"
        assert res.stdout == ""


UNJUDGED_PAIR = {
    "candidates": ["a", "b", "c"],
    "voters": [{"id": "v1", "comparisons": [["a", "b"], ["b", "c"]]}],
}
UNEVEN_TOTALS = {
    "candidates": ["a", "b", "c"],
    "voters": [
        {"id": "v1", "comparisons": [["a", "b"], ["b", "c"], ["c", "a"]]},
        {"id": "v2", "comparisons": [["a", "b"]]},
    ],
}


@pytest.mark.parametrize(
    "doc, command, options, message",
    [
        pytest.param(
            UNJUDGED_PAIR, cmd, ["--rule", rule], "pair (0, 2) has no comparisons",
            id=f"{cmd}-{rule}-unjudged-pair",
        )
        for cmd in ("rank", "axioms")
        for rule in ("borda", "copeland", "mle-copeland")
    ]
    + [
        pytest.param(
            UNEVEN_TOTALS, "axioms", ["--rule", "mle-standard"], "scores need a constant per-pair total",
            id="axioms-mle-standard-uneven-totals",
        ),
        pytest.param(
            UNJUDGED_PAIR, "gpmd", [], "needs full rankings; voter 'v1' gives comparisons",
            id="gpmd-comparison-voters",
        ),
    ],
)
def test_package_errors_exit_one_with_message(runner, tmp_path, doc, command, options, message):
    res = runner.invoke(main, [command, _write(tmp_path, doc), *options])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""


def test_two_source_components_name_both_sets(runner, tmp_path):
    # a and b each beat c and were never compared: two sources, no unique top
    doc = {
        "candidates": ["a", "b", "c"],
        "voters": [
            {"id": "v1", "comparisons": [["a", "c"]]},
            {"id": "v2", "comparisons": [["b", "c"]]},
        ],
    }
    res = runner.invoke(
        main,
        ["axioms", _write(tmp_path, doc), "--rule", "mle-standard", "--checks", "preference-matching"],
    )
    assert res.exit_code == 1
    assert res.stderr == "error: no finite MLE and 2 undominated candidate sets [(1,), (0,)]\n"
    assert res.stdout == ""


SEARCH =["search", "--rule", "borda", "--axiom", "condorcet", "--seed", "1", "--space"]


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["experiment-cycles", "--seed", "1", "--trials", "0"], id="cycles-trials-0"),
        pytest.param(["experiment-cycles", "--seed", "1", "--trials", "-5"], id="cycles-trials-neg"),
        pytest.param(["experiment-cycles", "--seed", "1", "--m", "0"], id="cycles-m-0"),
        pytest.param(SEARCH + ["exhaustive-complete:n=3,m=3", "--budget", "-1"], id="search-budget-neg"),
        pytest.param(SEARCH + ["exhaustive-complete:n=1,m=3"], id="exhaustive-n-1"),
        pytest.param(SEARCH + ["exhaustive-complete:n=3,m=0"], id="exhaustive-m-0"),
        pytest.param(SEARCH + ["random-complete:n=3,m=3,trials=-2"], id="random-trials-neg"),
        pytest.param(SEARCH + ["random-complete:n=3,m=3,trials=0"], id="random-trials-0"),
        pytest.param(SEARCH + ["assumption1:n=1"], id="assumption1-n-1"),
        pytest.param(SEARCH + ["assumption1:n=3,trials=0"], id="assumption1-trials-0"),
    ],
)
def test_bad_integer_input_exit_two(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)


BORDA_CONDORCET = ["search", "--rule", "borda", "--axiom", "condorcet"]


def test_search_space_too_large_exit_five(runner):
    for n, m in [(4, 6), (30, 30)]:
        res = runner.invoke(main, BORDA_CONDORCET + ["--space", f"exhaustive-complete:n={n},m={m}"])
        assert res.exit_code == 5
        assert res.stderr == f"error: {math.factorial(n) ** m} instances exceed the enumeration bound 10000000\n"


@pytest.mark.parametrize(
    "args, code, line",
    [
        pytest.param(
            ["tally", "integer-literal-too-long"], 2, "schema error: invalid JSON: integer literal too long",
            id="integer-literal-too-long",
        ),
        pytest.param(
            ["tally", "nested-too-deeply"], 2, "schema error: invalid JSON: nested too deeply",
            id="nested-too-deeply",
        ),
        pytest.param(
            BORDA_CONDORCET + ["--space", "exhaustive-complete:n=200,m=20"], 5,
            "error: about 10^7498 instances exceed the enumeration bound 10000000",
            id="exhaustive-n-200-m-20",
        ),
        pytest.param(
            BORDA_CONDORCET + ["--space", "assumption1:n=200"], 5,
            "error: about 10^5990 instances exceed the enumeration bound 10000000",
            id="assumption1-n-200",
        ),
        pytest.param(
            BORDA_CONDORCET + ["--space", "exhaustive-complete:n=2000,m=2000"], 5,
            "error: about 10^11471041 instances exceed the enumeration bound 10000000",
            id="exhaustive-n-2000-m-2000",
        ),
        # sizes whose log10 is past float range
        pytest.param(
            BORDA_CONDORCET + ["--space", "assumption1:n=1" + "0" * 160], 5,
            "error: more than 10^(10^308) instances exceed the enumeration bound 10000000",
            id="assumption1-n-161-digits",
        ),
        pytest.param(
            BORDA_CONDORCET + ["--space", "exhaustive-complete:n=1" + "0" * 400 + ",m=2"], 5,
            "error: more than 10^(10^308) instances exceed the enumeration bound 10000000",
            id="exhaustive-n-401-digits",
        ),
    ],
)
def test_hostile_input_exits_with_one_line_in_bounded_time(runner, tmp_path, args, code, line):
    docs = {case[0]: case[1] for case in MALFORMED}
    if args[0] == "tally":
        path = tmp_path / "hostile.json"
        path.write_bytes(docs[args[1]])
        args = ["tally", str(path)]
    start = time.perf_counter()
    res = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == code and isinstance(res.exception, SystemExit)
    assert res.stderr == line + "\n"
    assert res.stdout == ""


def test_search_requires_seed_for_random(runner):
    res = runner.invoke(
        main,
        ["search", "--rule", "borda", "--axiom", "condorcet", "--space", "random-complete:n=3,m=3,trials=5"],
    )
    assert res.exit_code == 2


def test_search_writes_counterexample(runner, tmp_path):
    out_path = tmp_path / "found.json"
    res = runner.invoke(
        main,
        [
            "search",
            "--rule",
            "borda",
            "--axiom",
            "condorcet",
            "--space",
            "exhaustive-complete:n=3,m=3",
            "--output",
            str(out_path),
            "--format",
            "json",
        ],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["found"] and doc["index"] == 3
    profile = parse_profile(out_path.read_bytes())
    assert profile.m == 3
    assert doc["profile"]["voters"][2]["ranking"] == ["y2", "y3", "y1"]


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_search_unwritable_output_exit_two(runner, tmp_path, where):
    out_path = tmp_path / "missing" / "found.json" if where == "missing-dir" else tmp_path
    res = runner.invoke(
        main,
        [
            "search", "--rule", "borda", "--axiom", "condorcet",
            "--space", "exhaustive-complete:n=3,m=3", "--output", str(out_path),
        ],
    )
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stderr.startswith(f"error: cannot write {out_path}: ")
    assert res.stdout == ""


def test_search_exhausted(runner):
    res = runner.invoke(
        main,
        ["search", "--rule", "copeland", "--axiom", "condorcet", "--space", "exhaustive-complete:n=3,m=3", "--format", "json"],
    )
    doc = json.loads(res.output)
    assert res.exit_code == 0 and not doc["found"] and doc["examined"] == 216


def test_search_json_counts_applicable_and_vacuous_profiles(runner):
    base = ["search", "--rule", "mle-standard", "--axiom", "preference-equivalence"]
    res = runner.invoke(main, base + ["--space", "exhaustive-complete:n=3,m=3", "--format", "json"])
    doc = json.loads(res.output)
    # at odd m no two candidates are equally preferred: a vacuous clean scan
    assert (doc["found"], doc["examined"], doc["applicable"], doc["vacuous"]) == (False, 216, 0, 216)
    res = runner.invoke(main, base + ["--space", "exhaustive-complete:n=3,m=4", "--format", "json"])
    doc = json.loads(res.output)
    assert (doc["found"], doc["examined"], doc["applicable"], doc["vacuous"]) == (False, 1296, 270, 1026)
    # markdown keeps its one summary line
    res = runner.invoke(main, base + ["--space", "exhaustive-complete:n=3,m=3"])
    assert res.output.splitlines()[-1] == "no violation; 216 instances examined"


def test_search_accepts_axiom_alias(runner):
    base = ["search", "--rule", "gpmd-limit", "--space", "exhaustive-complete:n=3,m=2", "--format", "json"]
    counts = []
    for axiom in ("group-preference-matching", "gpm"):
        res = runner.invoke(main, base + ["--axiom", axiom])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        counts.append((doc["examined"], doc["applicable"], doc["found"]))
    assert counts[0] == counts[1]


def test_search_unknown_axiom_exit_two(runner):
    res = runner.invoke(
        main, ["search", "--rule", "borda", "--axiom", "bogus", "--space", "exhaustive-complete:n=3,m=3"]
    )
    assert res.exit_code == 2
    assert "unknown axiom 'bogus'" in res.stderr


def test_search_unknown_space_exit_two(runner):
    res = runner.invoke(
        main, ["search", "--rule", "borda", "--axiom", "condorcet", "--space", "weird:n=3"]
    )
    assert res.exit_code == 2


def test_search_repeated_space_parameter_exit_two(runner):
    res = runner.invoke(
        main,
        ["search", "--rule", "borda", "--axiom", "condorcet", "--space", "exhaustive-complete:n=3,m=3,n=4"],
    )
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "space parameter 'n' given more than once" in res.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (BORDA_CONDORCET + ["--space", "bogus:n=3"],
         "unknown space 'bogus'; expected exhaustive-complete, random-complete, or assumption1"),
        (BORDA_CONDORCET + ["--space", "exhaustive-complete:n=3"],
         "space 'exhaustive-complete' needs parameter 'm'"),
        (BORDA_CONDORCET + ["--space", "exhaustive-complete:n=x,m=2"], "space parameter 'n' must be an integer"),
        (BORDA_CONDORCET + ["--space", "exhaustive-complete:n"], "bad space parameter 'n'"),
        (BORDA_CONDORCET + ["--space", "exhaustive-complete:n=3,m=3,k=2"], "unknown space parameters ['k']"),
        (BORDA_CONDORCET + ["--space", "random-complete:n=3,m=3,trials=3"], "random spaces need a seed"),
        (["search", "--rule", "gpmd-limit", "--axiom", "condorcet", "--space", "exhaustive-complete:n=3,m=3"],
         "rule 'gpmd-limit' has no ordinal form"),
        (["experiment-cycles", "--n-list", "3,x", "--seed", "1"], "--n-list must be comma-separated integers"),
        (["experiment-cycles", "--n-list", "1", "--seed", "1"], "--n-list needs integers >= 2"),
        (["axioms", "PROFILE", "--rule", "borda", "--checks", "pareto,nope"], "unknown axiom 'nope'"),
    ],
    ids=[
        "unknown-space", "missing-parameter", "non-integer-parameter", "parameter-without-value",
        "unknown-parameter", "random-without-seed", "rule-without-form", "n-list-not-integers",
        "n-list-below-two", "unknown-check",
    ],
)
def test_usage_errors_exit_two_with_their_message(runner, tmp_path, args, message):
    args = [_write(tmp_path, PARADOX) if a == "PROFILE" else a for a in args]
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stderr.endswith(f"\nError: {message}\n")
    assert res.stdout == ""


def test_search_skips_an_empty_space_parameter(runner):
    docs = [
        json.loads(runner.invoke(main, BORDA_CONDORCET + ["--space", space, "--format", "json"]).output)
        for space in ("exhaustive-complete:n=3,,m=3", "exhaustive-complete:n=3,m=3")
    ]
    assert docs[0]["space"] == "exhaustive-complete:n=3,,m=3"
    assert {**docs[0], "space": docs[1]["space"]} == docs[1]
    assert (docs[0]["found"], docs[0]["index"]) == (True, 3)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["axioms", "search"])
def test_bad_tolerance_exit_two(runner, tmp_path, command, tol):
    # unchecked, `search --tol nan` reported no violation and `--tol -1` a false one
    if command == "axioms":
        args = ["axioms", _write(tmp_path, FOUR_VOTER), "--rule", "gpmd-limit"]
    else:
        args = ["search", "--rule", "gpmd-limit", "--axiom", "gpm", "--space", "exhaustive-complete:n=3,m=3"]
    res = runner.invoke(main, args + ["--tol", tol])
    assert res.exit_code == 2, res.output
    assert "must be finite and nonnegative" in res.stderr


def test_search_builds_mle_gpm_at_the_finite_epsilon(runner):
    # built at its default 1/1000 against a 1/100 target, mle-gpm failed at index 0
    base = ["search", "--rule", "mle-gpm", "--axiom", "gpm", "--space", "exhaustive-complete:n=3,m=3"]
    res = runner.invoke(main, base + ["--epsilon", "1/100", "--format", "json"])
    doc = json.loads(res.output)
    assert res.exit_code == 0 and (doc["found"], doc["examined"]) == (False, 216)
    # under the limit the rule keeps its default: a limit-built mle-gpm would
    # raise on every profile where some candidate is never ranked first
    res = runner.invoke(main, base + ["--format", "json"])
    doc = json.loads(res.output)
    assert res.exit_code == 0 and (doc["found"], doc["index"]) == (True, 0)


def test_axioms_builds_mle_gpm_at_the_finite_epsilon(runner, tmp_path):
    args = ["axioms", _write(tmp_path, FOUR_VOTER), "--rule", "mle-gpm", "--checks", "gpm", "--format", "json"]
    res = runner.invoke(main, args + ["--epsilon", "1/100"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["reports"][0]["satisfied"]


# assumption1 profiles are comparison voters: these pairings need full rankings
COMPARISON_VOTER_SEARCHES = (
    [(rule, axiom) for rule in ("mle-standard", "mle-copeland") for axiom in ("preference-equivalence", "gpm")]
    + [("mle-gpm", axiom) for axiom in ORDINAL_AXIOMS]
    + [(rule, axiom) for rule in ("mle-gpm", "gpmd-limit") for axiom in PROBABILISTIC_AXIOMS]
)


@pytest.mark.parametrize(
    "rule, axiom", [pytest.param(r, a, id=f"{r}-{a}") for r, a in COMPARISON_VOTER_SEARCHES]
)
def test_search_package_errors_exit_one_with_message(runner, rule, axiom):
    res = runner.invoke(main, ["search", "--rule", rule, "--axiom", axiom, "--space", "assumption1:n=3"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: ") and "full rankings" in res.stderr
    assert res.stdout == ""


def test_experiment_cycles_deterministic_across_runs(runner):
    args = ["experiment-cycles", "--n-list", "3", "--m", "3", "--trials", "400", "--seed", "7", "--format", "json"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.output == b.output
    doc = json.loads(a.output)
    assert doc["rows"][0]["trials"] == 400


def test_experiment_cycles_seed_required(runner):
    res = runner.invoke(main, ["experiment-cycles", "--n-list", "3"])
    assert res.exit_code == 2


def test_demo_outputs_are_deterministic(runner):
    for name in ("condorcet-paradox", "single-voter-cycle", "borda-vs-copeland"):
        a = runner.invoke(main, ["demo", name, "--format", "json"])
        b = runner.invoke(main, ["demo", name, "--format", "json"])
        assert a.exit_code == 0, name
        assert a.output == b.output


def test_demo_paradox_content(runner):
    res = runner.invoke(main, ["demo", "condorcet-paradox"])
    assert "3 log 2" in res.output or "2.07944154168" in res.output


def test_byte_identical_reports_across_runs(runner, tmp_path):
    path = _write(tmp_path, FOUR_VOTER)
    for fmt in ("markdown", "json", "csv"):
        outs = {
            runner.invoke(main, ["rank", path, "--rule", "mle-standard", "--format", fmt]).output
            for _ in range(3)
        }
        assert len(outs) == 1


def test_round_trip_serialization_matches_cli_input(tmp_path):
    profile = parse_profile(json.dumps(FOUR_VOTER).encode())
    assert tally(profile).wins[0][1] == 3
    assert serialize_profile(profile).endswith(b"\n")


# the JSON scalars, with the floats the encoder spells out, and text with
# non-ASCII and control characters
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.text()
    | st.text(st.characters(max_codepoint=0x9F))
)
_JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_KEYS, inner, max_size=5),
    max_leaves=40,
)


@given(_JSON_VALUES)
@example([])
@example({})
@example({"a": [[], {}, [[{}]], {"b": {}}], "c": ()})
@example({1: 2, "1": 3, 1.5: [], True: None, None: {}, -0.0: math.nan})
@example([math.inf, -math.inf, -0.0, "\x00\u00e9\u2028\U0001f600", ["\n\t"]])
@settings(max_examples=300, deadline=None)
def test_indented_writer_equals_the_stdlib(obj):
    assert _indented_json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{(1, 2): 1}, [0, {(1, 2): 1}], {"a": {"b": [{(1,): 2}]}}])
def test_indented_writer_refuses_keys_as_the_stdlib_does(obj):
    with pytest.raises(TypeError) as stdlib:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as ours:
        _indented_json(obj)
    assert str(ours.value) == str(stdlib.value) == "keys must be str, int, float, bool or None, not tuple"


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0 and "prefaxiom" in res.output


# Byte-identity pin: sha256 of stdout and the exit code for a fixed command
# matrix.  A change that alters any report byte for these inputs fails here;
# a digest is updated only together with an intended change of output.
# The csv digests were recorded before the report renderings were merged.
PINNED_FORMATS = ("json", "markdown", "csv")
PINNED_PROFILES = ("paradox", "four_voter")


def _pinned_matrix() -> dict[str, tuple[str | None, list[str]]]:
    """Case id -> (conftest profile fixture or None, CLI arguments).

    The token "PROFILE" in the arguments stands for the profile file path.
    """
    cases: dict[str, tuple[str | None, list[str]]] = {}
    for prof in PINNED_PROFILES:
        for fmt in PINNED_FORMATS:
            tail = ["--format", fmt]
            cases[f"tally-{prof}-{fmt}"] = (prof, ["tally", "PROFILE", *tail])
            for rule in ("borda", "copeland", "mle-standard", "mle-copeland", "mle-gpm"):
                cases[f"rank-{rule}-{prof}-{fmt}"] = (prof, ["rank", "PROFILE", "--rule", rule, *tail])
            for rule in ("borda", "copeland", "mle-standard", "mle-copeland", "mle-gpm", "gpmd-limit"):
                cases[f"axioms-{rule}-{prof}-{fmt}"] = (prof, ["axioms", "PROFILE", "--rule", rule, *tail])
            cases[f"gpmd-{prof}-{fmt}"] = (prof, ["gpmd", "PROFILE", *tail])
    for name in ("condorcet-paradox", "single-voter-cycle", "borda-vs-copeland"):
        for fmt in PINNED_FORMATS:
            cases[f"demo-{name}-{fmt}"] = (None, ["demo", name, "--format", fmt])
    cases["experiment-cycles"] = (
        None, ["experiment-cycles", "--n-list", "3,5", "--trials", "300", "--seed", "4"]
    )
    for space, seed in (
        ("exhaustive-complete:n=3,m=3", []),
        ("random-complete:n=3,m=4,trials=300", ["--seed", "11"]),
        ("assumption1:n=4", []),
    ):
        cases[f"search-{space.partition(':')[0]}"] = (
            None, ["search", "--rule", "borda", "--axiom", "condorcet", "--space", space, *seed]
        )
    # mle-gpm's weights are in detailed balance, so its witness is exact: the
    # pair's share 1497002/1498501 prints as 0.998999667001 (the float solve
    # gave 0.998999667)
    cases["search-mle-gpm-preference-matching-json"] = (
        None,
        [
            "search", "--rule", "mle-gpm", "--axiom", "preference-matching",
            "--space", "exhaustive-complete:n=3,m=4", "--epsilon", "1/1000", "--format", "json",
        ],
    )
    return cases


PINNED = {
    "axioms-borda-four_voter-csv": (0, "a155b06b15daf331229436721e1679d019d4d12213533e18d61d75999c6925eb"),
    "axioms-borda-four_voter-json": (0, "ba17755a12222cfbf6b824c90566cd1cb5ee7f951d59f428b0b31f145f1d3d50"),
    "axioms-borda-four_voter-markdown": (0, "3dc6a1ade142f018f70c29c03bdcf2e8054696800cf1635e470757649a9189b7"),
    "axioms-borda-paradox-csv": (0, "a155b06b15daf331229436721e1679d019d4d12213533e18d61d75999c6925eb"),
    "axioms-borda-paradox-json": (0, "ba17755a12222cfbf6b824c90566cd1cb5ee7f951d59f428b0b31f145f1d3d50"),
    "axioms-borda-paradox-markdown": (0, "3dc6a1ade142f018f70c29c03bdcf2e8054696800cf1635e470757649a9189b7"),
    "axioms-copeland-four_voter-csv": (0, "a155b06b15daf331229436721e1679d019d4d12213533e18d61d75999c6925eb"),
    "axioms-copeland-four_voter-json": (0, "1e6da11241990180ecdfaac584f7f7c7bc597a83dfd2072af1098e54bec1e38f"),
    "axioms-copeland-four_voter-markdown": (0, "187ac7bf0fa1d61d89f5016311fc5754bc1bb8ca1153d17b834a207b4e50fe37"),
    "axioms-copeland-paradox-csv": (0, "a155b06b15daf331229436721e1679d019d4d12213533e18d61d75999c6925eb"),
    "axioms-copeland-paradox-json": (0, "1e6da11241990180ecdfaac584f7f7c7bc597a83dfd2072af1098e54bec1e38f"),
    "axioms-copeland-paradox-markdown": (0, "187ac7bf0fa1d61d89f5016311fc5754bc1bb8ca1153d17b834a207b4e50fe37"),
    "axioms-gpmd-limit-four_voter-csv": (0, "32c64c51eee299a5505104a1ff40713c7b64d65107d413abac9fe28049c7d261"),
    "axioms-gpmd-limit-four_voter-json": (0, "223fee3600131a31e291bc3b3af25511983951531f625245c7e041aa1bae71ca"),
    "axioms-gpmd-limit-four_voter-markdown": (0, "69a81a0af948e1db53f6e0be99b50640e02fb342809be093fbbb1deef7dd2a9b"),
    "axioms-gpmd-limit-paradox-csv": (0, "32c64c51eee299a5505104a1ff40713c7b64d65107d413abac9fe28049c7d261"),
    "axioms-gpmd-limit-paradox-json": (0, "223fee3600131a31e291bc3b3af25511983951531f625245c7e041aa1bae71ca"),
    "axioms-gpmd-limit-paradox-markdown": (0, "69a81a0af948e1db53f6e0be99b50640e02fb342809be093fbbb1deef7dd2a9b"),
    "axioms-mle-copeland-four_voter-csv": (4, "fff4903ec8126c3b07d620fd86f0847fe0ed0a16ab580728f5b925d78cf508f7"),
    "axioms-mle-copeland-four_voter-json": (4, "c277882f633952144331208b1db6197b26e0c704aa7c20d008f7362eba94a460"),
    "axioms-mle-copeland-four_voter-markdown": (4, "b2906e1c771298b6b95b7e3a6a4e8cc85d49ff6eefd9d9fe25abc2af55f936b1"),
    "axioms-mle-copeland-paradox-csv": (0, "ca27637615c6fef614c5c60d3a8fbebb273c5293eee0ab01d0e8344dd0ef4b4e"),
    "axioms-mle-copeland-paradox-json": (0, "a88b8347808ea1ac93d741b429a42cfb78a598912d007d64aac0fe25140aaa5e"),
    "axioms-mle-copeland-paradox-markdown": (0, "44b8573e738d73d54d4ed19bab85d0f8e5e5587b408079a5b7c554257db92008"),
    "axioms-mle-gpm-four_voter-csv": (4, "fff4903ec8126c3b07d620fd86f0847fe0ed0a16ab580728f5b925d78cf508f7"),
    "axioms-mle-gpm-four_voter-json": (4, "8a9af72c803e03be59afa0ff64a93ac846dd55890ccaae26df128808ecdea19f"),
    "axioms-mle-gpm-four_voter-markdown": (4, "3fca5b2a985c725ff685234c63f4ee74b01477d113d7b1dfeb4a5547c447fb0c"),
    "axioms-mle-gpm-paradox-csv": (0, "ca27637615c6fef614c5c60d3a8fbebb273c5293eee0ab01d0e8344dd0ef4b4e"),
    "axioms-mle-gpm-paradox-json": (0, "534b19f975cc2fdfa38f21e49593fb2001759df1530d54ed38c27fd91fde4ff6"),
    "axioms-mle-gpm-paradox-markdown": (0, "05c076589babb5499a78339f3e9d65915998bfc49e7d899d0118a1113b030e8e"),
    "axioms-mle-standard-four_voter-csv": (4, "fff4903ec8126c3b07d620fd86f0847fe0ed0a16ab580728f5b925d78cf508f7"),
    "axioms-mle-standard-four_voter-json": (4, "8784b587ad8f2cea9c3dca163978d7e260d4e1aeca11f237184a9f67b709542a"),
    "axioms-mle-standard-four_voter-markdown": (4, "5f8c24dc83dc54860da8ca4c495591e5ea5760f0a287211d7eeb2712bb3674c6"),
    "axioms-mle-standard-paradox-csv": (0, "ca27637615c6fef614c5c60d3a8fbebb273c5293eee0ab01d0e8344dd0ef4b4e"),
    "axioms-mle-standard-paradox-json": (0, "d998c38490b320bd022b1d9541463fc9c01458ecfdf2cf19f53ce1c759705c49"),
    "axioms-mle-standard-paradox-markdown": (0, "ec0f9eb77183815c5dce5bbb27e4585b5a38f57a2eacded51e9929238fe588e1"),
    "demo-borda-vs-copeland-csv": (0, "ec5c9e2dad4c6ab8306d7f93664e54e6e17da827e7a17e100e0e309d346565ed"),
    "demo-borda-vs-copeland-json": (0, "c6ba355192fb54158db85f574128a35b6eb7e16786d1618a426cc38659caee5c"),
    "demo-borda-vs-copeland-markdown": (0, "7b75d9b357770f1f112b5397ba936a868fa2d24439fd70cabb58099eeef9d204"),
    "demo-condorcet-paradox-csv": (0, "4ca73903bcbe3aa3cf259ec8348f223f36ce15de2d24de2882ce5c10a1f2caa5"),
    "demo-condorcet-paradox-json": (0, "30d0ecc8a4ef25f58c9dc7c32c131e3991a680dfe8db7f1479433a99bc7008a5"),
    "demo-condorcet-paradox-markdown": (0, "f6fac8c76c77647724c45cb1d5e17b86571278f55ccf0a1f37e1c339048f2ce3"),
    "demo-single-voter-cycle-csv": (0, "21c470c30bc499d043e9d4d9d83d0677ee7a8e58f6050848831d335c4427268d"),
    "demo-single-voter-cycle-json": (0, "fd83c78b19e2cbfb8be7872117c9763071f3baf3c04e0fa87e00170458182d41"),
    "demo-single-voter-cycle-markdown": (0, "c426111802814a2dd335c244341218e6e85c8a77b5969eb45ee9950066cd932c"),
    "experiment-cycles": (0, "7bbc782d1883e35cff4037f20b9ccb5ee75b155aaccd515f631b0415fea93fea"),
    "gpmd-four_voter-csv": (0, "16c08159f8275e359bbf144587540850d18b2b215f4b15a4eb86c885572daa89"),
    "gpmd-four_voter-json": (0, "cff469a32a0033d0f147c31632c797b924d502e04e1284cbe4b04c6ded64a7fc"),
    "gpmd-four_voter-markdown": (0, "2d3ee7cf18cbce53af8e4e6f0dd4231d7d1b4b2a07baea363d36669b3b88fc74"),
    "gpmd-paradox-csv": (0, "ff3bf58ac10eca52fcd8a13c093800a7aa0c8cf836cbd4f6a415bfd2f3a64e80"),
    "gpmd-paradox-json": (0, "8af81117105b56ae3f76560fb9f2a8760aa7bba264c7f7216778510b66883c56"),
    "gpmd-paradox-markdown": (0, "19228730f3f93a2db8cee684d1570392245535ba82b9ce1596ad9cdbd340a9b4"),
    "rank-borda-four_voter-csv": (0, "2e8dfc551ce1deedfb9b9d9a3e9f7be0e5324aa7cf36382fd3a62fd061abf982"),
    "rank-borda-four_voter-json": (0, "5eb212f213ee043035f20cae86f5ab384b304de6a426d2d5f15f052dc6e9e798"),
    "rank-borda-four_voter-markdown": (0, "8a9e69a5f9535f1b3f1a4cf782d953fe5bbed24e2ff162cc6173e769caacab45"),
    "rank-borda-paradox-csv": (0, "0f9439afc882e9d8cf61a2dca4f3b22d2c3df5d7bd54f1c0c7054740292bdeba"),
    "rank-borda-paradox-json": (0, "6330bffa0d925b2975a2dca76886765b54022232118d29a56c7021b25b244f0b"),
    "rank-borda-paradox-markdown": (0, "505065730238d7275d9473eee58daecb9ddca0b00d0d36b42c71ac9f228bffad"),
    "rank-copeland-four_voter-csv": (0, "2e8dfc551ce1deedfb9b9d9a3e9f7be0e5324aa7cf36382fd3a62fd061abf982"),
    "rank-copeland-four_voter-json": (0, "af225f9cc4aa5499acee2352b17b2a8a1692c27b457acefd1ef04c0c93e5962a"),
    "rank-copeland-four_voter-markdown": (0, "bbaa88278d94ab442458d8317a7d6c0e2557e63da7b55413043ea01f110cf3e4"),
    "rank-copeland-paradox-csv": (0, "0f9439afc882e9d8cf61a2dca4f3b22d2c3df5d7bd54f1c0c7054740292bdeba"),
    "rank-copeland-paradox-json": (0, "93aa7e202d263576f4ac28e8ea622550332334b5538cfcc0b36bc455a0ed9817"),
    "rank-copeland-paradox-markdown": (0, "df1197d8df014084c36166ffcc2f503936f38ffa71519d6e5713e6ca31cfac2d"),
    "rank-mle-copeland-four_voter-csv": (0, "2e8dfc551ce1deedfb9b9d9a3e9f7be0e5324aa7cf36382fd3a62fd061abf982"),
    "rank-mle-copeland-four_voter-json": (0, "5a289ed3673120d51b9d8043cf08b7e42325a137c1fabf1805f918fc014d64e5"),
    "rank-mle-copeland-four_voter-markdown": (0, "86f49a2249f4215c37ddd80aa1629f579b83b17c0d6169514c37248bc7b32a6a"),
    "rank-mle-copeland-paradox-csv": (0, "0f9439afc882e9d8cf61a2dca4f3b22d2c3df5d7bd54f1c0c7054740292bdeba"),
    "rank-mle-copeland-paradox-json": (0, "049a7ef80b18a302e21d36077b61cf33ed57ad237281842c22c9a186c5b2a558"),
    "rank-mle-copeland-paradox-markdown": (0, "9326bc3f61f8c04f9906c3414703301528090b2b1e70767f52e09e2a76bc1f86"),
    "rank-mle-gpm-four_voter-csv": (0, "2e8dfc551ce1deedfb9b9d9a3e9f7be0e5324aa7cf36382fd3a62fd061abf982"),
    "rank-mle-gpm-four_voter-json": (0, "0c87e4812e0da769ed8dda2bc3c1c560c83b95a55ccbdb153eefc37b45334c45"),
    "rank-mle-gpm-four_voter-markdown": (0, "3239dce54459e51567f9ed341945511d68ea910956f61f72894c15e69ed675cb"),
    "rank-mle-gpm-paradox-csv": (0, "0f9439afc882e9d8cf61a2dca4f3b22d2c3df5d7bd54f1c0c7054740292bdeba"),
    "rank-mle-gpm-paradox-json": (0, "07ffc42ebe6e4babec41b8d556c2401918c7ecba81a99677d00b323514c2b767"),
    "rank-mle-gpm-paradox-markdown": (0, "e1ec5d7097ce6c7f52a9fd17f9e0ea39ccc2096722ce3aa905e5f57ad7b25fba"),
    "rank-mle-standard-four_voter-csv": (0, "2e8dfc551ce1deedfb9b9d9a3e9f7be0e5324aa7cf36382fd3a62fd061abf982"),
    "rank-mle-standard-four_voter-json": (0, "6081a16dd38cd9cbf6cf8730f8708727c5a6730df8243a8ea7227f1c63a41c51"),
    "rank-mle-standard-four_voter-markdown": (0, "fd1a02453eaf4086b7a916fa67971653b498590893ee981c7e75120cdf867ff3"),
    "rank-mle-standard-paradox-csv": (0, "0f9439afc882e9d8cf61a2dca4f3b22d2c3df5d7bd54f1c0c7054740292bdeba"),
    "rank-mle-standard-paradox-json": (0, "d04af2e1611dd383910a91799e3f8429031bc05b809641dea3a8ff8e570d7f35"),
    "rank-mle-standard-paradox-markdown": (0, "5b33b5b6cb803322df50f8c9beabd2866d4284a7ff19517221d6fd3de99d4417"),
    "search-assumption1": (0, "b139680c783e987b6f39d32fb9bce007bbf9425158bde7780900f135ffc8610c"),
    "search-exhaustive-complete": (0, "77822ff070f0453d1044c69758d5847e74a863d1aec85e425f671c1fe8d51f88"),
    "search-mle-gpm-preference-matching-json": (0, "8e560a3a0f52409eb78bbf2d0a0f71ba2f471b510dbbf5e53d83832a455d63bb"),
    "search-random-complete": (0, "12a6257cd7a317bffd3cc61c07ead0077208785c67ac0a793a4abf8568ebe360"),
    "tally-four_voter-csv": (0, "b97a4c2ef53aa7fc1b68b3e381c34d1784bd3ceb153faa7217a09e56489b5b6c"),
    "tally-four_voter-json": (0, "0bd3d1cfaf3301fbebc0e171ecdfa247755fa433a90b2a7374a598d9501ee74d"),
    "tally-four_voter-markdown": (0, "1f1440d4b74cca287806ae42ee61960111684cd22bb08a2e9edcccfeecc27e01"),
    "tally-paradox-csv": (0, "6f015864c84679997350418b10c6fd1c903345a3426f7f22bc05e05e20986c41"),
    "tally-paradox-json": (0, "d40b0d273ae21ffa18ab77d8314e470b1a55ac1f8da0ff024a503a44406df42e"),
    "tally-paradox-markdown": (0, "56381b1408a63daaa6042bca06544b91566c9630b73d0bb7773d5ebc7a68664d"),
}


@pytest.mark.parametrize("case", sorted(_pinned_matrix()))
def test_pinned_cli_output(case, runner, tmp_path, request):
    prof, args = _pinned_matrix()[case]
    if prof is not None:
        path = tmp_path / f"{prof}.json"
        path.write_bytes(serialize_profile(request.getfixturevalue(prof)))
        args = [str(path) if a == "PROFILE" else a for a in args]
    res = runner.invoke(main, args)
    digest = hashlib.sha256(res.stdout_bytes).hexdigest()
    assert (res.exit_code, digest) == PINNED[case]


# Byte-identity pin for the exact arithmetic paths: the closed-form gpmd at
# two smoothing levels on a wide profile, scores on uneven per-pair totals
# (comparison voters), mle-gpm's exact key p* at n = 12 and n = 40 with its
# MLE printed from p* itself, and an exact mle-standard MLE.  The gpmd and
# uneven digests were recorded on the Fraction-sum implementation these
# paths replaced.
UNEVEN_WIDE = {
    "candidates": ["a", "b", "c", "d"],
    "voters": [
        {"id": "v1", "comparisons": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"], ["a", "c"]]},
        {"id": "v2", "comparisons": [["b", "a"], ["c", "d"], ["b", "d"]]},
        {"id": "v3", "comparisons": [["a", "b"], ["d", "c"]]},
        {"id": "v4", "comparisons": [["c", "b"], ["a", "d"]]},
    ],
}


def _arithmetic_matrix() -> dict[str, tuple[str, list[str]]]:
    """Case id -> (input profile name, CLI arguments after the profile path)."""
    cases: dict[str, tuple[str, list[str]]] = {}
    for fmt in ("json", "markdown"):
        tail = ["--format", fmt]
        for eps in ("1/1000", "1/3"):
            cases[f"gpmd-{eps.replace('/', 'over')}-n30-{fmt}"] = ("n30", ["gpmd", "--epsilon", eps, *tail])
        for rule in ("borda", "mle-standard", "mle-gpm"):
            cases[f"rank-{rule}-uneven-{fmt}"] = ("uneven", ["rank", "--rule", rule, *tail])
        cases[f"rank-mle-gpm-n12-{fmt}"] = ("n12", ["rank", "--rule", "mle-gpm", *tail])
    cases["tally-two-byte-json"] = ("two-byte", ["tally", "--format", "json"])
    cases["rank-mle-standard-two-byte-json"] = ("two-byte", ["rank", "--rule", "mle-standard", "--format", "json"])
    cases["tally-n30-json"] = ("n30", ["tally", "--format", "json"])
    # m = 20 is even: mle-copeland's tied pairs weigh Fraction(1, 2) each way
    cases["rank-mle-copeland-n30-json"] = ("n30", ["rank", "--rule", "mle-copeland", "--format", "json"])
    cases["rank-mle-gpm-n40-json"] = ("n40", ["rank", "--rule", "mle-gpm", "--format", "json"])
    # win counts in detailed balance: mle-standard's MLE is exact, with no solve
    for fmt in ("json", "markdown"):
        cases[f"rank-mle-standard-bt-embeddable-{fmt}"] = (
            "bt-embeddable", ["rank", "--rule", "mle-standard", "--format", fmt]
        )
    return cases


# cases whose digest covers only the exact members: the solver floats beside
# them vary with the CPU's SIMD level
EXACT_MEMBERS_ONLY = {"rank-mle-copeland-n30-json"}

# 15 voters whose win counts are 10:5, 10:5 and 12:3: the proportions 2/3,
# 2/3 and 4/5 embed with odds 4 : 2 : 1
BT_EMBEDDABLE = (
    [["y1", "y2", "y3"]] * 8 + [["y1", "y3", "y2"]] * 2 + [["y2", "y1", "y3"]] * 2 + [["y3", "y2", "y1"]] * 3
)


def _arithmetic_profile(name: str) -> bytes:
    if name == "two-byte":
        # m = 300 voters near the consensus y1 > ... > y6: the tally packs
        # 2-byte fields, and several counts exceed 255
        rng = random.Random(6300)
        labels = default_labels(6)
        rankings = [sorted(labels, key=lambda y: int(y[1:]) + 3 * rng.random()) for _ in range(300)]
        return serialize_profile(complete_profile(labels, rankings))
    if name == "uneven":
        return serialize_profile(parse_profile(json.dumps(UNEVEN_WIDE)))
    if name == "n30":
        return serialize_profile(generate_complete(30, 20, 17))
    if name == "n40":
        return serialize_profile(generate_complete(40, 10, 5))
    if name == "bt-embeddable":
        return serialize_profile(complete_profile(default_labels(3), BT_EMBEDDABLE))
    return serialize_profile(generate_complete(12, 8, 5))


PINNED_ARITHMETIC = {
    "gpmd-1over1000-n30-json": (0, "7919318c6790b1b77085c1693e0143d9338b3ad4df445db7a4229b61e786dc28"),
    "gpmd-1over1000-n30-markdown": (0, "47ff9f343a5dda4aa0438b447147af985be22b69fb50a5d2d3f3344544903aee"),
    "gpmd-1over3-n30-json": (0, "a30cb5363a9767dc0aec12dd7b730e56cbc5b03f5b6a343df57a0524958e4f55"),
    "gpmd-1over3-n30-markdown": (0, "bb330fbdf4d8d4732d3b3bf79884b9fa203404518e522d8ec13cec91f675eda4"),
    "rank-borda-uneven-json": (0, "71301d858518bea45f7bb736b59e71f393176c357a70aa18fbf22f7d97b231f6"),
    "rank-borda-uneven-markdown": (0, "0750f4c7f76887ddb63e5cb5fec107be2b54f6167377bba00f6bcbacda3d224a"),
    "rank-mle-gpm-n12-json": (0, "de8d16b414fc84353ef38c2c49710889e0a73a27478196487dbeccb0f78e1e26"),
    "rank-mle-gpm-n12-markdown": (0, "65ada24fe5d208a11c81eddb8d3bb9b640b05c4b1b42dfaa4e32d39c6322b29d"),
    "rank-mle-gpm-uneven-json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank-mle-gpm-uneven-markdown": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank-mle-standard-uneven-json": (0, "93d18f89348ad70322c49b7b70aad5b2eecf88bdf41a6dffdbb143c3cbaa3dde"),
    "rank-mle-standard-uneven-markdown": (0, "5b0f68227c793a461b2bdd7d0fdf986fdeb0bb4ded77cb96819977e7f2adf951"),
    # recorded on the one-increment-per-pair tally, before rows were packed
    "tally-two-byte-json": (0, "787f987ccba31f20e88fc4c779b37835a262c904768141301b8afff87ccfe9c9"),
    "rank-mle-standard-two-byte-json": (0, "80ad71cae121855a0bcdac9242c5c0aee8de397aaa22f0edb269ee9185d50527"),
    # recorded on the pure-Python indented encoder, per-row-lcm score sums
    # and one gcd per proportion
    "tally-n30-json": (0, "5b29ba1fcbeb1cca2d07f9965a47ee8d4afd309c22b36c611802b4fb42d32021"),
    "rank-mle-copeland-n30-json": (0, "9305459fb9ecaf7bdd3a9a418203e8170976dbb118df67883c53b2d4754f37e7"),
    "rank-mle-gpm-n40-json": (0, "b60c82924aa5d9fdba878c73774e8542e8a435c2972d57cde5706a7230e3ddbd"),
    "rank-mle-standard-bt-embeddable-json": (0, "8240275a66cdbe051557ca889c7769f048c001821f476070f78df16f80db87b3"),
    "rank-mle-standard-bt-embeddable-markdown": (0, "3a04c81c4ec0042e200bae2010965a88e4fc42b044dcdcdd3d2f72c4a307530c"),
}


@pytest.mark.parametrize("case", sorted(_arithmetic_matrix()))
def test_pinned_exact_arithmetic_output(case, runner, tmp_path):
    name, args = _arithmetic_matrix()[case]
    path = tmp_path / f"{name}.json"
    path.write_bytes(_arithmetic_profile(name))
    res = runner.invoke(main, [args[0], str(path), *args[1:]])
    out = res.stdout_bytes
    if case in EXACT_MEMBERS_ONLY:
        doc = json.loads(out)
        out = json.dumps({"scores": doc["scores"], "ranking": doc["ranking"]}).encode()
    digest = hashlib.sha256(out).hexdigest()
    assert (res.exit_code, digest) == PINNED_ARITHMETIC[case]


def _rank_corpus():
    """The documents above, an exact mle-standard MLE and two small exhaustive spaces."""
    for doc in (PARADOX, FOUR_VOTER, UNJUDGED_PAIR, UNEVEN_TOTALS, UNEVEN_WIDE):
        yield parse_profile(json.dumps(doc))
    yield complete_profile(default_labels(3), BT_EMBEDDABLE)
    yield generate_complete(4, 6, 66)  # a strict tie
    yield generate_complete(12, 8, 5)
    for space in (ExhaustiveComplete(3, 2), Assumption1(3)):
        yield from iter_profiles(space)


@pytest.mark.parametrize("tie_policy", TiePolicy)
@pytest.mark.parametrize("rule", ORDINAL_RULES)
def test_rank_prints_what_the_rule_table_gives(runner, tmp_path, rule, tie_policy):
    path = tmp_path / "profile.json"
    exact = 0
    for profile in _rank_corpus():
        path.write_bytes(serialize_profile(profile))
        args = ["rank", str(path), "--rule", rule, "--tie-policy", tie_policy.value, "--format", "json"]
        res = runner.invoke(main, args)
        labels = profile.candidates.names
        ordinal = make_rule(rule, RuleKind.ORDINAL, tie_policy=tie_policy)
        try:
            common, key = ordinal.key(ordinal.domain(profile))
        except NotConstantTotalError:
            # uneven pair totals: no exact key, so the solved rewards rank
            assert res.exit_code == 3 or "scores" not in json.loads(res.stdout)
            continue
        except PrefaxiomError as e:
            assert (res.exit_code, res.stderr) == (1, f"error: {e}\n")
            continue
        doc = json.loads(res.stdout)
        assert doc["ranking"] == ordinal(profile).as_label_classes(profile.candidates)
        assert doc["scores"] == {label: str(Fraction(k, common)) for label, k in zip(labels, key)}
        if rule not in PROBABILISTIC_RULES:
            continue
        try:
            dist = make_rule(rule, RuleKind.PROBABILISTIC, tie_policy=tie_policy)(profile)
        except PrefaxiomError:
            continue
        # exact and positive: the table's MLE, with no solve
        if all(type(x) is Fraction and x > 0 for x in dist):
            exact += 1
            assert doc["softmax"] == {label: float(_fmt(x)) for label, x in zip(labels, dist)}
            assert (doc["solver"]["status"], doc["solver"]["iterations"]) == ("converged", 0)
    # strict Copeland weights give a tied pair no weight either way, so they
    # are never in detailed balance
    if rule in PROBABILISTIC_RULES and (rule, tie_policy) != ("mle-copeland", TiePolicy.STRICT_ONLY):
        assert exact > 0
