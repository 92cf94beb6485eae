"""Exit codes, output formats, determinism of the command line front end."""
from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from prefaxiom import (
    ORDINAL_AXIOMS,
    PROBABILISTIC_AXIOMS,
    EpsilonPolicy,
    generate_complete,
    gpmd,
    parse_profile,
    scores,
    serialize_profile,
    tally,
    weights_gpm,
)
from prefaxiom.cli import main

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


def test_rank_parses_epsilon_only_for_mle_gpm(runner, tmp_path):
    path = _write(tmp_path, FOUR_VOTER)
    plain = runner.invoke(main, ["rank", path, "--rule", "borda"])
    junk = runner.invoke(main, ["rank", path, "--rule", "borda", "--epsilon", "junk"])
    assert junk.exit_code == 0 and junk.stdout == plain.stdout
    res = runner.invoke(main, ["rank", path, "--rule", "mle-gpm", "--epsilon", "junk"])
    assert res.exit_code == 2


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
    # 40 candidates at epsilon 1/1000: rewards span hundreds of units and the
    # exact scores run to thousands of digits
    profile = generate_complete(40, 10, 1)
    path = tmp_path / "n40.json"
    path.write_bytes(serialize_profile(profile))
    limit = sys.get_int_max_str_digits()
    res = runner.invoke(main, ["rank", str(path), "--rule", "mle-gpm", "--format", "json"])
    assert sys.get_int_max_str_digits() == limit
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["solver"]["status"] == "converged"
    expected = scores(weights_gpm(gpmd(profile, EpsilonPolicy.finite(Fraction(1, 1000)))))
    sys.set_int_max_str_digits(0)
    try:
        printed = tuple(Fraction(doc["scores"][label]) for label in profile.candidates.names)
    finally:
        sys.set_int_max_str_digits(limit)
    assert printed == expected
    assert max(len(v) for v in doc["scores"].values()) > limit


def test_axioms_exit_code_on_violation(runner, tmp_path):
    res = runner.invoke(
        main, ["axioms", _write(tmp_path, FOUR_VOTER), "--rule", "mle-standard"]
    )
    assert res.exit_code == 4
    assert "| gpm | true | false |" in res.output


def test_axioms_all_pass_exit_zero(runner, tmp_path):
    res = runner.invoke(main, ["axioms", _write(tmp_path, PARADOX), "--rule", "borda"])
    assert res.exit_code == 0


def test_axioms_rejects_impossible_check(runner, tmp_path):
    res = runner.invoke(
        main,
        ["axioms", _write(tmp_path, PARADOX), "--rule", "borda", "--checks", "gpm"],
    )
    assert res.exit_code == 2


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


def test_disconnected_exit_three(runner, tmp_path):
    doc = {
        "candidates": ["a", "b", "c", "d"],
        "voters": [
            {"id": "v1", "comparisons": [["a", "b"]]},
            {"id": "v2", "comparisons": [["c", "d"]]},
        ],
    }
    res = runner.invoke(
        main, ["rank", _write(tmp_path, doc), "--rule", "mle-standard"]
    )
    assert res.exit_code == 3


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
    "doc, command, options",
    [
        pytest.param(UNJUDGED_PAIR, cmd, ["--rule", rule], id=f"{cmd}-{rule}-unjudged-pair")
        for cmd in ("rank", "axioms")
        for rule in ("borda", "copeland", "mle-copeland")
    ]
    + [
        pytest.param(
            UNEVEN_TOTALS, "axioms", ["--rule", "mle-standard"], id="axioms-mle-standard-uneven-totals"
        ),
        pytest.param(UNJUDGED_PAIR, "gpmd", [], id="gpmd-comparison-voters"),
    ],
)
def test_package_errors_exit_one_with_message(runner, tmp_path, doc, command, options):
    res = runner.invoke(main, [command, _write(tmp_path, doc), *options])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: ")
    assert res.stdout == ""


SEARCH = ["search", "--rule", "borda", "--axiom", "condorcet", "--seed", "1", "--space"]


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


def test_search_space_too_large_exit_five(runner):
    res = runner.invoke(
        main,
        ["search", "--rule", "borda", "--axiom", "condorcet", "--space", "exhaustive-complete:n=4,m=6"],
    )
    assert res.exit_code == 5


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


def test_experiment_cycles_deterministic_across_jobs(runner):
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


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0 and "prefaxiom" in res.output


# Byte-identity pin: sha256 of stdout and the exit code for a fixed command
# matrix.  A change that alters any report byte for these inputs fails here;
# a digest is updated only together with an intended change of output.
PINNED_FORMATS = ("json", "markdown")
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
    return cases


PINNED = {
    "axioms-borda-four_voter-json": (0, "ba17755a12222cfbf6b824c90566cd1cb5ee7f951d59f428b0b31f145f1d3d50"),
    "axioms-borda-four_voter-markdown": (0, "3dc6a1ade142f018f70c29c03bdcf2e8054696800cf1635e470757649a9189b7"),
    "axioms-borda-paradox-json": (0, "ba17755a12222cfbf6b824c90566cd1cb5ee7f951d59f428b0b31f145f1d3d50"),
    "axioms-borda-paradox-markdown": (0, "3dc6a1ade142f018f70c29c03bdcf2e8054696800cf1635e470757649a9189b7"),
    "axioms-copeland-four_voter-json": (0, "1e6da11241990180ecdfaac584f7f7c7bc597a83dfd2072af1098e54bec1e38f"),
    "axioms-copeland-four_voter-markdown": (0, "187ac7bf0fa1d61d89f5016311fc5754bc1bb8ca1153d17b834a207b4e50fe37"),
    "axioms-copeland-paradox-json": (0, "1e6da11241990180ecdfaac584f7f7c7bc597a83dfd2072af1098e54bec1e38f"),
    "axioms-copeland-paradox-markdown": (0, "187ac7bf0fa1d61d89f5016311fc5754bc1bb8ca1153d17b834a207b4e50fe37"),
    "axioms-gpmd-limit-four_voter-json": (0, "223fee3600131a31e291bc3b3af25511983951531f625245c7e041aa1bae71ca"),
    "axioms-gpmd-limit-four_voter-markdown": (0, "69a81a0af948e1db53f6e0be99b50640e02fb342809be093fbbb1deef7dd2a9b"),
    "axioms-gpmd-limit-paradox-json": (0, "223fee3600131a31e291bc3b3af25511983951531f625245c7e041aa1bae71ca"),
    "axioms-gpmd-limit-paradox-markdown": (0, "69a81a0af948e1db53f6e0be99b50640e02fb342809be093fbbb1deef7dd2a9b"),
    "axioms-mle-copeland-four_voter-json": (4, "c277882f633952144331208b1db6197b26e0c704aa7c20d008f7362eba94a460"),
    "axioms-mle-copeland-four_voter-markdown": (4, "b2906e1c771298b6b95b7e3a6a4e8cc85d49ff6eefd9d9fe25abc2af55f936b1"),
    "axioms-mle-copeland-paradox-json": (0, "a88b8347808ea1ac93d741b429a42cfb78a598912d007d64aac0fe25140aaa5e"),
    "axioms-mle-copeland-paradox-markdown": (0, "44b8573e738d73d54d4ed19bab85d0f8e5e5587b408079a5b7c554257db92008"),
    "axioms-mle-gpm-four_voter-json": (4, "8a9af72c803e03be59afa0ff64a93ac846dd55890ccaae26df128808ecdea19f"),
    "axioms-mle-gpm-four_voter-markdown": (4, "3fca5b2a985c725ff685234c63f4ee74b01477d113d7b1dfeb4a5547c447fb0c"),
    "axioms-mle-gpm-paradox-json": (0, "534b19f975cc2fdfa38f21e49593fb2001759df1530d54ed38c27fd91fde4ff6"),
    "axioms-mle-gpm-paradox-markdown": (0, "05c076589babb5499a78339f3e9d65915998bfc49e7d899d0118a1113b030e8e"),
    "axioms-mle-standard-four_voter-json": (4, "8784b587ad8f2cea9c3dca163978d7e260d4e1aeca11f237184a9f67b709542a"),
    "axioms-mle-standard-four_voter-markdown": (4, "5f8c24dc83dc54860da8ca4c495591e5ea5760f0a287211d7eeb2712bb3674c6"),
    "axioms-mle-standard-paradox-json": (0, "d998c38490b320bd022b1d9541463fc9c01458ecfdf2cf19f53ce1c759705c49"),
    "axioms-mle-standard-paradox-markdown": (0, "ec0f9eb77183815c5dce5bbb27e4585b5a38f57a2eacded51e9929238fe588e1"),
    "demo-borda-vs-copeland-json": (0, "c6ba355192fb54158db85f574128a35b6eb7e16786d1618a426cc38659caee5c"),
    "demo-borda-vs-copeland-markdown": (0, "7b75d9b357770f1f112b5397ba936a868fa2d24439fd70cabb58099eeef9d204"),
    "demo-condorcet-paradox-json": (0, "30d0ecc8a4ef25f58c9dc7c32c131e3991a680dfe8db7f1479433a99bc7008a5"),
    "demo-condorcet-paradox-markdown": (0, "f6fac8c76c77647724c45cb1d5e17b86571278f55ccf0a1f37e1c339048f2ce3"),
    "demo-single-voter-cycle-json": (0, "fd83c78b19e2cbfb8be7872117c9763071f3baf3c04e0fa87e00170458182d41"),
    "demo-single-voter-cycle-markdown": (0, "c426111802814a2dd335c244341218e6e85c8a77b5969eb45ee9950066cd932c"),
    "experiment-cycles": (0, "7bbc782d1883e35cff4037f20b9ccb5ee75b155aaccd515f631b0415fea93fea"),
    "gpmd-four_voter-json": (0, "cff469a32a0033d0f147c31632c797b924d502e04e1284cbe4b04c6ded64a7fc"),
    "gpmd-four_voter-markdown": (0, "2d3ee7cf18cbce53af8e4e6f0dd4231d7d1b4b2a07baea363d36669b3b88fc74"),
    "gpmd-paradox-json": (0, "8af81117105b56ae3f76560fb9f2a8760aa7bba264c7f7216778510b66883c56"),
    "gpmd-paradox-markdown": (0, "19228730f3f93a2db8cee684d1570392245535ba82b9ce1596ad9cdbd340a9b4"),
    "rank-borda-four_voter-json": (0, "5eb212f213ee043035f20cae86f5ab384b304de6a426d2d5f15f052dc6e9e798"),
    "rank-borda-four_voter-markdown": (0, "8a9e69a5f9535f1b3f1a4cf782d953fe5bbed24e2ff162cc6173e769caacab45"),
    "rank-borda-paradox-json": (0, "6330bffa0d925b2975a2dca76886765b54022232118d29a56c7021b25b244f0b"),
    "rank-borda-paradox-markdown": (0, "505065730238d7275d9473eee58daecb9ddca0b00d0d36b42c71ac9f228bffad"),
    "rank-copeland-four_voter-json": (0, "af225f9cc4aa5499acee2352b17b2a8a1692c27b457acefd1ef04c0c93e5962a"),
    "rank-copeland-four_voter-markdown": (0, "bbaa88278d94ab442458d8317a7d6c0e2557e63da7b55413043ea01f110cf3e4"),
    "rank-copeland-paradox-json": (0, "93aa7e202d263576f4ac28e8ea622550332334b5538cfcc0b36bc455a0ed9817"),
    "rank-copeland-paradox-markdown": (0, "df1197d8df014084c36166ffcc2f503936f38ffa71519d6e5713e6ca31cfac2d"),
    "rank-mle-copeland-four_voter-json": (0, "5a289ed3673120d51b9d8043cf08b7e42325a137c1fabf1805f918fc014d64e5"),
    "rank-mle-copeland-four_voter-markdown": (0, "86f49a2249f4215c37ddd80aa1629f579b83b17c0d6169514c37248bc7b32a6a"),
    "rank-mle-copeland-paradox-json": (0, "049a7ef80b18a302e21d36077b61cf33ed57ad237281842c22c9a186c5b2a558"),
    "rank-mle-copeland-paradox-markdown": (0, "9326bc3f61f8c04f9906c3414703301528090b2b1e70767f52e09e2a76bc1f86"),
    "rank-mle-gpm-four_voter-json": (0, "73fd5d79a634a8527cc0212798edfaa4fbda410f38aadbca82f20ea02cb50b63"),
    "rank-mle-gpm-four_voter-markdown": (0, "6eaa3e21779484c470da370903c194f76db3981f0b5fb233448d79d73e4ac220"),
    "rank-mle-gpm-paradox-json": (0, "ceab7dd4b19755fa0cfd6eeb5eed22b54621436c722537578fbf204cea20b295"),
    "rank-mle-gpm-paradox-markdown": (0, "f99f0c9f5451fc92333aa5f2c7715d74b812e8b6d77eac4ea388fe08365dcbcf"),
    "rank-mle-standard-four_voter-json": (0, "6081a16dd38cd9cbf6cf8730f8708727c5a6730df8243a8ea7227f1c63a41c51"),
    "rank-mle-standard-four_voter-markdown": (0, "fd1a02453eaf4086b7a916fa67971653b498590893ee981c7e75120cdf867ff3"),
    "rank-mle-standard-paradox-json": (0, "d04af2e1611dd383910a91799e3f8429031bc05b809641dea3a8ff8e570d7f35"),
    "rank-mle-standard-paradox-markdown": (0, "5b33b5b6cb803322df50f8c9beabd2866d4284a7ff19517221d6fd3de99d4417"),
    "search-assumption1": (0, "b139680c783e987b6f39d32fb9bce007bbf9425158bde7780900f135ffc8610c"),
    "search-exhaustive-complete": (0, "77822ff070f0453d1044c69758d5847e74a863d1aec85e425f671c1fe8d51f88"),
    "search-random-complete": (0, "12a6257cd7a317bffd3cc61c07ead0077208785c67ac0a793a4abf8568ebe360"),
    "tally-four_voter-json": (0, "0bd3d1cfaf3301fbebc0e171ecdfa247755fa433a90b2a7374a598d9501ee74d"),
    "tally-four_voter-markdown": (0, "1f1440d4b74cca287806ae42ee61960111684cd22bb08a2e9edcccfeecc27e01"),
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
# (comparison voters), and mle-gpm's exact scores at n = 12.  Digests were
# recorded on the Fraction-sum implementation these paths replaced.
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
    for fmt in PINNED_FORMATS:
        tail = ["--format", fmt]
        for eps in ("1/1000", "1/3"):
            cases[f"gpmd-{eps.replace('/', 'over')}-n30-{fmt}"] = ("n30", ["gpmd", "--epsilon", eps, *tail])
        for rule in ("borda", "mle-standard", "mle-gpm"):
            cases[f"rank-{rule}-uneven-{fmt}"] = ("uneven", ["rank", "--rule", rule, *tail])
        cases[f"rank-mle-gpm-n12-{fmt}"] = ("n12", ["rank", "--rule", "mle-gpm", *tail])
    return cases


def _arithmetic_profile(name: str) -> bytes:
    if name == "uneven":
        return serialize_profile(parse_profile(json.dumps(UNEVEN_WIDE)))
    if name == "n30":
        return serialize_profile(generate_complete(30, 20, 17))
    return serialize_profile(generate_complete(12, 8, 5))


PINNED_ARITHMETIC = {
    "gpmd-1over1000-n30-json": (0, "7919318c6790b1b77085c1693e0143d9338b3ad4df445db7a4229b61e786dc28"),
    "gpmd-1over1000-n30-markdown": (0, "47ff9f343a5dda4aa0438b447147af985be22b69fb50a5d2d3f3344544903aee"),
    "gpmd-1over3-n30-json": (0, "a30cb5363a9767dc0aec12dd7b730e56cbc5b03f5b6a343df57a0524958e4f55"),
    "gpmd-1over3-n30-markdown": (0, "bb330fbdf4d8d4732d3b3bf79884b9fa203404518e522d8ec13cec91f675eda4"),
    "rank-borda-uneven-json": (0, "71301d858518bea45f7bb736b59e71f393176c357a70aa18fbf22f7d97b231f6"),
    "rank-borda-uneven-markdown": (0, "0750f4c7f76887ddb63e5cb5fec107be2b54f6167377bba00f6bcbacda3d224a"),
    "rank-mle-gpm-n12-json": (0, "d28840775fd4f4f4b8166607ca9314f852af22140f7550aed10a548a3f8d8066"),
    "rank-mle-gpm-n12-markdown": (0, "3cc179cd5c833f8eda41ef02e1d86a767e2ba59b833f653c5a0a36f35fdb245f"),
    "rank-mle-gpm-uneven-json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank-mle-gpm-uneven-markdown": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank-mle-standard-uneven-json": (0, "93d18f89348ad70322c49b7b70aad5b2eecf88bdf41a6dffdbb143c3cbaa3dde"),
    "rank-mle-standard-uneven-markdown": (0, "5b0f68227c793a461b2bdd7d0fdf986fdeb0bb4ded77cb96819977e7f2adf951"),
}


@pytest.mark.parametrize("case", sorted(_arithmetic_matrix()))
def test_pinned_exact_arithmetic_output(case, runner, tmp_path):
    name, args = _arithmetic_matrix()[case]
    path = tmp_path / f"{name}.json"
    path.write_bytes(_arithmetic_profile(name))
    res = runner.invoke(main, [args[0], str(path), *args[1:]])
    digest = hashlib.sha256(res.stdout_bytes).hexdigest()
    assert (res.exit_code, digest) == PINNED_ARITHMETIC[case]
