"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io import load_instance


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("generate", "plan", "table3", "table4", "table5", "fig5", "fig6", "fig11"):
        args = parser.parse_args(
            [command, "--out", "x.json"] if command == "generate" else
            [command, "--instance", "x.json"] if command == "plan" else
            [command]
        )
        assert args.command == command


def test_generate_and_plan_round_trip(tmp_path, capsys):
    out = tmp_path / "inst.json"
    rc = main(
        [
            "generate",
            "--kind",
            "1D",
            "--characters",
            "40",
            "--regions",
            "2",
            "--stencil",
            "200",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    instance = load_instance(out)
    assert instance.num_characters == 40

    plan_out = tmp_path / "plan.json"
    rc = main(["plan", "--instance", str(out), "--out", str(plan_out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "writing time" in captured
    assert plan_out.exists()


def test_generate_named_case(tmp_path):
    out = tmp_path / "case.json"
    rc = main(["generate", "--case", "1T-1", "--out", str(out)])
    assert rc == 0
    assert load_instance(out).name == "1T-1"


def test_table3_json_output(capsys):
    rc = main(["table3", "--cases", "1D-1", "--scale", "0.03", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"][0]["case"] == "1D-1"
    assert "e-blow" in data["rows"][0]["results"]


def test_fig5_output(capsys):
    rc = main(["fig5", "--cases", "1M-1", "--scale", "0.03"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1M-1" in out and "unsolved per iteration" in out


def test_fig6_output(capsys):
    rc = main(["fig6", "--case", "1M-1", "--scale", "0.03"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "LP values" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_parser_knows_runtime_commands():
    parser = build_parser()
    assert parser.parse_args(["batch", "--suite", "1T"]).command == "batch"
    assert parser.parse_args(["portfolio", "--case", "1T-1"]).command == "portfolio"
    assert parser.parse_args(["cache", "stats"]).command == "cache"
    args = parser.parse_args(["table3", "--jobs", "4"])
    assert args.jobs == 4


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["plan", "--instance", "unused.json", "--engine", "copy"], "--engine"),
        (["batch", "--suite", "1T", "--best-effort"], "--best-effort"),
    ],
    ids=["plan --engine", "batch --best-effort"],
)
def test_removed_flags_exit_2(argv, flag, capsys):
    """The annealing-engine choice and the no-op --best-effort are gone."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_plan_with_explicit_planner_and_time_limit(tmp_path, capsys):
    out = tmp_path / "inst.json"
    main(["generate", "--case", "1T-2", "--out", str(out)])
    plan_out = tmp_path / "plan.json"
    rc = main(
        [
            "plan", "--instance", str(out), "--planner", "greedy-1d",
            "--time-limit", "30", "--out", str(plan_out),
        ]
    )
    assert rc == 0
    assert "writing time" in capsys.readouterr().out
    assert plan_out.exists()


def test_batch_caches_second_run(tmp_path, capsys):
    cache = tmp_path / "cache"
    manifest1 = tmp_path / "m1.jsonl"
    manifest2 = tmp_path / "m2.jsonl"
    base = [
        "batch", "--cases", "1T-1", "1T-2", "--planner", "eblow",
        "--jobs", "2", "--cache-dir", str(cache),
    ]
    rc = main(base + ["--manifest", str(manifest1)])
    assert rc == 0
    capsys.readouterr()
    rc = main(base + ["--manifest", str(manifest2)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 cache hits / 0 misses" in out

    from repro.runtime import read_manifest, summarize_manifest

    assert summarize_manifest(read_manifest(manifest1))["cache_hits"] == 0
    assert summarize_manifest(read_manifest(manifest2))["cache_hits"] == 2


def test_batch_expands_suites(tmp_path, capsys):
    rc = main(
        [
            "batch", "--suite", "1T", "--planner", "greedy-1d", "--planner", "rows-1d",
            "--no-cache", "--json",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["jobs"] == 10  # 5 cases x 2 planners
    assert data["summary"]["ok"] == 10


def test_batch_without_cases_errors(capsys):
    rc = main(["batch", "--no-cache"])
    assert rc == 2
    assert "no cases" in capsys.readouterr().err


@pytest.mark.parametrize("broker", [False, True], ids=["local", "broker"])
def test_batch_rejects_zero_max_attempts(tmp_path, capsys, broker):
    argv = ["batch", "--suite", "1T", "--no-cache", "--max-attempts", "0"]
    if broker:
        argv += ["--broker", str(tmp_path / "spool"), "--jobs", "0", "--broker-timeout", "5"]
    assert main(argv) == 2
    assert "--max-attempts: max_attempts must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [["--supervise"], ["--journal", "run.journal.jsonl"], ["--resume"], ["--chunksize", "2"]],
    ids=lambda flag: flag[0],
)
def test_batch_rejects_flags_the_broker_would_ignore(tmp_path, capsys, flag):
    spool = tmp_path / "spool"
    argv = ["batch", "--suite", "1T", "--no-cache", "--broker", str(spool),
            "--jobs", "0", "--broker-timeout", "5", *flag]
    assert main(argv) == 2
    assert f"{flag[0]} cannot be combined with --broker" in capsys.readouterr().err
    assert not spool.exists()


def test_batch_list_planners(capsys):
    rc = main(["batch", "--list-planners"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "eblow-1d" in out and "ilp-2d" in out


@pytest.mark.parametrize("case", ["1T-1", "2T-1"])
def test_portfolio_cli_picks_a_winner(tmp_path, capsys, case):
    plan_out = tmp_path / "win.json"
    argv = ["portfolio", "--case", case, "--scale", "1.0", "--jobs", "2", "--no-cache"]
    rc = main(argv + ["--out", str(plan_out)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "winner:" in out
    assert plan_out.exists()
    if case == "2T-1":
        # The default 2D portfolio races exactly these entrants, and the
        # winner is the best plan among them.
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        labels = [r["label"] for r in payload["results"]] + payload["cancelled"]
        assert sorted(labels) == ["e-blow", "greedy", "sa"]
        ok = [r["writing_time"] for r in payload["results"] if r["status"] == "ok"]
        assert payload["winner"]["writing_time"] == min(ok)


def test_cache_stats_and_clear(tmp_path, capsys):
    cache = tmp_path / "cache"
    main(
        [
            "batch", "--cases", "1T-1", "--planner", "greedy-1d",
            "--cache-dir", str(cache),
        ]
    )
    capsys.readouterr()
    rc = main(["cache", "stats", "--cache-dir", str(cache), "--json"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 1
    rc = main(["cache", "clear", "--cache-dir", str(cache)])
    assert rc == 0
    assert "removed 1" in capsys.readouterr().out


def test_planners_verb_lists_capabilities(capsys):
    rc = main(["planners"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "eblow-1d" in out and "eblow-2d" in out
    assert "[1D" in out and "[2D" in out  # capability column


def test_planners_verb_json_schema(capsys):
    rc = main(["planners", "--json", "--kind", "2D"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    names = {entry["name"] for entry in data}
    assert "eblow-2d" in names and "eblow-1d" not in names
    eblow = next(e for e in data if e["name"] == "eblow-2d")
    assert eblow["capabilities"]["deterministic"] is True
    assert [f["name"] for f in eblow["options"]["fields"]] == ["seed"]


def test_planners_verb_verbose_shows_options(capsys):
    rc = main(["planners", "--verbose", "--kind", "1D"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ablated: bool" in out


def test_plan_progress_streams_events(tmp_path, capsys):
    out = tmp_path / "inst.json"
    main(["generate", "--case", "1T-1", "--out", str(out)])
    capsys.readouterr()
    rc = main(["plan", "--instance", str(out), "--planner", "eblow", "--progress"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "started" in captured and "finished" in captured
    assert "lp_solve" in captured
    assert "writing time" in captured  # the summary line still prints


def test_plan_events_out_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "inst.json"
    events_path = tmp_path / "events.jsonl"
    main(["generate", "--case", "1T-1", "--out", str(out)])
    rc = main(
        ["plan", "--instance", str(out), "--planner", "greedy-1d",
         "--events-out", str(events_path)]
    )
    assert rc == 0
    lines = [json.loads(line) for line in events_path.read_text().splitlines()]
    assert len(lines) >= 2
    assert all(record["record"] == "event" for record in lines)
    assert {record["type"] for record in lines} >= {"started", "finished"}


def test_portfolio_cli_accepts_quality_stops(tmp_path, capsys):
    rc = main(
        ["portfolio", "--case", "1T-1", "--scale", "1.0", "--jobs", "2",
         "--no-cache", "--target", "1e12", "--straggler-grace", "5"]
    )
    assert rc == 0
    assert "winner:" in capsys.readouterr().out


def test_plan_events_out_written_on_failure(tmp_path, capsys):
    inst = tmp_path / "inst2d.json"
    events_path = tmp_path / "fail-events.jsonl"
    main(["generate", "--kind", "2D", "--characters", "20", "--stencil", "200",
          "--out", str(inst)])
    rc = main(
        ["plan", "--instance", str(inst), "--planner", "greedy-1d",  # kind mismatch
         "--events-out", str(events_path)]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err
    lines = [json.loads(line) for line in events_path.read_text().splitlines()]
    assert {record["type"] for record in lines} >= {"started", "finished"}
