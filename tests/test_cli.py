import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hiertune.cli import _SETTINGS, build_parser, main
from hiertune.instances import load_instance
from hiertune.milp import solve_model
from hiertune.model import SolveOptions
from hiertune.rtn import build_full_space


def run(argv):
    return main([str(a) for a in argv])


def csv_rows(path, reader=csv.DictReader):
    with open(path, newline="") as f:
        return list(reader(f))


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "inst.json"
    code = run(
        ["gen", "--seed", 11, "--tasks", 2, "--weeks", 2, "--days", 2,
         "--hours-per-day", 3, "--demand-scale", 6, "--max-duration", 1, "--out", path]
    )
    assert code == 0
    return path


SOLVE = ["--mip-gap", "0.01", "--breakpoints", "2", "--time-limit", "30"]
FAST = SOLVE + ["--threads", "1"]


def test_gen_writes_instance(instance):
    payload = json.loads(Path(instance).read_text())
    assert payload["format"] == "rtn-instance/1"
    assert len(payload["weeks"]) == 2


def test_gen_bytes_are_pinned(tmp_path, instance):
    # measured with numpy 2.4.6; a change here changes every instance file
    default = tmp_path / "default.json"
    assert run(["gen", "--out", default]) == 0
    sha = {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (default, instance)}
    assert sha[default] == "abc060e57438f016d8a2a485c3d420750052919e2f3e73963ef19d93d4d29962"
    assert sha[instance] == "addccad5120fa71cfb5f776200cba52750588ba1529f5831d3f28d0bf8993d98"


def test_tune_budget_one_trace_row(tmp_path, instance):
    out = tmp_path / "t"
    code = run(
        ["tune", "--instance", instance, "--aggregation", "approach1", "--dfo", "pattern",
         "--budget", 1, "--seed", 3, "--out", out] + FAST
    )
    assert code == 0
    rows = csv_rows(out / "trace.csv")
    assert len(rows) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["evaluations"] == 1
    assert summary["config_hash"]
    assert summary["seed"] == 3


def test_tune_defaults_to_approach2_on_several_weeks(tmp_path, instance):
    out = tmp_path / "t"
    assert run(["tune", "--instance", instance, "--budget", 1, "--out", out] + FAST) == 0
    assert json.loads((out / "summary.json").read_text())["aggregation"] == "approach2"

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"aggregation": "single"}))
    out = tmp_path / "single"
    assert run(["tune", "--instance", instance, "--config", cfg, "--budget", 1, "--out", out]
               + FAST) == 2
    assert json.loads((out / "error.json").read_text())["error"] == "config"


def test_solve_full_and_baseline(tmp_path, instance):
    out = tmp_path / "sf"
    code = run(["solve-full", "--instance", instance, "--out", out] + SOLVE)
    assert code == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["status"] in ("optimal", "feasible-gap")

    out2 = tmp_path / "base"
    code = run(
        ["baseline", "--instance", instance, "--aggregation", "approach2", "--out", out2] + SOLVE
    )
    assert code == 0
    base = json.loads((out2 / "summary.json").read_text())
    assert base["rho"] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    # one-way baseline cannot beat the monolithic optimum
    if report["status"] == "optimal" and base["feasible"]:
        assert base["objective"] >= report["objective"] - 1e-6


def test_solve_full_raises_no_runtime_warning(tmp_path, instance):
    # a solve warns about nothing, outside pytest's own warning filters too
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hiertune", "solve-full",
         "--instance", str(instance), "--out", str(tmp_path / "sf"), *SOLVE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr


def test_tune_then_transfer_then_report(tmp_path, instance):
    t1 = tmp_path / "t1"
    assert run(
        ["tune", "--instance", instance, "--aggregation", "approach2", "--budget", 6,
         "--seed", 1, "--out", t1] + FAST
    ) == 0
    t2 = tmp_path / "t2"
    assert run(
        ["transfer", "--instance", instance, "--aggregation", "approach2",
         "--from", t1 / "summary.json", "--budget", 4, "--seed", 2,
         "--range-length", "0.1", "--out", t2] + FAST
    ) == 0
    summary = json.loads((t2 / "summary.json").read_text())
    assert summary["evaluations"] == 4
    assert summary["transfer_source"] == str(t1 / "summary.json")
    assert summary["restriction_vacuous"] is False
    box = summary["restricted_box"]
    assert box["upper"][0] - box["lower"][0] <= 3.0 + 1e-9  # 0.1 of width 30

    rep_csv = tmp_path / "report.csv"
    assert run(["report", t1 / "summary.json", t2 / "summary.json", "--out", rep_csv]) == 0
    rows = csv_rows(rep_csv)
    assert [r["mode"] for r in rows] == ["tune", "transfer"]


def test_transfer_vacuous_flag(tmp_path, instance):
    t1 = tmp_path / "t1"
    assert run(
        ["tune", "--instance", instance, "--aggregation", "approach1", "--budget", 2,
         "--seed", 1, "--out", t1] + FAST
    ) == 0
    t2 = tmp_path / "t2"
    assert run(
        ["transfer", "--instance", instance, "--aggregation", "approach1",
         "--from", t1 / "summary.json", "--budget", 2, "--seed", 2,
         "--range-length", "2.0", "--out", t2] + FAST
    ) == 0
    summary = json.loads((t2 / "summary.json").read_text())
    assert summary["restriction_vacuous"] is True


def test_reproducible_traces(tmp_path, instance):
    args = ["tune", "--instance", instance, "--aggregation", "approach1", "--dfo", "pso",
            "--budget", 8, "--seed", 9] + FAST
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(args + ["--out", out]) == 0
        outs.append(out / "trace.csv")

    def strip_wall(path):
        rows = csv_rows(path, csv.reader)
        drop = rows[0].index("cumulative_wall_time")
        return [tuple(c for i, c in enumerate(r) if i != drop) for r in rows]

    assert strip_wall(outs[0]) == strip_wall(outs[1])


def test_oracle_check_matches(tmp_path):
    out = tmp_path / "oc"
    assert run(["oracle-check", "--seed", 2, "--out", out]) == 0
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["verdict"] == "match"
    assert all(c["ok"] for c in report["checks"])


def test_config_file_and_overrides(tmp_path, instance):
    cfg = tmp_path / "cfg.json"
    # range_length is a transfer setting: tune leaves it unread
    cfg.write_text(json.dumps({"budget": 2, "mip_gap": 0.01, "breakpoints": 2,
                               "aggregation": "approach1", "threads": 1, "range_length": 0.5}))
    out = tmp_path / "t"
    assert run(["tune", "--instance", instance, "--config", cfg, "--seed", 1,
                "--out", out, "--budget", "3"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["budget"] == 3  # flag overrides config file


def test_error_exit_codes(tmp_path):
    missing = tmp_path / "nope.json"
    out = tmp_path / "e1"
    assert run(["tune", "--instance", missing, "--out", out, "--budget", 1]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "config"

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    out2 = tmp_path / "e2"
    assert run(["baseline", "--instance", bad, "--out", out2]) == 2

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    assert run(["oracle-check", "--config", cfg, "--out", tmp_path / "e3"]) == 2
    assert json.loads((tmp_path / "e3" / "error.json").read_text())["error"] == "config"

    out4 = tmp_path / "e4" / "report.csv"
    assert run(["report", tmp_path / "absent.json", "--out", out4]) == 2
    record = json.loads((out4.parent / "error.json").read_text())
    assert record["error"] == "config" and record["mode"] == "report"
    assert not out4.exists()


def test_nan_week_weight_exits_2(tmp_path, instance):
    payload = json.loads(Path(instance).read_text())
    payload["week_weights"] = [float("nan"), 0.5]
    bad = tmp_path / "nan-weight.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "b"
    code = run(["baseline", "--instance", bad, "--aggregation", "approach1", "--out", out] + SOLVE)
    assert code == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "config" and "week_weights" in record["message"]
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--threads", "0"), ("--threads", "-3"), ("--time-limit", "nan")],
)
def test_bad_numeric_flag_exits_2(tmp_path, instance, flag, value):
    out = tmp_path / "t"
    code = run(
        ["tune", "--instance", instance, "--aggregation", "approach1", "--budget", 3,
         "--out", out] + FAST + [flag, value]
    )
    assert code == 2
    assert json.loads((out / "error.json").read_text())["error"] == "config"
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_transfer_bad_range_length_exits_2(tmp_path, instance, value):
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"best_rho": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]}))
    out = tmp_path / "t"
    code = run(
        ["transfer", "--instance", instance, "--aggregation", "approach1", "--from", prior,
         "--budget", 2, "--range-length", value, "--out", out] + FAST
    )
    assert code == 2
    assert json.loads((out / "error.json").read_text())["error"] == "config"
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--demand-scale", "nan"), ("--demand-scale", "inf"), ("--hours-per-day", "0"),
     ("--days", "0"), ("--tasks", "0"), ("--seed", "-1"),
     # longer than the default 24 h day: every solve would reject the file
     ("--max-duration", "25")],
)
def test_gen_bad_value_exits_2_and_writes_no_instance(tmp_path, flag, value):
    out = tmp_path / "inst.json"
    assert run(["gen", "--seed", 1, "--out", out, flag, value]) == 2
    assert not out.exists()
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["error"] == "config" and record["mode"] == "gen"
    # the failed run left the path free for the next one
    assert run(["gen", "--seed", 1, "--out", out, "--days", 1, "--hours-per-day", 3]) == 0
    assert out.is_file()


@pytest.mark.parametrize(
    "config, flags",
    [(None, ["--initial-rho", "a,b"]), ({"budget": "x"}, []), ({"time_limit": None}, []),
     ({"budget": 2.5}, []), ({"threads": True}, [])],
    ids=["initial-rho", "config-budget", "config-time-limit", "config-fractional-budget",
         "config-bool-threads"],
)
def test_malformed_value_exits_2(tmp_path, instance, config, flags):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        flags = flags + ["--config", path]
    out = tmp_path / "t"
    code = run(
        ["tune", "--instance", instance, "--aggregation", "approach1", "--breakpoints", 2,
         "--mip-gap", "0.01", "--out", out] + flags
    )
    assert code == 2
    assert json.loads((out / "error.json").read_text())["error"] == "config"
    assert not (out / "summary.json").exists()


def test_several_bad_settings_report_the_first_declared(tmp_path, instance):
    # set iteration order varies with the hash seed; declared order does not
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": "y", "mip_gap": "z", "budget": "x"}))
    out = tmp_path / "t"
    assert run(["tune", "--instance", instance, "--config", cfg, "--out", out]) == 2
    assert json.loads((out / "error.json").read_text())["message"].startswith("budget:")


@pytest.mark.parametrize(
    "mode, content",
    [("transfer", {"best_rho": [1, 0, 0, 0, 0]}), ("transfer", {"best_rho": 5}),
     ("transfer", {"best_rho": [[1]]}), ("transfer", {"best_rho": None}),
     ("report", [1, 2]), ("report", {"mode": "tune", "best_rho": ["a"]}),
     ("tune", ["budget"]), ("tune", {"initial_rho": 5})],
    ids=["best-rho-short", "best-rho-number", "best-rho-nested", "best-rho-null",
         "report-array", "report-rho-string", "config-array", "config-initial-rho-number"],
)
def test_malformed_json_input_exits_2(tmp_path, instance, mode, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    out = tmp_path / "out"
    argv = {
        "transfer": ["transfer", "--instance", instance, "--aggregation", "approach1",
                     "--from", path, "--budget", 2, "--out", out] + FAST,
        "report": ["report", path, "--out", out / "report.csv"],
        "tune": ["tune", "--instance", instance, "--aggregation", "approach1", "--budget", 2,
                 "--config", path, "--out", out] + FAST,
    }[mode]
    assert run(argv) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "config" and record["mode"] == mode
    assert not (out / "summary.json").exists()


def test_rho_outside_box_message_prints_plain_floats(tmp_path, instance):
    out = tmp_path / "b"
    assert run(["baseline", "--instance", instance, "--initial-rho", "1,0,0,0,0,60",
                "--out", out] + SOLVE) == 2
    message = json.loads((out / "error.json").read_text())["message"]
    assert "60.0" in message and "np." not in message


def test_summary_counts_design_cache_hits(tmp_path, instance):
    out = tmp_path / "t"
    assert run(
        ["tune", "--instance", instance, "--aggregation", "approach1", "--dfo", "pso",
         "--budget", 8, "--seed", 9, "--out", out] + FAST
    ) == 0
    rows = csv_rows(out / "trace.csv")
    assert list(rows[0])[-2:] == ["cumulative_wall_time", "design_cache_hit"]
    hits = sum(int(r["design_cache_hit"]) for r in rows)
    assert hits > 0
    assert json.loads((out / "summary.json").read_text())["design_cache_hits"] == hits


def test_config_numbers_are_echoed_converted(tmp_path, instance):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": "1", "time_limit": "30"}))
    out = tmp_path / "t"
    assert run(["tune", "--instance", instance, "--config", cfg, "--aggregation", "approach1",
                "--budget", 1, "--breakpoints", 2, "--mip-gap", "0.01", "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["threads"] == 1 and type(summary["threads"]) is int
    assert summary["options"]["time_limit"] == 30.0
    assert type(summary["options"]["time_limit"]) is float


@pytest.mark.parametrize(
    "argv",
    [["gen", "--budget", "5"], ["solve-full", "--threads", "1"], ["tune", "--sentinel", "1"]],
)
def test_flag_the_subcommand_does_not_read_is_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_every_flag_is_a_declared_setting():
    paths = {"config", "instance", "out", "from"}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        opt[2:].replace("-", "_")
        for parser in sub.choices.values()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for opt in action.option_strings
    }
    assert declared - paths == set(_SETTINGS)


def test_solve_full_one_week_matches_single_week_model(tmp_path):
    inst = tmp_path / "one.json"
    assert run(["gen", "--seed", 5, "--tasks", 2, "--weeks", 1, "--days", 2, "--hours-per-day", 3,
                "--demand-scale", 6, "--max-duration", 2, "--out", inst]) == 0
    out = tmp_path / "sf"
    assert run(["solve-full", "--instance", inst, "--breakpoints", 2, "--mip-gap", "1e-9",
                "--out", out]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    network, scenarios, hpd = load_instance(inst)
    model = build_full_space(network, scenarios.weeks[0], hpd, 2)
    want = solve_model(model, SolveOptions(mip_gap=1e-9))
    assert report["status"] == want.status.value == "optimal"
    assert report["objective"] == pytest.approx(want.incumbent.objective, rel=1e-9, abs=1e-9)
    assert (report["variables"], report["constraints"]) == (model.n_variables, model.n_constraints)
