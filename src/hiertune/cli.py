"""Command-line driver: generate instances, run experiments, emit reports.

Subcommands: ``gen``, ``solve-full``, ``baseline``, ``tune``, ``transfer``,
``oracle-check``, ``report``.  Every run takes its settings from defaults, an
optional ``--config`` JSON file, and explicit flags (in that precedence),
and embeds the hash of the effective config plus all seeds into each
artifact.  Exit codes: 0 success, 2 config error, 3 solve failure, 4 oracle
mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dfo import DfoConfig, DomainError
from .engine import emit_trace, evaluate, transfer_tune, tune
from .instances import (
    InstanceError,
    generate_demand,
    generate_network,
    load_instance,
    save_instance,
)
from .milp import brute_force_milp, solve_milp, solve_model
from .model import Kind, LE, ModelError, ModelInstance, SolveOptions, Status
from .rtn import (
    AGGREGATIONS,
    ScenarioSet,
    TunableParameters,
    build_full_space,
    build_multiweek_full_space,
    make_two_level_problem,
)

_FAILURE_STATUSES = (Status.NUMERICAL_FAILURE, Status.NO_INCUMBENT)

_DEFAULTS = {
    "aggregation": "single",
    "dfo": "pattern",
    "budget": 150,
    "seed": 0,
    "threads": os.cpu_count() or 1,
    "time_limit": 60.0,
    "mip_gap": 1e-4,
    "final_mip_gap": 1e-6,
    "breakpoints": 8,
    "sentinel": 1e10,
    "initial_rho": "1,0,0,0,0,0",
    "range_length": 0.1,
    # gen defaults
    "tasks": 2,
    "vessels": None,
    "weeks": 1,
    "days": 7,
    "hours_per_day": 24,
    "demand_scale": 10.0,
    "max_duration": 2,
}


#: Numeric settings read as integers; the others are read as floats.  Every
#: numeric value must be finite.
_INTEGER_SETTINGS = frozenset(
    ("budget", "seed", "threads", "breakpoints", "tasks", "vessels", "weeks", "days",
     "hours_per_day", "max_duration")
)

#: Closed ranges for the ``gen`` settings that nothing checks before the
#: instance file is written; the loader would reject the file.
_RANGES = {
    "days": (1, math.inf),
    "hours_per_day": (1, 24),
    "demand_scale": (0, math.inf),
    "max_duration": (1, math.inf),
}


class CliError(ValueError):
    pass


def _number(key: str, raw):
    """``raw`` read as setting ``key``: converted, finite and in range, else CliError."""
    kind = int if key in _INTEGER_SETTINGS else float
    low, high = _RANGES.get(key, (-math.inf, math.inf))
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"{key}: expected {kind.__name__}, got {raw!r}") from None
    if not (math.isfinite(value) and low <= value <= high):
        raise CliError(f"{key}: must be finite and lie in [{low}, {high}], got {raw!r}")
    return value


def _get(cfg: dict, key: str):
    return _number(key, cfg[key])


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {path}: {exc}") from None
        unknown = set(loaded) - set(cfg) - {"instance", "mode", "out", "source"}
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key in ("config", "func") or value is None:
            continue
        cfg[key] = value
    return cfg


def _out_dir(cfg: dict, mode: str) -> Path:
    out = cfg.get("out") or f"runs/{mode}-seed{cfg['seed']}"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _error_record(cfg: dict, mode: str, kind: str, message: str) -> None:
    try:
        out = _out_dir(cfg, mode)
        _write_json(out / "error.json", {"error": kind, "message": message, "mode": mode})
    except OSError:
        pass
    print(f"error ({kind}): {message}", file=sys.stderr)

def _options(cfg: dict, gap_key: str = "mip_gap") -> SolveOptions:
    return SolveOptions(time_limit=_get(cfg, "time_limit"), mip_gap=_get(cfg, gap_key))


def _initial_rho(cfg: dict) -> np.ndarray:
    raw = cfg["initial_rho"]
    parts = [_number("initial_rho", x) for x in (raw.split(",") if isinstance(raw, str) else raw)]
    return TunableParameters.from_array(parts).to_array()


def _load(cfg: dict):
    if not cfg.get("instance"):
        raise CliError("an --instance file is required for this mode")
    return load_instance(cfg["instance"])


def _summary_payload(cfg: dict, mode: str, trace, wall: float) -> dict:
    best = trace.best
    final = trace.final
    return {
        "mode": mode,
        "config_hash": _config_hash(cfg),
        "instance": cfg.get("instance"),
        "aggregation": cfg["aggregation"],
        "dfo": trace.dfo_name,
        "budget": trace.budget,
        "seed": trace.seed,
        "threads": cfg["threads"],
        "evaluations": len(trace.results),
        "design_cache_hits": sum(r.design_hit for r in trace.results),
        "best_rho": list(best.rho),
        "best_objective": best.objective,
        "best_profit": -best.objective,
        "final_objective": None if final is None else final.objective,
        "feasible": best.feasible,
        "wall_time": wall,
        "restricted_box": None
        if trace.restricted_box is None
        else {"lower": list(trace.restricted_box.lower), "upper": list(trace.restricted_box.upper)},
        "options": {
            "time_limit": cfg["time_limit"],
            "mip_gap": cfg["mip_gap"],
            "final_mip_gap": cfg["final_mip_gap"],
            "breakpoints": cfg["breakpoints"],
            "sentinel": cfg["sentinel"],
        },
    }


def _make_problem(cfg: dict, network, scenarios, hours_per_day: int):
    return make_two_level_problem(
        network,
        scenarios,
        aggregation=cfg["aggregation"],
        hours_per_day=hours_per_day,
        n_breakpoints=_get(cfg, "breakpoints"),
        high_options=_options(cfg),
        low_options=_options(cfg),
        final_low_options=_options(cfg, "final_mip_gap"),
        sentinel=_get(cfg, "sentinel"),
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(cfg: dict) -> int:
    out = cfg.get("out") or f"instance-seed{cfg['seed']}.json"
    seed, days, scale = _get(cfg, "seed"), _get(cfg, "days"), _get(cfg, "demand_scale")
    hours_per_day = _get(cfg, "hours_per_day")
    network = generate_network(
        seed,
        n_tasks=_get(cfg, "tasks"),
        n_vessels=None if cfg["vessels"] is None else _get(cfg, "vessels"),
        max_duration=_get(cfg, "max_duration"),
        demand_scale=scale,
    )
    weeks = [generate_demand(seed + 1 + k, network, days, scale) for k in range(_get(cfg, "weeks"))]
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    save_instance(out, network, ScenarioSet.uniform(weeks), hours_per_day)
    print(f"wrote {out}")
    return 0


def _cmd_solve_full(cfg: dict) -> int:
    network, scenarios, hpd = _load(cfg)
    if len(scenarios.weeks) == 1:
        model = build_full_space(network, scenarios.weeks[0], hpd, _get(cfg, "breakpoints"))
    else:
        model = build_multiweek_full_space(network, scenarios, hpd, _get(cfg, "breakpoints"))
    t0 = time.perf_counter()
    report = solve_model(model, _options(cfg))
    wall = time.perf_counter() - t0
    out = _out_dir(cfg, "solve-full")
    payload = {
        "mode": "solve-full",
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "instance": cfg["instance"],
        "status": report.status.value,
        "objective": None if report.incumbent is None else report.incumbent.objective,
        "profit": None if report.incumbent is None else -report.incumbent.objective,
        "best_bound": report.best_bound,
        "gap": report.gap,
        "nodes": report.nodes,
        "lp_iterations": report.lp_iterations,
        "wall_time": wall,
        "variables": model.n_variables,
        "constraints": model.n_constraints,
        "binaries": sum(1 for v in model.variables if v.kind is Kind.BINARY),
    }
    _write_json(out / "solve_report.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if report.status in _FAILURE_STATUSES:
        return 3
    return 0


def _cmd_baseline(cfg: dict) -> int:
    network, scenarios, hpd = _load(cfg)
    problem = _make_problem(cfg, network, scenarios, hpd)
    t0 = time.perf_counter()
    result = evaluate(problem, _initial_rho(cfg))
    wall = time.perf_counter() - t0
    out = _out_dir(cfg, "baseline")
    payload = {
        "mode": "baseline",
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "instance": cfg["instance"],
        "aggregation": cfg["aggregation"],
        "rho": list(result.rho),
        "objective": result.objective,
        "profit": -result.objective,
        "feasible": result.feasible,
        "wall_time": wall,
    }
    _write_json(out / "summary.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_tune(cfg: dict) -> int:
    network, scenarios, hpd = _load(cfg)
    problem = _make_problem(cfg, network, scenarios, hpd)
    config = DfoConfig(algorithm=cfg["dfo"], budget=_get(cfg, "budget"), seed=_get(cfg, "seed"))
    t0 = time.perf_counter()
    trace = tune(problem, config, initial_rho=_initial_rho(cfg), threads=_get(cfg, "threads"))
    wall = time.perf_counter() - t0
    out = _out_dir(cfg, "tune")
    emit_trace(trace, out / "trace.csv")
    payload = _summary_payload(cfg, "tune", trace, wall)
    _write_json(out / "summary.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_transfer(cfg: dict) -> int:
    network, scenarios, hpd = _load(cfg)
    if not cfg.get("source"):
        raise CliError("--from run-summary path is required for transfer")
    try:
        source = json.loads(Path(cfg["source"]).read_text())
        prior = [float(x) for x in source["best_rho"]]
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read prior summary {cfg['source']}: {exc}") from None
    problem = _make_problem(cfg, network, scenarios, hpd)
    t0 = time.perf_counter()
    trace = transfer_tune(
        problem,
        prior,
        range_fraction=_get(cfg, "range_length"),
        budget=_get(cfg, "budget"),
        seed=_get(cfg, "seed"),
        algorithm=cfg["dfo"],
        threads=_get(cfg, "threads"),
    )
    wall = time.perf_counter() - t0
    out = _out_dir(cfg, "transfer")
    emit_trace(trace, out / "trace.csv")
    payload = _summary_payload(cfg, "transfer", trace, wall)
    payload["transfer_source"] = cfg["source"]
    payload["range_length"] = cfg["range_length"]
    payload["restriction_vacuous"] = trace.restricted_box is not None and (
        trace.restricted_box.lower == problem.bounds.lower
        and trace.restricted_box.upper == problem.bounds.upper
    )
    _write_json(out / "summary.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_oracle_check(cfg: dict) -> int:
    seed = _get(cfg, "seed")
    checks = []

    knap = ModelInstance("knapsack", "maximize")
    a = knap.add_variable("a", Kind.BINARY, 0, 1)
    b = knap.add_variable("b", Kind.BINARY, 0, 1)
    knap.add_objective_term(a, 3.0)
    knap.add_objective_term(b, 2.0)
    knap.add_constraint({a: 2.0, b: 2.0}, LE, 3.0, "weight")
    knap.seal()
    checks.append(("knapsack-2bin", knap))

    network = generate_network(seed, n_tasks=1, max_duration=1, demand_scale=5.0)
    demand = generate_demand(seed + 1, network, days=1, demand_scale=5.0)
    checks.append(("tiny-rtn-full-space", build_full_space(network, demand, 3, 2)))

    rows = []
    verdict = "match"
    for name, model in checks:
        lowered = model.lowered()
        got = solve_milp(lowered, _options(cfg))
        want = brute_force_milp(lowered)
        ok = got.status == want.status and (
            got.incumbent is None
            or abs(got.incumbent.objective - want.incumbent.objective) <= 1e-6
        )
        if not ok:
            verdict = "mismatch"
        rows.append(
            {
                "check": name,
                "backend_status": got.status.value,
                "oracle_status": want.status.value,
                "backend_objective": None if got.incumbent is None else got.incumbent.objective,
                "oracle_objective": None if want.incumbent is None else want.incumbent.objective,
                "assignments": want.nodes,
                "ok": ok,
            }
        )
    out = _out_dir(cfg, "oracle-check")
    payload = {
        "mode": "oracle-check",
        "config_hash": _config_hash(cfg),
        "seed": seed,
        "verdict": verdict,
        "checks": rows,
    }
    _write_json(out / "oracle_report.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if verdict == "match" else 4


def _cmd_report(cfg: dict) -> int:
    paths = sorted(cfg.get("summaries") or [])
    if not paths:
        raise CliError("report needs at least one run-summary path")
    rows = []
    for path in paths:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"malformed summary {path}: {exc}") from None
        rows.append(
            {
                "run": path,
                "mode": data.get("mode", "?"),
                "best_objective": data.get("best_objective", data.get("objective")),
                "best_rho": data.get("best_rho", data.get("rho")),
                "evaluations": data.get("evaluations", 1),
                "wall_time": data.get("wall_time"),
            }
        )
    header = ["run", "mode", "best_objective", "best_rho", "evaluations", "wall_time"]
    widths = {h: max(len(h), max(len(_fmt(r[h])) for r in rows)) for h in header}
    lines = ["  ".join(h.ljust(widths[h]) for h in header)]
    for r in rows:
        lines.append("  ".join(_fmt(r[h]).ljust(widths[h]) for h in header))
    table = "\n".join(lines)
    print(table)
    if cfg.get("out"):
        out = Path(cfg["out"])
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            fh.write(",".join(header) + "\n")
            for r in rows:
                fh.write(",".join(_fmt(r[h], csv=True) for h in header) + "\n")
        print(f"wrote {out}")
    return 0


def _fmt(value, csv: bool = False) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        body = ",".join(f"{float(v):.4g}" for v in value)
        return f'"{body}"' if csv else f"[{body}]"
    return str(value)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, instance: bool = True) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    if instance:
        p.add_argument("--instance", help="instance JSON path")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory (or file for gen/report)")
    p.add_argument("--time-limit", dest="time_limit", type=float)
    p.add_argument("--mip-gap", dest="mip_gap", type=float)
    p.add_argument("--final-mip-gap", dest="final_mip_gap", type=float)
    p.add_argument("--breakpoints", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--sentinel", type=float)
    p.add_argument("--aggregation", choices=AGGREGATIONS)
    p.add_argument("--dfo", choices=("pattern", "pso", "random"))
    p.add_argument("--budget", type=int)
    p.add_argument("--initial-rho", dest="initial_rho")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiertune",
        description="two-level decomposition with autotuned high-level cost parameters",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("gen", help="generate a seeded synthetic instance file")
    _add_common(p, instance=False)
    p.add_argument("--tasks", type=int)
    p.add_argument("--vessels", type=int)
    p.add_argument("--weeks", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--hours-per-day", dest="hours_per_day", type=int)
    p.add_argument("--demand-scale", dest="demand_scale", type=float)
    p.add_argument("--max-duration", dest="max_duration", type=int)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve-full", help="solve the monolithic full-space model")
    _add_common(p)
    p.set_defaults(func=_cmd_solve_full)

    p = sub.add_parser("baseline", help="one black-box evaluation at the initial parameters")
    _add_common(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("tune", help="tune the high-level parameters with a DFO")
    _add_common(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("transfer", help="re-tune near parameters from a prior run summary")
    _add_common(p)
    p.add_argument("--from", dest="source", help="run-summary JSON of the prior tuning run")
    p.add_argument("--range-length", dest="range_length", type=float)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("oracle-check", help="compare the backend against brute-force enumeration")
    _add_common(p, instance=False)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("report", help="tabulate run summaries")
    p.add_argument("summaries", nargs="*")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    mode = args.mode
    try:
        cfg = _merge_config(args)
    except CliError as exc:
        _error_record({"seed": 0, "out": getattr(args, "out", None)}, mode, "config", str(exc))
        return 2
    try:
        return args.func(cfg)
    except (CliError, InstanceError, DomainError, ModelError) as exc:
        _error_record(cfg, mode, "config", str(exc))
        return 2
    except OSError as exc:
        _error_record(cfg, mode, "io", str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
