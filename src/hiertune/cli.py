"""Command-line driver: generate instances, run experiments, emit reports.

Each subcommand takes only the settings it reads; all take ``--config`` and
``--out``, and all but ``report`` take ``--seed``:

* ``gen``: ``--tasks --vessels --weeks --days --hours-per-day --demand-scale
  --max-duration``; ``--out`` names the instance file.
* ``solve-full``: ``--instance --time-limit --mip-gap --breakpoints``.
* ``baseline``: those of ``solve-full``, ``--aggregation --initial-rho``.
* ``tune``: those of ``baseline``, ``--final-mip-gap --threads --dfo --budget``.
* ``transfer``: those of ``tune`` but ``--initial-rho``, ``--from --range-length``.
* ``oracle-check``: ``--time-limit --mip-gap``.
* ``report``: run-summary paths; ``--out`` names the CSV file.

Settings come from defaults, an optional ``--config`` JSON file, and flags
(in that precedence); one config file may hold the settings of several
subcommands.  Each artifact embeds the hash of the effective config plus all
seeds.  Exit codes: 0 success, 2 config error, 3 solve failure, 4 oracle
mismatch.
"""

from __future__ import annotations

import argparse
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


#: The type of each numeric setting.  Every numeric value must be finite; one
#: whose default is None may also be null.
_NUMERIC = {
    **dict.fromkeys(("budget", "seed", "threads", "breakpoints", "tasks", "vessels", "weeks",
                     "days", "hours_per_day", "max_duration"), int),
    **dict.fromkeys(("time_limit", "mip_gap", "final_mip_gap", "range_length", "demand_scale"),
                    float),
}

#: Closed ranges for settings that nothing else rejects with a message: the
#: ``gen`` settings the loader would reject in the written file, and the seed,
#: which numpy's generators take only non-negative.
_RANGES = {
    "seed": (0, math.inf),
    "days": (1, math.inf),
    "hours_per_day": (1, 24),
    "demand_scale": (0, math.inf),
    "max_duration": (1, math.inf),
}


class CliError(ValueError):
    pass


def _number(key: str, raw):
    """``raw`` read as setting ``key``: converted, finite and in range, else CliError.

    A bool is not a number, and an integer setting takes no fractional value.
    """
    kind = _NUMERIC.get(key, float)
    low, high = _RANGES.get(key, (-math.inf, math.inf))
    try:
        if isinstance(raw, bool) or (kind is int and isinstance(raw, float) and not raw.is_integer()):
            raise TypeError
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"{key}: expected {kind.__name__}, got {raw!r}") from None
    if not (math.isfinite(value) and low <= value <= high):
        raise CliError(f"{key}: must be finite and lie in [{low}, {high}], got {raw!r}")
    return value


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _merge_config(args: argparse.Namespace) -> dict:
    """The subcommand's settings: each flag it declares, read from the flag,
    else from the ``--config`` file, else from the defaults; numbers converted."""
    flags = {k: v for k, v in vars(args).items() if k not in ("config", "func")}
    cfg = {key: _DEFAULTS.get(key) for key in flags}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {args.config}: {exc}") from None
        unknown = set(loaded) - set(_DEFAULTS) - {"instance", "mode", "out", "source"}
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        cfg.update((key, value) for key, value in loaded.items() if key in flags)
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    for key in cfg.keys() & _NUMERIC.keys():
        if cfg[key] is not None or _DEFAULTS[key] is not None:
            cfg[key] = _number(key, cfg[key])
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
        if mode in ("gen", "report"):
            # --out names a file: the record goes beside it, else into the
            # working directory
            out = Path(cfg["out"]).parent if cfg.get("out") else Path()
            out.mkdir(parents=True, exist_ok=True)
        else:
            out = _out_dir(cfg, mode)
        _write_json(out / "error.json", {"error": kind, "message": message, "mode": mode})
    except OSError:
        pass
    print(f"error ({kind}): {message}", file=sys.stderr)

def _options(cfg: dict, gap_key: str = "mip_gap") -> SolveOptions:
    return SolveOptions(time_limit=cfg["time_limit"], mip_gap=cfg[gap_key])


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
        },
    }


def _make_problem(cfg: dict, network, scenarios, hours_per_day: int, final_low_options=None):
    return make_two_level_problem(
        network,
        scenarios,
        aggregation=cfg["aggregation"],
        hours_per_day=hours_per_day,
        n_breakpoints=cfg["breakpoints"],
        high_options=_options(cfg),
        low_options=_options(cfg),
        final_low_options=final_low_options,
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(cfg: dict) -> int:
    out = cfg.get("out") or f"instance-seed{cfg['seed']}.json"
    seed, days, scale = cfg["seed"], cfg["days"], cfg["demand_scale"]
    network = generate_network(
        seed,
        n_tasks=cfg["tasks"],
        n_vessels=cfg["vessels"],
        max_duration=cfg["max_duration"],
        demand_scale=scale,
    )
    weeks = [generate_demand(seed + 1 + k, network, days, scale) for k in range(cfg["weeks"])]
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    save_instance(out, network, ScenarioSet.uniform(weeks), cfg["hours_per_day"])
    print(f"wrote {out}")
    return 0


def _cmd_solve_full(cfg: dict) -> int:
    network, scenarios, hpd = _load(cfg)
    model = build_multiweek_full_space(network, scenarios, hpd, cfg["breakpoints"])
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
    problem = _make_problem(cfg, network, scenarios, hpd, _options(cfg, "final_mip_gap"))
    config = DfoConfig(algorithm=cfg["dfo"], budget=cfg["budget"], seed=cfg["seed"])
    t0 = time.perf_counter()
    trace = tune(problem, config, initial_rho=_initial_rho(cfg), threads=cfg["threads"])
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
    problem = _make_problem(cfg, network, scenarios, hpd, _options(cfg, "final_mip_gap"))
    t0 = time.perf_counter()
    trace = transfer_tune(
        problem,
        prior,
        range_fraction=cfg["range_length"],
        budget=cfg["budget"],
        seed=cfg["seed"],
        algorithm=cfg["dfo"],
        threads=cfg["threads"],
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
    seed = cfg["seed"]
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
    paths = sorted(cfg["summaries"])
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


_FLAG_OPTIONS = {
    "config": {"help": "JSON config file; flags override its fields"},
    "instance": {"help": "instance JSON path"},
    "out": {"help": "output directory (or file for gen/report)"},
    "aggregation": {"choices": AGGREGATIONS},
    "dfo": {"choices": ("pattern", "pso", "random")},
}

_SOLVE_FLAGS = ("config", "instance", "seed", "out", "time_limit", "mip_gap", "breakpoints")
_TWO_LEVEL_FLAGS = _SOLVE_FLAGS + ("aggregation",)
_SEARCH_FLAGS = _TWO_LEVEL_FLAGS + ("final_mip_gap", "threads", "dfo", "budget")


def _add_flags(p: argparse.ArgumentParser, names) -> None:
    """Declare ``--name-with-dashes`` for each setting; values stay strings until
    ``_merge_config`` converts them."""
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAG_OPTIONS.get(name, {}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiertune",
        description="two-level decomposition with autotuned high-level cost parameters",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("gen", help="generate a seeded synthetic instance file")
    _add_flags(p, ("config", "seed", "out", "tasks", "vessels", "weeks", "days", "hours_per_day",
                   "demand_scale", "max_duration"))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve-full", help="solve the monolithic full-space model")
    _add_flags(p, _SOLVE_FLAGS)
    p.set_defaults(func=_cmd_solve_full)

    p = sub.add_parser("baseline", help="one black-box evaluation at the initial parameters")
    _add_flags(p, _TWO_LEVEL_FLAGS + ("initial_rho",))
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("tune", help="tune the high-level parameters with a DFO")
    _add_flags(p, _SEARCH_FLAGS + ("initial_rho",))
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("transfer", help="re-tune near parameters from a prior run summary")
    _add_flags(p, _SEARCH_FLAGS + ("range_length",))
    p.add_argument("--from", dest="source", help="run-summary JSON of the prior tuning run")
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("oracle-check", help="compare the backend against brute-force enumeration")
    _add_flags(p, ("config", "seed", "out", "time_limit", "mip_gap"))
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("report", help="tabulate run summaries")
    p.add_argument("summaries", nargs="*")
    _add_flags(p, ("config", "out"))
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
