"""Command-line driver: generate instances, run experiments, emit reports.

Each subcommand takes only the settings it reads; all take ``--config`` and
``--out``, and all but ``report`` take ``--seed``:

* ``gen``: ``--tasks --vessels --weeks --days --hours-per-day --demand-scale
  --max-duration``; ``--out`` names the instance file.
* ``solve-full``: ``--instance --time-limit --mip-gap --breakpoints``.
* ``baseline``: those of ``solve-full``, ``--aggregation`` (``approach1``, or
  ``approach2`` by default), ``--initial-rho``.
* ``tune``: those of ``baseline``, ``--final-mip-gap --threads --dfo --budget``.
* ``transfer``: those of ``tune`` but ``--initial-rho``, ``--from --range-length``.
* ``oracle-check``: ``--time-limit --mip-gap``.
* ``report``: run-summary paths; ``--out`` names the CSV file.

Settings come from defaults, an optional ``--config`` JSON file, and flags
(in that precedence); ``_SETTINGS`` declares each one.  One config file may
hold the settings of several subcommands.  Each artifact embeds the hash of
the effective config plus all seeds.  Exit codes: 0 success, 2 config error,
3 solve failure, 4 oracle mismatch.
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
from typing import Any, NamedTuple

import numpy as np

from . import __version__
from .dfo import ALGORITHMS, DfoConfig, DomainError
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


class _Setting(NamedTuple):
    default: Any
    kind: type = float
    low: float = -math.inf
    high: float = math.inf
    choices: tuple[str, ...] | None = None


#: Every setting a subcommand may read: its default, its type, its closed
#: range and, for a string, the choices its flag takes.  Every numeric value
#: must be finite; one whose default is None may also be null.  Ranges are
#: given only where nothing else rejects a value with a message: the ``gen``
#: settings the loader would reject in the written file, and the seed, which
#: numpy's generators take only non-negative.
_SETTINGS = {
    "aggregation": _Setting("approach2", str, choices=AGGREGATIONS),
    "dfo": _Setting("pattern", str, choices=tuple(ALGORITHMS)),
    "budget": _Setting(150, int),
    "seed": _Setting(0, int, low=0),
    "threads": _Setting(os.cpu_count() or 1, int),
    "time_limit": _Setting(60.0),
    "mip_gap": _Setting(1e-4),
    "final_mip_gap": _Setting(1e-6),
    "breakpoints": _Setting(8, int),
    "initial_rho": _Setting(",".join(f"{x:g}" for x in TunableParameters().to_array()), str),
    "range_length": _Setting(0.1),
    # gen settings
    "tasks": _Setting(2, int),
    "vessels": _Setting(None, int),
    "weeks": _Setting(1, int),
    "days": _Setting(7, int, low=1),
    "hours_per_day": _Setting(24, int, 1, 24),
    "demand_scale": _Setting(10.0, low=0),
    "max_duration": _Setting(2, int, low=1),
}

#: Flags that name files rather than settings; ``transfer`` adds ``--from``.
_PATH_FLAGS = {
    "config": "JSON config file; flags override its fields",
    "instance": "instance JSON path",
    "out": "output directory (or file for gen/report)",
}


class CliError(ValueError):
    pass


def _number(key: str, raw, setting: _Setting = _Setting(None)):
    """``raw`` read as ``key``: converted to the setting's type, finite and in
    its range, else CliError.  The default setting is any finite float.

    A bool is not a number, and an integer setting takes no fractional value.
    """
    kind, low, high = setting.kind, setting.low, setting.high
    try:
        if isinstance(raw, bool) or (kind is int and isinstance(raw, float) and not raw.is_integer()):
            raise TypeError
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"{key}: expected {kind.__name__}, got {raw!r}") from None
    if not (math.isfinite(value) and low <= value <= high):
        raise CliError(f"{key}: must be finite and lie in [{low}, {high}], got {raw!r}")
    return value


def _read_object(path, what: str) -> dict:
    """The JSON object in file ``path``, else CliError naming ``what``."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"{what} {path}: expected a JSON object, got {type(data).__name__}")
    return data


def _rho(key: str, raw) -> np.ndarray:
    """``raw`` read as the tuned parameters: a list of numbers or a
    comma-separated string of them, else CliError."""
    parts = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(parts, list):
        raise CliError(f"{key}: expected a list of numbers, got {raw!r}")
    return TunableParameters.from_array([_number(key, x) for x in parts]).to_array()


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _merge_config(args: argparse.Namespace) -> dict:
    """The subcommand's settings: each flag it declares, read from the flag,
    else from the ``--config`` file, else from the defaults; numbers converted."""
    flags = {k: v for k, v in vars(args).items() if k not in ("config", "func")}
    cfg = {key: _SETTINGS[key].default if key in _SETTINGS else None for key in flags}
    if args.config:
        loaded = _read_object(args.config, "config")
        unknown = set(loaded) - set(_SETTINGS) - {"instance", "mode", "out", "source"}
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        cfg.update((key, value) for key, value in loaded.items() if key in flags)
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    # in declared order, so that of several bad values the same one is reported
    for key, setting in _SETTINGS.items():
        if key not in cfg or setting.kind is str:
            continue
        if cfg[key] is not None or setting.default is not None:
            cfg[key] = _number(key, cfg[key], setting)
    return cfg


def _out_dir(cfg: dict, mode: str) -> Path:
    out = cfg.get("out") or f"runs/{mode}-seed{cfg['seed']}"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit(cfg: dict, mode: str, filename: str, payload: dict) -> None:
    """Write ``payload`` under the run header (mode, config hash, seed) to
    ``filename`` in the run's output directory, and echo it on stdout."""
    payload = {"mode": mode, "config_hash": _config_hash(cfg), "seed": cfg["seed"], **payload}
    _write_json(_out_dir(cfg, mode) / filename, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))


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


def _load(cfg: dict):
    if not cfg.get("instance"):
        raise CliError("an --instance file is required for this mode")
    return load_instance(cfg["instance"])


def _summary_payload(cfg: dict, trace, wall: float) -> dict:
    best = trace.best
    final = trace.final
    return {
        "instance": cfg.get("instance"),
        "aggregation": cfg["aggregation"],
        "dfo": trace.dfo_name,
        "budget": trace.budget,
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
    if cfg["max_duration"] > cfg["hours_per_day"]:
        raise CliError(
            f"max_duration {cfg['max_duration']} exceeds hours_per_day {cfg['hours_per_day']}: "
            "no task may last longer than a day"
        )
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
    _emit(cfg, "solve-full", "solve_report.json", {
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
    })
    if report.status in _FAILURE_STATUSES:
        return 3
    return 0


def _cmd_baseline(cfg: dict) -> int:
    network, scenarios, hpd = _load(cfg)
    problem = _make_problem(cfg, network, scenarios, hpd)
    t0 = time.perf_counter()
    result = evaluate(problem, _rho("initial_rho", cfg["initial_rho"]))
    wall = time.perf_counter() - t0
    _emit(cfg, "baseline", "summary.json", {
        "instance": cfg["instance"],
        "aggregation": cfg["aggregation"],
        "rho": list(result.rho),
        "objective": result.objective,
        "profit": -result.objective,
        "feasible": result.feasible,
        "wall_time": wall,
    })
    return 0


def _cmd_tune(cfg: dict) -> int:
    network, scenarios, hpd = _load(cfg)
    problem = _make_problem(cfg, network, scenarios, hpd, _options(cfg, "final_mip_gap"))
    config = DfoConfig(algorithm=cfg["dfo"], budget=cfg["budget"], seed=cfg["seed"])
    t0 = time.perf_counter()
    trace = tune(problem, config, initial_rho=_rho("initial_rho", cfg["initial_rho"]),
                 threads=cfg["threads"])
    wall = time.perf_counter() - t0
    emit_trace(trace, _out_dir(cfg, "tune") / "trace.csv")
    _emit(cfg, "tune", "summary.json", _summary_payload(cfg, trace, wall))
    return 0


def _cmd_transfer(cfg: dict) -> int:
    network, scenarios, hpd = _load(cfg)
    if not cfg.get("source"):
        raise CliError("--from run-summary path is required for transfer")
    prior = _rho("best_rho", _read_object(cfg["source"], "prior summary").get("best_rho"))
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
    emit_trace(trace, _out_dir(cfg, "transfer") / "trace.csv")
    payload = _summary_payload(cfg, trace, wall)
    payload["transfer_source"] = cfg["source"]
    payload["range_length"] = cfg["range_length"]
    payload["restriction_vacuous"] = trace.restricted_box is not None and (
        trace.restricted_box.lower == problem.bounds.lower
        and trace.restricted_box.upper == problem.bounds.upper
    )
    _emit(cfg, "transfer", "summary.json", payload)
    return 0


def _cmd_oracle_check(cfg: dict) -> int:
    seed = cfg["seed"]
    checks = []

    knap = ModelInstance("knapsack", "maximize")
    a = knap.add_variable("a", Kind.BINARY, 0, 1)
    b = knap.add_variable("b", Kind.BINARY, 0, 1)
    knap.add_objective_term(a, 3.0)
    knap.add_objective_term(b, 2.0)
    knap.add_constraint({a: 2.0, b: 2.0}, LE, 3.0)
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
    _emit(cfg, "oracle-check", "oracle_report.json", {"verdict": verdict, "checks": rows})
    return 0 if verdict == "match" else 4


def _cmd_report(cfg: dict) -> int:
    paths = sorted(cfg["summaries"])
    if not paths:
        raise CliError("report needs at least one run-summary path")
    rows = []
    for path in paths:
        data = _read_object(path, "summary")
        rho = data.get("best_rho", data.get("rho"))
        if isinstance(rho, list):
            rho = [_number(f"{path}: best_rho", v) for v in rho]
        rows.append(
            {
                "run": path,
                "mode": data.get("mode", "?"),
                "best_objective": data.get("best_objective", data.get("objective")),
                "best_rho": rho,
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


_SOLVE_FLAGS = ("config", "instance", "seed", "out", "time_limit", "mip_gap", "breakpoints")
_TWO_LEVEL_FLAGS = _SOLVE_FLAGS + ("aggregation",)
_SEARCH_FLAGS = _TWO_LEVEL_FLAGS + ("final_mip_gap", "threads", "dfo", "budget")


def _add_flags(p: argparse.ArgumentParser, names) -> None:
    """Declare ``--name-with-dashes`` for each setting or path flag; values stay
    strings until ``_merge_config`` converts them."""
    for name in names:
        flag = "--" + name.replace("_", "-")
        if name in _PATH_FLAGS:
            p.add_argument(flag, dest=name, help=_PATH_FLAGS[name])
        else:
            p.add_argument(flag, dest=name, choices=_SETTINGS[name].choices)


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
