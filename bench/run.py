"""End-to-end benchmark of hiertune: tuning, transfer and full-space solving.

    python3 bench/run.py --workload pso-threads --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each one exists):

* ``pso-threads``      ``engine.tune`` with PSO on 2 threads, approach1, 2 breakpoints.
* ``pattern-transfer`` ``engine.tune`` with pattern search, approach2, 3
  breakpoints, then ``engine.transfer_tune`` onto a 3-week instance.
* ``full-space``       ``milp.solve_model`` on the monolithic models of a fixed
  set of instances.

A run repeats whole rounds until ``--seconds`` have passed.  Every round
re-imports ``hiertune`` and writes, loads and builds its instances (the
set-up), then runs the workload's commands (timed), then checks every output
against HiGHS references (untimed).  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``; with ``--trace 1`` untraced and traced rounds alternate and the
per-layer metrics come from the spans of the traced ones.

Instances and outputs are written under ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from reference import reference_optimum
from spans import Recorder, instrument, self_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The generated instance family: one seeded chain network per task count,
# 2-day weeks of 3 hours per day; the k-th week's demand comes from seed 12 + k,
# so the 3-week instance extends the 2-week one by one week.
GEN_ARGS = ["--seed", "11", "--days", "2", "--hours-per-day", "3", "--demand-scale", "6",
            "--max-duration", "1"]
INSTANCES = {"chain1-2w": (1, 2), "chain1-3w": (1, 3), "chain2-2w": (2, 2)}  # (tasks, weeks)

# The CLI defaults for solves and the tight final re-solve.
MIP_GAP = 1e-4
FINAL_GAP = 1e-6
TIME_LIMIT = 60.0
DEFAULT_RHO = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

# A solve with one of these statuses stopped on a limit or broke down.
LIMIT_STATUSES = ("feasible-gap", "time-limit-no-incumbent")
FAILED_STATUSES = LIMIT_STATUSES + ("numerical-failure",)


@dataclass
class Outcome:
    """What one round's checks found."""

    attempted: int = 0
    failed: int = 0
    evals: int = 0  # unique evaluations, or full-space solves, completed
    profit: float = float("nan")
    problems: list[str] = field(default_factory=list)  # round-level checks that failed

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed operation: {what}", file=sys.stderr)


@dataclass
class Round:
    index: int
    traced: bool
    setup_s: float
    wall_s: float
    eval_times: list[float]
    outcome: Outcome


# ---------------------------------------------------------------------------
# the program under test


def fresh_import() -> tuple[types.SimpleNamespace, float]:
    """Import ``hiertune`` from scratch; returns its modules and the import time."""
    for name in [n for n in sys.modules if n == "hiertune" or n.startswith("hiertune.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    cli = importlib.import_module("hiertune.cli")
    import_s = time.perf_counter() - t0
    origin = Path(sys.modules["hiertune"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"hiertune imported from {origin}, not from {SRC}")
    mods = {n: sys.modules[f"hiertune.{n}"] for n in ("engine", "rtn", "milp", "model", "dfo", "instances")}
    return types.SimpleNamespace(cli=cli, **mods), import_s


def write_instance(pkg, out: Path, name: str) -> Path:
    tasks, weeks = INSTANCES[name]
    path = out / f"{name}.json"
    argv = ["gen", *GEN_ARGS, "--tasks", str(tasks), "--weeks", str(weeks), "--out", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = pkg.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hiertune gen exited with {code} for {name}")
    return path


def load(pkg, rec, path: Path):
    t0 = time.perf_counter()
    network, scenarios, hpd = pkg.instances.load_instance(path)
    if rec.active:
        rec.add("instances.load", t0, time.perf_counter(), path=path.name)
    return types.SimpleNamespace(network=network, scenarios=scenarios, hpd=hpd)


def options(pkg, gap: float):
    return pkg.model.SolveOptions(time_limit=TIME_LIMIT, mip_gap=gap)


def time_evaluations(pkg, sink: list[float]) -> None:
    """Append the wall time of every ``engine.evaluate`` call to ``sink``."""
    evaluate = pkg.engine.evaluate

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return evaluate(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)

    pkg.engine.evaluate = timed


def two_level(pkg, inst, aggregation: str, breakpoints: int):
    return pkg.rtn.make_two_level_problem(
        inst.network,
        inst.scenarios,
        aggregation=aggregation,
        hours_per_day=inst.hpd,
        n_breakpoints=breakpoints,
        high_options=options(pkg, MIP_GAP),
        low_options=options(pkg, MIP_GAP),
        final_low_options=options(pkg, FINAL_GAP),
    )


# ---------------------------------------------------------------------------
# checks against references computed apart from the program


class References:
    """HiGHS optima of models that every round builds alike, solved once per run."""

    def __init__(self):
        self.cache: dict = {}

    def optimum(self, key, build) -> float:
        """Minimize-oriented optimum of the model ``build()`` returns."""
        if key not in self.cache:
            model = build()
            self.cache[key] = oriented(model, reference_optimum(model))
        return self.cache[key]

    def full_space(self, pkg, name: str, inst, breakpoints: int) -> float:
        """Optimum of the multi-week full-space model of instance ``name``."""
        return self.optimum(
            (name, breakpoints),
            lambda: pkg.rtn.build_multiweek_full_space(inst.network, inst.scenarios, inst.hpd, breakpoints),
        )


def oriented(model, value: float) -> float:
    return -value if model.sense.value == "maximize" else value


def solve_failed(report) -> bool:
    return report is not None and report.status.value in FAILED_STATUSES


def check_tune(pkg, out: Outcome, label: str, trace, budget: int, inst, breakpoints: int,
               full_optimum: float) -> float:
    """Checks one ``tune`` or ``transfer_tune`` trace, ``budget`` + 1 operations.

    Returns the profit of the tuned design, NaN when its re-solve failed.
    """
    results = trace.results
    if len(results) != budget:
        out.problems.append(f"{label}: {len(results)} evaluations for a budget of {budget}")
    best = trace.best_so_far()
    if any(b > a for a, b in zip(best, best[1:])):
        out.problems.append(f"{label}: best_so_far increases")
    # a fixed design is a feasible full-space point, so no evaluation beats the optimum
    floor = full_optimum - 1e-6 * max(1.0, abs(full_optimum))
    for k in range(budget):
        r = results[k] if k < len(results) else None
        ok = (
            r is not None
            and not solve_failed(r.high_report)
            and not any(solve_failed(rep) for rep in r.low_reports)
            and r.objective >= floor
        )
        out.op(ok, f"{label} evaluation {k}")
    out.evals += len(results)

    final = trace.final
    ok = (
        final is not None
        and final.feasible
        and not solve_failed(final.high_report)
        and not any(solve_failed(rep) for rep in final.low_reports)
    )
    if ok:
        want, tol = 0.0, 1e-7
        for weight, model in pkg.rtn.decompose_by_week(
            inst.network, inst.scenarios, final.decision, inst.hpd, breakpoints
        ):
            ref = oriented(model, reference_optimum(model))
            want += weight * ref
            tol += weight * FINAL_GAP * max(1.0, abs(ref))
        ok = abs(final.objective - want) <= tol
    out.op(ok, f"{label} final re-solve")
    return -final.objective if ok else float("nan")


# ---------------------------------------------------------------------------
# workloads


class PsoThreads:
    name = "pso-threads"
    non_high_level = "low"
    threads = 2
    budget = 20
    breakpoints = 2

    def setup(self, pkg, rec, out, eval_times):
        time_evaluations(pkg, eval_times)
        inst = load(pkg, rec, write_instance(pkg, out, "chain1-2w"))
        return types.SimpleNamespace(inst=inst, problem=two_level(pkg, inst, "approach1", self.breakpoints))

    def commands(self, pkg, st, seed):
        config = pkg.dfo.DfoConfig("pso", self.budget, seed=seed)
        return pkg.engine.tune(st.problem, config, initial_rho=DEFAULT_RHO, threads=self.threads)

    def check(self, pkg, st, trace, refs, out):
        optimum = refs.full_space(pkg, "chain1-2w", st.inst, self.breakpoints)
        out.profit = check_tune(pkg, out, "tune", trace, self.budget, st.inst, self.breakpoints, optimum)

    def ops(self):
        return self.budget + 1


class PatternTransfer:
    name = "pattern-transfer"
    non_high_level = "low"
    threads = 1
    budget = 14
    transfer_budget = 6
    range_length = 0.1
    breakpoints = 3

    def setup(self, pkg, rec, out, eval_times):
        time_evaluations(pkg, eval_times)
        src = load(pkg, rec, write_instance(pkg, out, "chain1-2w"))
        dst = load(pkg, rec, write_instance(pkg, out, "chain1-3w"))
        return types.SimpleNamespace(
            src=src,
            dst=dst,
            src_problem=two_level(pkg, src, "approach2", self.breakpoints),
            dst_problem=two_level(pkg, dst, "approach2", self.breakpoints),
        )

    def commands(self, pkg, st, seed):
        config = pkg.dfo.DfoConfig("pattern", self.budget, seed=seed)
        tuned = pkg.engine.tune(st.src_problem, config, initial_rho=DEFAULT_RHO, threads=self.threads)
        moved = pkg.engine.transfer_tune(
            st.dst_problem,
            tuned.best.rho,
            range_fraction=self.range_length,
            budget=self.transfer_budget,
            seed=seed + 1,
            algorithm="pattern",
            threads=self.threads,
        )
        return tuned, moved

    def check(self, pkg, st, result, refs, out):
        tuned, moved = result
        bp = self.breakpoints
        check_tune(pkg, out, "tune", tuned, self.budget, st.src, bp,
                   refs.full_space(pkg, "chain1-2w", st.src, bp))
        out.profit = check_tune(pkg, out, "transfer", moved, self.transfer_budget, st.dst, bp,
                   refs.full_space(pkg, "chain1-3w", st.dst, bp))
        box, full = moved.restricted_box, st.dst_problem.bounds
        if box is None:
            out.problems.append("transfer: no restricted box recorded")
            return
        sides = [u - lo for lo, u in zip(box.lower, box.upper)]
        widths = [u - lo for lo, u in zip(full.lower, full.upper)]
        if any(s > self.range_length * w + 1e-9 for s, w in zip(sides, widths)):
            out.problems.append(f"transfer: box sides {sides} exceed {self.range_length} x {widths}")
        if not (full.contains(box.lower) and full.contains(box.upper)):
            out.problems.append("transfer: restricted box leaves the parameter box")
        if not all(box.contains(r.rho, tol=0.0) for r in moved.results):
            out.problems.append("transfer: an evaluated rho lies outside the restricted box")

    def ops(self):
        return self.budget + self.transfer_budget + 2


class FullSpace:
    name = "full-space"
    non_high_level = "full"
    threads = 1
    # (label, instance, week or None for all weeks, breakpoints)
    models = [
        ("chain1-2w.week0", "chain1-2w", 0, 3),
        ("chain1-2w.week1", "chain1-2w", 1, 3),
        ("chain1-2w", "chain1-2w", None, 3),
        ("chain2-2w.week0", "chain2-2w", 0, 2),
        ("chain2-2w.week1", "chain2-2w", 1, 2),
    ]

    def setup(self, pkg, rec, out, eval_times):
        insts = {n: load(pkg, rec, write_instance(pkg, out, n)) for n in ("chain1-2w", "chain2-2w")}
        built = {}
        for label, name, week, bp in self.models:
            inst = insts[name]
            if week is None:
                built[label] = pkg.rtn.build_multiweek_full_space(inst.network, inst.scenarios, inst.hpd, bp)
            else:
                built[label] = pkg.rtn.build_full_space(inst.network, inst.scenarios.weeks[week], inst.hpd, bp)
        return types.SimpleNamespace(models=built, times=eval_times)

    def commands(self, pkg, st, seed):
        order = [label for label, *_ in self.models]
        random.Random(seed).shuffle(order)
        reports = {}
        for label in order:
            t0 = time.perf_counter()
            reports[label] = pkg.milp.solve_model(st.models[label], options(pkg, MIP_GAP))
            st.times.append(time.perf_counter() - t0)
        return reports

    def check(self, pkg, st, reports, refs, out):
        profit = 0.0
        for label, model in st.models.items():
            rep = reports[label]
            ref = refs.optimum(label, lambda: model)
            ok = rep.status.value == "optimal" and rep.incumbent is not None
            if ok:
                got = oriented(model, rep.incumbent.objective)
                ok = abs(got - ref) <= MIP_GAP * max(1.0, abs(ref)) + 1e-7
                profit -= got
            out.op(ok, f"solve {label}")
            out.evals += 1
        out.profit = profit

    def ops(self):
        return len(self.models)


WORKLOADS = {w.name: w for w in (PsoThreads(), PatternTransfer(), FullSpace())}


# ---------------------------------------------------------------------------
# rounds


def run_round(workload, index: int, traced: bool, rec, seed: int, refs, out: Path) -> Round:
    rec.round = index
    rec.active = False
    t0 = time.perf_counter()
    pkg, import_s = fresh_import()
    t1 = time.perf_counter()
    eval_times: list[float] = []
    if traced:
        rec.active = True
        rec.add("cli.import", t0, t0 + import_s)
        instrument(rec, pkg)
    t2 = time.perf_counter()
    state = workload.setup(pkg, rec, out, eval_times)
    t3 = time.perf_counter()
    setup_s = (t1 - t0) + (t3 - t2)

    outcome = Outcome()
    try:
        result = workload.commands(pkg, state, seed)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        result = None
    t4 = time.perf_counter()
    rec.active = False
    if result is None:
        outcome.attempted = outcome.failed = workload.ops()
    else:
        workload.check(pkg, state, result, refs, outcome)
    return Round(index, traced, setup_s, t4 - t3, eval_times, outcome)


def _median(values) -> float:
    """Median of the values that exist; 0 when a failure left none."""
    values = [v for v in values if v == v]
    return statistics.median(values) if values else 0.0


def end_to_end(rounds: list[Round], peak_rss_mb: float) -> dict:
    return {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "evals_per_s": (statistics.median(r.outcome.evals / r.wall_s for r in rounds), "1/s"),
        # the mean call of a round, since one round's calls differ in size
        "eval_s": (_median(statistics.fmean(r.eval_times) for r in rounds if r.eval_times), "s"),
        "profit": (_median(r.outcome.profit for r in rounds), "units"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(workload, rounds: list[Round], spans: list[dict]) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, list[dict]] = defaultdict(list)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def per_round(name, value=dur, where=lambda s: True):
        return sum(value(s) for s in by_name[name] if where(s)) / n

    def median_per_round(name):
        return statistics.median(
            sum(dur(s) for s in by_name[name] if s["round"] == r.index) for r in traced
        )

    def at(level):
        return lambda s: s["attrs"].get("level") == level

    def attr(key):
        return lambda s: s["attrs"].get(key, 0)

    def under_dfo(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == "engine.run_dfo":
                return True
        return False

    lowered_low = [s["attrs"]["extra_binaries"] for s in by_name["model.lowered"] if at("low")(s)]
    designs = [
        len({s["attrs"]["design"] for s in by_name["engine.evaluate"]
             if s["round"] == r.index and s["attrs"].get("design") is not None})
        for r in traced
    ]
    lp_spans = by_name["simplex.solve_lp_csc"]
    lp_iters = sum(s["attrs"]["iterations"] for s in lp_spans)
    busy = sum(dur(s) for s in by_name["engine.evaluate"])
    commands = sum(r.wall_s for r in traced)
    metrics = {
        "cli.import_s": (median_per_round("cli.import"), "s"),
        "instances.load_s": (median_per_round("instances.load"), "s"),
        "rtn.build_high_s": (per_round("rtn.build_high_level"), "s"),
        "rtn.build_low_s": (per_round("rtn.decompose_by_week"), "s"),
        "model.lower_s": (per_round("model.lowered"), "s"),
        "model.low_pwl_binaries": (statistics.median(lowered_low) if lowered_low else 0, "count"),
        "milp.high_solve_s": (per_round("milp.solve_milp", where=at("high")), "s"),
        "milp.low_solve_s": (per_round("milp.solve_milp", where=at("low")), "s"),
        "milp.full_solve_s": (per_round("milp.solve_milp", where=at("full")), "s"),
        "milp.nodes_high": (per_round("milp.solve_milp", attr("nodes"), at("high")), "count"),
        "milp.nodes_low": (per_round("milp.solve_milp", attr("nodes"), at("low")), "count"),
        "milp.nodes_full": (per_round("milp.solve_milp", attr("nodes"), at("full")), "count"),
        "milp.lp_iterations": (per_round("milp.solve_milp", attr("lp_iterations")), "count"),
        "milp.limit_hits": (
            sum(1 for s in by_name["milp.solve_milp"] if s["attrs"].get("status") in LIMIT_STATUSES),
            "count",
        ),
        "simplex.lp_calls": (len(lp_spans) / n, "count"),
        "simplex.iterations": (lp_iters / n, "count"),
        "simplex.s_per_iteration": (sum(dur(s) for s in lp_spans) / lp_iters if lp_iters else 0.0, "s"),
        "engine.evals": (len(by_name["engine.evaluate"]) / n, "count"),
        "engine.high_s": (
            per_round("rtn.build_high_level") + per_round("engine.solve_model", where=at("high")), "s"
        ),
        "engine.low_s": (
            per_round("rtn.decompose_by_week") + per_round("engine.solve_model", where=at("low")), "s"
        ),
        "engine.final_s": (
            per_round("engine.evaluate", where=lambda s: not under_dfo(s)), "s"
        ),
        "engine.cache_hits": (per_round("dfo.batch", attr("cache_hits")), "count"),
        "engine.distinct_designs": (statistics.median(designs), "count"),
        "engine.parallel_efficiency": (busy / (commands * workload.threads), "ratio"),
        "dfo.batches": (len(by_name["dfo.batch"]) / n, "count"),
        "dfo.points_requested": (per_round("dfo.batch", attr("points")), "count"),
        "dfo.self_s": (
            sum(self_time(s, children[s["id"]]) for s in by_name["engine.run_dfo"]) / n, "s"
        ),
        "trace.overhead_s": (
            statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain),
            "s",
        ),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hiertune" / "__init__.py").is_file():
        print(f"no hiertune sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    rec = Recorder(workload.non_high_level)
    refs = References()
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(workload, len(rounds), traced, rec, args.seed, refs, out))
        r = rounds[-1]
        print(
            f"{workload.name} round {r.index}{' traced' if traced else ''}: setup {r.setup_s:.3f} s, "
            f"commands {r.wall_s:.3f} s, {r.outcome.failed}/{r.outcome.attempted} failed",
            file=sys.stderr,
        )
        enough = time.perf_counter() - start >= args.seconds
        if enough and (not args.trace or len(rounds) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [p for r in rounds for p in r.outcome.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        rec.dump(out / "spans.jsonl")
        metrics = per_layer(workload, rounds, rec.spans)
    else:
        metrics = end_to_end(rounds, peak_rss_mb)
    result = {
        "correct": not problems,
        "attempted": sum(r.outcome.attempted for r in rounds),
        "failed": sum(r.outcome.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "environment": environment(),
        "rounds": [
            {"index": r.index, "traced": r.traced, "setup_s": r.setup_s, "wall_s": r.wall_s,
             "attempted": r.outcome.attempted, "failed": r.outcome.failed,
             "evals": r.outcome.evals, "profit": r.outcome.profit}
            for r in rounds
        ],
        "problems": problems,
        "result": result,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


if __name__ == "__main__":
    sys.exit(main())
