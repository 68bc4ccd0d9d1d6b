"""Two-level black-box evaluation and parameter tuning.

One evaluation solves the parameterized high-level model, extracts the
decisions shared with the low level, solves every fixed-decision low-level
sub-model, and reports the weighted true objective (minimize orientation;
maximize models are negated).  Any infeasible or incumbent-less stage maps
to a large positive sentinel so the derivative-free tuner can keep going.

``tune`` drives a DFO over the parameter box recording every unique
evaluation, ``transfer_tune`` restricts the box around a previously tuned
vector, and ``emit_trace`` writes the plot-ready CSV.

Within one ``tune`` call two caches, both keyed exactly (no rounding), keep
repeated work out of the loop:

* the parameter cache lives in the DFO's evaluator (``dfo.run_dfo``): a
  repeated parameter vector is answered there without an evaluation and
  without spending budget, so ``tune``'s batch sees only unseen vectors;
* the design cache lives here and keys on the extracted decision; the weekly
  low-level models of a decision are solved once, and every later evaluation
  whose decision compares equal reuses their objective, feasibility and
  reports.

The final re-solve of the best point uses other options and bypasses the
design cache.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .dfo import BoxDomain, DfoConfig, DomainError, run_dfo
from .milp import SolveReport, solve_model
from .model import ModelInstance, Sense, Solution, SolveOptions, Status

__all__ = [
    "TwoLevelProblem",
    "EvalResult",
    "TuningTrace",
    "evaluate",
    "tune",
    "transfer_tune",
    "emit_trace",
    "SENTINEL",
]

SENTINEL = 1e10

_USABLE = (Status.OPTIMAL, Status.FEASIBLE_GAP)


@dataclass
class TwoLevelProblem:
    """The pair of model builders wrapped as a black box over parameters.

    ``build_high(rho)`` returns the parameterized high-level model;
    ``extract(model, solution)`` pulls the decisions to pin; ``build_lows``
    returns weighted low-level sub-models for those decisions.  Decisions
    must be hashable, and decisions that compare equal must give the same
    low-level models: ``tune`` solves them once per distinct decision.
    Weights must be positive and sum to 1.  An evaluation with no usable
    solve scores ``SENTINEL``, which must exceed any attainable true
    objective (the problem author's responsibility).
    """

    bounds: BoxDomain
    build_high: Callable[[np.ndarray], ModelInstance]
    extract: Callable[[ModelInstance, Solution], Any]
    build_lows: Callable[[Any], Sequence[tuple[float, ModelInstance]]]
    high_options: SolveOptions = SolveOptions()
    low_options: SolveOptions = SolveOptions()
    # tighter options for the one extra re-solve of the best point
    final_low_options: SolveOptions | None = None


@dataclass
class EvalResult:
    """One black-box evaluation: parameters in, true objective out."""

    rho: tuple[float, ...]
    objective: float
    feasible: bool
    decision: Any
    high_report: SolveReport | None
    low_reports: list[SolveReport]
    time_high: float
    time_low: float
    index: int = 0
    # seconds from the start of the ``tune`` call to the end of this
    # evaluation, on one monotonic clock; 0 outside ``tune``
    finished_at: float = 0.0
    # a lower-index evaluation of the same ``tune`` call had an equal decision
    design_hit: bool = False


@dataclass
class TuningTrace:
    """Every evaluation of one tuning run, in request order."""

    results: list[EvalResult]
    seed: int
    dfo_name: str
    budget: int
    final: EvalResult | None = None
    restricted_box: BoxDomain | None = None

    @property
    def best(self) -> EvalResult:
        # earliest evaluation wins ties
        return min(self.results, key=lambda r: (r.objective, r.index))

    def best_so_far(self) -> list[float]:
        out, cur = [], math.inf
        for r in self.results:
            cur = min(cur, r.objective)
            out.append(cur)
        return out


def _oriented(report: SolveReport, model: ModelInstance) -> float:
    obj = report.incumbent.objective
    return -obj if model.sense is Sense.MAXIMIZE else obj


@dataclass(frozen=True)
class _Weekly:
    """The low-level part of an evaluation: what one decision scores."""

    objective: float
    feasible: bool
    reports: tuple[SolveReport, ...]


def _solve_lows(problem: TwoLevelProblem, decision: Any) -> _Weekly:
    reports: list[SolveReport] = []
    objective = 0.0
    for weight, low_model in problem.build_lows(decision):
        rep = solve_model(low_model, problem.low_options)
        reports.append(rep)
        if rep.status not in _USABLE:
            return _Weekly(SENTINEL, False, tuple(reports))
        objective += weight * _oriented(rep, low_model)
    return _Weekly(objective, True, tuple(reports))


class _DesignCache:
    """Weekly low-level results per decision, each solved once.

    A decision that another thread is solving is waited for; an exception
    raised while solving it reaches every evaluation that asks for it.
    """

    def __init__(self, problem: TwoLevelProblem):
        self.problem = problem
        self.lock = threading.Lock()
        self.entries: dict[Any, Future] = {}

    def __call__(self, decision: Any) -> _Weekly:
        with self.lock:
            entry = self.entries.get(decision)
            owner = entry is None
            if owner:
                entry = self.entries[decision] = Future()
        if owner:
            try:
                entry.set_result(_solve_lows(self.problem, decision))
            except BaseException as exc:
                entry.set_exception(exc)
        return entry.result()


def evaluate(
    problem: TwoLevelProblem,
    rho: Sequence[float],
    index: int = 0,
    designs: _DesignCache | None = None,
) -> EvalResult:
    """One pass through the hierarchy at parameters ``rho``.

    ``rho`` must lie inside the declared box (points outside are a caller
    error, distinct from model infeasibility, which yields the sentinel).
    With ``designs``, the low-level results come from that cache.
    """
    problem.bounds.require(rho)
    rho = np.asarray(rho, dtype=float)
    rho_t = tuple(float(x) for x in rho)

    t0 = time.perf_counter()
    high_model = problem.build_high(rho)
    high_report = solve_model(high_model, problem.high_options)
    t_high = time.perf_counter() - t0
    if high_report.status not in _USABLE:
        return EvalResult(rho_t, SENTINEL, False, None, high_report, [], t_high, 0.0, index)

    decision = problem.extract(high_model, high_report.incumbent)
    t1 = time.perf_counter()
    weekly = _solve_lows(problem, decision) if designs is None else designs(decision)
    t_low = time.perf_counter() - t1
    return EvalResult(
        rho_t, weekly.objective, weekly.feasible, decision,
        high_report, list(weekly.reports), t_high, t_low, index,
    )


def tune(
    problem: TwoLevelProblem,
    config: DfoConfig,
    initial_rho: Sequence[float] | None = None,
    threads: int = 1,
) -> TuningTrace:
    """Drive the configured DFO over the box, recording every evaluation.

    The budget counts unique black-box evaluations.  The DFO's evaluator
    answers a repeated parameter vector from its cache without consuming
    budget, and stops a search that only revisits cached vectors (see
    ``dfo.run_dfo``); the batch it calls here receives only unseen vectors,
    which run on ``threads`` threads, the calling thread among them.  An
    evaluation whose extracted decision equals an earlier one's takes its
    low-level results from the design cache and is marked ``design_hit``.
    After the search, the best point is re-solved once at the problem's
    tighter final options when those are set; that re-solve bypasses the
    design cache.
    """
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    if initial_rho is not None:
        problem.bounds.require(initial_rho)
    designs = _DesignCache(problem)
    results: list[EvalResult] = []
    started = time.perf_counter()

    def batch(points: list[np.ndarray]) -> list[float]:
        start = len(results)
        evaluated: list = [None] * len(points)
        claim = itertools.count()

        def drain() -> None:
            # next() on a count is one C call, so no slot is claimed twice
            while (k := next(claim)) < len(points):
                res = evaluate(problem, points[k], index=start + k, designs=designs)
                res.finished_at = time.perf_counter() - started
                evaluated[k] = res

        # the calling thread takes a share too: one worker thread fewer
        # is one malloc arena fewer for HiGHS to leave memory in
        helpers = min(threads, len(points)) - 1
        with ThreadPoolExecutor(max_workers=max(helpers, 1)) as pool:
            futures = [pool.submit(drain) for _ in range(helpers)]
            drain()
            for f in futures:
                f.result()
        results.extend(evaluated)
        return [r.objective for r in evaluated]

    run_dfo(None, problem.bounds, config, x0=initial_rho, batch=batch)
    seen = set()
    for r in results:
        if r.decision is not None:
            r.design_hit = r.decision in seen
            seen.add(r.decision)
    trace = TuningTrace(results, config.seed, config.algorithm, config.budget)
    if problem.final_low_options is not None and results:
        best = trace.best
        if best.feasible:
            tight = dataclasses.replace(problem, low_options=problem.final_low_options)
            trace.final = evaluate(tight, np.array(best.rho), index=len(results))
    return trace


def transfer_tune(
    problem: TwoLevelProblem,
    prior_best: Sequence[float],
    range_fraction: float = 0.1,
    budget: int = 20,
    seed: int = 0,
    algorithm: str = "pattern",
    threads: int = 1,
) -> TuningTrace:
    """Re-tune inside a small box centered on parameters tuned elsewhere.

    The search box is the original box intersected with a per-dimension
    hypercube whose side is ``range_fraction`` of that dimension's width,
    centered at ``prior_best``; the center is the start point.
    """
    problem.bounds.require(prior_best)
    sub = problem.bounds.shrink_around(prior_best, range_fraction)
    restricted = dataclasses.replace(problem, bounds=sub)
    config = DfoConfig(algorithm=algorithm, budget=budget, seed=seed)
    trace = tune(restricted, config, initial_rho=sub.clip(prior_best), threads=threads)
    trace.restricted_box = sub
    return trace


def emit_trace(trace: TuningTrace, path) -> None:
    """Plot-ready CSV: one row per evaluation plus running-best and clock columns.

    ``cumulative_wall_time`` is the running maximum of the evaluations' end
    stamps, so it never exceeds the real time the tuning run took.
    ``design_cache_hit`` is 1 when the row's low-level results came from an
    earlier evaluation with an equal decision.
    """
    if not trace.results:
        raise ValueError("cannot emit an empty trace")
    dim = len(trace.results[0].rho)
    header = (
        ["evaluation"]
        + [f"rho_{k + 1}" for k in range(dim)]
        + ["objective", "feasible", "best_so_far", "cumulative_wall_time", "design_cache_hit"]
    )
    best = trace.best_so_far()
    clock = 0.0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r, b in zip(trace.results, best):
            clock = max(clock, r.finished_at)
            writer.writerow(
                [r.index]
                + [repr(c) for c in r.rho]
                + [repr(r.objective), int(r.feasible), repr(b), repr(clock), int(r.design_hit)]
            )
