"""In-memory span recorder that wraps hiertune's public functions from outside.

A span is ``(id, parent, name, thread, start, end, attrs)``.  Spans are kept in
a list and written out once, at the end of the run.  A span opened on a worker
thread with nothing open on that thread takes as parent the innermost span
open on the main thread, so an ``engine.evaluate`` run on the pool hangs under
the ``dfo.batch`` that dispatched it.

``instrument`` patches the module attributes through which the program calls
its own layers; it is applied to a freshly imported ``hiertune`` in every
traced round and nothing is restored, because each round re-imports the
package.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Recorder:
    """The spans of one benchmark run, tagged with the round they belong to."""

    def __init__(self, non_high_level: str):
        # level given to models that are not the high level: "low" on the
        # tune workloads, "full" on the full-space workload
        self.non_high_level = non_high_level
        self.spans: list[dict] = []
        self.round = -1
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self.evaluate_calls = 0
        # off while the benchmark checks outputs, so reference solves that
        # lower models through the same class leave no spans
        self.active = True

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span = {
                "id": next(self._ids),
                "parent": parent,
                "name": name,
                "round": self.round,
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
                "end": None,
                "attrs": attrs,
            }
        stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span the caller timed itself, under the open main-thread span."""
        span = self.open(name, **attrs)
        self.close(span)
        span["start"], span["end"] = start, end

    def level(self, model) -> str:
        return "high" if model.name.startswith("rtn-high") else self.non_high_level

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _wrap(rec: Recorder, name: str, fn, before=None, after=None):
    """Span around ``fn``; ``before(args, kwargs)`` gives attrs at entry,
    ``after(span, result)`` adds attrs from the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        span = rec.open(name, **(before(args, kwargs) if before else {}))
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["attrs"]["raised"] = type(exc).__name__
            raise
        finally:
            rec.close(span)
        if after:
            after(span, result)
        return result

    return wrapper


def _design_key(decision):
    if decision is None:
        return None
    return (
        tuple(sorted((k, round(v, 9)) for k, v in decision.vessel_size.items())),
        tuple(sorted((k, round(v, 9)) for k, v in decision.storage_size.items())),
    )


def instrument(rec: Recorder, pkg) -> None:
    """Wrap the layer boundaries of one imported ``hiertune``.

    ``pkg`` exposes the modules ``engine``, ``rtn``, ``model`` and ``milp``.
    """
    engine, rtn, model, milp = pkg.engine, pkg.rtn, pkg.model, pkg.milp

    def after_evaluate(span, result):
        span["attrs"]["design"] = _design_key(result.decision)
        span["attrs"]["objective"] = result.objective

    def before_evaluate(args, kwargs):
        with rec._lock:
            rec.evaluate_calls += 1
        return {}

    engine.evaluate = _wrap(rec, "engine.evaluate", engine.evaluate, before_evaluate, after_evaluate)
    engine.solve_model = _wrap(
        rec, "engine.solve_model", engine.solve_model, lambda a, k: {"level": rec.level(a[0])}
    )

    run_dfo = engine.run_dfo

    @functools.wraps(run_dfo)
    def traced_run_dfo(objective, domain, config, x0=None, batch=None):
        if batch is not None:
            batch = _traced_batch(rec, batch)
        span = rec.open("engine.run_dfo")
        try:
            return run_dfo(objective, domain, config, x0=x0, batch=batch)
        finally:
            rec.close(span)

    engine.run_dfo = traced_run_dfo
    rtn.build_high_level = _wrap(rec, "rtn.build_high_level", rtn.build_high_level)
    rtn.decompose_by_week = _wrap(rec, "rtn.decompose_by_week", rtn.decompose_by_week)

    lowered = model.ModelInstance.lowered

    def after_lowered(span, out):
        span["attrs"]["extra_binaries"] = sum(
            1 for v in out.variables if v.kind is model.Kind.BINARY
        ) - span["attrs"].pop("binaries")

    def before_lowered(args, kwargs):
        m = args[0]
        return {
            "level": rec.level(m),
            "binaries": sum(1 for v in m.variables if v.kind is model.Kind.BINARY),
        }

    model.ModelInstance.lowered = _wrap(rec, "model.lowered", lowered, before_lowered, after_lowered)

    def after_solve(span, report):
        span["attrs"].update(
            nodes=report.nodes, lp_iterations=report.lp_iterations, status=report.status.value
        )

    milp.solve_milp = _wrap(
        rec, "milp.solve_milp", milp.solve_milp, lambda a, k: {"level": rec.level(a[0])}, after_solve
    )

    def after_lp(span, result):
        span["attrs"]["iterations"] = int(result[3])

    milp.solve_lp_csc = _wrap(rec, "simplex.solve_lp_csc", milp.solve_lp_csc, after=after_lp)


def _traced_batch(rec: Recorder, batch):
    @functools.wraps(batch)
    def traced(points):
        before = rec.evaluate_calls
        span = rec.open("dfo.batch", points=len(points))
        try:
            values = batch(points)
        except BaseException as exc:
            # the budget ran out inside this batch: its points got no answer
            span["attrs"]["raised"] = type(exc).__name__
            span["attrs"]["cache_hits"] = 0
            raise
        finally:
            rec.close(span)
        span["attrs"]["cache_hits"] = len(points) - (rec.evaluate_calls - before)
        return values

    return traced


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that its children cover."""
    covered = 0.0
    cur_start = cur_end = None
    for child in sorted(children, key=lambda c: c["start"]):
        s, e = max(child["start"], span["start"]), min(child["end"], span["end"])
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return (span["end"] - span["start"]) - covered
