"""MILP solving with HiGHS, and the enumeration oracle that checks it.

``solve_milp`` solves a model through ``scipy.optimize.milp`` and maps
HiGHS's result onto :class:`SolveReport`, objective constant included.
``brute_force_milp`` is the exhaustive-enumeration oracle that verifies it on
tiny instances: it solves each integer assignment's LP with the dense simplex
of :mod:`hiertune.simplex`, so it shares no code with the solver it checks.
On a model without integers it is a plain LP solve.  SciPy is imported on the
first HiGHS solve, not with the package: it takes longer to load than the
rest of ``hiertune``, and commands that never solve (``gen``, ``report``)
should not pay for it.

All solves are deterministic for a fixed (model, options) pair as long as no
time limit stops them; wall time is the only report field that varies
between runs.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .model import (
    EQ,
    GE,
    LE,
    ModelError,
    ModelInstance,
    Sense,
    Solution,
    SolveOptions,
    Status,
)
from .simplex import LP_OPTIMAL, LP_UNBOUNDED, solve_lp_csc

__all__ = ["SolveReport", "solve_milp", "brute_force_milp", "solve_model"]

#: Default cap on the integer search space of the enumeration oracle.
BRUTE_FORCE_CAP = 2**22


@dataclass
class SolveReport:
    """Outcome of one solve.

    ``nodes`` counts branch-and-bound nodes (for the oracle, enumerated
    assignments); ``lp_iterations`` counts the oracle's simplex pivots and is
    0 for HiGHS, which does not report a MIP's simplex count.
    """

    status: Status
    incumbent: Solution | None
    best_bound: float
    gap: float
    nodes: int
    lp_iterations: int
    wall_time: float


class _Arrays:
    """Column-form (CSC) snapshot of a sealed, lowered model."""

    def __init__(self, model: ModelInstance):
        if not model.is_sealed:
            raise ModelError("model must be sealed before solving")
        if model.pwl_terms:
            raise ModelError("piecewise terms must be lowered before solving")
        n = model.n_variables
        m = model.n_constraints
        senses = np.zeros(m, dtype=np.int8)
        b = np.zeros(m)
        cols: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for con in model.constraints:
            i = con.cid
            for vid, coef in con.expr.terms.items():
                cols[vid].append((i, coef))
            senses[i] = {LE: -1, EQ: 0, GE: 1}[con.sense]
            b[i] = con.rhs
        self.cptr = np.zeros(n + 1, dtype=np.int64)
        rows: list[int] = []
        vals: list[float] = []
        for j, col in enumerate(cols):
            self.cptr[j + 1] = self.cptr[j] + len(col)
            for i, coef in col:
                rows.append(i)
                vals.append(coef)
        self.crow = np.array(rows, dtype=np.int64)
        self.cval = np.array(vals, dtype=np.float64)
        self.senses = senses
        self.b = b
        self.c = np.zeros(n)
        for vid, coef in model.objective.terms.items():
            self.c[vid] = coef
        self.c0 = model.objective.constant
        self.lower = np.array([v.lower for v in model.variables])
        self.upper = np.array([v.upper for v in model.variables])
        self.int_ids = np.array(model.integer_ids(), dtype=np.int64)
        self.maximize = model.sense is Sense.MAXIMIZE
        self.n = n
        self.m = m

    def csigned(self) -> tuple[np.ndarray, float]:
        if self.maximize:
            return -self.c, -self.c0
        return self.c, self.c0

    def linear_constraint(self, extra_columns: int = 0):
        """All rows as one two-sided ``LinearConstraint`` for ``milp``, or None.

        ``extra_columns`` empty columns are appended after the model's own.
        """
        from scipy.optimize import LinearConstraint
        from scipy.sparse import csc_array, csr_array, hstack

        if self.m == 0:
            return None
        lo = np.where(self.senses >= 0, self.b, -np.inf)
        up = np.where(self.senses <= 0, self.b, np.inf)
        A = csc_array((self.cval, self.crow, self.cptr), shape=(self.m, self.n)).tocsr()
        if extra_columns:
            A = hstack([A, csr_array((self.m, extra_columns))], format="csr")
        return LinearConstraint(A, lo, up)


def _gap(objective: float, bound: float) -> float:
    return abs(objective - bound) / max(1.0, abs(objective))


def _solution(arr: _Arrays, x: np.ndarray, obj_min: float, status: Status) -> Solution:
    values = {}
    for vid in range(arr.n):
        v = float(x[vid])
        values[vid] = v
    for vid in arr.int_ids:
        values[int(vid)] = float(round(x[vid]))
    obj = -obj_min if arr.maximize else obj_min
    return Solution(values, obj, status)


def _no_solution(arr: _Arrays, status: Status, nodes: int, wall: float,
                 bound_min: float) -> SolveReport:
    """Report without an incumbent; ``bound_min`` is in minimize orientation."""
    if status is Status.INFEASIBLE:
        bound_min = math.inf
    elif status is Status.UNBOUNDED:
        bound_min = -math.inf
    elif status is Status.NUMERICAL_FAILURE:
        bound_min = math.nan
    ext = -1.0 if arr.maximize else 1.0
    return SolveReport(status, None, ext * bound_min, math.inf, nodes, 0, wall)


def _milp_status(res, options: SolveOptions) -> Status:
    """Map a ``scipy.optimize.milp`` result onto :class:`Status`."""
    if res.status == 0:
        return Status.OPTIMAL
    if res.status == 2:
        return Status.INFEASIBLE
    if res.status == 3:
        return Status.UNBOUNDED
    # scipy reports a node-limit stop as an unrecognised HiGHS status (4)
    node_stop = res.status == 4 and (res.mip_node_count or 0) >= options.node_limit
    if res.status == 1 or node_stop:
        return Status.NO_INCUMBENT if res.x is None else Status.FEASIBLE_GAP
    return Status.NUMERICAL_FAILURE


def solve_milp(model: ModelInstance, options: SolveOptions | None = None) -> SolveReport:
    """Solve with HiGHS.  Returns the incumbent and a valid best bound.

    ``lp_iterations`` is 0: HiGHS does not report a MIP's simplex count.
    """
    from scipy.optimize import Bounds, milp

    options = options or SolveOptions()
    arr = _Arrays(model)
    c, c0 = arr.csigned()
    integrality = np.zeros(arr.n)
    integrality[arr.int_ids] = 1
    lower, upper = arr.lower, arr.upper
    extra = 0
    if c0:
        # HiGHS measures its relative gap on the objective it is given, so the
        # constant rides along as a column fixed at 1
        c = np.append(c, c0)
        integrality = np.append(integrality, 0)
        lower, upper = np.append(lower, 1.0), np.append(upper, 1.0)
        extra = 1
    t0 = time.perf_counter()
    res = milp(
        c,
        integrality=integrality,
        bounds=Bounds(lower, upper),
        constraints=arr.linear_constraint(extra),
        options={
            "time_limit": options.time_limit,
            "node_limit": options.node_limit,
            "mip_rel_gap": options.mip_gap,
        },
    )
    wall = time.perf_counter() - t0
    status = _milp_status(res, options)
    nodes = int(res.mip_node_count or 0)
    dual = res.mip_dual_bound
    if dual is None and status is Status.OPTIMAL:
        dual = res.fun  # a model without integers reports no MIP bound
    bound_min = -math.inf if dual is None else float(dual)
    if status not in (Status.OPTIMAL, Status.FEASIBLE_GAP):
        return _no_solution(arr, status, nodes, wall, bound_min)

    x = np.clip(res.x[: arr.n], arr.lower, arr.upper)
    obj_min = float(res.fun)
    bound_min = min(bound_min, obj_min)
    sol = _solution(arr, x, obj_min, status)
    ext = -1.0 if arr.maximize else 1.0
    return SolveReport(status, sol, ext * bound_min, _gap(obj_min, bound_min), nodes, 0, wall)


def brute_force_milp(model: ModelInstance, cap: int = BRUTE_FORCE_CAP) -> SolveReport:
    """Enumerate every integer assignment, solving the continuous LP for each.

    Verification oracle: exact but exponential; refuses search spaces larger
    than ``cap``.
    """
    arr = _Arrays(model)
    c, c0 = arr.csigned()
    int_ids = [int(v) for v in arr.int_ids]
    spans = []
    for vid in int_ids:
        lo, up = arr.lower[vid], arr.upper[vid]
        if not (math.isfinite(lo) and math.isfinite(up)):
            raise ModelError(f"integer variable {model.var(vid).name!r} must be bounded")
        spans.append(int(math.floor(up + 1e-9)) - int(math.ceil(lo - 1e-9)) + 1)
    total = 1
    for s in spans:
        total *= max(s, 0)
    if total > cap:
        raise ModelError(f"integer search space {total} exceeds cap {cap}")

    t0 = time.perf_counter()
    best_obj = math.inf
    best_x = None
    lp_iters = 0
    count = 0
    unbounded = False
    bases = [int(math.ceil(arr.lower[vid] - 1e-9)) for vid in int_ids]
    for combo in itertools.product(*(range(s) for s in spans)) if spans else [()]:
        count += 1
        lo, up = arr.lower.copy(), arr.upper.copy()
        for k, vid in enumerate(int_ids):
            val = bases[k] + combo[k]
            lo[vid] = up[vid] = val
        code, x, _, iters = solve_lp_csc(
            arr.cptr, arr.crow, arr.cval, arr.m, arr.senses, arr.b, c, lo, up
        )
        lp_iters += iters
        if code == LP_UNBOUNDED:
            unbounded = True
            break
        if code != LP_OPTIMAL:
            continue
        x = np.clip(x, lo, up)
        obj = float(c @ x) + c0
        if obj < best_obj - 1e-12:
            best_obj = obj
            best_x = x
    wall = time.perf_counter() - t0

    ext = -1.0 if arr.maximize else 1.0
    if unbounded:
        return SolveReport(Status.UNBOUNDED, None, ext * -math.inf, math.inf, count, lp_iters, wall)
    if best_x is None:
        return SolveReport(Status.INFEASIBLE, None, ext * math.inf, math.inf, count, lp_iters, wall)
    sol = _solution(arr, best_x, best_obj, Status.OPTIMAL)
    return SolveReport(Status.OPTIMAL, sol, sol.objective, 0.0, count, lp_iters, wall)


def solve_model(model: ModelInstance, options: SolveOptions | None = None) -> SolveReport:
    """Lower piecewise terms, solve, and project the solution back.

    The returned solution contains only the original model's variables; the
    objective already includes the piecewise cost contributions.
    """
    lowered = model.lowered()
    report = solve_milp(lowered, options)
    if report.incumbent is not None and lowered is not model:
        n = model.n_variables
        report.incumbent.values = {
            vid: val for vid, val in report.incumbent.values.items() if vid < n
        }
    return report
