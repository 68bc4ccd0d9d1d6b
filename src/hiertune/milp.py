"""MILP solving with HiGHS, and the enumeration oracle that checks it.

``solve_milp`` hands a model to the HiGHS that SciPy bundles, through its
binding ``scipy.optimize._highspy._core``, and maps HiGHS's result onto
:class:`SolveReport`, objective constant included.  ``brute_force_milp`` is
the exhaustive-enumeration oracle that verifies it on tiny instances: it
solves each integer assignment's LP with the dense simplex of
:mod:`hiertune.simplex`, so it shares no code with the solver it checks.  On
a model without integers it is a plain LP solve.  SciPy is imported on the
first HiGHS solve, not with the package: it takes longer to load than the
rest of ``hiertune``, and commands that never solve (``gen``, ``report``)
should not pay for it.

Solves bypass ``scipy.optimize.milp``.  Each call of it validates its input
and packs it into a ``LinearConstraint``, builds six HiGHS options managers
(one, plus one per option it checks, about 0.1 ms each) and a Python list of
one variable type per column, and reads the basis and every column's dual,
which no solve here uses.  That fixed cost is most of a small solve, and it
runs holding the GIL while ``tune`` solves on several threads.
``solve_milp`` builds the ``HighsLp`` and ``HighsOptions`` that ``milp``
would and runs them on a fresh ``_Highs`` per solve, so HiGHS gets the same
input and gives the same answers.  Measured on scipy 1.17.1 / HiGHS 1.12.0
(median call of 30, the two paths alternating in one process, 2-CPU
machine), ``milp`` against the direct path: a 2-variable MILP took 1.20 and
0.42 ms, the approach2 high level of the benchmark's ``chain1-2w`` instance
(31 columns, 4 integers) 2.36 and 1.39 ms, and its week-0 low level (56
columns, 9 integers) 5.63 and 4.65 ms.  The binding is SciPy's private
module, so ``pyproject.toml`` requires the release this was verified on.
The test ``test_matches_public_milp_with_same_options`` solves through the
public ``milp``, and the benchmark's reference (``bench/reference.py``)
solves through it with HiGHS's default options, so both stay independent
checks.

Every solve turns off HiGHS's feasibility-jump primal heuristic
(``mip_heuristic_run_feasibility_jump``).  HiGHS 1.12 runs it at the root of
each MILP.  On the small models of the tests and the benchmark it is most of
the solve time and changes no incumbent, bound or design.  On larger models
stopped by a limit it is worth little: up to the paper-shaped 22-task week,
weekly low levels ended with the same incumbent and bound either way, and
full spaces with incumbents up to 0.07 % apart (the heuristic's the better)
and bounds that moved either way.  Measured through ``milp`` as above, with
the heuristic on and off: the ``chain1-2w`` high level took 16.2 and 4.4 ms,
its week-0 low level 34.4 and 10.9 ms, and a 2-variable MILP 2.3 ms either
way, so the saving is the heuristic's work, not a fixed cost per call.

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
    assignments); ``lp_iterations`` counts simplex iterations: HiGHS's total
    over every LP it solved, or the oracle's pivots.
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


def _no_solution(arr: _Arrays, status: Status, wall: float, lp_iterations: int) -> SolveReport:
    """Report without an incumbent: no nodes and the bound that ``status`` implies.

    A stop on a limit reports an unknown bound, -inf in minimize orientation.
    """
    bound_min = {
        Status.INFEASIBLE: math.inf,
        Status.NUMERICAL_FAILURE: math.nan,
    }.get(status, -math.inf)
    ext = -1.0 if arr.maximize else 1.0
    return SolveReport(status, None, ext * bound_min, math.inf, 0, lp_iterations, wall)


_STATUS = {"kOptimal": Status.OPTIMAL, "kInfeasible": Status.INFEASIBLE,
           "kUnbounded": Status.UNBOUNDED}
# a node-limit stop is kSolutionLimit
_LIMITS = ("kTimeLimit", "kIterationLimit", "kSolutionLimit")


def _milp_status(model_status, has_incumbent: bool) -> Status:
    """Map a ``HighsModelStatus`` onto :class:`Status`; unknown ones are failures."""
    if model_status.name in _LIMITS:
        return Status.FEASIBLE_GAP if has_incumbent else Status.NO_INCUMBENT
    return _STATUS.get(model_status.name, Status.NUMERICAL_FAILURE)


def solve_milp(model: ModelInstance, options: SolveOptions | None = None) -> SolveReport:
    """Solve with HiGHS.  Returns the incumbent and a valid best bound.

    ``lp_iterations`` is HiGHS's simplex iteration count; on a MIP it is the
    total over the LPs of the branch and bound.
    """
    from scipy.optimize._highspy import _core as highs

    options = options or SolveOptions()
    arr = _Arrays(model)
    c, c0 = arr.csigned()
    lower, upper, cptr = arr.lower, arr.upper, arr.cptr
    if c0:
        # HiGHS measures its relative gap on the objective it is given, so the
        # constant rides along as a column fixed at 1
        c = np.append(c, c0)
        lower, upper = np.append(lower, 1.0), np.append(upper, 1.0)
        cptr = np.append(cptr, cptr[-1])
    n = c.size
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = arr.m
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = cptr
    lp.a_matrix_.index_ = arr.crow
    lp.a_matrix_.value_ = arr.cval
    lp.col_cost_ = c
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = np.where(arr.senses >= 0, arr.b, -np.inf)
    lp.row_upper_ = np.where(arr.senses <= 0, arr.b, np.inf)
    kinds = [highs.HighsVarType.kContinuous] * n
    for vid in arr.int_ids:
        kinds[vid] = highs.HighsVarType.kInteger
    lp.integrality_ = kinds
    hopts = highs.HighsOptions()
    hopts.log_to_console = False
    hopts.mip_max_nodes = options.node_limit
    hopts.time_limit = options.time_limit
    hopts.mip_rel_gap = options.mip_gap
    hopts.mip_heuristic_run_feasibility_jump = False

    t0 = time.perf_counter()
    solver = highs._Highs()
    solver.passOptions(hopts)
    if solver.passModel(lp) == highs.HighsStatus.kError:
        # HiGHS refuses the model (a column fixed at +inf, say); run() would
        # then solve an empty one
        return _no_solution(arr, Status.NUMERICAL_FAILURE, time.perf_counter() - t0, 0)
    solver.run()
    wall = time.perf_counter() - t0
    info = solver.getInfo()
    is_mip = arr.int_ids.size > 0
    model_status = solver.getModelStatus()
    # an LP has a solution only when optimal, a MIP whenever it found an incumbent
    has_incumbent = is_mip and info.objective_function_value < math.inf
    status = _milp_status(model_status, has_incumbent)
    # -1 when HiGHS ran no solver, as on an empty model
    iterations = max(0, info.simplex_iteration_count)
    if status not in (Status.OPTIMAL, Status.FEASIBLE_GAP):
        return _no_solution(arr, status, wall, iterations)

    x = np.clip(np.array(solver.getSolution().col_value)[: arr.n], arr.lower, arr.upper)
    obj_min = float(info.objective_function_value)
    # a model without integers reports no MIP bound
    bound_min = min(float(info.mip_dual_bound), obj_min) if is_mip else obj_min
    nodes = info.mip_node_count if is_mip else 0
    sol = _solution(arr, x, obj_min, status)
    ext = -1.0 if arr.maximize else 1.0
    return SolveReport(status, sol, ext * bound_min, _gap(obj_min, bound_min), nodes,
                       iterations, wall)


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
