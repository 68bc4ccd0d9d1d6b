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

Both solvers minimize: a maximize model's objective is negated once, by
``_Arrays`` as it reads the model, and turned back once, by ``_report``.
``_report`` builds the :class:`SolveReport` of every exit of both solvers:
it clips an incumbent to its bounds, rounds its integer columns, computes
the gap, and gives a status without an incumbent the bound it implies.

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
    """Column-form (CSC) snapshot of a lowered model, in minimize orientation.

    ``c`` and ``c0`` are the objective times ``sign``, which is -1 for a
    maximize model and 1 otherwise.
    """

    def __init__(self, model: ModelInstance):
        if model.pwl_terms:
            raise ModelError("piecewise terms must be lowered before solving")
        n = model.n_variables
        cons = model.constraints
        m = len(cons)
        # coordinate form in row order; a stable sort by column keeps each
        # column's entries in row order
        rows = np.repeat(np.arange(m, dtype=np.int64), [len(con.expr.terms) for con in cons])
        cols = np.fromiter((j for con in cons for j in con.expr.terms), np.int64, rows.size)
        vals = np.fromiter(
            (a for con in cons for a in con.expr.terms.values()), np.float64, rows.size
        )
        order = np.argsort(cols, kind="stable")
        self.crow = rows[order]
        self.cval = vals[order]
        self.cptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n), out=self.cptr[1:])
        self.senses = np.fromiter(({LE: -1, EQ: 0, GE: 1}[con.sense] for con in cons), np.int8, m)
        self.b = np.fromiter((con.rhs for con in cons), np.float64, m)
        self.sign = -1.0 if model.sense is Sense.MAXIMIZE else 1.0
        self.c = np.zeros(n)
        for vid, coef in model.objective.terms.items():
            self.c[vid] = coef
        self.c *= self.sign
        self.c0 = self.sign * model.objective.constant
        self.lower = np.array([v.lower for v in model.variables])
        self.upper = np.array([v.upper for v in model.variables])
        self.int_ids = np.array(model.integer_ids(), dtype=np.int64)
        self.n = n
        self.m = m


#: Best bound, in minimize orientation, of a report without an incumbent.  A
#: stop on a limit leaves the bound unknown: -inf.
_NO_INCUMBENT_BOUND = {
    Status.INFEASIBLE: math.inf,
    Status.UNBOUNDED: -math.inf,
    Status.NO_INCUMBENT: -math.inf,
    Status.NUMERICAL_FAILURE: math.nan,
}


def _report(
    arr: _Arrays,
    status: Status,
    nodes: int,
    iterations: int,
    wall: float,
    x: np.ndarray | None = None,
    obj_min: float = math.nan,
    bound_min: float = math.nan,
) -> SolveReport:
    """Report of one solve, turned back from minimize orientation.

    ``x`` is the incumbent, with objective ``obj_min`` and bound
    ``bound_min``; it is clipped to the bounds here and its integer columns
    rounded.  Without ``x`` the bound is the one ``status`` implies.
    """
    if x is None:
        bound = arr.sign * _NO_INCUMBENT_BOUND[status]
        return SolveReport(status, None, bound, math.inf, nodes, iterations, wall)
    x = np.clip(x, arr.lower, arr.upper)
    # np.round keeps the sign of a value that rounds to zero; adding 0.0
    # turns its -0.0 into 0.0
    x[arr.int_ids] = np.round(x[arr.int_ids]) + 0.0
    sol = Solution(dict(enumerate(x.tolist())), arr.sign * obj_min)
    gap = abs(obj_min - bound_min) / max(1.0, abs(obj_min))
    return SolveReport(status, sol, arr.sign * bound_min, gap, nodes, iterations, wall)


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
    c, lower, upper, cptr = arr.c, arr.lower, arr.upper, arr.cptr
    if arr.c0:
        # HiGHS measures its relative gap on the objective it is given, so the
        # constant rides along as a column fixed at 1
        c = np.append(c, arr.c0)
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
        return _report(arr, Status.NUMERICAL_FAILURE, 0, 0, time.perf_counter() - t0)
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
        return _report(arr, status, 0, iterations, wall)

    x = np.array(solver.getSolution().col_value)[: arr.n]
    obj_min = float(info.objective_function_value)
    # a model without integers reports no MIP bound
    bound_min = min(float(info.mip_dual_bound), obj_min) if is_mip else obj_min
    nodes = info.mip_node_count if is_mip else 0
    return _report(arr, status, nodes, iterations, wall, x, obj_min, bound_min)


def brute_force_milp(model: ModelInstance, cap: int = BRUTE_FORCE_CAP) -> SolveReport:
    """Enumerate every integer assignment, solving the continuous LP for each.

    Verification oracle: exact but exponential; refuses search spaces larger
    than ``cap``.
    """
    arr = _Arrays(model)
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
            arr.cptr, arr.crow, arr.cval, arr.m, arr.senses, arr.b, arr.c, lo, up
        )
        lp_iters += iters
        if code == LP_UNBOUNDED:
            unbounded = True
            break
        if code != LP_OPTIMAL:
            continue
        x = np.clip(x, lo, up)
        obj = float(arr.c @ x) + arr.c0
        if obj < best_obj - 1e-12:
            best_obj = obj
            best_x = x
    wall = time.perf_counter() - t0

    if unbounded:
        return _report(arr, Status.UNBOUNDED, count, lp_iters, wall)
    if best_x is None:
        return _report(arr, Status.INFEASIBLE, count, lp_iters, wall)
    return _report(arr, Status.OPTIMAL, count, lp_iters, wall, best_x, best_obj, best_obj)


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
