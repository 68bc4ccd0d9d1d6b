import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.optimize._highspy import _core as highs

from hiertune.milp import _milp_status, brute_force_milp, solve_milp, solve_model
from hiertune.model import (
    EQ,
    GE,
    LE,
    Kind,
    ModelError,
    ModelInstance,
    SolveOptions,
    Status,
)
from hiertune.simplex import LP_INFEASIBLE, LP_OPTIMAL, LP_UNBOUNDED, solve_lp_csc

from conftest import evaluate_solution


def random_tiny_milp(rng, n_bin=None, n_cont=None, n_rows=None, maximize=None, constant=0.0):
    """Random model small enough for the enumeration oracle."""
    n_bin = int(rng.integers(1, 11)) if n_bin is None else n_bin
    n_cont = int(rng.integers(0, 16)) if n_cont is None else n_cont
    n_rows = int(rng.integers(1, 21)) if n_rows is None else n_rows
    if maximize is None:
        maximize = bool(rng.random() < 0.5)
    m = ModelInstance("rand", "maximize" if maximize else "minimize")
    ids = []
    for k in range(n_bin):
        ids.append(m.add_variable(f"b{k}", Kind.BINARY, 0, 1))
    for k in range(n_cont):
        ids.append(m.add_variable(f"x{k}", Kind.CONTINUOUS, 0, float(rng.uniform(0.5, 4))))
    for vid in ids:
        m.add_objective_term(vid, float(rng.normal()))
    for r in range(n_rows):
        expr = {vid: float(rng.normal()) for vid in ids if rng.random() < 0.6}
        if not expr:
            continue
        sense = (LE, GE, EQ)[int(rng.integers(0, 3))]
        m.add_constraint(expr, sense, float(rng.normal() * 2))
    m.add_objective_constant(constant)
    return m


def hard_knapsack(seed, constant=0.0):
    """A 25-binary knapsack HiGHS needs a few dozen nodes for."""
    rng = np.random.default_rng(seed)
    m = ModelInstance("hard", "maximize")
    ids = [m.add_variable(f"b{k}", Kind.BINARY, 0, 1) for k in range(25)]
    w = rng.uniform(1, 10, size=25)
    p = w + rng.uniform(0, 1, size=25)
    for vid, pk in zip(ids, p):
        m.add_objective_term(vid, float(pk))
    m.add_constraint({vid: float(wk) for vid, wk in zip(ids, w)}, LE, float(w.sum() / 2))
    m.add_objective_constant(constant)
    return m


def test_lp_examples():
    m = ModelInstance()
    x = m.add_variable("x", Kind.CONTINUOUS, 0, 10)
    m.add_objective_term(x, 1.0)
    m.add_constraint({x: 1.0}, GE, 3.0)
    rep = brute_force_milp(m)
    assert rep.status is Status.OPTIMAL
    assert rep.incumbent.objective == pytest.approx(3.0, abs=1e-9)

    m = ModelInstance("m2", "maximize")
    x = m.add_variable("x", Kind.CONTINUOUS, 0, 1)
    y = m.add_variable("y", Kind.CONTINUOUS, 0, 1)
    m.add_objective_term(x, 1.0)
    m.add_objective_term(y, 1.0)
    m.add_constraint({x: 1.0, y: 1.0}, LE, 1.0)
    rep = brute_force_milp(m)
    assert rep.incumbent.objective == pytest.approx(1.0, abs=1e-9)

    m = ModelInstance()
    x = m.add_variable("x", Kind.CONTINUOUS, 0, 10)
    m.add_constraint({x: 1.0}, LE, -1.0)
    rep = brute_force_milp(m)
    assert rep.status is Status.INFEASIBLE
    assert rep.incumbent is None


def test_lp_unbounded():
    m = ModelInstance()
    x = m.add_variable("x", Kind.CONTINUOUS, 0, math.inf)
    m.add_objective_term(x, -1.0)
    rep = brute_force_milp(m)
    assert rep.status is Status.UNBOUNDED


def test_milp_knapsack():
    m = ModelInstance("knap", "maximize")
    a = m.add_variable("a", Kind.BINARY, 0, 1)
    b = m.add_variable("b", Kind.BINARY, 0, 1)
    m.add_objective_term(a, 3.0)
    m.add_objective_term(b, 2.0)
    m.add_constraint({a: 2.0, b: 2.0}, LE, 3.0)
    rep = solve_milp(m)
    assert rep.status is Status.OPTIMAL
    assert rep.incumbent.objective == pytest.approx(3.0)
    assert rep.incumbent.values[a] == 1.0 and rep.incumbent.values[b] == 0.0
    oracle = brute_force_milp(m)
    assert oracle.incumbent.objective == pytest.approx(3.0)


def test_milp_binary_pair():
    m = ModelInstance("p", "maximize")
    x = m.add_variable("x", Kind.BINARY, 0, 1)
    y = m.add_variable("y", Kind.BINARY, 0, 1)
    m.add_objective_term(x, 1.0)
    m.add_objective_term(y, 1.0)
    m.add_constraint({x: 1.0, y: 1.0}, LE, 1.0)
    rep = solve_milp(m)
    assert rep.incumbent.objective == pytest.approx(1.0)


def test_brute_force_no_integers_matches_lp():
    m = ModelInstance()
    x = m.add_variable("x", Kind.CONTINUOUS, 0, 4)
    m.add_objective_term(x, -1.0)
    m.add_constraint({x: 2.0}, LE, 5.0)
    assert brute_force_milp(m).incumbent.objective == pytest.approx(
        solve_milp(m).incumbent.objective
    )


def test_brute_force_infeasible_and_cap():
    m = ModelInstance()
    x = m.add_variable("x", Kind.BINARY, 0, 1)
    m.add_constraint({x: 1.0}, GE, 2.0)
    assert brute_force_milp(m).status is Status.INFEASIBLE

    m2 = ModelInstance()
    for k in range(8):
        m2.add_variable(f"b{k}", Kind.BINARY, 0, 1)
    with pytest.raises(ModelError):
        brute_force_milp(m2, cap=100)


def test_oracle_agreement_randomized():
    rng = np.random.default_rng(42)
    for _ in range(40):
        m = random_tiny_milp(rng, n_bin=int(rng.integers(1, 7)))
        a = solve_milp(m)
        b = brute_force_milp(m)
        assert a.status == b.status
        if a.incumbent is not None:
            assert a.incumbent.objective == pytest.approx(b.incumbent.objective, abs=1e-6)


def test_bound_validity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = random_tiny_milp(rng, n_bin=int(rng.integers(1, 7)))
        rep = solve_milp(m)
        oracle = brute_force_milp(m)
        if oracle.status is not Status.OPTIMAL:
            continue
        true_opt = oracle.incumbent.objective
        if m.sense.value == "minimize":
            assert rep.best_bound <= true_opt + 1e-7
            assert rep.incumbent.objective >= true_opt - 1e-7
        else:
            assert rep.best_bound >= true_opt - 1e-7
            assert rep.incumbent.objective <= true_opt + 1e-7


def test_lp_certificate_randomized():
    # primal feasibility, dual feasibility and strong duality on random feasible LPs:
    # the objective of brute_force_milp's LP equals the dual objective of linprog's marginals
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        n, rows = int(rng.integers(2, 8)), int(rng.integers(1, 8))
        m = ModelInstance()
        upper = rng.uniform(1, 5, size=n)
        ids = [m.add_variable(f"x{k}", Kind.CONTINUOUS, 0, float(upper[k])) for k in range(n)]
        c = rng.normal(size=n)
        for vid in ids:
            m.add_objective_term(vid, float(c[vid]))
        A_ub, b_ub = [], []
        for r in range(rows):
            expr = {vid: float(rng.normal()) for vid in ids if rng.random() < 0.7}
            if expr:
                sense, rhs = (LE, GE)[int(rng.integers(0, 2))], float(rng.normal())
                m.add_constraint(expr, sense, rhs)
                sign = 1.0 if sense == LE else -1.0
                A_ub.append([sign * expr.get(vid, 0.0) for vid in ids])
                b_ub.append(sign * rhs)
        rep = brute_force_milp(m)
        if rep.status is not Status.OPTIMAL:
            continue
        checked += 1
        _, viol = evaluate_solution(m, rep.incumbent.values)
        assert viol <= 1e-7
        A_ub = np.array(A_ub).reshape(-1, n)
        dual = linprog(
            c,
            A_ub=A_ub if len(b_ub) else None,
            b_ub=b_ub if b_ub else None,
            bounds=[(0.0, u) for u in upper],
            method="highs",
        )
        assert dual.status == 0
        y, low, up = dual.ineqlin.marginals, dual.lower.marginals, dual.upper.marginals
        assert np.all(y <= 1e-9) and np.all(low >= -1e-9) and np.all(up <= 1e-9)
        np.testing.assert_allclose(A_ub.T @ y + low + up, c, atol=1e-7)
        dual_objective = float(np.dot(b_ub, y) + np.dot(upper, up))
        assert rep.incumbent.objective == pytest.approx(dual_objective, abs=1e-7)
    assert checked >= 10


def _random_bounded_lp(rng):
    """Dense LP with lower-only, upper-only, free, fixed and ranged columns.

    Half the draws take ``b`` from a point inside the bounds, so that many are
    feasible and optimal.
    """
    n, m = int(rng.integers(1, 9)), int(rng.integers(0, 9))
    A = np.round(rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6), 2)
    lower = np.round(rng.uniform(-3, 1, n), 1)
    upper = lower + np.round(rng.uniform(0.1, 4, n), 1)
    kind = rng.integers(0, 5, n)
    upper[kind == 0] = np.inf
    lower[kind == 1] = -np.inf
    lower[kind == 2], upper[kind == 2] = -np.inf, np.inf
    upper[kind == 3] = lower[kind == 3]
    senses = rng.integers(-1, 2, m)
    if rng.random() < 0.5:
        ax = A @ np.round(np.clip(rng.uniform(-2, 2, n), lower, upper), 1)
        b = np.round(ax - senses * rng.uniform(0, 1, m), 6)
    else:
        b = np.round(rng.normal(size=m) * 2, 1)
    return A, senses, b, np.round(rng.normal(size=n), 2), lower, upper


def test_lp_kernel_matches_highs_and_certifies_optimum():
    rng = np.random.default_rng(17)
    tol = 1e-7
    seen = {LP_OPTIMAL: 0, LP_INFEASIBLE: 0, LP_UNBOUNDED: 0}
    for _ in range(150):
        A, senses, b, c, lower, upper = _random_bounded_lp(rng)
        m, n = A.shape
        cptr = np.concatenate([[0], np.cumsum((A != 0).sum(axis=0))])
        cols, rows = np.nonzero(A.T)
        status, x, y, _ = solve_lp_csc(cptr, rows, A[rows, cols], m, senses, b, c, lower, upper)
        flip = np.where(senses > 0, -1.0, 1.0)
        ineq, eq = senses != 0, senses == 0
        ref = linprog(
            c,
            A_ub=(flip[:, None] * A)[ineq] if ineq.any() else None,
            b_ub=(flip * b)[ineq] if ineq.any() else None,
            A_eq=A[eq] if eq.any() else None,
            b_eq=b[eq] if eq.any() else None,
            bounds=np.column_stack([lower, upper]),
            method="highs",
        )
        assert status == {0: LP_OPTIMAL, 2: LP_INFEASIBLE, 3: LP_UNBOUNDED}[ref.status]
        seen[status] += 1
        if status != LP_OPTIMAL:
            continue
        assert c @ x == pytest.approx(ref.fun, abs=1e-6)
        # (x, y) is an optimality certificate
        ax = A @ x
        assert np.all(lower - tol <= x) and np.all(x <= upper + tol)
        assert np.all(flip[ineq] * (ax - b)[ineq] <= tol)
        assert np.all(np.abs(ax - b)[eq] <= tol)
        assert np.all(flip[ineq] * y[ineq] <= tol)
        assert np.all(np.abs(y * (ax - b)) <= tol)
        d = c - A.T @ y
        assert np.all((d >= -tol) | (x >= upper - tol))
        assert np.all((d <= tol) | (x <= lower + tol))
    assert min(seen.values()) >= 10, seen


def test_determinism():
    rng = np.random.default_rng(5)
    m = random_tiny_milp(rng, n_bin=6, n_cont=5, n_rows=12)
    r1 = solve_milp(m, SolveOptions())
    r2 = solve_milp(m, SolveOptions())
    assert dataclasses.replace(r1, wall_time=0.0) == dataclasses.replace(r2, wall_time=0.0)


def test_solve_turns_off_feasibility_jump(monkeypatch):
    # the heuristic is most of a small solve's time; losing this option
    # would slow every solve without changing any result
    received = []

    class Recording(highs._Highs):
        def passOptions(self, options):
            status = super().passOptions(options)
            received.append(self.getOptions())
            return status

    monkeypatch.setattr(highs, "_Highs", Recording)
    m = random_tiny_milp(np.random.default_rng(5), n_bin=3, n_cont=2, n_rows=4)
    solve_milp(m, SolveOptions(time_limit=7.0, node_limit=123, mip_gap=1e-3))
    [got] = received
    default = highs.HighsOptions()
    names = [k for k in dir(default) if not k.startswith("_")]
    assert {k: getattr(got, k) for k in names if getattr(got, k) != getattr(default, k)} == {
        "log_to_console": False,
        "mip_max_nodes": 123,
        "time_limit": 7.0,
        "mip_rel_gap": 1e-3,
        "mip_heuristic_run_feasibility_jump": False,
    }


def test_monotone_gap_and_optimal_gap_invariant():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = random_tiny_milp(rng)
        opts = SolveOptions(mip_gap=1e-4)
        rep = solve_milp(m, opts)
        if rep.status is Status.OPTIMAL:
            assert rep.gap <= opts.mip_gap + 1e-12


def test_time_limit_reports_limit_status():
    # a model the solver cannot finish instantly, with a microscopic limit
    m = hard_knapsack(9)
    rep = solve_milp(m, SolveOptions(time_limit=1e-4, mip_gap=1e-9))
    assert rep.status in (Status.FEASIBLE_GAP, Status.NO_INCUMBENT)
    full = solve_milp(m, SolveOptions(time_limit=60, mip_gap=1e-9))
    assert full.status is Status.OPTIMAL
    if rep.incumbent is not None:
        # on a maximize problem the reported bound must not cross the optimum
        assert rep.best_bound >= full.incumbent.objective - 1e-7
        assert rep.incumbent.objective <= full.incumbent.objective + 1e-7


def test_node_limit_reports_limit_status():
    m = hard_knapsack(9)
    rep = solve_milp(m, SolveOptions(node_limit=1, mip_gap=1e-9))
    assert rep.status is Status.FEASIBLE_GAP
    assert rep.nodes == 1
    full = solve_milp(m, SolveOptions(time_limit=60, mip_gap=1e-9))
    assert full.status is Status.OPTIMAL
    # HiGHS's simplex count over the branch and bound's LPs
    assert 0 < rep.lp_iterations < full.lp_iterations
    assert rep.best_bound >= full.incumbent.objective - 1e-7
    assert rep.incumbent.objective <= full.incumbent.objective + 1e-7
    assert rep.gap > 0


@pytest.mark.parametrize("sense, bound", [("minimize", -math.inf), ("maximize", math.inf)])
def test_lp_stopped_on_a_limit_has_no_incumbent(monkeypatch, sense, bound):
    # HiGHS leaves the point it stopped at in an LP's solution; that point
    # is no incumbent, and the bound of the unfinished LP is unknown
    class IterationLimited(highs._Highs):
        def passOptions(self, options):
            options.simplex_iteration_limit = 1
            options.presolve = "off"
            return super().passOptions(options)

    m = ModelInstance("alloc", sense)
    sign = -1.0 if sense == "maximize" else 1.0
    ids = [m.add_variable(f"x{j}", Kind.CONTINUOUS, 0, 4) for j in range(6)]
    for vid, profit in zip(ids, (5, 4, 6, 3, 4, 5)):
        m.add_objective_term(vid, -sign * profit)
    for row, cap in (((2, 1, 1, 3, 1, 2), 10), ((1, 3, 2, 1, 2, 1), 12),
                     ((1, 1, 3, 2, 1, 3), 9), ((3, 2, 1, 1, 2, 1), 11)):
        m.add_constraint(dict(zip(ids, row)), LE, cap)
    assert solve_milp(m).lp_iterations > 1
    monkeypatch.setattr(highs, "_Highs", IterationLimited)
    rep = solve_milp(m)
    assert rep.status is Status.NO_INCUMBENT
    assert rep.incumbent is None and rep.best_bound == bound


@pytest.mark.parametrize("solve", [solve_milp, brute_force_milp])
@pytest.mark.parametrize("sense, sign", [("minimize", 1.0), ("maximize", -1.0)])
def test_bound_without_incumbent(solve, sense, sign):
    # an infeasible model's bound is the worst objective of its sense, an
    # unbounded one's the best
    m = ModelInstance("infeasible", sense)
    x = m.add_variable("x", Kind.CONTINUOUS, 0, 10)
    m.add_constraint({x: 1.0}, LE, -1.0)
    rep = solve(m)
    assert (rep.status, rep.incumbent, rep.best_bound) == (Status.INFEASIBLE, None, sign * math.inf)
    m = ModelInstance("unbounded", sense)
    x = m.add_variable("x", Kind.CONTINUOUS, 0, math.inf)
    m.add_objective_term(x, -sign)
    rep = solve(m)
    assert (rep.status, rep.incumbent, rep.best_bound) == (Status.UNBOUNDED, None, -sign * math.inf)


def test_gap_counts_objective_constant():
    # a constant that nearly cancels the objective: a 1 % gap on the raw
    # objective would be a gap of tens of percent on the true one
    m = hard_knapsack(1, constant=-79.0)
    exact = solve_milp(m, SolveOptions(mip_gap=1e-9))
    assert exact.status is Status.OPTIMAL
    rep = solve_milp(m, SolveOptions(mip_gap=0.01))
    assert rep.status is Status.OPTIMAL
    obj, bound = rep.incumbent.objective, rep.best_bound
    assert obj == pytest.approx(evaluate_solution(m, rep.incumbent.values)[0], abs=1e-7)
    assert obj <= exact.incumbent.objective + 1e-7 <= bound + 2e-7
    assert rep.gap == pytest.approx(abs(obj - bound) / max(1.0, abs(obj)))
    assert rep.gap <= 0.01


@pytest.mark.parametrize(
    "name, has_incumbent, expected",
    [
        ("kOptimal", True, Status.OPTIMAL),
        ("kTimeLimit", True, Status.FEASIBLE_GAP),
        ("kTimeLimit", False, Status.NO_INCUMBENT),
        ("kIterationLimit", False, Status.NO_INCUMBENT),
        # HiGHS stops on its node limit with kSolutionLimit
        ("kSolutionLimit", True, Status.FEASIBLE_GAP),
        ("kSolutionLimit", False, Status.NO_INCUMBENT),
        ("kInfeasible", False, Status.INFEASIBLE),
        ("kUnbounded", False, Status.UNBOUNDED),
        ("kUnboundedOrInfeasible", False, Status.NUMERICAL_FAILURE),
        ("kSolveError", True, Status.NUMERICAL_FAILURE),
        ("kModelEmpty", False, Status.NUMERICAL_FAILURE),
    ],
)
def test_milp_status_mapping(name, has_incumbent, expected):
    assert _milp_status(highs.HighsModelStatus.__members__[name], has_incumbent) is expected


def test_model_highs_refuses_is_a_failure():
    # a column fixed at +inf passes the model's bound check but not HiGHS's
    m = ModelInstance()
    x = m.add_variable("x", Kind.CONTINUOUS, math.inf, math.inf)
    y = m.add_variable("y", Kind.INTEGER, 0, 3)
    m.add_objective_term(y, 1.0)
    m.add_constraint({x: 1.0, y: 1.0}, LE, 5.0)
    rep = solve_milp(m)
    assert rep.status is Status.NUMERICAL_FAILURE
    assert rep.incumbent is None and math.isnan(rep.best_bound)


def _public_milp(m, opts):
    """``m`` through ``scipy.optimize.milp``, built from the model alone."""
    n = m.n_variables
    sign = -1.0 if m.sense.value == "maximize" else 1.0
    c = np.zeros(n + 1)
    for vid, coef in m.objective.terms.items():
        c[vid] = sign * coef
    c[n] = sign * m.objective.constant
    # the constant column is there only when the constant is nonzero
    cols = n + 1 if c[n] else n
    A = np.zeros((m.n_constraints, cols))
    lo, up = np.full(m.n_constraints, -np.inf), np.full(m.n_constraints, np.inf)
    for con in m.constraints:
        for vid, coef in con.expr.terms.items():
            A[con.cid, vid] = coef
        if con.sense in (GE, EQ):
            lo[con.cid] = con.rhs
        if con.sense in (LE, EQ):
            up[con.cid] = con.rhs
    lower = np.array([v.lower for v in m.variables] + [1.0])[:cols]
    upper = np.array([v.upper for v in m.variables] + [1.0])[:cols]
    integrality = np.zeros(cols)
    integrality[m.integer_ids()] = 1
    return milp(
        c[:cols],
        integrality=integrality,
        bounds=Bounds(lower, upper),
        constraints=LinearConstraint(A, lo, up) if m.n_constraints else None,
        options={
            "time_limit": opts.time_limit,
            "node_limit": opts.node_limit,
            "mip_rel_gap": opts.mip_gap,
            "mip_heuristic_run_feasibility_jump": False,
        },
    )


def _equivalence_cases():
    """(model, options, status or None) triples; the status is the one the case is for."""
    rng = np.random.default_rng(23)
    default = SolveOptions()
    for k in range(40):
        # every other model has an objective constant
        constant = float(rng.normal() * 3) if k % 2 else 0.0
        m = random_tiny_milp(rng, n_rows=int(rng.integers(1, 6)), constant=constant)
        yield m, default, None
    yield random_tiny_milp(rng, n_bin=4, n_cont=3, n_rows=0), default, Status.OPTIMAL
    yield random_tiny_milp(rng, n_bin=0, n_cont=6, n_rows=2), default, Status.OPTIMAL
    m = ModelInstance()
    x = m.add_variable("x", Kind.BINARY, 0, 1)
    m.add_constraint({x: 1.0}, GE, 2.0)
    yield m, default, Status.INFEASIBLE
    # HiGHS tells an unbounded LP, but not an unbounded MIP from an infeasible one
    for kind, status in ((Kind.CONTINUOUS, Status.UNBOUNDED), (Kind.BINARY, Status.NUMERICAL_FAILURE)):
        m = ModelInstance()
        x = m.add_variable("x", Kind.CONTINUOUS, 0, math.inf)
        y = m.add_variable("y", kind, 0, 1)
        m.add_objective_term(x, -1.0)
        m.add_constraint({x: 1.0, y: -1.0}, GE, 0.0)
        yield m, default, status
    yield hard_knapsack(9), SolveOptions(node_limit=1, mip_gap=1e-9), Status.FEASIBLE_GAP


@pytest.mark.filterwarnings("ignore:Unrecognized options detected:RuntimeWarning")
def test_matches_public_milp_with_same_options():
    # solve_milp hands scipy's HiGHS binding what scipy.optimize.milp would,
    # so every answer is the public API's, bit for bit
    seen = set()
    for m, opts, case in _equivalence_cases():
        rep, res = solve_milp(m, opts), _public_milp(m, opts)
        n, ints = m.n_variables, m.integer_ids()
        sign = -1.0 if m.sense.value == "maximize" else 1.0
        if "HiGHS Status 16" in res.message:  # the node limit, a code scipy does not know
            expected = Status.NO_INCUMBENT if res.x is None else Status.FEASIBLE_GAP
        else:
            expected = {0: Status.OPTIMAL, 2: Status.INFEASIBLE, 3: Status.UNBOUNDED,
                        4: Status.NUMERICAL_FAILURE}[res.status]
        assert rep.status is expected and case in (None, expected)
        seen.add(expected)
        assert rep.nodes == (res.mip_node_count or 0)
        if res.x is None:
            assert rep.incumbent is None
            continue
        x = np.clip(res.x[:n], [v.lower for v in m.variables], [v.upper for v in m.variables])
        x[ints] = np.round(x[ints])
        assert [rep.incumbent.values[j] for j in range(n)] == x.tolist()
        assert rep.incumbent.objective == sign * res.fun
        bound = res.fun if not ints else min(res.mip_dual_bound, res.fun)
        assert rep.best_bound == sign * bound
    assert seen == {Status.OPTIMAL, Status.FEASIBLE_GAP, Status.INFEASIBLE, Status.UNBOUNDED,
                    Status.NUMERICAL_FAILURE}


def test_solve_model_projects_pwl_vars():
    m = ModelInstance()
    v = m.add_variable("v", Kind.CONTINUOUS, 0, 8)
    m.add_pwl_power_cost(v, 2.0, 0.6, 5)
    m.add_constraint({v: 1.0}, GE, 3.0)
    rep = solve_model(m)
    assert rep.status is Status.OPTIMAL
    assert set(rep.incumbent.values) == {v}
    # minimum of an increasing cost sits at the constraint: 2 * 3**0.6 via interpolation
    obj, viol = evaluate_solution(m, rep.incumbent.values)
    assert viol <= 1e-7
    assert obj == pytest.approx(rep.incumbent.objective, abs=1e-6)
