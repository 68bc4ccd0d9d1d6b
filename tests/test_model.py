import math

import pytest
from hypothesis import given, strategies as st

from hiertune.model import (
    LE,
    FixOutOfBoundsError,
    Kind,
    LinExpr,
    ModelError,
    ModelInstance,
    SealedModelError,
    SolveOptions,
)

from conftest import evaluate_solution, pwl_value


def small_model():
    m = ModelInstance("small")
    x = m.add_variable("x", Kind.CONTINUOUS, 0, 10)
    y = m.add_variable("y", Kind.BINARY, 0, 1)
    m.add_objective_term(x, 2.0)
    m.add_objective_term(y, -1.0)
    m.add_constraint({x: 1.0, y: 3.0}, LE, 5.0)
    return m, x, y


def test_add_variable_basics():
    m = ModelInstance()
    v = m.add_variable("Vmax_V1", Kind.CONTINUOUS, 0, 100)
    assert m.var(v).lower == 0 and m.var(v).upper == 100
    b = m.add_variable("N_i_t", Kind.BINARY, 0, 1)
    assert m.var(b).kind is Kind.BINARY
    with pytest.raises(ModelError):
        m.add_variable("x", Kind.CONTINUOUS, 5, 3)
    with pytest.raises(ModelError):
        m.add_variable("Vmax_V1", Kind.CONTINUOUS, 0, 1)
    with pytest.raises(ModelError):
        m.add_variable("bad name", Kind.CONTINUOUS, 0, 1)
    with pytest.raises(ModelError):
        m.add_variable("bigbin", Kind.BINARY, 0, 2)


def test_add_constraint_basics():
    m = ModelInstance()
    x = m.add_variable("x", Kind.BINARY, 0, 1)
    y = m.add_variable("y", Kind.BINARY, 0, 1)
    pick = m.add_constraint({x: 1.0, y: 1.0}, LE, 1.0)
    assert m.n_constraints == 1
    assert m.constraints[0] is pick and pick.cid == 0 and pick.rhs == 1.0
    with pytest.raises(ModelError):
        m.add_constraint({99: 1.0}, LE, 1.0)
    # vacuous 0 <= 0 row is accepted
    vacuous = m.add_constraint({}, LE, 0.0)
    assert vacuous.cid == 1 and vacuous.sense == LE


def test_constant_folded_into_rhs():
    m = ModelInstance()
    x = m.add_variable("x", Kind.CONTINUOUS, 0, 10)
    con = m.add_constraint(LinExpr({x: 1.0}, constant=2.0), LE, 5.0)
    assert con.rhs == 3.0 and con.expr.constant == 0.0


def test_sealing_blocks_mutation():
    m, x, y = small_model()
    m.seal()
    with pytest.raises(SealedModelError):
        m.add_variable("z")
    with pytest.raises(SealedModelError):
        m.add_constraint({x: 1.0}, LE, 1.0)
    with pytest.raises(SealedModelError):
        m.add_pwl_power_cost(x, 1.0)
    fixed = m.fix_variables({x: 3.0})
    assert fixed is not m
    assert fixed.var(x).lower == fixed.var(x).upper == 3.0
    assert m.var(x).lower == 0.0  # original untouched


def test_fix_variables_rules():
    m, x, y = small_model()
    fixed = m.fix_variables({y: 0.0})
    assert fixed.var(y).upper == 0.0
    fixed = m.fix_variables({x: 7.3})
    assert fixed.var(x).lower == 7.3
    # integer rounding within tolerance
    fixed = m.fix_variables({y: 1.0 - 1e-9})
    assert fixed.var(y).lower == 1.0
    with pytest.raises(FixOutOfBoundsError):
        m.fix_variables({x: 101.0})
    with pytest.raises(FixOutOfBoundsError):
        m.fix_variables({y: 0.4})
    # tiny negative clamps to the bound
    fixed = m.fix_variables({x: -1e-9})
    assert fixed.var(x).lower == 0.0


def test_pwl_power_cost_values():
    m = ModelInstance()
    v = m.add_variable("v", Kind.CONTINUOUS, 0, 1)
    term = m.add_pwl_power_cost(v, 1.0, 0.6, 2)
    assert term.values == (0.0, 1.0)

    m2 = ModelInstance()
    u = m2.add_variable("u", Kind.CONTINUOUS, 0, 100)
    term2 = m2.add_pwl_power_cost(u, 1.0, 0.6, 3)
    assert term2.breakpoints == (0.0, 50.0, 100.0)
    assert term2.values[1] == pytest.approx(50.0**0.6, abs=1e-12)
    assert term2.values[2] == pytest.approx(100.0**0.6, abs=1e-12)

    m3 = ModelInstance()
    w = m3.add_variable("w", Kind.CONTINUOUS, 0, 10)
    term3 = m3.add_pwl_power_cost(w, 0.0, 0.6, 4)
    assert all(v == 0.0 for v in term3.values)


def test_pwl_power_cost_errors():
    m = ModelInstance()
    free = m.add_variable("free", Kind.CONTINUOUS, 0, math.inf)
    with pytest.raises(ModelError):
        m.add_pwl_power_cost(free, 1.0)
    v = m.add_variable("v", Kind.CONTINUOUS, 0, 5)
    with pytest.raises(ModelError):
        m.add_pwl_power_cost(v, 1.0, 0.6, 1)
    with pytest.raises(ModelError):
        m.add_pwl_power_cost(v, -1.0)
    with pytest.raises(ModelError):
        m.add_pwl_power_cost(v, 1.0, 1.5)


def test_evaluate_solution_basics():
    m = ModelInstance()
    m.add_objective_constant(5.0)
    obj, viol = evaluate_solution(m, {})
    assert (obj, viol) == (5.0, 0.0)

    m2, x, y = small_model()
    m2.add_constraint({x: 1.0}, LE, 1.0)
    obj, viol = evaluate_solution(m2, {x: 2.0, y: 0.0})
    assert viol == pytest.approx(1.0)
    with pytest.raises(ModelError):
        evaluate_solution(m2, {x: 0.0})


def test_evaluate_solution_is_pure():
    m, x, y = small_model()

    def snapshot():
        rows = [(c.cid, dict(c.expr.terms), c.sense, c.rhs) for c in m.constraints]
        return m.variables, rows, dict(m.objective.terms), m.objective.constant

    before = snapshot()
    vals = {x: 1.0, y: 1.0}
    r1 = evaluate_solution(m, vals)
    r2 = evaluate_solution(m, vals)
    assert r1 == r2
    assert snapshot() == before


@given(st.floats(0, 100, allow_nan=False), st.integers(2, 12))
def test_pwl_interpolation_matches_numpy(v, nbp):
    m = ModelInstance()
    u = m.add_variable("u", Kind.CONTINUOUS, 0, 100)
    term = m.add_pwl_power_cost(u, 2.5, 0.6, nbp)
    # interpolating a concave curve: equal at every breakpoint, below in between
    for b in term.breakpoints:
        assert pwl_value(term, b) == pytest.approx(2.5 * b**0.6, abs=1e-12)
    assert pwl_value(term, v) <= 2.5 * v**0.6 + 1e-12


@given(
    st.dictionaries(st.integers(0, 5), st.floats(-10, 10, allow_nan=False), max_size=6),
    st.dictionaries(st.integers(0, 5), st.floats(-10, 10, allow_nan=False), max_size=6),
)
def test_linexpr_merges_and_drops_zeros(a, b):
    e = LinExpr(a)
    for vid, coef in b.items():
        e.add_term(vid, coef)
    for vid, coef in e.terms.items():
        assert coef != 0.0
        assert coef == pytest.approx(a.get(vid, 0.0) + b.get(vid, 0.0))


def test_solve_options_validation():
    SolveOptions()
    for bad in (0, float("nan"), float("inf")):
        with pytest.raises(ModelError):
            SolveOptions(time_limit=bad)
    with pytest.raises(ModelError):
        SolveOptions(mip_gap=1.0)


def test_lowered_structure():
    m = ModelInstance()
    v = m.add_variable("v", Kind.CONTINUOUS, 0, 100)
    m.add_pwl_power_cost(v, 3.0, 0.6, 5)
    m.seal()
    low = m.lowered()
    assert low is not m
    assert low.is_sealed
    assert not low.pwl_terms
    # 4 segments: 4 fill variables + 3 ordering binaries
    assert low.n_variables == 1 + 4 + 3
    # link row + 2 rows per ordering binary
    assert low.n_constraints == 1 + 2 * 3
    # no terms: lowering is the identity
    m2 = ModelInstance()
    m2.add_variable("x")
    m2.seal()
    assert m2.lowered() is m2
