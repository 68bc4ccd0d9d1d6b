"""Independent reference optimum of a hiertune model, from HiGHS.

The model's piecewise costs are expanded by the program's own
``ModelInstance.lowered``; from there the variables, rows and objective are
read into arrays and handed to ``scipy.optimize.milp``, which shares no code
with the native simplex and branch and bound under test.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

# Relative gap the reference closes; far below any gap the checks allow.
REFERENCE_GAP = 1e-9


class ReferenceError(RuntimeError):
    """HiGHS did not prove an optimum."""


def reference_optimum(model) -> float:
    """Optimal objective of ``model`` in its own sense (minimize or maximize)."""
    low = model.lowered()
    n, m = low.n_variables, low.n_constraints
    c = np.zeros(n)
    for vid, coef in low.objective.terms.items():
        c[vid] = coef
    sign = -1.0 if low.sense.value == "maximize" else 1.0
    rows, cols, vals = [], [], []
    row_lo = np.full(m, -np.inf)
    row_up = np.full(m, np.inf)
    for con in low.constraints:
        for vid, coef in con.expr.terms.items():
            rows.append(con.cid)
            cols.append(vid)
            vals.append(coef)
        if con.sense in ("<=", "="):
            row_up[con.cid] = con.rhs
        if con.sense in (">=", "="):
            row_lo[con.cid] = con.rhs
    variables = low.variables
    res = milp(
        sign * c,
        integrality=np.array([1 if v.is_integer else 0 for v in variables]),
        bounds=Bounds([v.lower for v in variables], [v.upper for v in variables]),
        constraints=LinearConstraint(csr_array((vals, (rows, cols)), shape=(m, n)), row_lo, row_up),
        options={"mip_rel_gap": REFERENCE_GAP, "time_limit": 60.0},
    )
    if res.status != 0:
        raise ReferenceError(f"HiGHS on {model.name}: {res.message}")
    return sign * float(res.fun) + low.objective.constant
