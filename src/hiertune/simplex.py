"""Dense two-phase tableau simplex: the enumeration oracle's LP kernel.

HiGHS (:mod:`hiertune.milp`) does the program's solving; this kernel serves
only ``milp.brute_force_milp``, the oracle that checks it on tiny models, and
imports nothing but numpy so that the oracle shares no code with HiGHS.

Problem form: ``min c@x  s.t.  A@x (<=,=,>=) b,  lower <= x <= upper`` with
sense codes -1/0/+1 for <=/=/>= and ``A`` given as CSC columns.  The kernel
maps it onto ``min cz@z  s.t.  Az@z = bz >= 0,  z >= 0``:

* each column is shifted (finite lower bound), reflected (upper bound only)
  or split into two (free), so that ``z >= 0``; a fixed column is a constant;
* each finite range ``upper - lower`` becomes a ``<=`` row;
* each inequality row gets a slack, and rows with a negative right-hand side
  are negated.

One artificial per row gives the starting basis.  Phase 1 minimizes their sum;
phase 2 minimizes the cost with artificials barred from entering.  Both phases
price and pick the leaving row by Bland's rule, which ends every pivot
sequence, so no iteration cap is needed.  The row duals ``y`` are read from
the artificials' phase-2 reduced costs, so ``c - A.T@y`` is the reduced cost
of each original column.
"""

from __future__ import annotations

import numpy as np

LP_OPTIMAL = 0
LP_INFEASIBLE = 1
LP_UNBOUNDED = 2

_EPS = 1e-9


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, e: int) -> None:
    T[r] /= T[r, e]
    col = T[:, e].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    basis[r] = e


def _bland(T: np.ndarray, basis: np.ndarray, cost_row: int, n_enter: int) -> tuple[bool, int]:
    """Pivot until ``cost_row`` prices out over the first ``n_enter`` columns.

    Returns (unbounded, pivots).
    """
    m = len(basis)
    pivots = 0
    while True:
        entering = np.flatnonzero(T[cost_row, :n_enter] < -_EPS)
        if entering.size == 0:
            return False, pivots
        e = entering[0]
        rows = np.flatnonzero(T[:m, e] > _EPS)
        if rows.size == 0:
            return True, pivots
        ratios = T[rows, -1] / T[rows, e]
        ties = rows[ratios <= ratios.min() + 1e-12]
        _pivot(T, basis, ties[np.argmin(basis[ties])], e)
        pivots += 1


def solve_lp_csc(cptr, crow, cval, m, senses, b, c, lower, upper):
    """Solve from CSC columns; returns (status, x, y, iterations)."""
    cptr = np.asarray(cptr, dtype=np.int64)
    n = len(cptr) - 1
    senses = np.asarray(senses, dtype=np.int64)
    b, c = np.asarray(b, dtype=np.float64), np.asarray(c, dtype=np.float64)
    lower, upper = np.asarray(lower, dtype=np.float64), np.asarray(upper, dtype=np.float64)
    if np.any(lower > upper):
        return LP_INFEASIBLE, np.zeros(n), np.zeros(m), 0
    A = np.zeros((m, n))
    np.add.at(A, (np.asarray(crow, dtype=np.int64), np.repeat(np.arange(n), np.diff(cptr))), cval)

    # x = shift + sum over z columns of sign * z, z >= 0
    lo_fin, up_fin = np.isfinite(lower), np.isfinite(upper)
    shift = np.where(lo_fin, lower, np.where(up_fin, upper, 0.0))
    plus = np.flatnonzero(lo_fin & (upper > lower) | ~lo_fin & ~up_fin)
    minus = np.flatnonzero(~lo_fin)
    idx = np.concatenate([plus, minus])
    sign = np.concatenate([np.ones(len(plus)), -np.ones(len(minus))])
    nz = len(idx)
    ranged = np.flatnonzero(lo_fin[idx] & up_fin[idx])

    rows = np.zeros((m + len(ranged), nz))
    rows[:m] = A[:, idx] * sign
    rows[m + np.arange(len(ranged)), ranged] = 1.0
    rhs = np.concatenate([b - A @ shift, upper[idx[ranged]] - lower[idx[ranged]]])
    row_sense = np.concatenate([senses, -np.ones(len(ranged), dtype=np.int64)])
    M = len(rhs)
    ineq = np.flatnonzero(row_sense != 0)
    slacks = np.zeros((M, len(ineq)))
    slacks[ineq, np.arange(len(ineq))] = -row_sense[ineq]
    flip = np.where(rhs < 0, -1.0, 1.0)
    N = nz + len(ineq)

    # rows 0..M-1 constraints, row M phase-2 costs, row M+1 phase-1 costs;
    # the last column holds the right-hand side (minus the objective on cost rows)
    T = np.zeros((M + 2, N + M + 1))
    T[:M, :nz] = flip[:, None] * rows
    T[:M, nz:N] = flip[:, None] * slacks
    T[:M, N : N + M] = np.eye(M)
    T[:M, -1] = flip * rhs
    T[M, :nz] = c[idx] * sign
    T[M + 1] = -T[:M].sum(axis=0)
    T[M + 1, N : N + M] = 0.0
    basis = np.arange(N, N + M)

    _, iters = _bland(T, basis, M + 1, N)
    if -T[M + 1, -1] > 1e-7 * max(1.0, np.abs(b).max(initial=0.0)):
        return LP_INFEASIBLE, np.zeros(n), np.zeros(m), iters
    for r in np.flatnonzero(basis >= N):
        # a basic artificial sits at zero; swap in any structural or slack column
        cand = np.flatnonzero(np.abs(T[r, :N]) > _EPS)
        if cand.size:
            _pivot(T, basis, r, cand[0])
            iters += 1
    unbounded, more = _bland(T, basis, M, N)
    iters += more

    z = np.zeros(N + M)
    z[basis] = T[:M, -1]
    x = shift.copy()
    np.add.at(x, idx, sign * z[:nz])
    y = (flip * -T[M, N : N + M])[:m]
    return (LP_UNBOUNDED if unbounded else LP_OPTIMAL), x, y, iters
