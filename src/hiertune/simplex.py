"""Bounded-variable revised simplex on sparse columns: the oracle's LP kernel.

HiGHS (:mod:`hiertune.milp`) does the program's solving; this kernel serves
only ``milp.brute_force_milp``, the enumeration oracle, so that the oracle
shares no code with the solver it checks.  It runs as plain numpy and Python.

Two-phase primal simplex with lower/upper bounds on every column, Dantzig
pricing with a Bland's-rule fallback once a long run of degenerate pivots is
detected, an explicit basis inverse with periodic refactorization, and an
O(m) incremental dual-vector update per pivot.  Columns are stored CSC so
pricing costs O(nnz) per iteration.

Problem form: ``min c@x  s.t.  A@x (<=,=,>=) b,  lower <= x <= upper`` with
sense codes -1/0/+1 for <=/=/>=.  Slack and phase-1 artificial columns are
appended internally.
"""

from __future__ import annotations

import numpy as np

LP_OPTIMAL = 0
LP_INFEASIBLE = 1
LP_UNBOUNDED = 2
LP_FAILURE = 3

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2
_FREE = 3

_REFACTOR_EVERY = 150


def _lp_core(cptr, crow, cval, m, senses, b, c, lower, upper, max_iter):  # noqa: C901
    """Solve the LP; returns (status, x, y, iterations)."""
    n = cptr.shape[0] - 1
    ncap = n + 2 * m
    nnz_cap = cptr[n] + 2 * m

    # extended CSC holding structural, slack, and artificial columns
    ptr = np.empty(ncap + 1, np.int64)
    row = np.empty(nnz_cap, np.int64)
    val = np.empty(nnz_cap, np.float64)
    ptr[: n + 1] = cptr
    row[: cptr[n]] = crow
    val[: cptr[n]] = cval

    lo = np.empty(ncap)
    up = np.empty(ncap)
    lo[:n] = lower
    up[:n] = upper
    pos = cptr[n]
    for i in range(m):
        j = n + i
        row[pos] = i
        val[pos] = 1.0
        pos += 1
        ptr[j + 1] = pos
        if senses[i] < 0:
            lo[j] = 0.0
            up[j] = np.inf
        elif senses[i] > 0:
            lo[j] = -np.inf
            up[j] = 0.0
        else:
            lo[j] = 0.0
            up[j] = 0.0

    bscale = 1.0
    for i in range(m):
        if abs(b[i]) > bscale:
            bscale = abs(b[i])
    ptol = 1e-9 * bscale

    status = np.full(ncap, np.int8(_AT_LOWER))
    xnb = np.zeros(ncap)
    for j in range(n):
        if np.isfinite(lo[j]):
            xnb[j] = lo[j]
        elif np.isfinite(up[j]):
            status[j] = _AT_UPPER
            xnb[j] = up[j]
        else:
            status[j] = _FREE
            xnb[j] = 0.0

    # residual with every structural column nonbasic
    r = b.copy()
    for j in range(n):
        xj = xnb[j]
        if xj != 0.0:
            for k in range(ptr[j], ptr[j + 1]):
                r[row[k]] -= val[k] * xj

    basis = np.empty(m, np.int64)
    xB = np.empty(m)
    nart = 0
    for i in range(m):
        j = n + i
        if lo[j] - ptol <= r[i] <= up[j] + ptol:
            basis[i] = j
            status[j] = _BASIC
            xB[i] = min(max(r[i], lo[j]), up[j])
        else:
            snb = lo[j] if r[i] < lo[j] else up[j]
            xnb[j] = snb
            status[j] = _AT_LOWER if snb == lo[j] else _AT_UPPER
            k = n + m + nart
            d = r[i] - snb
            row[pos] = i
            val[pos] = 1.0 if d > 0 else -1.0
            pos += 1
            ptr[k + 1] = pos
            lo[k] = 0.0
            up[k] = np.inf
            basis[i] = k
            status[k] = _BASIC
            xB[i] = abs(d)
            nart += 1
    ntot = n + m + nart

    # initial basis columns are signed unit vectors
    Binv = np.eye(m)
    for i in range(m):
        bj = basis[i]
        Binv[i, i] = val[ptr[bj]]

    cwork = np.zeros(ncap)
    if nart > 0:
        phase = 1
        for k in range(n + m, ntot):
            cwork[k] = 1.0
    else:
        phase = 2
        cwork[:n] = c

    cscale = 1.0
    for j in range(ntot):
        if abs(cwork[j]) > cscale:
            cscale = abs(cwork[j])
    dtol = 1e-9 * cscale

    y = np.zeros(m)
    for i in range(m):
        ci = cwork[basis[i]]
        if ci != 0.0:
            for k in range(m):
                y[k] += ci * Binv[i, k]

    iters = 0
    deg_run = 0
    bland = False
    bland_after = 4 * (m + ntot) + 200
    since_refactor = 0
    w = np.empty(m)

    while True:
        if iters >= max_iter:
            return LP_FAILURE, np.zeros(n), np.zeros(m), iters

        # pricing: reduced cost d_j = c_j - y @ A_j over sparse columns
        e = -1
        de = 0.0
        bestmag = dtol
        for j in range(ntot):
            s = status[j]
            if s == _BASIC or lo[j] == up[j]:
                continue
            dj = cwork[j]
            for k in range(ptr[j], ptr[j + 1]):
                dj -= y[row[k]] * val[k]
            ok = (
                (s == _AT_LOWER and dj < -dtol)
                or (s == _AT_UPPER and dj > dtol)
                or (s == _FREE and abs(dj) > dtol)
            )
            if ok:
                if bland:
                    e = j
                    de = dj
                    break
                if abs(dj) > bestmag:
                    bestmag = abs(dj)
                    e = j
                    de = dj

        if e < 0:
            if phase == 1:
                obj1 = 0.0
                for i in range(m):
                    if basis[i] >= n + m:
                        obj1 += xB[i]
                if obj1 > 1e-7 * bscale:
                    return LP_INFEASIBLE, np.zeros(n), y, iters
                for k in range(n + m, ntot):
                    up[k] = 0.0
                cwork[:] = 0.0
                cwork[:n] = c
                cscale = 1.0
                for j in range(n):
                    if abs(c[j]) > cscale:
                        cscale = abs(c[j])
                dtol = 1e-9 * cscale
                y[:] = 0.0
                for i in range(m):
                    ci = cwork[basis[i]]
                    if ci != 0.0:
                        for k in range(m):
                            y[k] += ci * Binv[i, k]
                phase = 2
                bland = False
                deg_run = 0
                continue
            x = np.zeros(n)
            for j in range(n):
                if status[j] != _BASIC:
                    x[j] = xnb[j]
            for i in range(m):
                if basis[i] < n:
                    x[basis[i]] = xB[i]
            return LP_OPTIMAL, x, y, iters

        t = 1.0
        if status[e] == _AT_UPPER or (status[e] == _FREE and de > 0):
            t = -1.0

        # w = Binv @ A_e
        w[:] = 0.0
        for k in range(ptr[e], ptr[e + 1]):
            vk = val[k]
            rk = row[k]
            for i in range(m):
                w[i] += vk * Binv[i, rk]

        own_cap = up[e] - lo[e]
        rmin = np.inf
        for i in range(m):
            ci = t * w[i]
            bi = basis[i]
            if ci > 1e-11:
                lim = (xB[i] - lo[bi]) / ci
            elif ci < -1e-11:
                lim = (up[bi] - xB[i]) / (-ci)
            else:
                continue
            if lim < rmin:
                rmin = lim
        if rmin < 0.0:
            rmin = 0.0
        step = own_cap if own_cap < rmin else rmin

        if not np.isfinite(step):
            if phase == 2:
                x = np.zeros(n)
                for j in range(n):
                    if status[j] != _BASIC:
                        x[j] = xnb[j]
                for i in range(m):
                    if basis[i] < n:
                        x[basis[i]] = xB[i]
                return LP_UNBOUNDED, x, y, iters
            return LP_FAILURE, np.zeros(n), y, iters  # phase 1 cannot be unbounded

        iters += 1
        if step <= ptol:
            deg_run += 1
            if deg_run > bland_after:
                bland = True
        else:
            deg_run = 0
            bland = False

        if own_cap <= rmin:
            # bound flip: basis unchanged
            for i in range(m):
                xB[i] -= t * w[i] * step
            if status[e] == _AT_LOWER:
                status[e] = _AT_UPPER
                xnb[e] = up[e]
            else:
                status[e] = _AT_LOWER
                xnb[e] = lo[e]
            continue

        # leaving row: among ties pick the largest pivot magnitude
        # (Bland mode: the smallest leaving variable index)
        rsel = -1
        bestpiv = 0.0
        bestvar = np.int64(1 << 60)
        for i in range(m):
            ci = t * w[i]
            bi = basis[i]
            if ci > 1e-11:
                lim = (xB[i] - lo[bi]) / ci
            elif ci < -1e-11:
                lim = (up[bi] - xB[i]) / (-ci)
            else:
                continue
            if lim < 0.0:
                lim = 0.0
            if lim <= rmin + ptol:
                if bland:
                    if bi < bestvar:
                        bestvar = bi
                        rsel = i
                elif abs(ci) > bestpiv:
                    bestpiv = abs(ci)
                    rsel = i
        if rsel < 0 or abs(w[rsel]) < 1e-11:
            return LP_FAILURE, np.zeros(n), y, iters

        lv = basis[rsel]
        for i in range(m):
            xB[i] -= t * w[i] * step
        if t * w[rsel] > 0.0:
            status[lv] = _AT_LOWER
            xnb[lv] = lo[lv]
        else:
            status[lv] = _AT_UPPER
            xnb[lv] = up[lv]
        enter_val = xnb[e] + t * step
        basis[rsel] = e
        status[e] = _BASIC
        xnb[e] = 0.0

        piv = w[rsel]
        brow = Binv[rsel] / piv
        for i in range(m):
            wi = w[i]
            if i != rsel and wi != 0.0:
                for k in range(m):
                    Binv[i, k] -= wi * brow[k]
        Binv[rsel] = brow
        xB[rsel] = enter_val

        # dual update: y' = y + d_e * (new row rsel of Binv)
        for k in range(m):
            y[k] += de * brow[k]

        since_refactor += 1
        if since_refactor >= _REFACTOR_EVERY:
            since_refactor = 0
            B = np.zeros((m, m))
            for i in range(m):
                bj = basis[i]
                for k in range(ptr[bj], ptr[bj + 1]):
                    B[row[k], i] = val[k]
            Binv = np.ascontiguousarray(np.linalg.inv(B))
            r2 = b.copy()
            for j in range(ntot):
                if status[j] != _BASIC:
                    xj = xnb[j]
                    if xj != 0.0:
                        for k in range(ptr[j], ptr[j + 1]):
                            r2[row[k]] -= val[k] * xj
            xB = np.dot(Binv, r2)
            y[:] = 0.0
            for i in range(m):
                ci = cwork[basis[i]]
                if ci != 0.0:
                    for k in range(m):
                        y[k] += ci * Binv[i, k]


def solve_lp_csc(cptr, crow, cval, m, senses, b, c, lower, upper, max_iter=None):
    """Solve from CSC columns; returns (status, x, y, iterations)."""
    n = len(cptr) - 1
    if max_iter is None:
        max_iter = 1000 + 40 * (n + m)
    return _lp_core(
        np.ascontiguousarray(cptr, dtype=np.int64),
        np.ascontiguousarray(crow, dtype=np.int64),
        np.ascontiguousarray(cval, dtype=np.float64),
        m,
        np.ascontiguousarray(senses, dtype=np.int8),
        np.ascontiguousarray(b, dtype=np.float64),
        np.ascontiguousarray(c, dtype=np.float64),
        np.ascontiguousarray(lower, dtype=np.float64),
        np.ascontiguousarray(upper, dtype=np.float64),
        max_iter,
    )
