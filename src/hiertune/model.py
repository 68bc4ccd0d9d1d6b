"""Mixed-integer linear models with piecewise-linearized power-law cost terms.

A :class:`ModelInstance` is built incrementally (variables, linear
constraints, piecewise cost terms, linear objective), sealed, and then
handed to the solver in :mod:`hiertune.milp`.  Variables are looked up by
name; constraints carry no name and are identified by their row index
``cid``.  Concave ``prefactor * v**p`` cost terms are kept symbolic on the
model, as breakpoint values, and expanded into the incremental (binary per
segment) encoding by :meth:`ModelInstance.lowered`, which is exact at the
breakpoints and linear in between.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "Kind",
    "Sense",
    "Status",
    "ModelError",
    "SealedModelError",
    "FixOutOfBoundsError",
    "Variable",
    "LinExpr",
    "Constraint",
    "PiecewiseCostTerm",
    "Solution",
    "SolveOptions",
    "ModelInstance",
]

_NAME_RE = re.compile(r"^\S+$")


class Kind(str, enum.Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"
    INTEGER = "integer"


class Sense(str, enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class Status(str, enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE_GAP = "feasible-gap"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NO_INCUMBENT = "time-limit-no-incumbent"
    NUMERICAL_FAILURE = "numerical-failure"


#: Row senses for constraints.
LE, EQ, GE = "<=", "=", ">="
_ROW_SENSES = (LE, EQ, GE)


class ModelError(ValueError):
    """Malformed model construction or query."""


class SealedModelError(ModelError):
    """Mutation attempted on a sealed model."""


class FixOutOfBoundsError(ModelError):
    """A variable was fixed to a value outside its bounds."""


@dataclass(frozen=True)
class Variable:
    vid: int
    name: str
    kind: Kind
    lower: float
    upper: float

    @property
    def is_integer(self) -> bool:
        return self.kind is not Kind.CONTINUOUS


class LinExpr:
    """Sparse linear expression: ``sum(coef * var) + constant``.

    Zero coefficients are dropped on normalization; all entries must be
    finite.
    """

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[int, float] | None = None, constant: float = 0.0):
        self.terms: dict[int, float] = {}
        if terms:
            for vid, coef in terms.items():
                self.add_term(vid, coef)
        if not math.isfinite(constant):
            raise ModelError(f"non-finite constant {constant!r}")
        self.constant = float(constant)

    def add_term(self, vid: int, coef: float) -> "LinExpr":
        coef = float(coef)
        if not math.isfinite(coef):
            raise ModelError(f"non-finite coefficient {coef!r} for variable {vid}")
        new = self.terms.get(vid, 0.0) + coef
        if new == 0.0:
            self.terms.pop(vid, None)
        else:
            self.terms[vid] = new
        return self

    def copy(self) -> "LinExpr":
        out = LinExpr()
        out.terms = dict(self.terms)
        out.constant = self.constant
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = " + ".join(f"{c}*v{v}" for v, c in sorted(self.terms.items()))
        return f"LinExpr({body or '0'} + {self.constant})"


@dataclass(frozen=True)
class Constraint:
    cid: int
    expr: LinExpr
    sense: str
    rhs: float


@dataclass(frozen=True)
class PiecewiseCostTerm:
    """Cost term ``interp(breakpoints, values)(variable)`` added to the objective.

    ``values[k]`` already includes the prefactor.
    """

    variable: int
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]


@dataclass
class Solution:
    """Variable assignment returned by a solve."""

    values: dict[int, float]
    objective: float
    status: Status


@dataclass(frozen=True)
class SolveOptions:
    """Limits for one solve."""

    time_limit: float = 60.0
    mip_gap: float = 1e-4
    node_limit: int = 10**9

    def __post_init__(self):
        # written as a comparison that NaN fails
        if not 0 < self.time_limit < math.inf or self.node_limit <= 0:
            raise ModelError("limits must be positive and finite")
        if not 0 <= self.mip_gap < 1:
            raise ModelError("mip_gap must lie in [0, 1)")


class ModelInstance:
    """A mutable-until-sealed mixed-integer linear model."""

    def __init__(self, name: str = "model", sense: Sense | str = Sense.MINIMIZE):
        self.name = name
        self.sense = Sense(sense)
        self._vars: list[Variable] = []
        self._by_name: dict[str, int] = {}
        self._cons: list[Constraint] = []
        self.objective = LinExpr()
        self._pwl: list[PiecewiseCostTerm] = []
        self._sealed = False

    # -- introspection -------------------------------------------------

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._vars)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._cons)

    @property
    def pwl_terms(self) -> tuple[PiecewiseCostTerm, ...]:
        return tuple(self._pwl)

    @property
    def n_variables(self) -> int:
        return len(self._vars)

    @property
    def n_constraints(self) -> int:
        return len(self._cons)

    @property
    def is_sealed(self) -> bool:
        return self._sealed

    def var(self, vid: int) -> Variable:
        return self._vars[vid]

    def variable_id(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown variable name {name!r}") from None

    def integer_ids(self) -> list[int]:
        return [v.vid for v in self._vars if v.is_integer]

    # -- construction ---------------------------------------------------

    def _check_open(self):
        if self._sealed:
            raise SealedModelError(f"model {self.name!r} is sealed")

    def add_variable(
        self,
        name: str,
        kind: Kind | str = Kind.CONTINUOUS,
        lower: float = 0.0,
        upper: float = math.inf,
    ) -> int:
        self._check_open()
        kind = Kind(kind)
        if not _NAME_RE.match(name):
            raise ModelError(f"bad variable name {name!r} (whitespace/empty not allowed)")
        if name in self._by_name:
            raise ModelError(f"duplicate variable name {name!r}")
        lower, upper = float(lower), float(upper)
        if math.isnan(lower) or math.isnan(upper) or lower > upper:
            raise ModelError(f"inverted or NaN bounds [{lower}, {upper}] for {name!r}")
        if kind is Kind.BINARY and (lower < 0 or upper > 1):
            raise ModelError(f"binary variable {name!r} needs bounds within [0, 1]")
        vid = len(self._vars)
        self._vars.append(Variable(vid, name, kind, lower, upper))
        self._by_name[name] = vid
        return vid

    def set_bounds(self, vid: int, lower: float, upper: float) -> None:
        self._check_open()
        if lower > upper:
            raise ModelError(f"inverted bounds [{lower}, {upper}]")
        v = self._vars[vid]
        self._vars[vid] = replace(v, lower=float(lower), upper=float(upper))

    def add_constraint(
        self,
        expr: LinExpr | Mapping[int, float] | Iterable[tuple[int, float]],
        sense: str,
        rhs: float,
    ) -> Constraint:
        """Append the row ``expr sense rhs``; its ``cid`` is its position.

        A constant in ``expr`` moves to the right-hand side.
        """
        self._check_open()
        if sense not in _ROW_SENSES:
            raise ModelError(f"bad row sense {sense!r}")
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise ModelError(f"non-finite rhs {rhs!r}")
        if not isinstance(expr, LinExpr):
            expr = LinExpr(dict(expr))
        for vid in expr.terms:
            if not 0 <= vid < len(self._vars):
                raise ModelError(f"constraint references unknown variable id {vid}")
        if expr.constant:
            rhs -= expr.constant
            expr = LinExpr(expr.terms)
        con = Constraint(len(self._cons), expr, sense, rhs)
        self._cons.append(con)
        return con

    def add_objective_term(self, vid: int, coef: float) -> None:
        self._check_open()
        if not 0 <= vid < len(self._vars):
            raise ModelError(f"objective references unknown variable id {vid}")
        self.objective.add_term(vid, coef)

    def add_objective_constant(self, value: float) -> None:
        self._check_open()
        self.objective.constant += float(value)

    def add_pwl_power_cost(
        self,
        vid: int,
        prefactor: float,
        exponent: float = 0.6,
        n_breakpoints: int = 8,
    ) -> PiecewiseCostTerm:
        """Register the cost term ``prefactor * v**exponent`` on variable ``vid``.

        Breakpoints are spaced uniformly over the variable's range, which must
        start at 0 and be bounded above.
        """
        self._check_open()
        v = self._vars[vid]
        if v.kind is not Kind.CONTINUOUS:
            raise ModelError(f"piecewise cost requires a continuous variable, got {v.kind}")
        if v.lower != 0.0:
            raise ModelError(f"piecewise power cost requires lower bound 0, got {v.lower}")
        if not math.isfinite(v.upper):
            raise ModelError(f"piecewise cost requires a finite upper bound on {v.name!r}")
        if n_breakpoints < 2:
            raise ModelError("need at least 2 breakpoints")
        if prefactor < 0:
            raise ModelError("prefactor must be nonnegative")
        if not 0 < exponent <= 1:
            raise ModelError("exponent must lie in (0, 1]")
        bps = np.linspace(0.0, v.upper, n_breakpoints)
        vals = prefactor * bps**exponent
        term = PiecewiseCostTerm(vid, tuple(bps.tolist()), tuple(vals.tolist()))
        self._pwl.append(term)
        return term

    def seal(self) -> "ModelInstance":
        self._sealed = True
        return self

    # -- derived models -------------------------------------------------

    def _clone(self) -> "ModelInstance":
        out = ModelInstance(self.name, self.sense)
        out._vars = list(self._vars)
        out._by_name = dict(self._by_name)
        out._cons = list(self._cons)
        out.objective = self.objective.copy()
        out._pwl = list(self._pwl)
        return out

    def fix_variables(
        self,
        assignments: Mapping[int, float],
        feasibility_tolerance: float = 1e-6,
        integrality_tolerance: float = 1e-6,
    ) -> "ModelInstance":
        """Return a new model with each listed variable pinned to its value.

        Integer-kind targets are rounded to the nearest integer when within
        the integrality tolerance; values outside the variable's bounds by
        more than the feasibility tolerance raise
        :class:`FixOutOfBoundsError`.
        """
        out = self._clone()
        for vid, value in assignments.items():
            v = out._vars[vid]
            value = float(value)
            if v.is_integer:
                nearest = round(value)
                if abs(value - nearest) > integrality_tolerance:
                    raise FixOutOfBoundsError(
                        f"cannot fix integer variable {v.name!r} to fractional {value}"
                    )
                value = float(nearest)
            if value < v.lower - feasibility_tolerance or value > v.upper + feasibility_tolerance:
                raise FixOutOfBoundsError(
                    f"value {value} outside bounds [{v.lower}, {v.upper}] of {v.name!r}"
                )
            value = min(max(value, v.lower), v.upper)
            out._vars[vid] = replace(v, lower=value, upper=value)
        if self._sealed:
            out.seal()
        return out

    def lowered(self) -> "ModelInstance":
        """Expand piecewise cost terms into their mixed-integer encoding.

        Each term over segments ``k`` gets fill variables ``d_k`` in
        ``[0, width_k]`` with ``v = sum(d_k)``, slope costs, and ordering
        binaries forcing segment ``k+1`` to stay empty until segment ``k``
        is full.  Returns ``self`` when there is nothing to expand.
        """
        if not self._pwl:
            return self
        out = self._clone()
        out._pwl = []
        for idx, term in enumerate(self._pwl):
            bps, vals = term.breakpoints, term.values
            nseg = len(bps) - 1
            base = f"__pwl{idx}.{self._vars[term.variable].name}"
            link = LinExpr({term.variable: 1.0})
            dids = []
            for k in range(nseg):
                width = bps[k + 1] - bps[k]
                did = out.add_variable(f"{base}.d{k}", Kind.CONTINUOUS, 0.0, width)
                dids.append(did)
                slope = (vals[k + 1] - vals[k]) / width if width > 0 else 0.0
                out.add_objective_term(did, slope)
                link.add_term(did, -1.0)
            out.add_objective_constant(vals[0])
            out.add_constraint(link, EQ, bps[0])
            for k in range(nseg - 1):
                w_k = bps[k + 1] - bps[k]
                w_next = bps[k + 2] - bps[k + 1]
                yid = out.add_variable(f"{base}.y{k}", Kind.BINARY, 0.0, 1.0)
                out.add_constraint({dids[k]: 1.0, yid: -w_k}, GE, 0.0)
                out.add_constraint({dids[k + 1]: 1.0, yid: -w_next}, LE, 0.0)
        if self._sealed:
            out.seal()
        return out
