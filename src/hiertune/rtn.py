"""Integrated design-and-scheduling models on a resource task network.

A network of tasks transforms materials (feed -> intermediates -> products)
inside capacity-limited vessels.  Vessel and storage capacities are one-time
design decisions with concave (``cost * size**0.6``) amortized investment
cost; scheduling runs on an hourly grid with daily demand that may be left
unmet against a penalty.  Three model builders share the data:

* :func:`build_full_space` - hourly scheduling plus design, one model.
* :func:`build_high_level` - daily aggregation with tunable cost prefactors.
* :func:`build_low_level` - the full-space model with the design pinned.

Cost orientation is *minimize net cost*; profit is the negative objective.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dfo import BoxDomain, DomainError
from .model import (
    EQ,
    GE,
    LE,
    Kind,
    ModelError,
    ModelInstance,
    Solution,
    Status,
)

__all__ = [
    "Task",
    "Material",
    "Vessel",
    "RtnNetwork",
    "DemandProfile",
    "ScenarioSet",
    "RtnDesign",
    "TunableParameters",
    "nu_overall",
    "build_full_space",
    "build_multiweek_full_space",
    "build_high_level",
    "build_low_level",
    "decompose_by_week",
    "aggregate_demand_approach1",
    "concat_demand_approach2",
    "extract_design",
    "make_two_level_problem",
    "AGGREGATIONS",
]

FEED, INTERMEDIATE, PRODUCT = "feed", "intermediate", "product"


@dataclass(frozen=True)
class Task:
    name: str
    vessel: str
    duration: int
    min_batch_fraction: float = 0.0
    startup_cost: float = 0.0


@dataclass(frozen=True)
class Material:
    name: str
    mclass: str
    price: float
    storage_cost: float
    storage_cap: float


@dataclass(frozen=True)
class Vessel:
    name: str
    unit_cost: float
    cap: float


class RtnNetwork:
    """Validated network data: tasks, resources, and the material table.

    ``nu[(task, material, theta)]`` carries material flows (negative =
    consumed, positive = produced) ``theta`` hours after a task start.
    Vessel occupancy is derived from each task's ``vessel`` and ``duration``:
    a start takes the hosting vessel at theta=0 and frees it at
    theta=duration.
    """

    def __init__(
        self,
        tasks: Sequence[Task],
        materials: Sequence[Material],
        vessels: Sequence[Vessel],
        nu: Mapping[tuple[str, str, int], float],
        penalty: float,
    ):
        self.tasks = tuple(tasks)
        self.materials = tuple(materials)
        self.vessels = tuple(vessels)
        self.nu = dict(nu)
        self.penalty = float(penalty)
        self.task_by_name = {t.name: t for t in self.tasks}
        self.material_by_name = {m.name: m for m in self.materials}
        self.vessel_by_name = {v.name: v for v in self.vessels}
        self.validate()
        self.hosted = {v.name: tuple(t for t in self.tasks if t.vessel == v.name) for v in self.vessels}
        self.vessel_class = {v.name: self._classify(v.name) for v in self.vessels}

    # -- structure queries ------------------------------------------------

    def products(self) -> tuple[Material, ...]:
        return tuple(m for m in self.materials if m.mclass == PRODUCT)

    def task_materials(self, task: str) -> tuple[str, ...]:
        seen = []
        for (t, r, _), v in self.nu.items():
            if t == task and v != 0.0 and r not in seen:
                seen.append(r)
        return tuple(seen)

    def _classify(self, vessel: str) -> str:
        classes = set()
        for t in self.tasks:
            if t.vessel != vessel:
                continue
            for r in self.task_materials(t.name):
                classes.add(self.material_by_name[r].mclass)
        if FEED in classes:
            return FEED
        if PRODUCT in classes:
            return PRODUCT
        return INTERMEDIATE

    def feed_flow_cap(self, material: str) -> float:
        """Implied per-hour bound on feed purchases (storage plus peak use)."""
        m = self.material_by_name[material]
        cap = m.storage_cap
        for t in self.tasks:
            use = sum(
                abs(v) for (ti, r, _), v in self.nu.items() if ti == t.name and r == material
            )
            cap += use * self.vessel_by_name[t.vessel].cap
        return cap

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        names = [t.name for t in self.tasks] + [m.name for m in self.materials] + [
            v.name for v in self.vessels
        ]
        if len(set(names)) != len(names):
            raise ModelError("task/material/vessel names must be unique")
        if self.penalty < 0:
            raise ModelError("penalty must be nonnegative")
        for m in self.materials:
            if m.mclass not in (FEED, INTERMEDIATE, PRODUCT):
                raise ModelError(f"material {m.name!r}: bad class {m.mclass!r}")
            if m.price < 0 or m.storage_cost < 0 or m.storage_cap < 0:
                raise ModelError(f"material {m.name!r}: costs and caps must be nonnegative")
        for v in self.vessels:
            if v.unit_cost < 0 or v.cap < 0:
                raise ModelError(f"vessel {v.name!r}: costs and caps must be nonnegative")
        for t in self.tasks:
            if t.vessel not in self.vessel_by_name:
                raise ModelError(f"task {t.name!r}: unknown vessel {t.vessel!r}")
            if not (isinstance(t.duration, int) and 1 <= t.duration <= 24):
                raise ModelError(f"task {t.name!r}: duration must be an integer in 1..24")
            if not 0 <= t.min_batch_fraction <= 1:
                raise ModelError(f"task {t.name!r}: min batch fraction must lie in [0, 1]")
            if t.startup_cost < 0:
                raise ModelError(f"task {t.name!r}: startup cost must be nonnegative")
        for (ti, r, theta), val in self.nu.items():
            if ti not in self.task_by_name:
                raise ModelError(f"nu[{ti},{r},{theta}]: unknown task")
            if r not in self.material_by_name:
                raise ModelError(f"nu[{ti},{r},{theta}]: nu is only defined on materials")
            if not 0 <= theta <= self.task_by_name[ti].duration:
                raise ModelError(f"nu[{ti},{r},{theta}]: theta outside 0..duration")
            if not math.isfinite(val):
                raise ModelError(f"nu[{ti},{r},{theta}]: non-finite value")


def nu_overall(network: RtnNetwork, task: str, material: str) -> float:
    """Net material coefficient: the nu entries summed over the task's life."""
    t = network.task_by_name[task]
    return sum(
        network.nu.get((task, material, theta), 0.0) for theta in range(t.duration + 1)
    )


@dataclass(frozen=True)
class DemandProfile:
    """Per-product daily demand over a horizon of whole days."""

    days: int
    by_product: dict[str, tuple[float, ...]]

    def demand(self, product: str, day: int) -> float:
        return self.by_product[product][day - 1]

    def validate(self, network: RtnNetwork) -> None:
        products = {m.name for m in network.products()}
        if set(self.by_product) != products:
            raise ModelError(
                f"demand must cover exactly the products {sorted(products)}, "
                f"got {sorted(self.by_product)}"
            )
        for name, series in self.by_product.items():
            if len(series) != self.days:
                raise ModelError(f"demand for {name!r} has {len(series)} days, expected {self.days}")
            if any(d < 0 for d in series):
                raise ModelError(f"demand for {name!r} must be nonnegative")


@dataclass(frozen=True)
class ScenarioSet:
    """Weighted demand scenarios (representative weeks)."""

    weeks: tuple[DemandProfile, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weeks) != len(self.weights) or not self.weeks:
            raise ModelError("scenario set needs one weight per profile")
        if not all(math.isfinite(w) and w > 0 for w in self.weights):
            raise ModelError("scenario weights must be finite and positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ModelError("scenario weights must sum to 1")

    @classmethod
    def uniform(cls, weeks: Iterable[DemandProfile]) -> "ScenarioSet":
        weeks = tuple(weeks)
        return cls(weeks, tuple(1.0 / len(weeks) for _ in weeks))


@dataclass(frozen=True)
class RtnDesign:
    vessel_size: dict[str, float]
    storage_size: dict[str, float]

    def __hash__(self) -> int:
        # by value, consistent with the generated __eq__ on the two dicts
        return hash((frozenset(self.vessel_size.items()), frozenset(self.storage_size.items())))

    def validate(self, network: RtnNetwork, tol: float = 1e-6) -> None:
        for v in network.vessels:
            size = self.vessel_size.get(v.name, 0.0)
            if not -tol <= size <= v.cap + tol:
                raise ModelError(f"vessel size {size} outside [0, {v.cap}] for {v.name!r}")
        for m in network.materials:
            size = self.storage_size.get(m.name, 0.0)
            if not -tol <= size <= m.storage_cap + tol:
                raise ModelError(f"storage size {size} outside [0, {m.storage_cap}] for {m.name!r}")


# ρ1..ρ6 bounds: penalty/vessel-class/storage prefactors max 30, startup max 50
_RHO_BOUNDS = ((0.0, 30.0),) * 5 + ((0.0, 50.0),)


@dataclass(frozen=True)
class TunableParameters:
    """High-level cost prefactors tuned by the black-box optimizer."""

    demand_penalty: float = 1.0
    feed_vessel: float = 0.0
    product_vessel: float = 0.0
    intermediate_vessel: float = 0.0
    storage: float = 0.0
    startup: float = 0.0

    @staticmethod
    def box() -> BoxDomain:
        return BoxDomain(
            tuple(lo for lo, _ in _RHO_BOUNDS), tuple(up for _, up in _RHO_BOUNDS)
        )

    @classmethod
    def from_array(cls, rho: Sequence[float]) -> "TunableParameters":
        if len(rho) != len(_RHO_BOUNDS):
            raise DomainError(f"expected {len(_RHO_BOUNDS)} parameters, got {len(rho)}")
        return cls(*(float(x) for x in rho))

    def to_array(self) -> np.ndarray:
        return np.array(astuple(self))

    def validate(self) -> None:
        self.box().require(self.to_array(), tol=0.0)

    def vessel_prefactor(self, vessel_class: str) -> float:
        return {
            FEED: self.feed_vessel,
            PRODUCT: self.product_vessel,
            INTERMEDIATE: self.intermediate_vessel,
        }[vessel_class]


# ---------------------------------------------------------------------------
# builders


def _add_design(
    model: ModelInstance,
    network: RtnNetwork,
    n_breakpoints: int,
    rho: TunableParameters | None,
) -> tuple[dict[str, int], dict[str, int]]:
    """Design variables plus their piecewise investment costs.

    Zero-prefactor terms are skipped: they contribute nothing to the
    objective and would only add idle segment binaries to the lowered model.
    """
    vessel_vid: dict[str, int] = {}
    storage_vid: dict[str, int] = {}
    for v in network.vessels:
        vid = model.add_variable(f"Vmax[{v.name}]", Kind.CONTINUOUS, 0.0, v.cap)
        vessel_vid[v.name] = vid
        pref = v.unit_cost if rho is None else rho.vessel_prefactor(network.vessel_class[v.name]) * v.unit_cost
        if pref > 0 and v.cap > 0:
            model.add_pwl_power_cost(vid, pref, 0.6, n_breakpoints)
    for m in network.materials:
        vid = model.add_variable(f"Xmax[{m.name}]", Kind.CONTINUOUS, 0.0, m.storage_cap)
        storage_vid[m.name] = vid
        pref = m.storage_cost if rho is None else rho.storage * m.storage_cost
        if pref > 0 and m.storage_cap > 0:
            model.add_pwl_power_cost(vid, pref, 0.6, n_breakpoints)
    return vessel_vid, storage_vid


def _add_week_block(
    model: ModelInstance,
    network: RtnNetwork,
    demand: DemandProfile,
    hours_per_day: int,
    prefix: str,
    ops_weight: float,
    vessel_vid: dict[str, int],
    storage_vid: dict[str, int],
) -> None:
    """Hourly scheduling block for one demand profile.

    Adds start binaries N, batch sizes E, trade flows pi (feeds buy in,
    products ship out), inventories X, daily unmet-demand slacks sl, the
    resource balances, demand accounting, storage caps, and big-M batch
    bounds.  Operating costs enter the objective scaled by ``ops_weight``.
    """
    hpd = hours_per_day
    H = demand.days * hpd
    pen = network.penalty

    for t in network.tasks:
        if t.duration > hpd:
            raise ModelError(
                f"task {t.name!r} lasts {t.duration} h which exceeds {hpd} h per day"
            )

    n_vid: dict[tuple[str, int], int] = {}
    e_vid: dict[tuple[str, int], int] = {}
    for task in network.tasks:
        cap = network.vessel_by_name[task.vessel].cap
        for t in range(1, H + 1):
            startable = t + task.duration <= H
            n_vid[task.name, t] = model.add_variable(
                f"{prefix}N[{task.name},{t}]", Kind.BINARY, 0.0, 1.0 if startable else 0.0
            )
            e_vid[task.name, t] = model.add_variable(
                f"{prefix}E[{task.name},{t}]", Kind.CONTINUOUS, 0.0, cap if startable else 0.0
            )

    pi_vid: dict[tuple[str, int], int] = {}
    for m in network.materials:
        if m.mclass == FEED:
            cap = network.feed_flow_cap(m.name)
            for t in range(1, H + 1):
                pi_vid[m.name, t] = model.add_variable(
                    f"{prefix}pi[{m.name},{t}]", Kind.CONTINUOUS, 0.0, cap
                )
        elif m.mclass == PRODUCT:
            for t in range(1, H + 1):
                day = (t - 1) // hpd + 1
                pi_vid[m.name, t] = model.add_variable(
                    f"{prefix}pi[{m.name},{t}]", Kind.CONTINUOUS, -demand.demand(m.name, day), 0.0
                )

    x_vid: dict[tuple[str, int], int] = {}
    for m in network.materials:
        for t in range(1, H + 1):
            x_vid[m.name, t] = model.add_variable(
                f"{prefix}X[{m.name},{t}]", Kind.CONTINUOUS, 0.0, m.storage_cap
            )
    for v in network.vessels:
        for t in range(1, H + 1):
            x_vid[v.name, t] = model.add_variable(
                f"{prefix}X[{v.name},{t}]", Kind.CONTINUOUS, 0.0, 1.0
            )

    sl_vid: dict[tuple[str, int], int] = {}
    for m in network.products():
        for n in range(1, demand.days + 1):
            sl_vid[m.name, n] = model.add_variable(
                f"{prefix}sl[{m.name},{n}]", Kind.CONTINUOUS, 0.0, demand.demand(m.name, n)
            )

    # resource balance: X[r,t] = X[r,t-1] + sum_i sum_theta (mu N + nu E) + pi
    for m in network.materials:
        for t in range(1, H + 1):
            expr = {x_vid[m.name, t]: 1.0}
            if t > 1:
                expr[x_vid[m.name, t - 1]] = -1.0
            for (ti, r, theta), coef in network.nu.items():
                if r != m.name or coef == 0.0:
                    continue
                t0 = t - theta
                if 1 <= t0 <= H:
                    key = e_vid[ti, t0]
                    expr[key] = expr.get(key, 0.0) - coef
            if (m.name, t) in pi_vid:
                expr[pi_vid[m.name, t]] = -1.0
            model.add_constraint(expr, EQ, 0.0)
    for v in network.vessels:
        for t in range(1, H + 1):
            expr = {x_vid[v.name, t]: 1.0}
            if t > 1:
                expr[x_vid[v.name, t - 1]] = -1.0
            for task in network.hosted[v.name]:
                # mu N moved to the left: mu is -1 at theta=0 (a start takes
                # the vessel) and +1 at theta=duration (the end frees it)
                expr[n_vid[task.name, t]] = 1.0
                if t - task.duration >= 1:
                    expr[n_vid[task.name, t - task.duration]] = -1.0
            rhs = 1.0 if t == 1 else 0.0  # vessels start available, materials empty
            model.add_constraint(expr, EQ, rhs)

    # daily demand accounting: shipped + sl = D
    for m in network.products():
        for n in range(1, demand.days + 1):
            expr = {sl_vid[m.name, n]: 1.0}
            for t in range((n - 1) * hpd + 1, n * hpd + 1):
                expr[pi_vid[m.name, t]] = -1.0
            model.add_constraint(expr, EQ, demand.demand(m.name, n))

    # inventory within the designed storage size
    for m in network.materials:
        xmax = storage_vid[m.name]
        for t in range(1, H + 1):
            model.add_constraint({x_vid[m.name, t]: 1.0, xmax: -1.0}, LE, 0.0)

    # batch bounds, big-M linearized with the design cap
    for task in network.tasks:
        v = network.vessel_by_name[task.vessel]
        vmax = vessel_vid[task.vessel]
        vmin = task.min_batch_fraction
        for t in range(1, H + 1):
            if t + task.duration > H:
                continue
            e, nn = e_vid[task.name, t], n_vid[task.name, t]
            model.add_constraint({e: 1.0, nn: -v.cap}, LE, 0.0)
            model.add_constraint({e: 1.0, vmax: -1.0}, LE, 0.0)
            if vmin > 0:
                model.add_constraint({e: 1.0, vmax: -vmin, nn: -vmin * v.cap}, GE, -vmin * v.cap)

    # operating costs
    for task in network.tasks:
        if task.startup_cost > 0:
            for t in range(1, H + 1):
                model.add_objective_term(n_vid[task.name, t], ops_weight * task.startup_cost)
    for (mname, t), vid in pi_vid.items():
        price = network.material_by_name[mname].price
        if price != 0:
            model.add_objective_term(vid, ops_weight * price)
    for (mname, n), vid in sl_vid.items():
        price = network.material_by_name[mname].price
        model.add_objective_term(vid, ops_weight * pen * price)


def build_full_space(
    network: RtnNetwork,
    demand: DemandProfile,
    hours_per_day: int = 24,
    n_breakpoints: int = 8,
) -> ModelInstance:
    """Integrated hourly scheduling + design model for one demand profile."""
    demand.validate(network)
    model = ModelInstance(f"rtn-full-{demand.days}d", "minimize")
    vessel_vid, storage_vid = _add_design(model, network, n_breakpoints, rho=None)
    _add_week_block(model, network, demand, hours_per_day, "", 1.0, vessel_vid, storage_vid)
    return model.seal()


def build_multiweek_full_space(
    network: RtnNetwork,
    scenarios: ScenarioSet,
    hours_per_day: int = 24,
    n_breakpoints: int = 8,
) -> ModelInstance:
    """Monolithic model over all scenario weeks sharing one design.

    Week blocks are independent (inventory resets between weeks); operating
    costs are weighted by the scenario weights, investment is counted once,
    so the optimum value equals the best weighted-average weekly cost.
    """
    for week in scenarios.weeks:
        week.validate(network)
    model = ModelInstance(f"rtn-full-{len(scenarios.weeks)}w", "minimize")
    vessel_vid, storage_vid = _add_design(model, network, n_breakpoints, rho=None)
    for k, (week, weight) in enumerate(zip(scenarios.weeks, scenarios.weights)):
        _add_week_block(
            model, network, week, hours_per_day, f"w{k}.", weight, vessel_vid, storage_vid
        )
    return model.seal()


def build_high_level(
    network: RtnNetwork,
    demand: DemandProfile,
    rho: TunableParameters,
    hours_per_day: int = 24,
    n_breakpoints: int = 8,
    week_length: int = 7,
) -> ModelInstance:
    """Daily-aggregated design model with tunable cost prefactors.

    Task starts become general integers capped by the vessel-hours budget,
    material balances use the per-task net coefficients, and inventory is
    forced to zero at the end of every ``week_length``-day block and at the
    final day.
    """
    demand.validate(network)
    rho.validate()
    hpd = hours_per_day
    ND = demand.days
    pen = network.penalty
    reset_days = {d for d in range(week_length, ND + 1, week_length)} | {ND}

    model = ModelInstance(f"rtn-high-{ND}d", "minimize")
    vessel_vid, storage_vid = _add_design(model, network, n_breakpoints, rho=rho)

    kcap = {}
    for task in network.tasks:
        if task.duration > hpd:
            raise ModelError(
                f"task {task.name!r} lasts {task.duration} h which exceeds {hpd} h per day"
            )
        kcap[task.name] = hpd // task.duration

    n_vid: dict[tuple[str, int], int] = {}
    e_vid: dict[tuple[str, int], int] = {}
    for task in network.tasks:
        cap = network.vessel_by_name[task.vessel].cap
        for n in range(1, ND + 1):
            n_vid[task.name, n] = model.add_variable(
                f"Nagg[{task.name},{n}]", Kind.INTEGER, 0.0, float(kcap[task.name])
            )
            e_vid[task.name, n] = model.add_variable(
                f"Eagg[{task.name},{n}]", Kind.CONTINUOUS, 0.0, kcap[task.name] * cap
            )

    pi_vid: dict[tuple[str, int], int] = {}
    for m in network.materials:
        if m.mclass == FEED:
            cap = hpd * network.feed_flow_cap(m.name)
            for n in range(1, ND + 1):
                pi_vid[m.name, n] = model.add_variable(
                    f"piagg[{m.name},{n}]", Kind.CONTINUOUS, 0.0, cap
                )
        elif m.mclass == PRODUCT:
            for n in range(1, ND + 1):
                pi_vid[m.name, n] = model.add_variable(
                    f"piagg[{m.name},{n}]", Kind.CONTINUOUS, -demand.demand(m.name, n), 0.0
                )

    x_vid: dict[tuple[str, int], int] = {}
    for m in network.materials:
        for n in range(1, ND + 1):
            upper = 0.0 if n in reset_days else m.storage_cap
            x_vid[m.name, n] = model.add_variable(
                f"Xagg[{m.name},{n}]", Kind.CONTINUOUS, 0.0, upper
            )

    sl_vid: dict[tuple[str, int], int] = {}
    for m in network.products():
        for n in range(1, ND + 1):
            sl_vid[m.name, n] = model.add_variable(
                f"sl[{m.name},{n}]", Kind.CONTINUOUS, 0.0, demand.demand(m.name, n)
            )

    # daily material balance with net coefficients
    for m in network.materials:
        for n in range(1, ND + 1):
            expr = {x_vid[m.name, n]: 1.0}
            if n > 1:
                expr[x_vid[m.name, n - 1]] = -1.0
            for task in network.tasks:
                coef = nu_overall(network, task.name, m.name)
                if coef != 0.0:
                    expr[e_vid[task.name, n]] = -coef
            if (m.name, n) in pi_vid:
                expr[pi_vid[m.name, n]] = -1.0
            model.add_constraint(expr, EQ, 0.0)

    for m in network.products():
        for n in range(1, ND + 1):
            model.add_constraint(
                {sl_vid[m.name, n]: 1.0, pi_vid[m.name, n]: -1.0}, EQ, demand.demand(m.name, n)
            )

    for m in network.materials:
        xmax = storage_vid[m.name]
        for n in range(1, ND + 1):
            model.add_constraint({x_vid[m.name, n]: 1.0, xmax: -1.0}, LE, 0.0)

    # batch bounds: E <= Vmax * Nagg, linearized with the design cap big-M
    for task in network.tasks:
        v = network.vessel_by_name[task.vessel]
        vmax = vessel_vid[task.vessel]
        vmin = task.min_batch_fraction
        K = kcap[task.name]
        for n in range(1, ND + 1):
            e, nn = e_vid[task.name, n], n_vid[task.name, n]
            model.add_constraint({e: 1.0, nn: -v.cap}, LE, 0.0)
            model.add_constraint({e: 1.0, vmax: -float(K)}, LE, 0.0)
            if vmin > 0:
                model.add_constraint(
                    {e: 1.0, nn: -vmin * v.cap, vmax: -vmin * K}, GE, -vmin * K * v.cap
                )

    # a vessel offers hpd task-hours per day
    for v in network.vessels:
        if not network.hosted[v.name]:
            continue
        for n in range(1, ND + 1):
            expr = {n_vid[task.name, n]: float(task.duration) for task in network.hosted[v.name]}
            model.add_constraint(expr, LE, float(hpd))

    # parameterized operating costs
    for task in network.tasks:
        coef = rho.startup * task.startup_cost
        if coef != 0:
            for n in range(1, ND + 1):
                model.add_objective_term(n_vid[task.name, n], coef)
    for (mname, n), vid in pi_vid.items():
        price = network.material_by_name[mname].price
        if price != 0:
            model.add_objective_term(vid, price)
    for (mname, n), vid in sl_vid.items():
        price = network.material_by_name[mname].price
        coef = rho.demand_penalty * pen * price
        if coef != 0:
            model.add_objective_term(vid, coef)
    return model.seal()


def build_low_level(
    network: RtnNetwork,
    demand: DemandProfile,
    design: RtnDesign,
    hours_per_day: int = 24,
    n_breakpoints: int = 8,
) -> ModelInstance:
    """Full-space model with the design pinned; investment cost stays in the
    objective so the optimum is the true integrated cost of that design."""
    design.validate(network)
    model = build_full_space(network, demand, hours_per_day, n_breakpoints)
    fixing = {}
    for v in network.vessels:
        fixing[model.variable_id(f"Vmax[{v.name}]")] = design.vessel_size.get(v.name, 0.0)
    for m in network.materials:
        fixing[model.variable_id(f"Xmax[{m.name}]")] = design.storage_size.get(m.name, 0.0)
    return model.fix_variables(fixing)


def decompose_by_week(
    network: RtnNetwork,
    scenarios: ScenarioSet,
    design: RtnDesign,
    hours_per_day: int = 24,
    n_breakpoints: int = 8,
) -> list[tuple[float, ModelInstance]]:
    """One fixed-design weekly model per scenario.

    Each weekly objective includes the investment cost; the weights sum to
    one, so the weighted average counts the design cost exactly once.
    """
    return [
        (weight, build_low_level(network, week, design, hours_per_day, n_breakpoints))
        for week, weight in zip(scenarios.weeks, scenarios.weights)
    ]


def aggregate_demand_approach1(weeks: Sequence[DemandProfile]) -> DemandProfile:
    """Average the weekly profiles elementwise into one week."""
    if not weeks:
        raise ModelError("need at least one weekly profile")
    days = weeks[0].days
    if any(w.days != days for w in weeks):
        raise ModelError("weekly profiles must share the same horizon")
    by_product = {}
    for name in weeks[0].by_product:
        by_product[name] = tuple(
            float(np.mean([w.by_product[name][d] for w in weeks])) for d in range(days)
        )
    return DemandProfile(days, by_product)


def concat_demand_approach2(weeks: Sequence[DemandProfile]) -> DemandProfile:
    """Concatenate the weekly profiles into one long horizon, week by week."""
    if not weeks:
        raise ModelError("need at least one weekly profile")
    days = weeks[0].days
    if any(w.days != days for w in weeks):
        raise ModelError("weekly profiles must share the same horizon")
    by_product = {
        name: tuple(x for w in weeks for x in w.by_product[name]) for name in weeks[0].by_product
    }
    return DemandProfile(days * len(weeks), by_product)


def extract_design(
    model: ModelInstance,
    solution: Solution,
    network: RtnNetwork,
    feasibility_tolerance: float = 1e-6,
) -> RtnDesign:
    """Read the least design a high-level solution needs.

    Each vessel and storage size shrinks to the smallest value that keeps
    every row of ``model`` satisfied at the solution's other values.  Sizes
    enter the high level only through ``E <= K*Vmax``, the ``bmin`` rows and
    ``X <= Xmax``, and no cost falls as a size shrinks, so the result is
    still a high-level optimum; and it does not depend on where the solver
    left a size that has no price.  Values within tolerance outside
    [0, cap] are clamped; an unusable solution status is an error.
    """
    if solution.status not in (Status.OPTIMAL, Status.FEASIBLE_GAP):
        raise ModelError(f"cannot extract a design from a {solution.status.value} solution")

    def _clamp(value: float, cap: float, what: str) -> float:
        if value < -feasibility_tolerance or value > cap + feasibility_tolerance:
            raise ModelError(f"{what} value {value} outside [0, {cap}]")
        return min(max(value, 0.0), cap)

    vessels = {v.name: (model.variable_id(f"Vmax[{v.name}]"), v.cap) for v in network.vessels}
    storage = {
        m.name: (model.variable_id(f"Xmax[{m.name}]"), m.storage_cap) for m in network.materials
    }
    rows: dict[int, list] = {vid: [] for vid, _ in (*vessels.values(), *storage.values())}
    for con in model.constraints:
        for vid in rows.keys() & con.expr.terms.keys():
            rows[vid].append(con)
    values = dict(solution.values)

    def _least(vid: int, cap: float, what: str) -> float:
        values[vid] = min(_clamp(values[vid], cap, what), _least_value(vid, rows[vid], values))
        return values[vid]

    vessel_size = {name: _least(vid, cap, f"vessel {name!r}") for name, (vid, cap) in vessels.items()}
    storage_size = {
        name: _least(vid, cap, f"storage {name!r}") for name, (vid, cap) in storage.items()
    }
    return RtnDesign(vessel_size, storage_size)


def _least_value(vid: int, rows, values: Mapping[int, float]) -> float:
    """Smallest non-negative value of ``vid`` satisfying ``rows`` at the other values."""
    need = 0.0
    for con in rows:
        a = con.expr.terms[vid]
        room = con.rhs - sum(c * values[v] for v, c in con.expr.terms.items() if v != vid)
        # a row bounds vid from below when a*v <= room with a < 0, or a*v >= room
        # with a > 0; an equality row pins it
        if con.sense == EQ or (con.sense == LE) == (a < 0):
            need = max(need, room / a)
    return need


def make_two_level_problem(
    network: RtnNetwork,
    scenarios: ScenarioSet,
    aggregation: str = "approach2",
    hours_per_day: int = 24,
    n_breakpoints: int = 8,
    high_options=None,
    low_options=None,
    final_low_options=None,
):
    """Bind the network to the tuning engine.

    ``aggregation`` selects the high-level demand: ``approach1`` (elementwise
    average of the weeks) or ``approach2`` (weeks concatenated with an
    inventory reset at each week boundary).  On one week both are that week.
    The low level is always the set of fixed-design weekly models; its
    weighted average counts the investment cost once.
    """
    from .engine import TwoLevelProblem  # binding layer; engine stays rtn-free
    from .model import SolveOptions

    if aggregation not in AGGREGATIONS:
        raise ModelError(f"unknown aggregation {aggregation!r}")
    if aggregation == "approach1":
        high_demand = aggregate_demand_approach1(scenarios.weeks)
        week_length = high_demand.days
    else:
        high_demand = concat_demand_approach2(scenarios.weeks)
        week_length = scenarios.weeks[0].days

    def build_high(rho_vec) -> ModelInstance:
        rho = TunableParameters.from_array(rho_vec)
        return build_high_level(
            network, high_demand, rho, hours_per_day, n_breakpoints, week_length
        )

    def extract(model: ModelInstance, solution: Solution) -> RtnDesign:
        return extract_design(model, solution, network)

    def build_lows(design: RtnDesign):
        return decompose_by_week(network, scenarios, design, hours_per_day, n_breakpoints)

    return TwoLevelProblem(
        bounds=TunableParameters.box(),
        build_high=build_high,
        extract=extract,
        build_lows=build_lows,
        high_options=high_options or SolveOptions(),
        low_options=low_options or SolveOptions(),
        final_low_options=final_low_options,
    )


AGGREGATIONS = ("approach1", "approach2")
