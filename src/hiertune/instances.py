"""Synthetic network generation and instance files.

The generator builds seeded feed -> intermediates -> product chains with
randomized durations, yields, costs, and caps, structurally matching the
model builders in :mod:`hiertune.rtn`.  Instance files are JSON objects with
the fields ``format``, ``hours_per_day``, ``penalty``, the record arrays
``tasks``, ``materials`` and ``vessels`` (one object per record, with the
fields that ``_RECORDS`` declares), the material table ``nu``, the weekly
demand profiles ``weeks`` and their ``week_weights``.  Vessel occupancy is
derived from each task's vessel and duration, so files carry no occupancy
table; a ``mu`` field written by earlier versions is ignored.  The loader
validates every network invariant and reports the first violation with its
JSON path; that includes a task longer than ``hours_per_day``, which no
model builder accepts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .model import ModelError
from .rtn import (
    FEED,
    INTERMEDIATE,
    PRODUCT,
    DemandProfile,
    Material,
    RtnNetwork,
    ScenarioSet,
    Task,
    Vessel,
)

__all__ = [
    "InstanceError",
    "generate_network",
    "generate_demand",
    "save_instance",
    "load_instance",
    "FORMAT",
]

FORMAT = "rtn-instance/1"


class InstanceError(ValueError):
    """Malformed instance file; the message carries the JSON path."""


def generate_network(
    seed: int,
    n_tasks: int = 2,
    n_vessels: int | None = None,
    max_duration: int = 2,
    demand_scale: float = 10.0,
) -> RtnNetwork:
    """Seeded chain network: one feed, ``n_tasks - 1`` intermediates, one product.

    Task k converts material k into material k+1 with a random yield; caps,
    prices, and costs are sized so that serving demand is profitable but the
    design budget matters.
    """
    rng = np.random.default_rng(seed)
    n_vessels = n_tasks if n_vessels is None else n_vessels
    if n_tasks < 1 or n_vessels < 1:
        raise ModelError("need at least one task and one vessel")

    mat_names = [f"M{k}" for k in range(n_tasks + 1)]
    classes = [FEED] + [INTERMEDIATE] * (n_tasks - 1) + [PRODUCT]
    vessel_cap = float(rng.uniform(2.5, 4.0)) * demand_scale
    vessels = [
        Vessel(f"V{j}", unit_cost=float(rng.uniform(0.5, 2.0)), cap=vessel_cap)
        for j in range(n_vessels)
    ]
    materials = []
    for name, mclass in zip(mat_names, classes):
        price = {
            FEED: float(rng.uniform(0.5, 1.5)),
            INTERMEDIATE: float(rng.uniform(1.0, 3.0)),
            PRODUCT: float(rng.uniform(6.0, 12.0)),
        }[mclass]
        materials.append(
            Material(
                name,
                mclass,
                price=price,
                storage_cost=float(rng.uniform(0.1, 0.6)),
                storage_cap=float(rng.uniform(4.0, 8.0)) * demand_scale,
            )
        )

    tasks = []
    nu: dict[tuple[str, str, int], float] = {}
    for k in range(n_tasks):
        duration = int(rng.integers(1, max_duration + 1))
        vessel = vessels[k % n_vessels].name
        task = Task(
            f"T{k}",
            vessel=vessel,
            duration=duration,
            min_batch_fraction=float(rng.choice([0.0, rng.uniform(0.05, 0.25)])),
            startup_cost=float(rng.uniform(0.05, 0.5)),
        )
        tasks.append(task)
        nu[task.name, mat_names[k], 0] = -1.0
        nu[task.name, mat_names[k + 1], duration] = float(rng.uniform(0.85, 1.1))

    penalty = float(rng.uniform(1.5, 3.0))
    return RtnNetwork(tasks, materials, vessels, nu, penalty)


def generate_demand(
    seed: int, network: RtnNetwork, days: int, demand_scale: float = 10.0
) -> DemandProfile:
    """Seeded daily demand with day-to-day variation for every product."""
    rng = np.random.default_rng(seed)
    by_product = {}
    for m in network.products():
        base = rng.uniform(0.3, 1.0) * demand_scale
        series = base * rng.uniform(0.3, 1.5, size=days)
        by_product[m.name] = tuple(float(round(x, 3)) for x in series)
    return DemandProfile(days, by_product)


# ---------------------------------------------------------------------------
# JSON round trip


def _network_payload(network: RtnNetwork) -> dict[str, Any]:
    return {
        "penalty": network.penalty,
        **{
            key: [{field: getattr(r, attr) for field, attr, _, _ in fields}
                  for r in getattr(network, key)]
            for key, (_, fields) in _RECORDS.items()
        },
        "nu": _table_payload(network.nu),
    }


def _table_payload(table: dict[tuple[str, str, int], float]) -> dict:
    out: dict[str, dict[str, dict[str, float]]] = {}
    for (task, resource, theta), value in sorted(table.items()):
        out.setdefault(task, {}).setdefault(resource, {})[str(theta)] = value
    return out


def save_instance(
    path: str | Path,
    network: RtnNetwork,
    scenarios: ScenarioSet,
    hours_per_day: int = 24,
) -> None:
    payload = {
        "format": FORMAT,
        "hours_per_day": hours_per_day,
        **_network_payload(network),
        "weeks": [
            {"days": w.days, "demand": {k: list(v) for k, v in sorted(w.by_product.items())}}
            for w in scenarios.weeks
        ],
        "week_weights": list(scenarios.weights),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise InstanceError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise InstanceError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise InstanceError(f"{path}: expected a string, got {value!r}")
    return value


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceError(f"{path}: expected an integer, got {value!r}")
    return value


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InstanceError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _field(obj: dict, key: str, path: str, parse, default: Any = None) -> Any:
    """``obj[key]`` checked by ``parse``; required unless a default is given."""
    if key not in obj:
        if default is None:
            raise InstanceError(f"{path}.{key}: missing")
        return default
    return parse(obj[key], f"{path}.{key}")


def _rows(obj: dict, key: str, path: str):
    """(path, object) for each entry of the array ``obj[key]``."""
    for k, row in enumerate(_field(obj, key, path, _array)):
        p = f"{path}.{key}[{k}]"
        yield p, _object(row, p)


#: Each record array of an instance file: the record type and, per field, its
#: JSON key, the attribute it sets, its parser and its default (None: required).
_RECORDS = {
    "tasks": (Task, (
        ("name", "name", _string, None),
        ("vessel", "vessel", _string, None),
        ("duration", "duration", _integer, None),
        ("min_batch_fraction", "min_batch_fraction", _number, 0.0),
        ("startup_cost", "startup_cost", _number, 0.0),
    )),
    "materials": (Material, (
        ("name", "name", _string, None),
        ("class", "mclass", _string, None),
        ("price", "price", _number, None),
        ("storage_cost", "storage_cost", _number, 0.0),
        ("storage_cap", "storage_cap", _number, None),
    )),
    "vessels": (Vessel, (
        ("name", "name", _string, None),
        ("unit_cost", "unit_cost", _number, 0.0),
        ("cap", "cap", _number, None),
    )),
}


def _records(payload: dict, key: str) -> list:
    """The records of the array ``payload[key]``, each field checked in declared order."""
    cls, fields = _RECORDS[key]
    return [
        cls(**{attr: _field(row, field, p, parse, default)
               for field, attr, parse, default in fields})
        for p, row in _rows(payload, key, "$")
    ]


def _table_from_payload(payload: dict, path: str) -> dict[tuple[str, str, int], float]:
    table = {}
    for task, per_resource in payload.items():
        for resource, per_theta in _object(per_resource, f"{path}.{task}").items():
            for theta, value in _object(per_theta, f"{path}.{task}.{resource}").items():
                p = f"{path}.{task}.{resource}.{theta}"
                try:
                    key = (task, resource, int(theta))
                except ValueError:
                    raise InstanceError(f"{p}: bad offset") from None
                table[key] = _number(value, p)
    return table


def load_instance(path: str | Path) -> tuple[RtnNetwork, ScenarioSet, int]:
    """Load and validate an instance file.

    Raises :class:`InstanceError` naming the JSON path of the first
    violation, wrongly typed and non-finite values included.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InstanceError(f"$: cannot read {path} ({exc})") from None
    except json.JSONDecodeError as exc:
        raise InstanceError(f"$: not valid JSON ({exc})") from None
    payload = _object(payload, "$")
    if payload.get("format") != FORMAT:
        raise InstanceError(f"$.format: expected {FORMAT!r}, got {payload.get('format')!r}")
    hours_per_day = _field(payload, "hours_per_day", "$", _integer)
    if not 1 <= hours_per_day <= 24:
        raise InstanceError(f"$.hours_per_day: must be an integer in 1..24, got {hours_per_day!r}")

    tasks = _records(payload, "tasks")
    for k, task in enumerate(tasks):
        if task.duration > hours_per_day:
            raise InstanceError(
                f"$.tasks[{k}].duration: task {task.name!r} lasts {task.duration} h, "
                f"more than hours_per_day ({hours_per_day})"
            )
    materials = _records(payload, "materials")
    vessels = _records(payload, "vessels")
    nu = _table_from_payload(_field(payload, "nu", "$", _object), "$.nu")
    penalty = _field(payload, "penalty", "$", _number)
    try:
        network = RtnNetwork(tasks, materials, vessels, nu, penalty)
    except ModelError as exc:
        raise InstanceError(f"$.network: {exc}") from None

    weeks = []
    for p, row in _rows(payload, "weeks", "$"):
        days = _field(row, "days", p, _integer)
        if days < 1:
            raise InstanceError(f"{p}.days: must be positive, got {days}")
        demand = {}
        for name, series in _field(row, "demand", p, _object).items():
            q = f"{p}.demand.{name}"
            demand[name] = tuple(_number(x, f"{q}[{d}]") for d, x in enumerate(_array(series, q)))
        profile = DemandProfile(days, demand)
        try:
            profile.validate(network)
        except ModelError as exc:
            raise InstanceError(f"{p}: {exc}") from None
        weeks.append(profile)
    if not weeks:
        raise InstanceError("$.weeks: needs at least one week")
    weights = [
        _number(w, f"$.week_weights[{k}]")
        for k, w in enumerate(_field(payload, "week_weights", "$", _array, []))
    ] or [1.0 / len(weeks)] * len(weeks)
    try:
        scenarios = ScenarioSet(tuple(weeks), tuple(weights))
    except ModelError as exc:
        raise InstanceError(f"$.week_weights: {exc}") from None
    return network, scenarios, hours_per_day
