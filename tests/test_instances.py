import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hiertune.instances import (
    InstanceError,
    generate_demand,
    generate_network,
    load_instance,
    save_instance,
)
from hiertune.model import ModelError
from hiertune.rtn import (
    RtnDesign,
    ScenarioSet,
    TunableParameters,
    build_full_space,
    build_high_level,
    build_low_level,
)


def test_generator_produces_valid_networks():
    for seed in range(8):
        net = generate_network(seed, n_tasks=3, n_vessels=2)
        assert len(net.tasks) == 3
        assert len(net.products()) == 1
        assert [m.mclass for m in net.materials].count("feed") == 1
        assert net.penalty >= 1.0
        dem = generate_demand(seed, net, days=7)
        dem.validate(net)


def test_generator_is_seeded():
    a = generate_network(5, n_tasks=2)
    b = generate_network(5, n_tasks=2)
    assert a.tasks == b.tasks and a.materials == b.materials and a.nu == b.nu
    c = generate_network(6, n_tasks=2)
    assert c.nu != a.nu


def test_round_trip(tmp_path):
    net = generate_network(3, n_tasks=2)
    weeks = [generate_demand(3 + k, net, days=4) for k in range(2)]
    path = tmp_path / "inst.json"
    save_instance(path, net, ScenarioSet.uniform(weeks), hours_per_day=6)
    net2, scen2, hpd = load_instance(path)
    assert hpd == 6
    assert net2.tasks == net.tasks
    assert net2.materials == net.materials
    assert net2.vessels == net.vessels
    assert net2.nu == net.nu
    assert scen2.weeks == tuple(weeks)
    assert scen2.weights == (0.5, 0.5)


def _signature(model):
    """Variables, rows and objective of the lowered model, in order."""
    low = model.lowered()
    rows = [(c.cid, list(c.expr.terms.items()), c.expr.constant, c.sense, c.rhs)
            for c in low.constraints]
    return low.variables, rows, list(low.objective.terms.items()), low.objective.constant


def test_file_with_occupancy_table_builds_the_same_models(tmp_path):
    # files once carried the occupancy table ``mu``, fixed at -1 when a task
    # starts and +1 when it ends, on the task's own vessel; the loader ignores it
    net = generate_network(7, n_tasks=3, n_vessels=2, max_duration=3)
    week = generate_demand(8, net, days=2)
    plain = tmp_path / "plain.json"
    save_instance(plain, net, ScenarioSet.uniform([week]), hours_per_day=4)
    payload = json.loads(plain.read_text())
    assert "mu" not in payload
    payload["mu"] = {
        t["name"]: {t["vessel"]: {"0": -1.0, str(t["duration"]): 1.0}} for t in payload["tasks"]
    }
    with_mu = tmp_path / "with-mu.json"
    with_mu.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    rho = TunableParameters(2.0, 1.0, 0.5, 0.5, 0.0, 1.0)
    signatures = []
    for path in (plain, with_mu):
        n, scen, hpd = load_instance(path)
        demand = scen.weeks[0]
        design = RtnDesign({v.name: 0.5 * v.cap for v in n.vessels},
                           {m.name: 0.5 * m.storage_cap for m in n.materials})
        signatures.append([
            _signature(build_full_space(n, demand, hpd, 3)),
            _signature(build_high_level(n, demand, rho, hpd, 3, demand.days)),
            _signature(build_low_level(n, demand, design, hpd, 3)),
        ])
    assert signatures[0] == signatures[1]


def _payload(tmp_path):
    net = generate_network(1, n_tasks=1)
    week = generate_demand(2, net, days=2)
    path = tmp_path / "inst.json"
    save_instance(path, net, ScenarioSet.uniform([week]), hours_per_day=4)
    return path, json.loads(path.read_text())


def test_loader_reports_first_violation_path(tmp_path):
    path, payload = _payload(tmp_path)

    payload["hours_per_day"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(InstanceError, match=r"\$\.hours_per_day"):
        load_instance(path)

    path, payload = _payload(tmp_path)
    del payload["tasks"][0]["duration"]
    path.write_text(json.dumps(payload))
    with pytest.raises(InstanceError, match=r"\$\.tasks\[0\]\.duration"):
        load_instance(path)

    path, payload = _payload(tmp_path)
    payload["tasks"][0]["duration"] = 5  # longer than the file's 4 h day
    path.write_text(json.dumps(payload))
    with pytest.raises(InstanceError, match=r"\$\.tasks\[0\]\.duration: .*hours_per_day"):
        load_instance(path)

    path, payload = _payload(tmp_path)
    payload["nu"]["T0"]["V0"] = {"0": -1.0}
    path.write_text(json.dumps(payload))
    with pytest.raises(InstanceError, match=r"\$\.network"):
        load_instance(path)

    path, payload = _payload(tmp_path)
    payload["weeks"][0]["demand"] = {"M0": [1.0, 1.0]}
    path.write_text(json.dumps(payload))
    with pytest.raises(InstanceError, match=r"\$\.weeks\[0\]"):
        load_instance(path)

    path, payload = _payload(tmp_path)
    payload["format"] = "something-else"
    path.write_text(json.dumps(payload))
    with pytest.raises(InstanceError, match=r"\$\.format"):
        load_instance(path)

    path.write_text("{not json")
    with pytest.raises(InstanceError, match=r"\$: not valid JSON"):
        load_instance(path)


def test_loader_rejects_wrongly_typed_fields(tmp_path):
    path, payload = _payload(tmp_path)
    payload["tasks"] = [1]
    path.write_text(json.dumps(payload))
    with pytest.raises(InstanceError, match=r"\$\.tasks\[0\]"):
        load_instance(path)

    path, payload = _payload(tmp_path)
    payload["tasks"][0]["duration"] = "x"
    path.write_text(json.dumps(payload))
    with pytest.raises(InstanceError, match=r"\$\.tasks\[0\]\.duration"):
        load_instance(path)


def test_loader_rejects_nan_week_weight(tmp_path):
    path, payload = _payload(tmp_path)
    payload["week_weights"] = [math.nan]
    path.write_text(json.dumps(payload))
    with pytest.raises(InstanceError, match=r"\$\.week_weights\[0\]"):
        load_instance(path)


def test_scenario_weights_must_be_finite():
    net = generate_network(1, n_tasks=1)
    weeks = (generate_demand(2, net, days=2), generate_demand(3, net, days=2))
    for weights in ((math.nan, 0.5), (math.inf, 0.5)):
        with pytest.raises(ModelError, match="finite"):
            ScenarioSet(weeks, weights)


def _value_paths(node, prefix=()):
    """Key paths of every value inside a JSON payload, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _value_paths(child, prefix + (key,))


_MISSING = object()
_MUTATIONS = st.sampled_from(
    [_MISSING, math.nan, math.inf, -1, -2.5, 0, "x", None, True, [], [1], {}, {"a": 1}]
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_loader_fuzz_one_field(tmp_path, data):
    # one field of a generated instance mutated: the loader returns or names the problem
    net = generate_network(4, n_tasks=2)
    weeks = [generate_demand(5 + k, net, days=2) for k in range(2)]
    path = tmp_path / "fuzz.json"
    save_instance(path, net, ScenarioSet.uniform(weeks), hours_per_day=3)
    payload = json.loads(path.read_text())
    where = data.draw(st.sampled_from(list(_value_paths(payload))))
    value = data.draw(_MUTATIONS)
    parent = payload
    for key in where[:-1]:
        parent = parent[key]
    if value is _MISSING:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    path.write_text(json.dumps(payload))
    try:
        load_instance(path)
    except InstanceError:
        pass
