import numpy as np
import pytest

from hiertune.instances import generate_demand, generate_network
from hiertune.rtn import DemandProfile, Material, RtnNetwork, ScenarioSet, Task, Vessel


@pytest.fixture
def chain2():
    """Two-task chain (feed -> intermediate -> product), hand-written data."""
    tasks = [
        Task("T0", vessel="V0", duration=1, min_batch_fraction=0.1, startup_cost=0.2),
        Task("T1", vessel="V1", duration=2, min_batch_fraction=0.0, startup_cost=0.1),
    ]
    materials = [
        Material("F", "feed", price=1.0, storage_cost=0.3, storage_cap=40.0),
        Material("A", "intermediate", price=2.0, storage_cost=0.4, storage_cap=40.0),
        Material("P", "product", price=8.0, storage_cost=0.5, storage_cap=40.0),
    ]
    vessels = [Vessel("V0", unit_cost=1.0, cap=20.0), Vessel("V1", unit_cost=1.5, cap=20.0)]
    nu = {
        ("T0", "F", 0): -1.0,
        ("T0", "A", 1): 0.9,
        ("T1", "A", 0): -1.0,
        ("T1", "P", 2): 1.0,
    }
    return RtnNetwork(tasks, materials, vessels, nu, penalty=2.0)


@pytest.fixture
def chain2_demand(chain2):
    return DemandProfile(2, {"P": (6.0, 4.0)})


def tiny_case(seed, n_tasks=2, days=2, hpd=4, demand_scale=6.0, max_duration=2):
    net = generate_network(seed, n_tasks=n_tasks, max_duration=max_duration, demand_scale=demand_scale)
    dem = generate_demand(seed + 1000, net, days=days, demand_scale=demand_scale)
    return net, dem, hpd


def week_scenarios(seed, net, n_weeks, days=7, demand_scale=6.0):
    weeks = [
        generate_demand(seed + 100 * k, net, days=days, demand_scale=demand_scale)
        for k in range(n_weeks)
    ]
    return ScenarioSet.uniform(weeks)
