import math
from typing import Mapping

import numpy as np
import pytest

from hiertune.dfo import DomainError
from hiertune.instances import generate_demand, generate_network
from hiertune.milp import brute_force_milp, solve_model
from hiertune.model import Kind, ModelError, Solution, SolveOptions, Status
from hiertune.rtn import (
    FEED,
    PRODUCT,
    DemandProfile,
    Material,
    RtnDesign,
    RtnNetwork,
    ScenarioSet,
    Task,
    TunableParameters,
    Vessel,
    aggregate_demand_approach1,
    build_full_space,
    build_high_level,
    build_low_level,
    build_multiweek_full_space,
    concat_demand_approach2,
    decompose_by_week,
    extract_design,
    nu_overall,
)

from conftest import evaluate_solution, expr_value, pwl_value, row_residual, tiny_case

OPTS = SolveOptions(mip_gap=1e-6, time_limit=120)
ONES = TunableParameters(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def caps_design(net, frac=1.0):
    return RtnDesign(
        {v.name: frac * v.cap for v in net.vessels},
        {m.name: frac * m.storage_cap for m in net.materials},
    )


def zero_design(net):
    return caps_design(net, 0.0)


# -- network data ------------------------------------------------------------


def test_nu_overall(chain2):
    assert nu_overall(chain2, "T1", "A") == pytest.approx(-1.0)
    assert nu_overall(chain2, "T1", "P") == pytest.approx(1.0)
    assert nu_overall(chain2, "T0", "P") == 0.0
    # conservation pair sums to zero
    net = chain2
    net2 = RtnNetwork(
        net.tasks,
        net.materials,
        net.vessels,
        {**net.nu, ("T1", "A", 2): 1.0},
        net.penalty,
    )
    assert nu_overall(net2, "T1", "A") == pytest.approx(0.0)


def test_nu_overall_random_table_matches_direct_sum():
    rng = np.random.default_rng(0)
    tasks = [Task("T", "V", 3)]
    materials = [Material("M", "feed", 1.0, 0.1, 10.0)]
    vessels = [Vessel("V", 1.0, 5.0)]
    table = {("T", "M", theta): float(rng.normal()) for theta in range(4)}
    net = RtnNetwork(tasks, materials, vessels, table, 1.0)
    assert nu_overall(net, "T", "M") == pytest.approx(sum(table.values()))


def test_network_validation_rejects_bad_tables(chain2):
    base = dict(
        tasks=chain2.tasks,
        materials=chain2.materials,
        vessels=chain2.vessels,
        penalty=chain2.penalty,
    )
    # nu on a vessel
    bad_nu = {**chain2.nu, ("T0", "V0", 0): -1.0}
    with pytest.raises(ModelError):
        RtnNetwork(nu=bad_nu, **base)
    # theta beyond the task duration
    bad_nu = {**chain2.nu, ("T0", "A", 2): 1.0}
    with pytest.raises(ModelError):
        RtnNetwork(nu=bad_nu, **base)


def test_vessel_classification(chain2):
    assert chain2.vessel_class == {"V0": "feed", "V1": "product"}


def test_class_partition_matches_recomputation():
    for seed in range(6):
        net = generate_network(seed, n_tasks=4, n_vessels=3)
        for v in net.vessels:
            classes = set()
            for t in net.hosted[v.name]:
                for r in net.task_materials(t.name):
                    classes.add(net.material_by_name[r].mclass)
            expected = (
                "feed" if "feed" in classes else ("product" if "product" in classes else "intermediate")
            )
            assert net.vessel_class[v.name] == expected
        # the three classes partition the vessels
        assert sorted(net.vessel_class) == sorted(v.name for v in net.vessels)


def test_demand_profile_validation(chain2):
    with pytest.raises(ModelError):
        DemandProfile(2, {"F": (1.0, 1.0)}).validate(chain2)
    with pytest.raises(ModelError):
        DemandProfile(2, {"P": (1.0,)}).validate(chain2)
    with pytest.raises(ModelError):
        DemandProfile(2, {"P": (1.0, -2.0)}).validate(chain2)


def test_scenario_weights():
    p = DemandProfile(1, {"P": (1.0,)})
    with pytest.raises(ModelError):
        ScenarioSet((p,), (0.5,))
    s = ScenarioSet.uniform([p, p])
    assert s.weights == (0.5, 0.5)


def test_tunable_parameter_box():
    TunableParameters().validate()
    with pytest.raises(DomainError):
        TunableParameters(demand_penalty=31.0).validate()
    with pytest.raises(DomainError):
        TunableParameters(startup=51.0).validate()
    TunableParameters(startup=50.0).validate()
    rho = TunableParameters.from_array([1, 2, 3, 4, 5, 6])
    assert rho.vessel_prefactor("feed") == 2
    assert rho.vessel_prefactor("product") == 3
    assert rho.vessel_prefactor("intermediate") == 4


# -- full-space builder --------------------------------------------------------


def test_full_space_hand_count():
    # 1 task (tau=2), 1 feed, 1 product, 1 vessel, 1 day of 24 hours;
    # nonzero minimum batch so all three batch rows appear (vmin=0 drops one)
    tasks = [Task("T", "V", 2, min_batch_fraction=0.2)]
    materials = [
        Material("F", "feed", 1.0, 0.2, 50.0),
        Material("P", "product", 5.0, 0.2, 50.0),
    ]
    vessels = [Vessel("V", 1.0, 30.0)]
    nu = {("T", "F", 0): -1.0, ("T", "P", 2): 1.0}
    net = RtnNetwork(tasks, materials, vessels, nu, 2.0)
    dem = DemandProfile(1, {"P": (10.0,)})
    nbp = 8
    model = build_full_space(net, dem, hours_per_day=24, n_breakpoints=nbp)

    H = 24
    n_binary = sum(1 for v in model.variables if v.kind is Kind.BINARY)
    assert n_binary == H  # the start binaries
    # variables: N + E + pi(F,P) + X(F,P,V) + sl + design(V, F, P)
    assert model.n_variables == H + H + 2 * H + 3 * H + 1 + 3
    # rows: balance |R|*H + demand |R_p|*days + storage caps |R_mat|*H
    #       + batch 3 per startable hour (tau forbids the last 2 hours)
    startable = H - 2
    expected = 3 * H + 1 + 2 * H + 3 * startable
    assert model.n_constraints == expected
    # lowering adds per term: nseg fills + (nseg-1) binaries, 1 link + 2(nseg-1) rows
    low = model.lowered()
    nseg = nbp - 1
    assert low.n_variables == model.n_variables + 3 * (nseg + nseg - 1)
    assert low.n_constraints == model.n_constraints + 3 * (1 + 2 * (nseg - 1))


def test_full_space_zero_demand_is_free(chain2):
    dem = DemandProfile(2, {"P": (0.0, 0.0)})
    model = build_full_space(chain2, dem, hours_per_day=4, n_breakpoints=3)
    rep = solve_model(model, OPTS)
    assert rep.status is Status.OPTIMAL
    assert rep.incumbent.objective == pytest.approx(0.0, abs=1e-9)


def test_paper_scale_shape_counts():
    # structurally matching instance: 22 tasks, 17 materials, 11 vessels, 7 days
    net = generate_network(0, n_tasks=22, n_vessels=11, max_duration=2)
    assert len(net.materials) == 23  # chain generator: tasks + 1 materials
    dem = generate_demand(1, net, days=7)
    model = build_full_space(net, dem, hours_per_day=24, n_breakpoints=8)
    assert sum(1 for v in model.variables if v.kind is Kind.BINARY) == 22 * 168


def test_task_longer_than_day_rejected(chain2):
    dem = DemandProfile(1, {"P": (1.0,)})
    with pytest.raises(ModelError):
        build_full_space(chain2, dem, hours_per_day=1)


# -- low level ----------------------------------------------------------------


def test_low_level_zero_design_closed_form(chain2, chain2_demand):
    model = build_low_level(chain2, chain2_demand, zero_design(chain2), 4, 3)
    rep = solve_model(model, OPTS)
    expected = sum(
        chain2.penalty * m.price * d
        for m in chain2.products()
        for d in chain2_demand.by_product[m.name]
    )
    assert rep.incumbent.objective == pytest.approx(expected, abs=1e-6)


def test_low_level_caps_design_zero_demand_pays_investment(chain2):
    dem = DemandProfile(2, {"P": (0.0, 0.0)})
    design = caps_design(chain2)
    model = build_low_level(chain2, dem, design, 4, 3)
    rep = solve_model(model, OPTS)
    invest = sum(v.unit_cost * v.cap**0.6 for v in chain2.vessels) + sum(
        m.storage_cost * m.storage_cap**0.6 for m in chain2.materials
    )
    # caps are breakpoints, so the piecewise encoding is exact there
    assert rep.incumbent.objective == pytest.approx(invest, abs=1e-6)


def test_low_level_dominates_full_space_optimum():
    net, dem, hpd = tiny_case(21, n_tasks=1, days=2, hpd=3, max_duration=1)
    full = build_full_space(net, dem, hpd, 2).lowered()
    oracle = brute_force_milp(full)
    assert oracle.status is Status.OPTIMAL
    rng = np.random.default_rng(5)
    for _ in range(3):
        design = RtnDesign(
            {v.name: float(rng.uniform(0, v.cap)) for v in net.vessels},
            {m.name: float(rng.uniform(0, m.storage_cap)) for m in net.materials},
        )
        rep = solve_model(build_low_level(net, dem, design, hpd, 2), OPTS)
        if rep.status is Status.OPTIMAL:
            assert rep.incumbent.objective >= oracle.incumbent.objective - 1e-6


def test_design_outside_caps_rejected(chain2, chain2_demand):
    design = RtnDesign({"V0": 25.0, "V1": 0.0}, {m.name: 0.0 for m in chain2.materials})
    with pytest.raises(ModelError):
        build_low_level(chain2, chain2_demand, design, 4, 3)


# -- demand aggregation ---------------------------------------------------------


def _profiles(seed, k, days=7):
    net = generate_network(seed, n_tasks=2)
    return net, [generate_demand(seed + j, net, days) for j in range(k)]


def test_approach1_identical_profiles_fixed_point():
    net, profiles = _profiles(3, 4)
    same = [profiles[0]] * 4
    assert aggregate_demand_approach1(same) == profiles[0]


def test_approach1_quarter_rule():
    net, profiles = _profiles(4, 1)
    d = profiles[0]
    zeros = DemandProfile(d.days, {k: (0.0,) * d.days for k in d.by_product})
    avg = aggregate_demand_approach1([d, zeros, zeros, zeros])
    for name, series in d.by_product.items():
        assert avg.by_product[name] == pytest.approx(tuple(x / 4 for x in series))


def test_approach1_random_mean_oracle():
    net, profiles = _profiles(5, 4)
    avg = aggregate_demand_approach1(profiles)
    for name in avg.by_product:
        expected = np.mean([p.by_product[name] for p in profiles], axis=0)
        assert avg.by_product[name] == pytest.approx(tuple(expected))


def test_approach2_concatenation():
    net, profiles = _profiles(6, 4)
    assert concat_demand_approach2([profiles[0]]) == profiles[0]
    two = concat_demand_approach2(profiles[:2])
    assert two.days == 14
    for name in two.by_product:
        assert two.by_product[name][:7] == profiles[0].by_product[name]
        assert two.by_product[name][7:] == profiles[1].by_product[name]
    four = concat_demand_approach2(profiles)
    assert four.days == 28
    for i, p in enumerate(profiles):
        for name in p.by_product:
            assert four.by_product[name][7 * i : 7 * (i + 1)] == p.by_product[name]


def test_aggregation_rejects_mismatched_horizons():
    net, profiles = _profiles(7, 1)
    short = DemandProfile(3, {k: v[:3] for k, v in profiles[0].by_product.items()})
    with pytest.raises(ModelError):
        aggregate_demand_approach1([profiles[0], short])
    with pytest.raises(ModelError):
        concat_demand_approach2([profiles[0], short])


# -- weekly decomposition --------------------------------------------------------


def test_decompose_single_week_matches_low_level():
    net, dem, hpd = tiny_case(31, days=2, hpd=3, max_duration=1)
    design = caps_design(net, 0.5)
    scen = ScenarioSet.uniform([dem])
    [(w, model)] = decompose_by_week(net, scen, design, hpd, 2)
    assert w == 1.0
    direct = solve_model(build_low_level(net, dem, design, hpd, 2), OPTS)
    via = solve_model(model, OPTS)
    assert via.incumbent.objective == pytest.approx(direct.incumbent.objective, abs=1e-9)


def test_decompose_identical_weeks_symmetry():
    net, dem, hpd = tiny_case(32, days=2, hpd=3, max_duration=1)
    design = caps_design(net, 0.5)
    scen = ScenarioSet.uniform([dem, dem, dem])
    parts = decompose_by_week(net, scen, design, hpd, 2)
    vals = [solve_model(m, OPTS).incumbent.objective for _, m in parts]
    avg = sum(w * v for (w, _), v in zip(parts, vals))
    single = solve_model(build_low_level(net, dem, design, hpd, 2), OPTS)
    assert avg == pytest.approx(single.incumbent.objective, abs=1e-7)


def test_decompose_two_weeks_matches_monolithic():
    net, dem1, hpd = tiny_case(33, days=2, hpd=3, max_duration=1)
    dem2 = generate_demand(777, net, days=2, demand_scale=6.0)
    scen = ScenarioSet.uniform([dem1, dem2])
    design = caps_design(net, 0.6)

    parts = decompose_by_week(net, scen, design, hpd, 2)
    avg = sum(w * solve_model(m, OPTS).incumbent.objective for w, m in parts)

    mono = build_multiweek_full_space(net, scen, hpd, 2)
    fixing = {}
    for v in net.vessels:
        fixing[mono.variable_id(f"Vmax[{v.name}]")] = design.vessel_size[v.name]
    for m in net.materials:
        fixing[mono.variable_id(f"Xmax[{m.name}]")] = design.storage_size[m.name]
    mono_rep = solve_model(mono.fix_variables(fixing), OPTS)
    assert avg == pytest.approx(mono_rep.incumbent.objective, abs=1e-6)


# -- high level -------------------------------------------------------------------


def test_high_level_rho_identity_structure(chain2, chain2_demand):
    ones = build_high_level(chain2, chain2_demand, ONES, 4, 3)
    # each term's values are its prefactor times size**0.6
    plain_cost = {}
    for term in ones.pwl_terms:
        plain_cost[ones.var(term.variable).name] = term.values[-1] / term.breakpoints[-1] ** 0.6
    assert plain_cost["Vmax[V0]"] == pytest.approx(1.0)  # unit cost * rho 1
    assert plain_cost["Xmax[P]"] == pytest.approx(0.5)


def test_high_level_rejects_out_of_box_rho(chain2, chain2_demand):
    with pytest.raises(DomainError):
        build_high_level(chain2, chain2_demand, TunableParameters(demand_penalty=40.0), 4, 3)


def test_high_level_zero_penalty_and_negative_margin_stops_production():
    # selling loses money (price below feed cost) but the penalty is worse:
    # at rho1=1 the plant serves demand, at rho1=0 it shuts down
    tasks = [Task("T", "V", 1, 0.0, 0.05)]
    materials = [
        Material("F", "feed", 5.0, 0.1, 30.0),
        Material("P", "product", 4.0, 0.1, 30.0),
    ]
    vessels = [Vessel("V", 0.2, 30.0)]
    nu = {("T", "F", 0): -1.0, ("T", "P", 1): 1.0}
    net = RtnNetwork(tasks, materials, vessels, nu, penalty=3.0)
    dem = DemandProfile(2, {"P": (5.0, 5.0)})

    rho0 = TunableParameters(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    rep0 = solve_model(build_high_level(net, dem, rho0, 4, 3), OPTS)
    sl_total = sum(
        rep0.incumbent.values[build_high_level(net, dem, rho0, 4, 3).variable_id(f"sl[P,{n}]")]
        for n in (1, 2)
    )
    assert sl_total == pytest.approx(10.0, abs=1e-6)  # all demand dropped
    assert rep0.incumbent.objective == pytest.approx(0.0, abs=1e-6)

    rho1 = TunableParameters(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    rep1 = solve_model(build_high_level(net, dem, rho1, 4, 3), OPTS)
    model1 = build_high_level(net, dem, rho1, 4, 3)
    produced = -sum(
        rep1.incumbent.values[model1.variable_id(f"piagg[P,{n}]")] for n in (1, 2)
    )
    assert produced > 1.0  # serving beats the penalty


def test_high_level_nagg_cap_cuts_no_optimum():
    # brute-force the aggregated model with the per-day start caps against a
    # rebuild whose caps are inflated: same optimum on tiny instances
    net, dem, hpd = tiny_case(34, n_tasks=1, days=2, hpd=3, max_duration=1)
    rho = ONES
    capped = build_high_level(net, dem, rho, hpd, 2).lowered()
    want = brute_force_milp(capped)

    loose = build_high_level(net, dem, rho, hpd, 2)
    # inflate the integer caps but keep the vessel-hours rows
    relaxed = loose._clone()
    for v in loose.variables:
        if v.kind is Kind.INTEGER:
            relaxed.set_bounds(v.vid, 0.0, 3.0 * v.upper)
    relaxed.seal()
    got = brute_force_milp(relaxed.lowered())
    assert got.incumbent.objective == pytest.approx(want.incumbent.objective, abs=1e-6)


# -- extract_design ---------------------------------------------------------------


def test_extract_design(chain2, chain2_demand):
    model = build_high_level(chain2, chain2_demand, ONES, 4, 3)
    rep = solve_model(model, OPTS)
    design = extract_design(model, rep.incumbent, chain2)
    assert set(design.vessel_size) == {"V0", "V1"}
    assert all(0 <= s <= 20 for s in design.vessel_size.values())

    # clamping of tiny negatives, error on bad status
    rep.incumbent.values[model.variable_id("Vmax[V0]")] = -1e-9
    design = extract_design(model, rep.incumbent, chain2)
    assert design.vessel_size["V0"] == 0.0

    rep.incumbent.status = Status.INFEASIBLE
    with pytest.raises(ModelError):
        extract_design(model, rep.incumbent, chain2)


@pytest.mark.parametrize(
    "rho", [TunableParameters(), TunableParameters(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)]
)
def test_extract_design_ignores_unpriced_vertex(chain2, chain2_demand, rho):
    # a size with no high-level price may sit anywhere the solver leaves it;
    # the extracted design is the least one the high-level schedule needs
    model = build_high_level(chain2, chain2_demand, rho, 4, 3)
    rep = solve_model(model, OPTS)
    design = extract_design(model, rep.incumbent, chain2)

    sizes = {model.variable_id(f"Vmax[{v.name}]"): ("v", v.name) for v in chain2.vessels}
    sizes.update({model.variable_id(f"Xmax[{m.name}]"): ("s", m.name) for m in chain2.materials})
    priced = {term.variable for term in model.pwl_terms}
    unpriced = [vid for vid in sizes if vid not in priced]
    assert unpriced
    moved = dict(rep.incumbent.values)
    for vid in unpriced:
        moved[vid] = model.var(vid).upper
    again = extract_design(model, Solution(moved, rep.incumbent.objective, rep.incumbent.status), chain2)
    assert again == design

    values = dict(rep.incumbent.values)
    for vid, (kind, name) in sizes.items():
        values[vid] = (design.vessel_size if kind == "v" else design.storage_size)[name]
    obj, viol = evaluate_solution(model, values)
    assert viol <= 1e-6
    assert obj <= rep.incumbent.objective + 1e-9


# -- solver-output invariants ------------------------------------------------------


def _solve_full(seed):
    net, dem, hpd = tiny_case(seed, days=2, hpd=4, max_duration=2)
    model = build_full_space(net, dem, hpd, 3)
    rep = solve_model(model, SolveOptions(mip_gap=1e-4, time_limit=120))
    assert rep.status is Status.OPTIMAL
    return net, dem, hpd, model, rep


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_vessel_occupancy_on_solver_output(seed):
    net, dem, hpd, model, rep = _solve_full(seed)
    H = dem.days * hpd
    vals = rep.incumbent.values
    for v in net.vessels:
        for t in range(1, H + 1):
            busy = 0.0
            for task in net.hosted[v.name]:
                for theta in range(task.duration):
                    t0 = t - theta
                    if 1 <= t0 <= H:
                        busy += vals[model.variable_id(f"N[{task.name},{t0}]")]
            assert busy <= 1.0 + 1e-6


@pytest.mark.parametrize("seed", [44, 45])
def test_demand_accounting_on_solver_output(seed):
    net, dem, hpd, model, rep = _solve_full(seed)
    vals = rep.incumbent.values
    for m in net.products():
        for n in range(1, dem.days + 1):
            shipped = -sum(
                vals[model.variable_id(f"pi[{m.name},{t}]")]
                for t in range((n - 1) * hpd + 1, n * hpd + 1)
            )
            sl = vals[model.variable_id(f"sl[{m.name},{n}]")]
            assert shipped + sl == pytest.approx(dem.demand(m.name, n), abs=1e-6)


# -- aggregation soundness ----------------------------------------------------------


def random_feasible_schedule(
    network: RtnNetwork,
    demand: DemandProfile,
    design: RtnDesign,
    rng: np.random.Generator,
    hours_per_day: int = 24,
    start_probability: float = 0.5,
) -> dict[str, float]:
    """Simulate a feasible, day-contained schedule; returns values by name.

    Tasks only start when they finish within the same day, inputs are checked
    against inventory (feeds are bought on the spot), production is shipped
    against the day's remaining demand and the rest stored if it fits.
    Feasibility of the result against :func:`build_full_space` is exact.
    """
    hpd = hours_per_day
    H = demand.days * hpd
    vals: dict[str, float] = {}
    for v in network.vessels:
        vals[f"Vmax[{v.name}]"] = design.vessel_size.get(v.name, 0.0)
    for m in network.materials:
        vals[f"Xmax[{m.name}]"] = design.storage_size.get(m.name, 0.0)
    for task in network.tasks:
        for t in range(1, H + 1):
            vals[f"N[{task.name},{t}]"] = 0.0
            vals[f"E[{task.name},{t}]"] = 0.0
    for m in network.materials:
        if m.mclass in (FEED, PRODUCT):
            for t in range(1, H + 1):
                vals[f"pi[{m.name},{t}]"] = 0.0

    inv = {m.name: 0.0 for m in network.materials}
    reserved = {m.name: 0.0 for m in network.materials}  # in-flight production
    busy_until = {v.name: 0 for v in network.vessels}
    shipped = {(m.name, n): 0.0 for m in network.products() for n in range(1, demand.days + 1)}
    # pending[(material, hour)] -> production arriving at that hour
    pending: dict[tuple[str, int], float] = {}

    def task_flows(task: Task) -> tuple[list[tuple[str, int, float]], list[tuple[str, int, float]]]:
        ins, outs = [], []
        for (ti, r, theta), coef in network.nu.items():
            if ti != task.name or coef == 0.0:
                continue
            (ins if coef < 0 else outs).append((r, theta, coef))
        return ins, outs

    for t in range(1, H + 1):
        day = (t - 1) // hpd + 1
        # arrivals scheduled for this hour
        for (mname, tt), qty in list(pending.items()):
            if tt != t:
                continue
            del pending[mname, tt]
            reserved[mname] -= qty
            mat = network.material_by_name[mname]
            if mat.mclass == PRODUCT:
                room = demand.demand(mname, day) - shipped[mname, day]
                ship = min(qty, room)
                if ship > 0:
                    vals[f"pi[{mname},{t}]"] -= ship
                    shipped[mname, day] += ship
                    qty -= ship
            inv[mname] += qty

        for task in network.tasks:
            v = network.vessel_by_name[task.vessel]
            if busy_until[v.name] >= t:
                continue
            day_end = day * hpd
            if t + task.duration > day_end:
                continue  # keep every start inside its day
            if rng.random() > start_probability:
                continue
            vmax = design.vessel_size.get(v.name, 0.0)
            if vmax <= 0:
                continue
            lo_batch = task.min_batch_fraction * vmax
            batch = float(rng.uniform(lo_batch, vmax))
            if batch <= 0:
                continue
            ins, outs = task_flows(task)
            # inputs must be on hand at the start hour (feeds bought spot)
            ok = True
            for r, theta, coef in ins:
                need = -coef * batch
                mat = network.material_by_name[r]
                have = inv[r] if mat.mclass != FEED else math.inf
                if theta != 0 or (have < need - 1e-12):
                    ok = False
                    break
            if ok:
                # reserve storage room for the production when it lands;
                # arrivals at the start hour itself are not modeled here
                for r, theta, coef in outs:
                    room = vals[f"Xmax[{r}]"] - inv[r] - reserved[r]
                    if theta == 0 or coef * batch > room + 1e-12:
                        ok = False
                        break
            if not ok:
                continue
            for r, theta, coef in ins:
                need = -coef * batch
                if network.material_by_name[r].mclass == FEED:
                    vals[f"pi[{r},{t}]"] += need
                else:
                    inv[r] -= need
            for r, theta, coef in outs:
                pending[r, t + theta] = pending.get((r, t + theta), 0.0) + coef * batch
                reserved[r] += coef * batch
            vals[f"N[{task.name},{t}]"] = 1.0
            vals[f"E[{task.name},{t}]"] = batch
            busy_until[v.name] = t + task.duration - 1

        for m in network.materials:
            vals[f"X[{m.name},{t}]"] = inv[m.name]
        for v in network.vessels:
            vals[f"X[{v.name},{t}]"] = 0.0 if busy_until[v.name] >= t else 1.0

    for m in network.products():
        for n in range(1, demand.days + 1):
            vals[f"sl[{m.name},{n}]"] = demand.demand(m.name, n) - shipped[m.name, n]
    return vals


def aggregate_schedule(
    network: RtnNetwork,
    demand: DemandProfile,
    values_by_name: Mapping[str, float],
    hours_per_day: int = 24,
) -> dict[str, float]:
    """Sum an hourly schedule into the daily high-level variables."""
    hpd = hours_per_day
    out: dict[str, float] = {}
    for v in network.vessels:
        out[f"Vmax[{v.name}]"] = values_by_name[f"Vmax[{v.name}]"]
    for m in network.materials:
        out[f"Xmax[{m.name}]"] = values_by_name[f"Xmax[{m.name}]"]
    for n in range(1, demand.days + 1):
        hours = range((n - 1) * hpd + 1, n * hpd + 1)
        for task in network.tasks:
            out[f"Nagg[{task.name},{n}]"] = sum(
                values_by_name[f"N[{task.name},{t}]"] for t in hours
            )
            out[f"Eagg[{task.name},{n}]"] = sum(
                values_by_name[f"E[{task.name},{t}]"] for t in hours
            )
        for m in network.materials:
            if m.mclass in (FEED, PRODUCT):
                out[f"piagg[{m.name},{n}]"] = sum(
                    values_by_name[f"pi[{m.name},{t}]"] for t in hours
                )
            out[f"Xagg[{m.name},{n}]"] = values_by_name[f"X[{m.name},{n * hpd}]"]
        for m in network.products():
            out[f"sl[{m.name},{n}]"] = values_by_name[f"sl[{m.name},{n}]"]
    return out


def test_random_schedules_feasible_and_aggregate_soundly():
    rng = np.random.default_rng(9)
    for seed in (51, 52):
        net, dem, hpd = tiny_case(seed, days=2, hpd=4, max_duration=2)
        full = build_full_space(net, dem, hpd, 3)
        high = build_high_level(net, dem, ONES, hpd, 3)
        design = caps_design(net, 0.7)
        reset = {dem.days}
        for _ in range(20):
            vals = random_feasible_schedule(net, dem, design, rng, hpd)
            fids = {full.variable_id(k): v for k, v in vals.items()}
            fobj, fviol = evaluate_solution(full, fids)
            assert fviol <= 1e-9
            agg = aggregate_schedule(net, dem, vals, hpd)
            hids = {high.variable_id(k): v for k, v in agg.items()}
            assert max(row_residual(con, hids) for con in high.constraints) <= 1e-9
            for v in high.variables:
                if any(v.name == f"Xagg[{m.name},{d}]" for m in net.materials for d in reset):
                    continue  # end-of-block inventory reset may be violated
                assert v.lower - 1e-9 <= hids[v.vid] <= v.upper + 1e-9
            hobj = expr_value(high.objective, hids) + sum(
                pwl_value(t, hids[t.variable]) for t in high.pwl_terms
            )
            assert hobj == pytest.approx(fobj, abs=1e-6)
