import csv
import dataclasses
import math
import threading
import time

import numpy as np
import pytest

from hiertune.dfo import BoxDomain, DfoConfig, DomainError
from hiertune.engine import (
    SENTINEL,
    TwoLevelProblem,
    emit_trace,
    evaluate,
    transfer_tune,
    tune,
)
from hiertune.model import GE, Kind, ModelInstance, SolveOptions
from hiertune.rtn import RtnDesign, ScenarioSet, TunableParameters, make_two_level_problem

from conftest import evaluate_solution, tiny_case

FAST = SolveOptions(mip_gap=1e-6, time_limit=30)


def toy_problem(infeasible_below=None, maximize=False, target=3.0):
    """1-D toy: the high level tracks rho, the low level scores |x - target|."""
    bounds = BoxDomain((0.0,), (10.0,))

    def build_high(rho):
        m = ModelInstance("toy-high", "minimize")
        x = m.add_variable("x", Kind.CONTINUOUS, 0, 10)
        t = m.add_variable("t", Kind.CONTINUOUS, 0, 20)
        m.add_objective_term(t, 1.0)
        m.add_constraint({t: 1.0, x: -1.0}, GE, -rho[0])
        m.add_constraint({t: 1.0, x: 1.0}, GE, rho[0])
        if infeasible_below is not None and rho[0] < infeasible_below:
            m.add_constraint({x: 1.0}, GE, 11.0)
        return m

    def extract(model, values):
        return values[model.variable_id("x")]

    def build_lows(xstar):
        sense = "maximize" if maximize else "minimize"
        m = ModelInstance("toy-low", sense)
        dist = abs(xstar - target)
        u = m.add_variable("u", Kind.CONTINUOUS, dist, 100.0)
        m.add_objective_term(u, -1.0 if maximize else 1.0)
        if maximize:
            # maximize -u has optimum -dist; engine should negate back
            pass
        return [(1.0, m)]

    return TwoLevelProblem(
        bounds=bounds,
        build_high=build_high,
        extract=extract,
        build_lows=build_lows,
        high_options=FAST,
        low_options=FAST,
    )


def test_evaluate_toy_objective():
    res = evaluate(toy_problem(), np.array([7.0]))
    assert res.feasible
    assert res.objective == pytest.approx(4.0, abs=1e-7)
    assert res.decision == pytest.approx(7.0)
    assert res.rho == (7.0,)


def test_evaluate_rejects_out_of_box():
    with pytest.raises(DomainError):
        evaluate(toy_problem(), np.array([11.0]))


def test_sentinel_on_infeasible_high_level():
    res = evaluate(toy_problem(infeasible_below=100.0), np.array([5.0]))
    assert res.objective == SENTINEL
    assert res.feasible is False
    assert res.low_reports == []


def test_sentinel_on_infeasible_low_level():
    prob = toy_problem()

    def bad_lows(xstar):
        m = ModelInstance("bad-low", "minimize")
        u = m.add_variable("u", Kind.CONTINUOUS, 0, 1)
        m.add_constraint({u: 1.0}, GE, 2.0)
        return [(1.0, m)]

    prob = dataclasses.replace(prob, build_lows=bad_lows)
    res = evaluate(prob, np.array([5.0]))
    assert res.objective == SENTINEL
    assert not res.feasible


def test_maximize_low_level_negated():
    res = evaluate(toy_problem(maximize=True), np.array([7.0]))
    # low level maximizes -u at optimum -4; minimize orientation gives +4
    assert res.objective == pytest.approx(4.0, abs=1e-7)


@pytest.mark.parametrize("algorithm", ["pattern", "pso", "random"])
def test_tune_budget_one(algorithm):
    trace = tune(toy_problem(), DfoConfig(algorithm, budget=1, seed=0), initial_rho=[5.0])
    assert len(trace.results) == 1
    assert trace.best.rho == (5.0,)
    assert trace.best_so_far() == [trace.results[0].objective]


def test_tune_finds_toy_optimum_and_caches():
    trace = tune(toy_problem(), DfoConfig(budget=40, seed=1), initial_rho=[9.0])
    assert len(trace.results) <= 40
    rhos = [r.rho for r in trace.results]
    assert len(set(rhos)) == len(rhos)  # budget spent on unique points only
    assert trace.best.objective <= 0.05
    best = trace.best_so_far()
    assert best == sorted(best, reverse=True)
    assert [r.index for r in trace.results] == list(range(len(trace.results)))


def test_tune_stops_when_the_swarm_collapses_on_a_corner():
    # the score falls toward rho's upper bound, so the swarm piles onto 10.0
    # and soon requests only cached points, which spend no budget
    cfg = DfoConfig(algorithm="pso", budget=200, seed=1)
    outcome = {}

    def run():
        outcome["trace"] = tune(toy_problem(target=10.0), cfg, initial_rho=[5.0])

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    trace = outcome["trace"]
    rhos = [r.rho for r in trace.results]
    assert len(set(rhos)) == len(rhos) < cfg.budget
    assert trace.best.rho == (10.0,)


def test_sentinel_dominance():
    # start infeasible; once any feasible point is seen the best stays feasible
    prob = toy_problem(infeasible_below=2.0)
    trace = tune(prob, DfoConfig(budget=60, seed=2), initial_rho=[0.0])
    assert any(not r.feasible for r in trace.results)
    assert any(r.feasible for r in trace.results)
    assert trace.best.feasible
    assert trace.best.objective < SENTINEL


def test_parallel_evaluation_equivalence():
    cfg = DfoConfig(algorithm="pso", budget=30, seed=3)
    t1 = tune(toy_problem(), cfg, initial_rho=[5.0], threads=1)
    t4 = tune(toy_problem(), cfg, initial_rho=[5.0], threads=4)
    assert [(r.rho, r.objective) for r in t1.results] == [
        (r.rho, r.objective) for r in t4.results
    ]


def test_final_resolve_recorded():
    prob = dataclasses.replace(
        toy_problem(), final_low_options=SolveOptions(mip_gap=1e-9, time_limit=30)
    )
    trace = tune(prob, DfoConfig(budget=5, seed=4), initial_rho=[5.0])
    assert trace.final is not None
    assert trace.final.objective == pytest.approx(trace.best.objective, abs=1e-6)


def test_transfer_tune_restricts_box():
    prob = toy_problem()
    trace = transfer_tune(prob, [5.0], range_fraction=0.1, budget=12, seed=5)
    assert trace.restricted_box.lower == (4.5,)
    assert trace.restricted_box.upper == (5.5,)
    assert len(trace.results) == 12
    for r in trace.results:
        assert 4.5 - 1e-9 <= r.rho[0] <= 5.5 + 1e-9


def test_transfer_tune_corner_clips():
    trace = transfer_tune(toy_problem(), [0.0], range_fraction=0.1, budget=6, seed=6)
    assert trace.restricted_box.lower == (0.0,)
    assert trace.restricted_box.upper == (0.5,)


def test_transfer_vacuous_when_range_covers_box():
    trace = transfer_tune(toy_problem(), [5.0], range_fraction=2.0, budget=6, seed=7)
    assert trace.restricted_box.lower == (0.0,)
    assert trace.restricted_box.upper == (10.0,)


def test_trace_emit_round_trip(tmp_path):
    trace = tune(toy_problem(), DfoConfig(budget=9, seed=8), initial_rho=[1.0])
    path = tmp_path / "trace.csv"
    emit_trace(trace, path)
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == len(trace.results)
    assert [float(r["rho_1"]) for r in rows] == [r.rho[0] for r in trace.results]
    best_col = [float(r["best_so_far"]) for r in rows]
    assert best_col == trace.best_so_far()
    assert min(best_col) == trace.best.objective
    assert best_col == sorted(best_col, reverse=True)


def test_trace_clock_within_tune_wall_time(tmp_path):
    # evaluations overlap on two threads: the clock column must not add them up
    base = toy_problem()

    def slow_high(rho):
        time.sleep(0.02)
        return base.build_high(rho)

    prob = dataclasses.replace(base, build_high=slow_high)
    cfg = DfoConfig(algorithm="pso", budget=12, seed=2)
    t0 = time.perf_counter()
    trace = tune(prob, cfg, initial_rho=[5.0], threads=2)
    wall = time.perf_counter() - t0
    path = tmp_path / "trace.csv"
    emit_trace(trace, path)
    clock = [float(r["cumulative_wall_time"]) for r in csv.DictReader(open(path))]
    assert clock == sorted(clock)
    assert clock[-1] <= wall


def test_rtn_problem_objective_audit():
    # re-evaluating the returned low-level solutions reproduces the objective
    net, dem, hpd = tiny_case(61, days=2, hpd=4, max_duration=2)
    scen = ScenarioSet.uniform([dem])
    prob = make_two_level_problem(
        net, scen, "approach2", hpd, 3, high_options=FAST, low_options=FAST
    )
    res = evaluate(prob, TunableParameters().to_array())
    assert res.feasible
    total = 0.0
    for (weight, model), rep in zip(prob.build_lows(res.decision), res.low_reports):
        obj, viol = evaluate_solution(model, rep.incumbent.values)
        assert viol <= 1e-6
        assert obj == pytest.approx(rep.incumbent.objective, abs=1e-6)
        total += weight * obj
    assert total == pytest.approx(res.objective, abs=1e-6)


def test_rtn_degenerate_design_space():
    # demand far above capacity with tiny caps: every rho yields the cap design,
    # so the black box is constant in rho
    net, dem, hpd = tiny_case(62, n_tasks=1, days=1, hpd=3, max_duration=1)
    big = type(dem)(1, {m.name: (500.0,) for m in net.products()})
    scen = ScenarioSet.uniform([big])
    prob = make_two_level_problem(
        net, scen, "approach2", hpd, 2, high_options=FAST, low_options=FAST
    )
    objs = {
        round(evaluate(prob, np.array(r)).objective, 6)
        for r in ([1, 1, 1, 1, 1, 1], [20, 0.5, 3, 7, 0.1, 40])
    }
    assert len(objs) == 1


def stepped_problem(fail_on=None, delay=0.0):
    """The toy with a piecewise-constant decision, floor(x); counts low builds."""
    base = dataclasses.replace(
        toy_problem(), final_low_options=SolveOptions(mip_gap=1e-9, time_limit=30)
    )
    calls = []

    def extract(model, values):
        return math.floor(base.extract(model, values))

    def build_lows(decision):
        calls.append(decision)
        time.sleep(delay)
        if decision == fail_on:
            raise RuntimeError(f"no low level for {decision}")
        return base.build_lows(decision)

    return dataclasses.replace(base, extract=extract, build_lows=build_lows), calls


@pytest.mark.parametrize("threads", [1, 2])
def test_design_cache_solves_each_decision_once(threads):
    prob, calls = stepped_problem()
    cfg = DfoConfig(algorithm="pso", budget=30, seed=3)
    trace = tune(prob, cfg, initial_rho=[5.5], threads=threads)
    decisions = [r.decision for r in trace.results]
    assert len(set(decisions)) < len(decisions)
    # once per distinct decision, plus the final re-solve, which bypasses the cache
    assert trace.final is not None
    assert sorted(calls[:-1]) == sorted(set(decisions))
    assert calls[-1] == trace.final.decision
    seen = set()
    for r in trace.results:
        assert r.design_hit == (r.decision in seen)
        seen.add(r.decision)
        assert evaluate(prob, np.array(r.rho)).objective == r.objective


def test_design_cache_same_at_one_and_two_threads():
    net, dem, hpd = tiny_case(61, days=2, hpd=4, max_duration=2)
    prob = make_two_level_problem(
        net, ScenarioSet.uniform([dem]), "approach2", hpd, 3, high_options=FAST, low_options=FAST
    )
    cfg = DfoConfig(algorithm="pso", budget=16, seed=5)
    start = TunableParameters().to_array()

    def rows(threads):
        trace = tune(prob, cfg, initial_rho=start, threads=threads)
        return [(r.rho, r.objective, r.feasible, r.design_hit) for r in trace.results]

    one = rows(1)
    assert any(hit for *_, hit in one)
    assert rows(2) == one


def test_design_cache_error_reaches_every_waiting_evaluation():
    # every point shares one decision, whose low-level build fails after a pause,
    # so the second thread waits on it while the first is still building
    prob, calls = stepped_problem(fail_on=0, delay=0.2)
    prob = dataclasses.replace(prob, extract=lambda model, values: 0)
    cfg = DfoConfig(algorithm="pso", budget=12, seed=2)
    outcome = {}

    def run():
        try:
            tune(prob, cfg, initial_rho=[5.0], threads=2)
        except RuntimeError as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert "no low level for 0" in str(outcome["error"])
    assert calls == [0]


def test_rtn_design_hash_by_value():
    a = RtnDesign({"V0": 1.5, "V1": 2.0}, {"M0": 0.0})
    b = RtnDesign({"V1": 2.0, "V0": 1.5}, {"M0": 0.0})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, RtnDesign({"V0": 1.5, "V1": 2.5}, {"M0": 0.0})}) == 2
