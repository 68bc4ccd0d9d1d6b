import numpy as np
import pytest

from hiertune.dfo import ALGORITHMS, BoxDomain, DfoConfig, DomainError, run_dfo


BOX2 = BoxDomain((-2.0, -2.0), (2.0, 2.0))


def sphere(center):
    c = np.asarray(center, dtype=float)

    def f(x):
        return float(np.sum((np.asarray(x) - c) ** 2))

    return f


def test_box_domain_validation():
    with pytest.raises(DomainError):
        BoxDomain((0.0,), (0.0,))
    with pytest.raises(DomainError):
        BoxDomain((0.0, 1.0), (1.0,))
    with pytest.raises(DomainError):
        BoxDomain((0.0,), (float("inf"),))
    box = BoxDomain((0.0, 0.0), (1.0, 2.0))
    assert np.allclose(box.clip([5.0, -1.0]), [1.0, 0.0])
    assert box.contains([0.5, 1.0])
    with pytest.raises(DomainError):
        box.require([1.5, 0.5])


def test_shrink_around_clips_at_corners():
    box = BoxDomain((0.0, 0.0), (10.0, 30.0))
    sub = box.shrink_around([0.0, 15.0], 0.1)
    assert sub.lower == (0.0, 13.5)
    assert sub.upper == pytest.approx((0.5, 16.5))
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            box.shrink_around([0.0, 15.0], bad)


def test_config_validation():
    with pytest.raises(DomainError):
        DfoConfig(budget=0)
    with pytest.raises(DomainError):
        DfoConfig(swarm_size=1)


def test_pattern_search_sphere_converges():
    cfg = DfoConfig(algorithm="pattern", budget=300, seed=1)
    res = run_dfo(sphere([0.7, -0.3]), BOX2, cfg, x0=[0.0, 0.0])
    assert res.best_f <= 1e-4


def test_pattern_search_constant_objective_stops_on_mesh():
    cfg = DfoConfig(algorithm="pattern", budget=10_000, seed=0)
    res = run_dfo(lambda x: 1.0, BOX2, cfg, x0=[0.0, 0.0])
    assert res.best_f == 1.0
    assert res.best_x == pytest.approx([0.0, 0.0])
    assert res.n_evals < 10_000  # mesh tolerance terminated the run early


def test_pattern_search_keeps_feasible_best_under_sentinel():
    sentinel = 1e10

    def f(x):
        if abs(x[0]) > 0.5 or abs(x[1]) > 0.5:
            return sentinel
        return float(np.sum(np.asarray(x) ** 2)) - 10

    cfg = DfoConfig(algorithm="pattern", budget=200, seed=3)
    res = run_dfo(f, BOX2, cfg, x0=[0.0, 0.0])
    assert res.best_f < sentinel
    best_so_far = np.minimum.accumulate([v for _, v in res.log])
    assert all(b < sentinel for b in best_so_far[1:])


def test_pso_sphere_converges():
    cfg = DfoConfig(algorithm="pso", budget=300, seed=2)
    res = run_dfo(sphere([0.7, -0.3]), BOX2, cfg, x0=[0.0, 0.0])
    assert res.best_f <= 1e-3


def test_pso_tiny_budget_exact():
    cfg = DfoConfig(algorithm="pso", budget=2, seed=4, swarm_size=2)
    res = run_dfo(sphere([0.0, 0.0]), BOX2, cfg)
    assert res.n_evals == 2
    assert len(res.log) == 2
    assert res.best_f == pytest.approx(min(v for _, v in res.log))


def test_repeated_point_evaluated_once_and_not_charged():
    # the swarm collapses onto the corner (1, 1) and then requests only points
    # it has seen; the request stop, not the budget, ends the search
    calls = []

    def f(x):
        calls.append(tuple(x))
        return -(x[0] + x[1])

    unit = BoxDomain((0.0, 0.0), (1.0, 1.0))
    cfg = DfoConfig(algorithm="pso", budget=200, seed=1, swarm_size=4)
    res = run_dfo(f, unit, cfg)
    assert len(set(calls)) == len(calls) == res.n_evals < 200
    assert [x for x, _ in res.log] == calls
    assert res.best_f == -2.0


def test_random_search_budget_one():
    cfg = DfoConfig(algorithm="random", budget=1, seed=5)
    res = run_dfo(sphere([0.0, 0.0]), BOX2, cfg)
    assert res.n_evals == 1
    assert res.best_f == res.log[0][1]


def test_random_search_degenerate_box():
    eps = 1e-9
    box = BoxDomain((1.0, 2.0), (1.0 + eps, 2.0 + eps))
    cfg = DfoConfig(algorithm="random", budget=50, seed=6)
    res = run_dfo(lambda x: 0.0, box, cfg)
    for x, _ in res.log:
        assert abs(x[0] - 1.0) <= eps and abs(x[1] - 2.0) <= eps


def test_random_search_beats_single_draw_percentile():
    # oracle: 1st percentile of a single uniform draw's objective value,
    # estimated by direct simulation with an independent stream
    f = sphere([0.3, 0.6])
    unit = BoxDomain((0.0, 0.0), (1.0, 1.0))
    sim = np.random.default_rng(123)
    draws = [f(unit.sample(sim)) for _ in range(20_000)]
    q01 = float(np.quantile(draws, 0.01))
    cfg = DfoConfig(algorithm="random", budget=1000, seed=7)
    res = run_dfo(f, unit, cfg)
    assert res.best_f < q01


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_budget_exactness_and_domain_respect(algorithm):
    cfg = DfoConfig(algorithm=algorithm, budget=57, seed=8)
    res = run_dfo(sphere([1.0, 1.0]), BOX2, cfg, x0=[0.0, 0.0])
    assert res.n_evals <= 57
    if algorithm != "pattern":  # pattern search may stop at mesh tolerance
        assert res.n_evals == 57
    lo, up = BOX2.lo, BOX2.up
    for x, _ in res.log:
        assert np.all(np.asarray(x) >= lo) and np.all(np.asarray(x) <= up)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_seed_determinism(algorithm):
    cfg = DfoConfig(algorithm=algorithm, budget=40, seed=9)
    r1 = run_dfo(sphere([0.2, -1.0]), BOX2, cfg, x0=[0.0, 0.0])
    r2 = run_dfo(sphere([0.2, -1.0]), BOX2, cfg, x0=[0.0, 0.0])
    assert r1.log == r2.log
    assert r1.best_f == r2.best_f


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_best_so_far_monotone(algorithm):
    cfg = DfoConfig(algorithm=algorithm, budget=60, seed=10)
    res = run_dfo(sphere([0.5, 0.5]), BOX2, cfg, x0=[-1.0, -1.0])
    best = np.minimum.accumulate([v for _, v in res.log])
    assert list(best) == sorted(best, reverse=True)


def test_batch_callable_used_and_equivalent():
    calls = {"batch": 0}

    def single(x):
        return sphere([0.0, 0.0])(x)

    def batch(points):
        calls["batch"] += 1
        return [single(p) for p in points]

    cfg = DfoConfig(algorithm="pattern", budget=50, seed=11)
    res_b = run_dfo(single, BOX2, cfg, x0=[1.0, 1.0], batch=batch)
    res_s = run_dfo(single, BOX2, cfg, x0=[1.0, 1.0])
    assert calls["batch"] > 0
    assert res_b.log == res_s.log


def test_unknown_algorithm_and_bad_start():
    with pytest.raises(DomainError):
        run_dfo(lambda x: 0.0, BOX2, DfoConfig(algorithm="nope"))
    with pytest.raises(DomainError):
        run_dfo(lambda x: 0.0, BOX2, DfoConfig(), x0=[9.0, 0.0])
