"""Derivative-free optimizers over box-constrained continuous vectors.

Three interchangeable algorithms behind one call signature: a mesh-refining
pattern search (coordinate polls plus seeded random directions), a standard
global-best particle swarm, and uniform random search as the baseline.  All
evaluated points are clipped into the box, and a fixed seed reproduces the run
exactly.

One evaluator sits between every algorithm and the objective.  It caches each
value under the exact point, so a repeated point is answered from the cache,
neither evaluated again nor charged to the budget; the budget counts distinct
points, and the log holds each distinct point once, in evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = ["DomainError", "BoxDomain", "DfoConfig", "DfoResult", "run_dfo", "ALGORITHMS"]


class DomainError(ValueError):
    """A point or box violates its declared bounds."""


@dataclass(frozen=True)
class BoxDomain:
    """Per-dimension finite (lower, upper) bounds with lower < upper."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise DomainError("lower/upper must be nonempty and equally long")
        for lo, up in zip(self.lower, self.upper):
            if not (np.isfinite(lo) and np.isfinite(up) and lo < up):
                raise DomainError(f"bad box dimension [{lo}, {up}]")
        object.__setattr__(self, "lower", tuple(float(x) for x in self.lower))
        object.__setattr__(self, "upper", tuple(float(x) for x in self.upper))

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def lo(self) -> np.ndarray:
        return np.array(self.lower)

    @property
    def up(self) -> np.ndarray:
        return np.array(self.upper)

    @property
    def width(self) -> np.ndarray:
        return self.up - self.lo

    def center(self) -> np.ndarray:
        return (self.lo + self.up) / 2

    def clip(self, x: Sequence[float]) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lo, self.up)

    def contains(self, x: Sequence[float], tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.up + tol))

    def require(self, x: Sequence[float], tol: float = 1e-9) -> None:
        if not self.contains(x, tol):
            raise DomainError(f"point {list(x)} outside box {self.lower}..{self.upper}")

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.up)

    def shrink_around(self, center: Sequence[float], side_fraction: float) -> "BoxDomain":
        """Intersect with a per-dimension hypercube of side
        ``side_fraction * width`` centered at ``center``."""
        if not 0 < side_fraction < np.inf:  # a comparison that NaN and inf fail
            raise DomainError("side fraction must be positive and finite")
        c = self.clip(center)
        half = side_fraction * self.width / 2
        return BoxDomain(
            tuple(np.maximum(self.lo, c - half)), tuple(np.minimum(self.up, c + half))
        )


@dataclass
class DfoConfig:
    algorithm: str = "pattern"
    budget: int = 100
    seed: int = 0
    # pattern search knobs
    mesh_init: float = 0.25
    mesh_expand: float = 2.0
    mesh_contract: float = 0.5
    mesh_tol: float = 1e-6
    # PSO knobs
    swarm_size: int = 10
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49

    def __post_init__(self):
        if self.budget < 1:
            raise DomainError("budget must be at least 1")
        if not 0 < self.mesh_init <= 1:
            raise DomainError("initial mesh fraction must lie in (0, 1]")
        if self.swarm_size < 2:
            raise DomainError("swarm size must be at least 2")


@dataclass
class DfoResult:
    best_x: np.ndarray
    best_f: float
    log: list[tuple[tuple[float, ...], float]]
    n_evals: int
    algorithm: str


# A search whose requests are all cached spends no budget: a swarm collapsed
# onto a clipped corner would request the same points forever.  So a search
# is also stopped after this many requested points per unit of budget.
_REQUESTS_PER_EVALUATION = 50


class _Evaluator:
    """The budget, the value cache and the log between a search and its objective.

    A call takes the points one search step requests.  Only unseen points are
    evaluated, each once; when the budget or the request allowance runs out
    inside the call, values come back for the points before the first one left
    unevaluated, and ``remaining`` reads 0 so the search ends.
    """

    def __init__(self, objective, batch, budget):
        self.objective = objective
        self.batch = batch
        self.budget = budget
        self.requests_left = _REQUESTS_PER_EVALUATION * budget
        # every distinct point's value, in evaluation order: the run's log
        self.cache: dict[tuple[float, ...], float] = {}

    @property
    def remaining(self) -> int:
        return self.budget - len(self.cache) if self.requests_left > 0 else 0

    def __call__(self, points: list[np.ndarray]) -> list[float]:
        points = points[: self.requests_left]
        self.requests_left -= len(points)
        keys = [tuple(float(c) for c in p) for p in points]
        room = self.budget - len(self.cache)
        fresh: dict[tuple[float, ...], np.ndarray] = {}
        for key, p in zip(keys, points):
            if key not in self.cache and key not in fresh and len(fresh) < room:
                fresh[key] = p
        if fresh:
            todo = list(fresh.values())
            values = self.batch(todo) if self.batch is not None else [self.objective(p) for p in todo]
            for key, v in zip(fresh, values):
                self.cache[key] = float(v)
        answered = []
        for key in keys:
            if key not in self.cache:
                break
            answered.append(self.cache[key])
        return answered

    def result(self, algorithm: str) -> DfoResult:
        log = list(self.cache.items())
        # the earliest point wins ties
        best_x, best_f = min(log, key=lambda entry: entry[1])
        return DfoResult(np.array(best_x), best_f, log, len(log), algorithm)


def _pattern_search(ev: _Evaluator, domain: BoxDomain, config: DfoConfig, x0) -> DfoResult:
    rng = np.random.default_rng(config.seed)
    n = domain.dim
    width = domain.width
    x = domain.clip(x0 if x0 is not None else domain.center())
    f = ev([x])[0]
    mesh = config.mesh_init
    while ev.remaining > 0 and mesh > config.mesh_tol:
        pts = []
        for d in range(n):
            step = np.zeros(n)
            step[d] = mesh * width[d]
            pts.append(domain.clip(x + step))
            pts.append(domain.clip(x - step))
        for _ in range(n):
            u = rng.standard_normal(n)
            norm = float(np.linalg.norm(u))
            if norm < 1e-12:
                u = np.ones(n)
                norm = float(np.linalg.norm(u))
            pts.append(domain.clip(x + mesh * width * (u / norm)))
        vals = ev(pts)
        k = int(np.argmin(vals))
        if vals[k] < f:
            x = np.array(pts[k])
            f = vals[k]
            mesh = min(mesh * config.mesh_expand, 1.0)
        else:
            mesh *= config.mesh_contract
    return ev.result("pattern")


def _pso(ev: _Evaluator, domain: BoxDomain, config: DfoConfig, x0) -> DfoResult:
    rng = np.random.default_rng(config.seed)
    n = domain.dim
    swarm = max(2, min(config.swarm_size, config.budget))
    X = np.array([domain.sample(rng) for _ in range(swarm)])
    if x0 is not None:
        X[0] = domain.clip(x0)
    V = np.zeros_like(X)

    vals = ev([X[i] for i in range(swarm)])
    P = X[: len(vals)].copy()
    pbest = np.array(vals)
    g = int(np.argmin(pbest))
    gx, gf = P[g].copy(), float(pbest[g])

    while ev.remaining > 0:
        r1 = rng.random((swarm, n))
        r2 = rng.random((swarm, n))
        V = config.inertia * V + config.cognitive * r1 * (P - X) + config.social * r2 * (gx - X)
        Xnew = X + V
        clipped = (Xnew < domain.lo) | (Xnew > domain.up)
        X = np.clip(Xnew, domain.lo, domain.up)
        V[clipped] = 0.0
        vals = ev([X[i] for i in range(swarm)])
        for i, v in enumerate(vals):
            if v < pbest[i]:
                pbest[i] = v
                P[i] = X[i]
            if v < gf:
                gf = float(v)
                gx = X[i].copy()
    return ev.result("pso")


def _random_search(ev: _Evaluator, domain: BoxDomain, config: DfoConfig, x0) -> DfoResult:
    rng = np.random.default_rng(config.seed)
    if x0 is not None and ev.remaining > 0:
        ev([domain.clip(x0)])
    while ev.remaining > 0:
        take = min(ev.remaining, 64)
        ev([domain.sample(rng) for _ in range(take)])
    return ev.result("random")


ALGORITHMS: dict[str, Callable] = {
    "pattern": _pattern_search,
    "pso": _pso,
    "random": _random_search,
}


def run_dfo(
    objective: Callable[[np.ndarray], float],
    domain: BoxDomain,
    config: DfoConfig,
    x0: Sequence[float] | None = None,
    batch: Callable[[list[np.ndarray]], list[float]] | None = None,
) -> DfoResult:
    """Minimize ``objective`` over the box with the configured algorithm.

    ``config.budget`` counts distinct points: each is evaluated once, and a
    repeated point is answered from the run's cache.  ``batch``, when given,
    evaluates a list of unseen, distinct points at once in place of
    ``objective`` (the caller may parallelize); results must match pointwise
    evaluation.  The search ends when the budget is spent, when the algorithm
    stops on its own, or after ``50 * budget`` requested points, which stops a
    search that only revisits cached points.
    """
    if config.algorithm not in ALGORITHMS:
        raise DomainError(f"unknown DFO algorithm {config.algorithm!r}")
    if x0 is not None:
        domain.require(x0)
    ev = _Evaluator(objective, batch, config.budget)
    return ALGORITHMS[config.algorithm](ev, domain, config, x0)
