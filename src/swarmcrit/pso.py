"""Multi-particle particle swarm optimiser.

Implements the standard velocity/position update with personal and global
best bookkeeping, batch cost evaluation, and divergence telemetry.  Updates
are synchronous: all particles read the global best of the previous
iteration and best replacements are applied after the whole swarm has been
evaluated, so results are reproducible under any evaluation order.

No spatial or velocity clamping is performed; non-finite positions mark the
run as diverged, cost evaluation for them is skipped and treated as +inf.
The flag is set only once a position or velocity has overflowed to a
non-finite value, so a swarm that grows without bound but stays finite
within the budget is not flagged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import SwarmParams, affine_update

__all__ = [
    "SwarmState",
    "RunResult",
    "init_swarm",
    "pso_step",
    "optimize",
]


def _as_bounds(bounds, dim: int) -> np.ndarray:
    """Normalise bounds to a (dim, 2) array of [low, high] rows."""
    b = np.asarray(bounds, dtype=float)
    if b.size == 0:
        raise ValueError("bounds must be non-empty")
    if b.shape == (2,):
        b = np.tile(b, (dim, 1))
    if b.shape != (dim, 2):
        raise ValueError(f"bounds must be (low, high) or shape ({dim}, 2)")
    if np.any(b[:, 0] >= b[:, 1]):
        raise ValueError("each bound must satisfy low < high")
    return b


class _CostAdapter:
    """Call a cost function on an (n, dim) batch, vectorised when supported.

    A function is treated as batch-capable if calling it on an (n, dim)
    array returns shape (n,); otherwise it is called once per row.
    """

    def __init__(self, f):
        self._f = f
        self._batched: bool | None = None

    @classmethod
    def wrap(cls, f) -> "_CostAdapter":
        return f if isinstance(f, cls) else cls(f)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        if self._batched is None:
            try:
                out = np.asarray(self._f(points), dtype=float)
            except Exception:
                out = None
            if out is not None and out.shape == (points.shape[0],):
                self._batched = True
                return out
            self._batched = False
        if self._batched:
            return np.asarray(self._f(points), dtype=float)
        return np.array([float(self._f(row)) for row in points])


@dataclass(frozen=True)
class SwarmState:
    """Complete swarm snapshot; arrays are laid out (n_particles, dim)."""

    positions: np.ndarray
    velocities: np.ndarray
    p_best: np.ndarray
    p_best_cost: np.ndarray
    g_best: np.ndarray
    g_best_cost: float
    iteration: int
    diverged: bool = False

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one optimisation run.

    ``diverged`` means that a position or velocity overflowed to a
    non-finite value within the budget.  A divergent run whose budget ends
    before the overflow reports ``False``, so divergence fractions over
    short runs are a lower bound.
    """

    best_cost: float
    best_position: np.ndarray
    cost_trace: np.ndarray
    diverged: bool
    evaluations: int

    def trace_to_csv(self, path, metadata: dict | None = None) -> None:
        from .io import write_csv

        rows = list(enumerate(self.cost_trace))
        write_csv(path, ["iteration", "g_best_cost"], rows, metadata)

    def to_json(self, path, params: SwarmParams, seed, metadata: dict | None = None) -> None:
        from .io import write_json

        payload = {
            "params": asdict(params),
            "seed": seed,
            "best_cost": self.best_cost,
            "best_position": [float(v) for v in self.best_position],
            "diverged": self.diverged,
            "evaluations": self.evaluations,
        }
        payload.update(metadata or {})
        write_json(path, payload)


def init_swarm(params: SwarmParams, bounds, f, seed=None) -> SwarmState:
    """Initialise a swarm with uniform positions and zero velocities.

    Personal bests start at the initial positions; the global best is the
    cheapest of them.  ``bounds`` is a (low, high) pair applied to every
    dimension or a (dim, 2) array.
    """
    b = _as_bounds(bounds, params.dim)
    rng = np.random.default_rng(seed)
    n, d = params.n_particles, params.dim
    positions = rng.uniform(b[:, 0], b[:, 1], size=(n, d))
    velocities = np.zeros((n, d))
    cost = _CostAdapter.wrap(f)(positions)
    gi = int(np.argmin(cost))
    return SwarmState(
        positions=positions,
        velocities=velocities,
        p_best=positions.copy(),
        p_best_cost=cost.copy(),
        g_best=positions[gi].copy(),
        g_best_cost=float(cost[gi]),
        iteration=0,
        diverged=False,
    )


def pso_step(
    state: SwarmState,
    params: SwarmParams,
    f,
    rng: np.random.Generator,
    update_bests: bool = True,
) -> SwarmState:
    """Advance the swarm one iteration.

    Draws fresh diagonal weights ``r1 = rng.random((n, dim))`` then
    ``r2 = rng.random((n, dim))`` (independent per particle and
    dimension), applies the velocity/position update against the previous
    iteration's bests, evaluates the cost of finite positions, and applies
    strict-improvement best replacements (ties keep the incumbent).

    ``update_bests=False`` freezes the personal and global bests, which
    turns the swarm into independent particles under fixed attractors;
    used for validating against the single-particle dynamics.
    """
    n, d = state.n_particles, state.dim
    r1 = rng.random((n, d))
    r2 = rng.random((n, d))
    velocities, positions = affine_update(
        params.omega, params.alpha1, params.alpha2,
        state.velocities, state.positions, r1, r2, state.p_best, state.g_best,
    )
    finite = np.isfinite(positions).all(axis=1) & np.isfinite(velocities).all(axis=1)
    diverged = state.diverged or not bool(finite.all())
    cost = np.full(n, np.inf)
    if finite.any():
        with np.errstate(over="ignore", invalid="ignore"):
            cost[finite] = _CostAdapter.wrap(f)(positions[finite])
    if not update_bests:
        return SwarmState(
            positions=positions,
            velocities=velocities,
            p_best=state.p_best,
            p_best_cost=state.p_best_cost,
            g_best=state.g_best,
            g_best_cost=state.g_best_cost,
            iteration=state.iteration + 1,
            diverged=diverged,
        )
    improved = cost < state.p_best_cost
    p_best = np.where(improved[:, None], positions, state.p_best)
    p_best_cost = np.where(improved, cost, state.p_best_cost)
    gi = int(np.argmin(p_best_cost))
    if p_best_cost[gi] < state.g_best_cost:
        g_best = p_best[gi].copy()
        g_best_cost = float(p_best_cost[gi])
    else:
        g_best = state.g_best
        g_best_cost = state.g_best_cost
    return SwarmState(
        positions=positions,
        velocities=velocities,
        p_best=p_best,
        p_best_cost=p_best_cost,
        g_best=g_best,
        g_best_cost=g_best_cost,
        iteration=state.iteration + 1,
        diverged=diverged,
    )


def optimize(f, params: SwarmParams, iterations: int, bounds=(-100.0, 100.0), seed=None) -> RunResult:
    """Run the optimiser for a fixed iteration count.

    Returns the final global best, the per-iteration best-cost trace, the
    divergence flag and the number of scheduled cost evaluations
    (``n_particles * (iterations + 1)``, counting initialisation; skipped
    evaluations of non-finite positions contribute +inf without calling
    ``f``).  The divergence flag is set only when a position or velocity
    has overflowed to a non-finite value within ``iterations``; see
    :class:`RunResult`.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    init_ss, step_ss = ss.spawn(2)
    adapter = _CostAdapter.wrap(f)
    state = init_swarm(params, bounds, adapter, seed=init_ss)
    rng = np.random.default_rng(step_ss)
    trace = np.empty(iterations)
    for t in range(iterations):
        state = pso_step(state, params, adapter, rng)
        trace[t] = state.g_best_cost
    return RunResult(
        best_cost=state.g_best_cost,
        best_position=state.g_best.copy(),
        cost_trace=trace,
        diverged=state.diverged,
        evaluations=params.n_particles * (iterations + 1),
    )
