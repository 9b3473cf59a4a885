"""Multi-particle particle swarm optimiser.

Implements the standard velocity/position update with personal and global
best bookkeeping, batch cost evaluation, and divergence telemetry.  Updates
are synchronous: all particles read the global best of the previous
iteration and best replacements are applied after the whole swarm has been
evaluated, so results are reproducible under any evaluation order.

``lockstep`` advances B independent swarms together as ``(B, n, dim)``
arrays, with per-swarm weights; ``optimize`` is its one-swarm case, so the
update is written once.  Each swarm draws from its own generators, and its
costs come from a call on its own ``(n, dim)`` block, so a swarm's run is
bit-identical whichever swarms share its batch.  A swarm draws the weights
of a block of iterations in one generator call; a generator fills its
output in order, so the block holds the stream that one draw per iteration
gives, and the run does not depend on the block length.  The loop owns its
buffers: it allocates the draw block and the update's work arrays once, and
each iteration writes the velocities and positions over the previous ones.
No operation on the (B, n, dim) arrays broadcasts over the coordinate axis,
where numpy's inner loop would run only dim elements long: the global bests
are repeated to full shape, and a personal best is replaced as one opaque
row (``_rows``).

A cost is needed only to ask whether it beats the particle's personal best,
so each iteration makes one cost call on the whole (B, n, dim) batch and
tells it those bests (``_batch``).  A ``BenchmarkFunction`` cost runs as
a stack of one instance, and a stack of several (``benchmarks._Stack``)
gives each swarm its own; the stack, the one cost that takes the bests as
a ceiling, evaluates every row and skips each particle whose cost
provably cannot beat its best, reporting +inf; every best, trace and flag
is bit-identical to evaluating every particle.  Any other cost maps an
(n, dim) batch to n costs and is called on each swarm's finite rows (see
``optimize``).

No spatial or velocity clamping is performed; non-finite positions mark the
run as diverged and their costs read +inf.  A benchmark cost evaluates them
with the rest of their swarm's block, so a rotated instance's matrix
product rounds the finite rows of a partly overflowed swarm as rows of the
whole block; a user cost is not called on them.  The flag is set only once
a position or velocity has overflowed to a non-finite value, so a swarm
that grows without bound but stays finite within the budget is not
flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import BenchmarkFunction, _Stack
from .dynamics import SwarmParams, _affine, _children

__all__ = [
    "SwarmState",
    "RunResult",
    "optimize",
    "lockstep",
]

# ``lockstep`` draws the weights of as many iterations per generator call as
# keep each swarm's draws within _SWARM_DRAW_VALUES doubles, where a call's
# overhead is small next to its fill, and all swarms' within _DRAW_VALUES
# (1 MB), and at least one: a 240-swarm, 25-particle 2-d valley batch draws
# 5 iterations a call, a 65-swarm 10-d suite batch 4.
_DRAW_VALUES = 1 << 17
_SWARM_DRAW_VALUES = 1 << 12


def _as_bounds(bounds, dim: int) -> np.ndarray:
    """Normalise bounds to a (dim, 2) array of finite [low, high] rows whose
    width ``high - low`` is finite too."""
    b = np.asarray(bounds, dtype=float)
    if b.size == 0:
        raise ValueError("bounds must be non-empty")
    if b.shape == (2,):
        b = np.tile(b, (dim, 1))
    if b.shape != (dim, 2):
        raise ValueError(f"bounds must be (low, high) or shape ({dim}, 2)")
    with np.errstate(over="ignore", invalid="ignore"):
        width = b[:, 1] - b[:, 0]
    # a non-finite bound or an overflowing width would draw inf or NaN positions
    if not np.isfinite(width).all():
        raise ValueError("bounds and their widths high - low must be finite")
    if np.any(b[:, 0] >= b[:, 1]):
        raise ValueError("each bound must satisfy low < high")
    return b


def _batch(f, swarms):
    """``f`` as a cost of (``swarms``, n, dim) stacks that takes the
    particles' personal best costs as ``_ceiling``: a stack of instances
    (``benchmarks._Stack``, the one cost that takes a ceiling) as it is,
    and a lone ``BenchmarkFunction`` as a stack of one instance, each of
    which evaluates every row; any other ``f`` called on each (n, dim)
    block's finite rows, with +inf on the others and no call for a block
    without a finite row."""
    if isinstance(f, BenchmarkFunction):
        f = _Stack((f,), np.zeros(swarms, dtype=int))
    if isinstance(f, _Stack):
        return f

    def cost(points, _ceiling=None):
        finite = np.isfinite(points).all(axis=-1)
        out = np.full(finite.shape, np.inf)
        for block, keep, costs in zip(points, finite, out):
            if keep.any():
                c = np.asarray(f(block[keep]), dtype=float)
                if c.shape != (keep.sum(),):
                    raise ValueError(f"a cost must map an (n, dim) batch to n costs, got {c.shape}")
                costs[keep] = c
        return out

    return cost


@dataclass(frozen=True)
class SwarmState:
    """Snapshot of B swarms run in lockstep, each of n particles in dim
    dimensions: ``positions``, ``velocities`` and ``p_best`` are
    (B, n, dim), ``p_best_cost`` is (B, n), ``g_best`` is (B, dim), and
    ``g_best_cost`` and ``diverged`` are (B,) arrays."""

    positions: np.ndarray
    velocities: np.ndarray
    p_best: np.ndarray
    p_best_cost: np.ndarray
    g_best: np.ndarray
    g_best_cost: np.ndarray
    iteration: int
    diverged: np.ndarray


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` with each row of its contiguous last axis as one opaque element,
    of shape (..., 1): selecting rows then copies whole rows bit for bit,
    with no inner loop over a coordinate axis that may be only 2 long."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[-1])))


@dataclass(frozen=True)
class RunResult:
    """Outcome of one optimisation run.

    ``diverged`` means that a position or velocity overflowed to a
    non-finite value within the budget.  A divergent run whose budget ends
    before the overflow reports ``False``, so divergence fractions over
    short runs are a lower bound.  ``evaluations`` counts the scheduled
    cost evaluations, ``n_particles * (iterations + 1)``, including those
    skipped for non-finite positions or for a cost that cannot beat its
    personal best.  The CLI's ``optimize`` record holds every field but
    ``cost_trace``, which ``trace_to_csv`` writes.
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


def _uniform(seed, bounds: np.ndarray, n: int) -> np.ndarray:
    """(n, dim) positions drawn uniformly within ``bounds``: the arithmetic
    and the stream of ``Generator.uniform`` with per-coordinate bounds,
    without its broadcasting call."""
    low, high = bounds[:, 0], bounds[:, 1]
    return low + (high - low) * np.random.default_rng(seed).random((n, len(bounds)))


def _start(cost, positions: np.ndarray) -> SwarmState:
    """B swarms at (B, n, dim) ``positions`` with zero velocities."""
    c = cost(positions)
    rows = np.arange(len(positions))
    gi = np.argmin(c, axis=1)
    return SwarmState(
        positions=positions,
        velocities=np.zeros_like(positions),
        p_best=positions.copy(),
        p_best_cost=c,
        g_best=positions[rows, gi],
        g_best_cost=c[rows, gi],
        iteration=0,
        diverged=np.zeros(len(positions), dtype=bool),
    )


def _advance(state: SwarmState, omega, alpha1, alpha2, r: np.ndarray, cost,
             work: np.ndarray) -> SwarmState:
    """One synchronous iteration of a batch state, written over its
    velocities and positions, so the caller must own them.

    ``omega``, ``alpha1`` and ``alpha2`` broadcast against (B, n, dim);
    ``r`` holds the (B, 2, n, dim) weights, ``r1`` then ``r2`` per swarm;
    ``work`` is a (3, B, n, dim) scratch array, and ``cost`` a ``_batch``
    cost, called once on the whole batch.  The caller holds an
    ``np.errstate`` that ignores overflow and invalid operations, which the
    update and the costs of a diverging swarm meet.
    """
    v, x = state.velocities, state.positions
    # the repeated global bests die with the call, before the cost's
    # temporaries, which set the loop's peak memory, are made
    _affine(omega, alpha1, alpha2, v, x, r[:, 0], r[:, 1], state.p_best,
            np.repeat(state.g_best[:, None], x.shape[1], axis=1), (v, x), work)
    c = cost(x, _ceiling=state.p_best_cost)
    # x' = x + v', so a non-finite velocity always makes the position
    # non-finite; the per-particle mask is needed only once one has overflowed
    diverged = state.diverged
    finite = np.isfinite(x)
    if not finite.all():
        finite = finite.all(axis=-1)
        diverged = diverged | ~finite.all(axis=-1)
        c[~finite] = np.inf
    improved = c < state.p_best_cost
    p_best = np.where(improved[..., None], _rows(x), _rows(state.p_best)).view(float)
    p_best_cost = np.where(improved, c, state.p_best_cost)
    rows = np.arange(len(c))
    gi = p_best_cost.argmin(axis=1)
    found = p_best_cost[rows, gi]
    better = found < state.g_best_cost
    g_best = np.where(better[:, None], p_best[rows, gi], state.g_best)
    g_best_cost = np.where(better, found, state.g_best_cost)
    return SwarmState(x, v, p_best, p_best_cost, g_best, g_best_cost,
                      state.iteration + 1, diverged)


def lockstep(f, params, iterations: int, bounds, seeds, trace=None) -> SwarmState:
    """Run one swarm per (``params``, ``seeds``) pair, all in lockstep.

    Every ``params`` entry shares ``n_particles`` and ``dim``; omega and
    the attraction weights are per swarm.  ``f`` is a ``BenchmarkFunction``,
    run as a stack of one instance, or a stack of them
    (``benchmarks._Stack``), which costs the whole (B, n, dim) stack in one
    call, with the personal bests as its ceiling, and each (n, dim) block
    as a call on it alone would; or a cost as for :func:`optimize`, called
    on each swarm's finite rows (see ``_batch``).  Each seed gives the two
    children ``SeedSequence(seed).spawn(2)`` would to an initialisation and
    a step generator (a caller's ``SeedSequence`` is not advanced, so a
    repeated call gets the same run), and per iteration each swarm draws
    ``r1`` then ``r2`` from its step generator (a block of iterations per
    generator call, the same stream), so every swarm follows exactly the
    run ``optimize`` gives for its parameters and seed.
    ``trace``, if given, is a (B, iterations) array that receives the
    global best costs after every iteration.  Returns the final batch state
    (see :class:`SwarmState`).  ``seeds`` must hold one seed per
    ``params`` entry, and there must be at least one swarm.
    """
    children = [_children(s) for s in seeds]
    if not len(children) == len(params) >= 1:
        raise ValueError("lockstep needs one seed per swarm and at least one swarm")
    n, dim = params[0].n_particles, params[0].dim
    if any((p.n_particles, p.dim) != (n, dim) for p in params):
        raise ValueError("swarms in lockstep must share n_particles and dim")
    cost = _batch(f, len(params))
    weights = np.array([(p.omega, p.alpha1, p.alpha2) for p in params])[:, :, None, None]
    omega, alpha1, alpha2 = weights[:, 0], weights[:, 1], weights[:, 2]
    b = _as_bounds(bounds, dim)
    # each swarm's first child seeds its start, its second its steps
    state = _start(cost, np.array([_uniform(next(c), b, n) for c in children]))
    rngs = [np.random.default_rng(next(c)) for c in children]
    per_swarm = 2 * n * dim
    span = max(1, min(iterations, _SWARM_DRAW_VALUES // per_swarm,
                      _DRAW_VALUES // (len(rngs) * per_swarm)))
    draws = np.empty((len(rngs), span, 2, n, dim))
    work = np.empty((3, *state.positions.shape))
    # a diverging swarm overflows; one errstate for the loop, not one a step
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(iterations):
            k = t % span
            if k == 0:
                # the last block draws only the iterations that are left
                for rng, block in zip(rngs, draws):
                    rng.random(out=block[: iterations - t])
            state = _advance(state, omega, alpha1, alpha2, draws[:, k], cost, work)
            if trace is not None:
                trace[:, t] = state.g_best_cost
    return state


def optimize(f, params: SwarmParams, iterations: int, bounds=(-100.0, 100.0), seed=None) -> RunResult:
    """Run the optimiser for a fixed iteration count.

    ``f`` maps an (n, dim) batch to n costs: it is called once an
    iteration on the swarm, or on its finite rows once a particle has
    overflowed, and a result that is not one cost per row is a
    ``ValueError``; wrap a per-point cost ``g`` as
    ``lambda X: np.array([g(x) for x in X])``.  A ``BenchmarkFunction`` is
    costed as a one-instance ``benchmarks._Stack``, whose ceiling is the
    personal bests, on the whole swarm, its non-finite rows included, whose
    costs then read +inf.

    Returns the final global best, the per-iteration best-cost trace, the
    divergence flag and the number of scheduled cost evaluations
    (``n_particles * (iterations + 1)``, counting initialisation; non-finite
    positions contribute +inf, and a ``BenchmarkFunction``'s stack skips
    the rows that cannot beat their personal best).  The divergence flag is
    set only when a position or velocity has overflowed to a non-finite
    value within ``iterations``; see :class:`RunResult`.  This is
    ``lockstep`` with one swarm.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    trace = np.empty(iterations)
    state = lockstep(f, [params], iterations, bounds, [seed], trace[None])
    return RunResult(
        best_cost=float(state.g_best_cost[0]),
        best_position=state.g_best[0],
        cost_trace=trace,
        diverged=bool(state.diverged[0]),
        evaluations=params.n_particles * (iterations + 1),
    )


# not API: the traced mode of ``bench/spans.py`` wraps these names, until
# its spans are read from run records (ROADMAP item 5)
init_swarm = pso_step = None

