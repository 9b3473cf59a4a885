"""Parameter-sweep harness: grid runs, aggregation, best-region extraction
and the distance-to-criticality metric.

Each repetition of a cell is one swarm, seeded with
``SeedSequence([master_seed, function_index, omega_index, alpha_index,
repetition])``.  The swarms run batched, in lockstep (see
``pso.lockstep``); a batch may hold swarms of several functions, and the
instances that share a base formula evaluate it in one call (see
``benchmarks``).  Each swarm's run does not depend on which swarms share
its batch, so results are bit-identical regardless of where batches are
cut, of execution order or of the number of worker processes.

A :class:`SweepGrid` is its cells alone: its function labels are read off
them, in order of first appearance, and :func:`aggregate_heatmap` gives
their (omega, alpha) pairs in sorted order, whatever the order of the
cells.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from typing import get_type_hints

import numpy as np

from .benchmarks import FUNCTION_IDS, BenchmarkFunction, _Stack, suite
from .dynamics import SwarmParams
from .pso import lockstep
# not called here, but bench/spans.py wraps ``harness.optimize``
from .pso import optimize  # noqa: F401
from .stability import _SHARES, RATIO_EQUAL, CriticalCurve, split_alpha

__all__ = [
    "SweepConfig",
    "CellStats",
    "SweepGrid",
    "DistanceStats",
    "run_sweep",
    "aggregate_heatmap",
    "heatmap_to_csv",
    "best_region",
    "distance_to_curve",
    "inclusive_grid",
]


def inclusive_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Values ``lo, lo + step, ...`` up to and including ``hi``, rounded to
    10 decimals so that grid points print and compare as typed.  ``step``
    must be finite and positive."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    return np.round(np.arange(lo, hi + 1e-9, step), 10)


@dataclass(frozen=True)
class SweepConfig:
    """Sweep protocol: parameter grids, budget, suite and master seed.

    The production protocol records the best cost after 200, 2000 or 20000
    iterations with 100 repetitions per cell; desk-scale runs shrink both.
    The grids must be finite and strictly increasing, the alphas positive,
    and ``split`` a name in ``stability._SHARES``.
    ``functions=None`` resolves, when the config is built, to the full
    benchmark suite at ``dim`` seeded by ``master_seed``, so ``functions``
    is never None after construction.
    """

    omega_values: np.ndarray = field(default_factory=partial(inclusive_grid, -1.1, 1.1, 0.1))
    alpha_values: np.ndarray = field(default_factory=partial(inclusive_grid, 0.25, 5.0, 0.25))
    split: str = RATIO_EQUAL
    iterations: int = 2000
    repetitions: int = 100
    functions: tuple[BenchmarkFunction, ...] | None = None
    n_particles: int = 25
    dim: int = 10
    master_seed: int = 0

    def __post_init__(self):
        for name in ("omega_values", "alpha_values"):
            grid = np.asarray(getattr(self, name), dtype=float)
            if grid.size == 0:
                raise ValueError(f"{name} must be non-empty")
            if not np.all(np.isfinite(grid)):
                raise ValueError(f"{name} must be finite")
            if np.any(np.diff(grid) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, grid)
        if self.alpha_values[0] <= 0:
            raise ValueError("alpha_values must be positive")
        if self.split not in _SHARES:
            raise ValueError(f"unknown split {self.split!r}")
        if self.iterations < 0 or self.repetitions < 1:
            raise ValueError("iterations must be >= 0 and repetitions >= 1")
        if self.n_particles < 1 or self.dim < 1:
            raise ValueError("n_particles and dim must be >= 1")
        functions = self.functions
        if functions is None:
            functions = suite(self.dim, seed=self.master_seed)
        object.__setattr__(self, "functions", tuple(functions))
        if not self.functions:
            raise ValueError("functions must name at least one benchmark function")
        labels = [fn.label for fn in self.functions]
        if len(set(labels)) < len(labels):
            raise ValueError(f"repeated sweep functions in {labels}")
        if any(fn.dim != self.dim for fn in self.functions):
            raise ValueError(f"every sweep function must have dim {self.dim}")


@dataclass(frozen=True)
class CellStats:
    """Aggregated repetitions of one (function, omega, alpha) cell."""

    function: str
    omega: float
    alpha: float
    iterations: int
    mean_best_cost: float
    median_best_cost: float
    divergence_fraction: float
    repetitions: int


# the sweep CSV has one column per CellStats field, in field order, and
# reads back through the field types
_SWEEP_HEADER = [f.name for f in fields(CellStats)]
_SWEEP_TYPES = list(get_type_hints(CellStats).values())


@dataclass(frozen=True)
class SweepGrid:
    """All cell records of one sweep: a :func:`run_sweep` grid holds them
    in (function, omega, alpha) order, and a grid read back from a CSV in
    the file's row order.  Grids compare by their cells."""

    cells: tuple[CellStats, ...]

    @property
    def function_labels(self) -> tuple[str, ...]:
        """The cells' functions, in order of first appearance."""
        return tuple(dict.fromkeys(c.function for c in self.cells))

    def to_csv(self, path, metadata: dict | None = None) -> None:
        from .io import write_csv

        rows = [tuple(getattr(c, name) for name in _SWEEP_HEADER) for c in self.cells]
        write_csv(path, _SWEEP_HEADER, rows, metadata)

    @classmethod
    def from_csv(cls, path) -> "SweepGrid":
        from .io import read_csv

        _, header, rows = read_csv(path, _SWEEP_TYPES)
        if header != _SWEEP_HEADER:
            raise ValueError(f"unexpected sweep header {header}")
        return cls(tuple(CellStats(*r) for r in rows))


# A batch holds at most _BATCH_VALUES particle coordinates (B * n * dim):
# the 240 swarms of a 2-d, 25-particle valley sweep fit in one, the 180 of
# the 10-d suite sweep fill three (65, 65 and 50), and a batch's
# (B, n, dim) cost temporaries stay near 128 KB each.
_BATCH_VALUES = 1 << 14


def _run_batch(config: SweepConfig, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Best costs and divergence flags of the swarms ``pairs``, each a
    function index and an (omega, alpha, repetition) index triple, run in
    lockstep."""
    params = []
    for _, (i_w, i_a, _) in pairs:
        alpha1, alpha2 = split_alpha(float(config.alpha_values[i_a]), config.split)
        params.append(SwarmParams(
            omega=float(config.omega_values[i_w]), alpha1=alpha1, alpha2=alpha2,
            n_particles=config.n_particles, dim=config.dim,
        ))
    seeds = (np.random.SeedSequence([config.master_seed, fn_idx, *swarm])
             for fn_idx, swarm in pairs)
    owner = np.array([fn_idx for fn_idx, _ in pairs])
    state = lockstep(_Stack(config.functions, owner), params, config.iterations,
                     BenchmarkFunction.domain, seeds)
    return state.g_best_cost, state.diverged


def _median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=-1)`` bit for bit, in its own steps: the same
    partition, the mean of the middle one or two values, and NaN wherever
    a row holds one.  ``np.median``'s NaN check imports ``numpy.ma``, about
    16 ms and 1.3 MB at a fresh interpreter's first call."""
    n = a.shape[-1]
    h = n // 2
    # NaNs partition last, as numpy's own kth list of -1 puts them
    part = np.partition(a, [h, -1] if n % 2 else [h - 1, h, -1], axis=-1)
    # numpy's mean sums from +0.0, so a sum of -0.0 comes out +0.0
    if n % 2:
        middle = part[..., h] + 0.0
    else:
        middle = (part[..., h - 1] + part[..., h] + 0.0) / 2
    last = part[..., -1]
    return np.where(np.isnan(last), last, middle)


def _quantile(a: np.ndarray, q: float):
    """``np.quantile(a, q)`` of a 1-d ``a`` with ``q`` in [0, 1], bit for bit,
    in its own steps (numpy's NaN check imports ``numpy.ma``, as
    :func:`_median` says): numpy's ``linear`` method, with the same
    partition, the virtual index ``(n - 1) * q`` between its floor and the
    next index, both the last one from ``n - 1`` on, and numpy's two-branch
    interpolation; NaN if ``a`` holds one."""
    n = a.size
    virtual = (n - 1) * q
    lo = hi = -1
    if virtual < n - 1:
        lo = math.floor(virtual)
        hi = lo + 1
    part = np.partition(a, sorted({0, -1, lo, hi}))
    if np.isnan(part[-1]):
        return part[-1]
    below, above, t = part[lo], part[hi], virtual - lo
    diff = above - below
    return above - diff * (1 - t) if t >= 0.5 else below + diff * t


def run_sweep(config: SweepConfig, jobs: int = 1) -> SweepGrid:
    """Run the full grid; deterministic for a fixed master seed and
    independent of ``jobs``.

    The swarms of all functions run in lockstep batches, cut from one list
    ordered by base formula, so that a batch runs each formula once per
    iteration.  ``jobs`` must be at least 1; with ``jobs > 1`` the sweep
    runs on ``min(jobs, os.cpu_count())`` worker processes, and the
    batches are cut smaller, into a multiple of the worker count.  Diverged
    repetitions report the best cost found before divergence, so cell
    means stay finite.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # a fork pool starts every worker at once, and more workers than cores
    # only wait; the results do not depend on the count
    jobs = min(jobs, os.cpu_count() or 1)
    functions = config.functions
    shape = (len(config.omega_values), len(config.alpha_values), config.repetitions)
    order = sorted(range(len(functions)), key=lambda i: FUNCTION_IDS.index(functions[i].id))
    pairs = [(fn_idx, swarm) for fn_idx in order for swarm in np.ndindex(shape)]
    size = max(1, _BATCH_VALUES // (config.n_particles * config.dim))
    if jobs > 1:
        # the fewest batches that are a multiple of the worker count, of
        # near-equal size, so that no worker waits for another's extra batch
        count = jobs * -(-len(pairs) // (jobs * size))
        size = -(-len(pairs) // count)
    tasks = [pairs[i : i + size] for i in range(0, len(pairs), size)]
    run_batch = partial(_run_batch, config)
    if jobs == 1:
        batches = list(map(run_batch, tasks))
    else:
        # imported here: the pool loads multiprocessing, logging, socket and
        # pickle, which a one-job process never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(run_batch, tasks))
    # back from base-formula order to function order
    best, diverged = np.empty((len(functions), *shape)), np.empty((len(functions), *shape), bool)
    best[order] = np.concatenate([b for b, _ in batches]).reshape(best.shape)
    diverged[order] = np.concatenate([d for _, d in batches]).reshape(best.shape)
    reps = config.repetitions
    # one call each over the repetition axis, bit-equal to a call per cell
    means, medians = best.mean(axis=-1), _median(best)
    diverged_counts = np.count_nonzero(diverged, axis=-1)
    cells = [
        CellStats(
            function=fn.label,
            omega=float(config.omega_values[i_w]),
            alpha=float(config.alpha_values[i_a]),
            iterations=config.iterations,
            mean_best_cost=float(means[fn_idx, i_w, i_a]),
            median_best_cost=float(medians[fn_idx, i_w, i_a]),
            divergence_fraction=int(diverged_counts[fn_idx, i_w, i_a]) / reps,
            repetitions=reps,
        )
        for fn_idx, fn in enumerate(functions)
        for i_w, i_a in np.ndindex(shape[:2])
    ]
    return SweepGrid(tuple(cells))


def aggregate_heatmap(grid: SweepGrid) -> list[tuple[float, float, float]]:
    """Average cells across functions after per-function min-max
    normalisation of the log mean cost.

    Returns one (omega, alpha, normalized_cost) tuple per (omega, alpha)
    pair of the cells, sorted by omega and then alpha, whatever the order
    of the cells, with normalised cost in [0, 1] (0 = best cell of every
    function); each pair's cost is the mean over the functions in
    ``grid.function_labels`` order.
    """
    if not grid.cells:
        raise ValueError("empty sweep grid")
    acc: dict[tuple[float, float], list[float]] = {}
    for label in grid.function_labels:
        rows = [c for c in grid.cells if c.function == label]
        # floor at 1e-12: costs below that are solved to machine noise and
        # must not stretch the log scale
        logs = np.log10(np.array([c.mean_best_cost for c in rows]) + 1e-12)
        lo, hi = logs.min(), logs.max()
        norm = np.zeros_like(logs) if hi == lo else (logs - lo) / (hi - lo)
        for c, v in zip(rows, norm):
            acc.setdefault((c.omega, c.alpha), []).append(float(v))
    return [(omega, alpha, float(np.mean(vals))) for (omega, alpha), vals in sorted(acc.items())]


def heatmap_to_csv(heatmap, path, metadata: dict | None = None) -> None:
    from .io import write_csv

    write_csv(path, ["omega", "alpha", "normalized_cost"], heatmap, metadata)


def best_region(grid: SweepGrid, quantile: float = 0.1) -> list[tuple[float, float, float]]:
    """Cells whose normalised aggregate cost falls in the best quantile.

    ``quantile`` in (0, 1]; 1.0 returns every cell (documented boundary
    behaviour).  Raises on an empty grid.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must lie in (0, 1]")
    heatmap = aggregate_heatmap(grid)
    values = np.array([h[2] for h in heatmap])
    threshold = _quantile(values, quantile)
    return [h for h in heatmap if h[2] <= threshold]


@dataclass(frozen=True)
class DistanceStats:
    """Summary of |alpha - alpha_critical(omega)| over a set of cells."""

    mean: float
    median: float
    max: float
    count: int
    skipped: int


def distance_to_curve(cells, curve: CriticalCurve) -> DistanceStats:
    """Distance of cells to the interpolated critical curve.

    Cells whose omega falls where the curve is unresolved (``NO_CROSSING``
    or outside the resolved range) are skipped and counted.
    """
    distances = []
    skipped = 0
    for cell in cells:
        omega, alpha = float(cell[0]), float(cell[1])
        a_c = curve.interpolate(omega)
        if math.isnan(a_c):
            skipped += 1
            continue
        distances.append(abs(alpha - a_c))
    if not distances:
        return DistanceStats(math.nan, math.nan, math.nan, 0, skipped)
    arr = np.array(distances)
    return DistanceStats(
        mean=float(arr.mean()),
        median=float(_median(arr)),
        max=float(arr.max()),
        count=len(distances),
        skipped=skipped,
    )
