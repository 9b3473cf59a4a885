import math

import numpy as np
import pytest

from swarmcrit.benchmarks import make_function
from swarmcrit.dynamics import SwarmParams
from swarmcrit.harness import (
    CellStats,
    DistanceStats,
    SweepConfig,
    SweepGrid,
    aggregate_heatmap,
    best_region,
    distance_to_curve,
    inclusive_grid,
    run_sweep,
)
from swarmcrit.pso import optimize
from swarmcrit.stability import (
    STATUS_NO_CROSSING,
    STATUS_OK,
    CriticalCurve,
    CriticalPoint,
    RATIO_EQUAL,
    RATIO_SOCIAL_ONLY,
    split_alpha,
)


def _tiny_config(**overrides):
    defaults = dict(
        omega_values=np.array([0.4, 0.7]),
        alpha_values=np.array([1.0, 2.0, 4.75]),
        split=RATIO_EQUAL,
        iterations=60,
        repetitions=4,
        functions=(make_function("sphere", 2, seed=1), make_function("rastrigin", 2, seed=2)),
        n_particles=10,
        dim=2,
        master_seed=3,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def test_cell_count_and_fields():
    grid = run_sweep(_tiny_config())
    assert len(grid.cells) == 2 * 2 * 3
    cell = grid.cells[0]
    assert cell.repetitions == 4
    assert 0.0 <= cell.divergence_fraction <= 1.0
    assert math.isfinite(cell.mean_best_cost)
    assert grid.function_labels == ("sphere", "rastrigin")


def test_sweep_deterministic():
    a = run_sweep(_tiny_config())
    b = run_sweep(_tiny_config())
    assert a.cells == b.cells


def test_sweep_schedule_independence():
    serial = run_sweep(_tiny_config(), jobs=1)
    parallel = run_sweep(_tiny_config(), jobs=2)
    assert serial.cells == parallel.cells


def _per_run_cells(config):
    """The sweep with one ``optimize`` call per repetition."""
    cells = []
    for fn_idx, fn in enumerate(config.resolve_functions()):
        for i_w, omega in enumerate(config.omega_values):
            for i_a, alpha in enumerate(config.alpha_values):
                a1, a2 = split_alpha(float(alpha), config.split)
                params = SwarmParams(float(omega), a1, a2, config.n_particles, config.dim)
                runs = [
                    optimize(fn, params, config.iterations, bounds=fn.domain,
                             seed=np.random.SeedSequence([config.master_seed, fn_idx, i_w, i_a, rep]))
                    for rep in range(config.repetitions)
                ]
                best = np.array([r.best_cost for r in runs])
                cells.append(CellStats(
                    function=fn.label, omega=float(omega), alpha=float(alpha),
                    iterations=config.iterations, mean_best_cost=float(best.mean()),
                    median_best_cost=float(np.median(best)),
                    divergence_fraction=sum(r.diverged for r in runs) / config.repetitions,
                    repetitions=config.repetitions,
                ))
    return tuple(cells)


@pytest.mark.parametrize("overrides, jobs", [
    ({}, 1),
    ({"split": RATIO_SOCIAL_ONLY}, 1),
    # divergent cells beside convergent ones; particles overflow one by one
    ({"omega_values": np.array([0.7, 1.1]), "alpha_values": np.array([2.0, 12.0]),
      "iterations": 1500, "repetitions": 2, "n_particles": 5, "dim": 3,
      "functions": (make_function("rastrigin", 3, seed=4, rotated=True),)}, 1),
    ({"omega_values": np.array([0.4, 0.9]), "alpha_values": np.array([1.5, 3.0]),
      "iterations": 30, "repetitions": 2, "dim": 10,
      "functions": (make_function("rastrigin", 10, seed=5, rotated=True, noncontinuous=True),
                    make_function("weierstrass", 10, seed=6, rotated=True))}, 1),
    # 15 x 12 cells x 2 repetitions of 25 x 2 swarms: 18000 coordinates,
    # more than one batch holds
    ({"omega_values": inclusive_grid(-0.7, 0.7, 0.1),
      "alpha_values": inclusive_grid(0.25, 3.0, 0.25),
      "iterations": 8, "repetitions": 2, "n_particles": 25,
      "functions": (make_function("rastrigin", 2, seed=7),)}, 1),
    ({"omega_values": np.array([0.7, 1.1]), "alpha_values": np.array([2.0, 12.0]),
      "iterations": 1500, "repetitions": 3, "n_particles": 5,
      "functions": (make_function("sphere", 2, seed=8),)}, 2),
], ids=["equal", "social-only", "divergent", "rotated-nc-dim10", "two-batches", "jobs2"])
def test_batched_sweep_equals_per_run_optimize(overrides, jobs):
    config = _tiny_config(**overrides)
    assert run_sweep(config, jobs=jobs).cells == _per_run_cells(config)


def test_cell_statistics_over_the_repetition_axis_equal_per_cell_calls():
    # run_sweep takes every cell's mean and median in one call over the
    # repetition axis; they must equal a call per cell bit for bit,
    # also with infinite best costs
    rng = np.random.default_rng(12)
    for reps in range(1, 101):
        best = rng.lognormal(0.0, 20.0, (2, 3, 4, reps))
        best[rng.random(best.shape) < 0.2] = np.inf
        best[rng.random(best.shape) < 0.1] = 0.0
        means, medians = best.mean(axis=-1), np.median(best, axis=-1)
        for cell in np.ndindex(best.shape[:-1]):
            assert means[cell].tobytes() == best[cell].mean().tobytes(), (reps, cell)
            assert medians[cell].tobytes() == np.median(best[cell]).tobytes(), (reps, cell)


def test_sweep_csv_roundtrip(tmp_path):
    grid = run_sweep(_tiny_config())
    path = tmp_path / "sweep.csv"
    grid.to_csv(path, metadata={"seed": 3})
    loaded = SweepGrid.from_csv(path)
    assert loaded.cells == grid.cells
    assert list(loaded.omega_values) == [0.4, 0.7]


def test_config_validation():
    with pytest.raises(ValueError):
        _tiny_config(omega_values=np.array([]))
    with pytest.raises(ValueError):
        _tiny_config(alpha_values=np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        _tiny_config(split="harmonic")
    with pytest.raises(ValueError):
        _tiny_config(repetitions=0)
    with pytest.raises(ValueError, match="repeated"):
        _tiny_config(functions=(make_function("sphere", 2, seed=1), make_function("sphere", 2, seed=2)))


def test_aggregate_heatmap_normalisation():
    grid = run_sweep(_tiny_config())
    heatmap = aggregate_heatmap(grid)
    assert len(heatmap) == 6
    values = np.array([h[2] for h in heatmap])
    assert values.min() >= 0.0 and values.max() <= 1.0


def test_best_region_quantiles():
    grid = run_sweep(_tiny_config())
    everything = best_region(grid, quantile=1.0)
    assert len(everything) == 6
    top = best_region(grid, quantile=0.2)
    assert 1 <= len(top) < 6
    with pytest.raises(ValueError):
        best_region(grid, quantile=0.0)


def test_best_region_rejects_empty_grid():
    empty = SweepGrid(cells=(), omega_values=np.array([0.0]),
                      alpha_values=np.array([1.0]), function_labels=())
    with pytest.raises(ValueError):
        best_region(empty)


def _synthetic_curve():
    points = (
        CriticalPoint(0.0, 4.0, 0.01, STATUS_OK),
        CriticalPoint(0.5, 5.0, 0.01, STATUS_OK),
        CriticalPoint(1.1, math.nan, math.nan, STATUS_NO_CROSSING),
    )
    return CriticalCurve(points=points, ratio=RATIO_EQUAL, method="LYAPUNOV_BISECTION")


def test_distance_to_curve_metric():
    curve = _synthetic_curve()
    on_curve = [(0.0, 4.0), (0.5, 5.0), (0.25, 4.5)]
    stats = distance_to_curve(on_curve, curve)
    assert stats.mean == pytest.approx(0.0, abs=1e-12)
    shifted = [(0.0, 4.5), (0.5, 5.5)]
    stats = distance_to_curve(shifted, curve)
    assert stats.mean == pytest.approx(0.5)
    assert stats.median == pytest.approx(0.5)
    assert stats.max == pytest.approx(0.5)


def test_distance_to_curve_skips_unresolved():
    curve = _synthetic_curve()
    stats = distance_to_curve([(0.25, 4.0), (1.0, 3.0)], curve)
    assert stats.count == 1
    assert stats.skipped == 1
    empty = distance_to_curve([(1.0, 3.0)], curve)
    assert math.isnan(empty.mean) and empty.skipped == 1
    assert isinstance(empty, DistanceStats)


def test_divergent_cells_report_divergence_fraction():
    config = _tiny_config(
        omega_values=np.array([1.1]),
        alpha_values=np.array([5.0]),
        iterations=5000,
        repetitions=3,
        functions=(make_function("sphere", 2, seed=1),),
    )
    grid = run_sweep(config)
    cell = grid.cells[0]
    assert cell.divergence_fraction > 0.5
    assert math.isfinite(cell.mean_best_cost)
