import math

import numpy as np
import pytest

from swarmcrit.benchmarks import make_function
from swarmcrit.harness import (
    DistanceStats,
    SweepConfig,
    SweepGrid,
    aggregate_heatmap,
    best_region,
    distance_to_curve,
    run_sweep,
)
from swarmcrit.stability import (
    STATUS_NO_CROSSING,
    STATUS_OK,
    CriticalCurve,
    CriticalPoint,
    RATIO_EQUAL,
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
