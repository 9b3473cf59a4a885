import concurrent.futures
import math
import random

import numpy as np
import pytest

from swarmcrit import harness
from swarmcrit.benchmarks import make_function, suite
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


@pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan])
def test_inclusive_grid_rejects_a_step_that_is_not_finite_and_positive(step):
    with pytest.raises(ValueError, match="step must be finite and positive"):
        inclusive_grid(-1.0, 1.0, step)


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


@pytest.mark.parametrize("jobs", [0, -4])
def test_run_sweep_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(_tiny_config(), jobs=jobs)


def _recording_pool(log):
    """A stand-in for ``ProcessPoolExecutor`` that starts no process: each
    pool appends its worker count to ``log``, then the number of tasks it
    is given, and runs them in this process."""

    class Pool:
        def __init__(self, max_workers):
            log.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            tasks = list(zip(*columns))
            log.append(len(tasks))
            return [fn(*task) for task in tasks]

    return Pool


# with 2 cores, 2 workers get one batch of 24 swarms per function, where 64
# workers would get 48 batches of one; with no core count the sweep is serial
@pytest.mark.parametrize("cores, expected", [(2, [2, 2]), (None, [])])
def test_run_sweep_caps_workers_at_the_cpu_count(monkeypatch, cores, expected):
    log = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _recording_pool(log))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
    grid = run_sweep(_tiny_config(), jobs=64)
    assert log == expected
    assert grid.cells == run_sweep(_tiny_config()).cells


def test_run_sweep_gives_every_worker_as_many_batches(monkeypatch):
    # 48 swarms of 20 coordinates in batches of at most 17 swarms: 3
    # batches in one process, 4 of 12 on 2 workers
    log = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _recording_pool(log))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "_BATCH_VALUES", 17 * 20)
    grid = run_sweep(_tiny_config(), jobs=2)
    assert log == [2, 4]
    assert grid.cells == run_sweep(_tiny_config()).cells


def _per_run_cells(config):
    """The sweep with one ``optimize`` call per repetition."""
    cells = []
    for fn_idx, fn in enumerate(config.functions):
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


# a case's batch_values, if set, replaces ``harness._BATCH_VALUES``
@pytest.mark.parametrize("overrides, jobs, batch_values", [
    ({}, 1, None),
    ({"split": RATIO_SOCIAL_ONLY}, 1, None),
    # divergent cells beside convergent ones; particles overflow one by one
    ({"omega_values": np.array([0.7, 1.1]), "alpha_values": np.array([2.0, 12.0]),
      "iterations": 1500, "repetitions": 2, "n_particles": 5, "dim": 3,
      "functions": (make_function("rastrigin", 3, seed=4, rotated=True),)}, 1, None),
    ({"omega_values": np.array([0.4, 0.9]), "alpha_values": np.array([1.5, 3.0]),
      "iterations": 30, "repetitions": 2, "dim": 10,
      "functions": (make_function("rastrigin", 10, seed=5, rotated=True, noncontinuous=True),
                    make_function("weierstrass", 10, seed=6, rotated=True))}, 1, None),
    # 15 x 12 cells x 2 repetitions of 25 x 2 swarms: 18000 coordinates,
    # more than one batch holds
    ({"omega_values": inclusive_grid(-0.7, 0.7, 0.1),
      "alpha_values": inclusive_grid(0.25, 3.0, 0.25),
      "iterations": 8, "repetitions": 2, "n_particles": 25,
      "functions": (make_function("rastrigin", 2, seed=7),)}, 1, None),
    ({"omega_values": np.array([0.7, 1.1]), "alpha_values": np.array([2.0, 12.0]),
      "iterations": 1500, "repetitions": 3, "n_particles": 5,
      "functions": (make_function("sphere", 2, seed=8),)}, 2, None),
    # one batch of four instances, out of base-formula order: griewank's
    # swarms and the three rastrigin variants' each share one formula call
    ({"omega_values": np.array([0.4, 0.9]), "alpha_values": np.array([1.5, 3.0]),
      "iterations": 30, "repetitions": 2, "dim": 10, "n_particles": 25,
      "functions": (make_function("rastrigin", 10, seed=9, rotated=True, noncontinuous=True),
                    make_function("griewank", 10, seed=10),
                    make_function("rastrigin", 10, seed=11),
                    make_function("rastrigin", 10, seed=12, rotated=True))}, 1, None),
    # batches of 7 swarms of 20 coordinates cut inside each instance's 24
    # swarms and span two instances
    ({"functions": (make_function("rastrigin", 2, seed=13, rotated=True),
                    make_function("sphere", 2, seed=14),
                    make_function("rastrigin", 2, seed=15))}, 1, 140),
    # partly non-finite swarms beside whole ones of other instances
    ({"omega_values": np.array([0.7, 1.1]), "alpha_values": np.array([2.0, 12.0]),
      "iterations": 1500, "repetitions": 2, "n_particles": 5, "dim": 3,
      "functions": (make_function("rastrigin", 3, seed=16, rotated=True),
                    make_function("sphere", 3, seed=17),
                    make_function("rastrigin", 3, seed=18))}, 1, None),
    ({"functions": (make_function("sphere", 2, seed=19),
                    make_function("rastrigin", 2, seed=20, rotated=True),
                    make_function("griewank", 2, seed=21))}, 2, None),
], ids=["equal", "social-only", "divergent", "rotated-nc-dim10", "two-batches", "jobs2",
        "shared-base-dim10", "batches-span-functions", "divergent-stack", "jobs2-stack"])
def test_batched_sweep_equals_per_run_optimize(overrides, jobs, batch_values, monkeypatch):
    if batch_values is not None:
        monkeypatch.setattr(harness, "_BATCH_VALUES", batch_values)
    config = _tiny_config(**overrides)
    assert run_sweep(config, jobs=jobs).cells == _per_run_cells(config)


def test_cell_statistics_over_the_repetition_axis_equal_per_cell_calls():
    # run_sweep takes every cell's mean and median in one call over the
    # repetition axis; they must equal np.mean and np.median per cell bit
    # for bit, also with signed zeros, subnormal, infinite and NaN best costs
    rng = np.random.default_rng(12)
    for reps in range(1, 101):
        best = rng.lognormal(0.0, 20.0, (2, 3, 4, reps))
        for value, share in ((np.inf, 0.2), (0.0, 0.1), (-0.0, 0.1), (-np.inf, 0.05),
                             (5e-324, 0.05), (-5e-324, 0.05), (np.nan, 0.02)):
            best[rng.random(best.shape) < share] = value
        with np.errstate(invalid="ignore"):
            means, medians = best.mean(axis=-1), harness._median(best)
            assert medians.tobytes() == np.median(best, axis=-1).tobytes(), reps
            for cell in np.ndindex(best.shape[:-1]):
                assert means[cell].tobytes() == best[cell].mean().tobytes(), (reps, cell)
                assert medians[cell].tobytes() == np.median(best[cell]).tobytes(), (reps, cell)


def test_vector_quantile_and_median_equal_numpy_bitwise():
    # region's statistics run these in place of np.quantile and np.median,
    # whose NaN check imports numpy.ma; ties, signed zeros, infinities and
    # NaN included
    rng = np.random.default_rng(32)
    pool = np.array([0.0, -0.0, 1.0, 0.25, 5e-324, np.inf, -np.inf, np.nan])
    vectors = [[0.3], [-0.0], [np.inf], [np.nan], [2.0, 2.0, 2.0], [0.0, -0.0, -0.0, 0.0],
               [1.0, np.inf], [-np.inf, np.inf], [0.5, np.nan, 0.1]]
    for n in range(1, 40):
        vectors += [rng.lognormal(0.0, 3.0, n), rng.choice(pool[:-1], n), rng.choice(pool, n)]
    for a in map(np.array, vectors):
        with np.errstate(invalid="ignore"):
            assert harness._median(a).tobytes() == np.median(a).tobytes(), a
            for q in (1e-9, 0.1, 0.5, 1.0, float(rng.random())):
                want = np.float64(np.quantile(a, q)).tobytes()
                assert np.float64(harness._quantile(a, q)).tobytes() == want, (a, q)


def test_sweep_csv_roundtrip(tmp_path):
    grid = run_sweep(_tiny_config())
    path = tmp_path / "sweep.csv"
    grid.to_csv(path, metadata={"seed": 3})
    loaded = SweepGrid.from_csv(path)
    assert loaded.cells == grid.cells
    assert loaded.function_labels == ("sphere", "rastrigin")


def test_grids_compare_by_their_cells(tmp_path):
    grid = run_sweep(_tiny_config())
    path = tmp_path / "sweep.csv"
    grid.to_csv(path)
    assert SweepGrid.from_csv(path) == SweepGrid.from_csv(path) == grid
    assert grid != SweepGrid(grid.cells[1:])


def test_shuffled_sweep_rows_give_the_same_region(tmp_path):
    # the heatmap is in (omega, alpha) order whatever the row order, so
    # every result built on it is too
    config = _tiny_config(omega_values=np.array([-0.3, 0.0, 0.4, 0.7]),
                          alpha_values=np.array([1.0, 4.75]))
    ordered = tmp_path / "ordered.csv"
    run_sweep(config).to_csv(ordered, metadata={"seed": 3})
    lines = ordered.read_text().splitlines(keepends=True)
    head = sum(1 for line in lines if line.startswith("#")) + 1
    rows = lines[head:]
    random.Random(4).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("".join(lines[:head] + rows))
    a, b = SweepGrid.from_csv(ordered), SweepGrid.from_csv(shuffled)
    assert a.cells != b.cells
    heatmap = aggregate_heatmap(a)
    assert [(w, al) for w, al, _ in heatmap] == [
        (w, al) for w in (-0.3, 0.0, 0.4, 0.7) for al in (1.0, 4.75)]
    assert aggregate_heatmap(b) == heatmap
    curve = _synthetic_curve()
    for q in (0.25, 0.5, 1.0):
        region = best_region(a, quantile=q)
        assert best_region(b, quantile=q) == region
        assert distance_to_curve(region, curve) == distance_to_curve(best_region(b, q), curve)


def test_config_without_functions_holds_the_suite():
    config = _tiny_config(functions=None, dim=3, master_seed=9)
    want = suite(3, seed=9)
    assert isinstance(config.functions, tuple) and len(config.functions) == len(want) == 15
    x = np.random.default_rng(0).uniform(-5, 5, (4, 3))
    for got, fn in zip(config.functions, want):
        assert got.label == fn.label
        assert np.array_equal(got(x), fn(x))


def test_sweep_csv_with_wrong_header_rejected(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("omega,alpha\n0.4,1.0\n")
    with pytest.raises(ValueError, match="unexpected sweep header"):
        SweepGrid.from_csv(path)


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
    with pytest.raises(ValueError, match="at least one"):
        _tiny_config(functions=())
    for bad in ({"n_particles": 0}, {"dim": 0}, {"dim": 0, "functions": None}):
        with pytest.raises(ValueError, match="n_particles and dim"):
            _tiny_config(**bad)
    with pytest.raises(ValueError, match="dim 3"):
        _tiny_config(dim=3)


@pytest.mark.parametrize("grid, match", [
    ({"omega_values": [0.1, 0.4, 0.7, math.nan]}, "omega_values must be finite"),
    ({"omega_values": [0.4, math.inf]}, "omega_values must be finite"),
    ({"omega_values": [-math.inf, 0.4]}, "omega_values must be finite"),
    ({"alpha_values": [1.0, math.nan]}, "alpha_values must be finite"),
    ({"alpha_values": [1.0, math.inf]}, "alpha_values must be finite"),
    ({"alpha_values": [-1.0, 1.0]}, "alpha_values must be positive"),
    ({"alpha_values": [0.0, 1.0]}, "alpha_values must be positive"),
], ids=["omega-nan", "omega-inf", "omega-neg-inf", "alpha-nan", "alpha-inf", "alpha-negative",
        "alpha-zero"])
def test_config_rejects_non_finite_and_non_positive_grid_values(grid, match, monkeypatch):
    # rejected when the config is built, before any batch runs
    monkeypatch.setattr(harness, "lockstep", None)
    with pytest.raises(ValueError, match=match):
        run_sweep(_tiny_config(**grid))


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
@pytest.mark.parametrize("ratio", [RATIO_EQUAL, RATIO_SOCIAL_ONLY])
def test_split_alpha_rejects_non_finite_weights(alpha, ratio):
    with pytest.raises(ValueError, match="alpha must be finite"):
        split_alpha(alpha, ratio)


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
    empty = SweepGrid(cells=())
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
