import numpy as np
import pytest

from swarmcrit import benchmarks, pso
from swarmcrit.benchmarks import make_function
from swarmcrit.dynamics import SwarmParams, _step
from swarmcrit.harness import SweepConfig, inclusive_grid, run_sweep
from swarmcrit.pso import SwarmState, lockstep, optimize


def sphere(points):
    points = np.atleast_2d(points)
    return np.sum(points * points, axis=1)


def sphere_scalar(x):
    return float(np.sum(np.asarray(x) ** 2))


def _advance_one(state, params, f, rng):
    """``state``, a batch of one swarm, after one ``pso._advance`` with the
    draw and cost that ``lockstep`` gives it; the step writes over
    ``state``'s velocities and positions."""
    r = rng.random((1, 2, params.n_particles, params.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        return pso._advance(state, params.omega, params.alpha1, params.alpha2, r,
                            pso._batch(f, len(r)), np.empty((3, *state.positions.shape)))


# ---------------------------------------------------------------- init


def test_init_swarm_within_bounds():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=25, dim=10)
    state = lockstep(sphere, [params], 0, (-100.0, 100.0), [1])
    assert state.positions.shape == (1, 25, 10)
    assert np.all(state.positions >= -100) and np.all(state.positions <= 100)
    assert np.array_equal(state.velocities, np.zeros((1, 25, 10)))
    assert np.array_equal(state.p_best, state.positions)
    gi = int(np.argmin(state.p_best_cost[0]))
    assert state.g_best_cost[0] == state.p_best_cost[0, gi]
    assert np.array_equal(state.g_best[0], state.positions[0, gi])


def test_init_single_particle():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=1, dim=3)
    state = lockstep(sphere, [params], 0, (-5.0, 5.0), [2])
    assert np.array_equal(state.g_best[0], state.p_best[0, 0])
    assert state.g_best_cost[0] == state.p_best_cost[0, 0]


def test_init_deterministic():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=5, dim=2)
    a = lockstep(sphere, [params], 0, (-1.0, 1.0), [3])
    b = lockstep(sphere, [params], 0, (-1.0, 1.0), [3])
    assert np.array_equal(a.positions, b.positions)
    assert a.g_best_cost[0] == b.g_best_cost[0]


def test_init_rejects_bad_bounds():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=2, dim=2)
    with pytest.raises(ValueError):
        lockstep(sphere, [params], 0, (), [1])
    with pytest.raises(ValueError):
        lockstep(sphere, [params], 0, (5.0, -5.0), [1])
    with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
        lockstep(sphere, [params], 0, np.zeros((2, 3)), [1])


@pytest.mark.parametrize("bounds", [(-1e308, 1e308), (np.nan, 1.0), (0.0, np.inf),
                                    [(-1.0, 1.0), (-np.inf, 0.0)]],
                         ids=["overflowing_width", "nan", "inf", "one_row_inf"])
def test_bounds_and_their_width_must_be_finite(bounds):
    # a width past the float range would draw inf or NaN positions
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=3, dim=2)
    with pytest.raises(ValueError, match="finite"):
        optimize(sphere, params, 5, bounds=bounds, seed=1)


def test_init_per_dimension_bounds():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=50, dim=2)
    x = lockstep(sphere, [params], 0, [(-1.0, 0.0), (10.0, 20.0)], [4]).positions[0]
    assert np.all(x[:, 0] <= 0.0) and np.all(x[:, 0] >= -1.0)
    assert np.all(x[:, 1] >= 10.0) and np.all(x[:, 1] <= 20.0)


# ---------------------------------------------------------------- stepping


def test_step_zero_force_fixed_point():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=3, dim=2)
    start = lockstep(sphere, [params], 0, (-1.0, 1.0), [5])
    pinned = np.repeat(start.g_best[:, None], 3, axis=1)
    state = SwarmState(
        positions=pinned.copy(),
        velocities=np.zeros((1, 3, 2)),
        p_best=pinned.copy(),
        p_best_cost=np.full((1, 3), start.g_best_cost[0]),
        g_best=start.g_best,
        g_best_cost=start.g_best_cost,
        iteration=0,
        diverged=np.zeros(1, dtype=bool),
    )
    out = _advance_one(state, params, sphere, np.random.default_rng(6))
    assert np.array_equal(out.positions, pinned)
    assert np.array_equal(out.velocities, np.zeros((1, 3, 2)))
    assert out.iteration == 1


def test_gbest_monotone_and_personal_best_invariant():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=10, dim=3)
    state = lockstep(sphere, [params], 0, (-50.0, 50.0), [7])
    rng = np.random.default_rng(8)
    last = state.g_best_cost[0]
    for _ in range(100):
        state = _advance_one(state, params, sphere, rng)
        assert state.g_best_cost[0] <= last
        last = state.g_best_cost[0]
        costs = sphere(state.positions[0])
        assert np.all(state.p_best_cost[0] <= costs + 1e-15)
        assert state.g_best_cost[0] == state.p_best_cost.min()


def test_stable_parameters_improve_sphere():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=25, dim=10)
    result = optimize(sphere, params, 200, bounds=(-100.0, 100.0), seed=9)
    assert result.best_cost < result.cost_trace[0]
    assert not result.diverged


def test_divergent_parameters_flag_divergence():
    # at omega=1.1, alpha=5 the exponent is ~0.16, so positions overflow
    # float64 around iteration 4400; most seeds must flag by 5000
    params = SwarmParams(1.1, 2.5, 2.5, n_particles=25, dim=2)
    flagged = sum(
        optimize(sphere, params, 5000, bounds=(-100.0, 100.0), seed=s).diverged
        for s in range(8)
    )
    assert flagged >= 7


def test_ties_keep_incumbent():
    params = SwarmParams(0.0, 1.0, 1.0, n_particles=2, dim=1)
    flat = lambda pts: np.zeros(np.atleast_2d(pts).shape[0])
    state = lockstep(flat, [params], 0, (-1.0, 1.0), [10])
    first_best, first_p_best = state.g_best.copy(), state.p_best.copy()
    out = _advance_one(state, params, flat, np.random.default_rng(11))
    assert np.array_equal(out.g_best, first_best)
    assert np.array_equal(out.p_best, first_p_best)


# ---------------------------------------------------------------- optimize


def test_optimize_trace_monotone_and_evaluations():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=25, dim=2)
    result = optimize(sphere, params, 300, bounds=(-100.0, 100.0), seed=12)
    assert np.all(np.diff(result.cost_trace) <= 0)
    assert result.evaluations == 25 * 301
    assert result.cost_trace.size == 300


def test_optimize_zero_iterations_returns_init_best():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=5, dim=2)
    result = optimize(sphere, params, 0, bounds=(-10.0, 10.0), seed=13)
    state = lockstep(sphere, [params], 0, (-10.0, 10.0), [13])
    assert result.best_cost == state.g_best_cost[0]
    assert result.evaluations == 5


def test_optimize_deterministic_and_scalar_cost_agrees():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=8, dim=2)
    a = optimize(sphere, params, 50, bounds=(-10.0, 10.0), seed=14)
    b = optimize(sphere, params, 50, bounds=(-10.0, 10.0), seed=14)
    # the documented wrapper of a per-point cost
    c = optimize(lambda X: np.array([sphere_scalar(x) for x in X]), params, 50,
                 bounds=(-10.0, 10.0), seed=14)
    assert a.best_cost == b.best_cost == c.best_cost
    assert np.array_equal(a.cost_trace, c.cost_trace)


def _nan_beyond_90(points):
    return np.where(points[:, 0] > 90, np.nan, np.sum(points * points, axis=1))


def test_nan_start_cost_never_becomes_a_best():
    # the start sets its bests by the rule of every iteration, so a NaN
    # first cost is not a best that no later cost can beat
    params = SwarmParams(0.7, 1.0, 1.0, n_particles=25, dim=2)
    results = [optimize(_nan_beyond_90, params, 100, seed=s) for s in range(6)]
    assert all(np.isfinite([r.best_cost, r.cost_trace[-1]]).all() for r in results)
    # seeds 0 and 2 start with no NaN cost and keep their bits
    assert results[0].best_cost == 1.722600543754696e-14
    assert results[2].best_cost == 2.1092914579408743e-14


@pytest.mark.parametrize("iterations", [0, 1])
def test_lockstep_start_of_nan_costs_leaves_no_nan_best(iterations):
    # each swarm's first call, its start, costs NaN on every row
    params = [SwarmParams(0.7, 0.7, 0.7, n_particles=5, dim=2)] * 3
    calls = []

    def nan_at_start(points):
        calls.append(1)
        return np.full(len(points), np.nan) if len(calls) <= len(params) else sphere(points)

    state = lockstep(nan_at_start, params, iterations, (-10.0, 10.0), [1, 2, 3])
    assert not np.isnan(state.p_best_cost).any()
    if iterations == 0:
        # no best yet: every best cost reads +inf
        assert np.isposinf(state.g_best_cost).all()
    else:
        assert np.isfinite(state.g_best_cost).all()


def _rows_cost(points):
    # depends on how many rows one call holds, so it shows whether each
    # swarm's costs come from calls on its own rows alone
    return np.sum(points * points, axis=-1) + points.shape[-2]


@pytest.mark.parametrize("cost", [make_function("weierstrass", 3, seed=2, rotated=True), _rows_cost],
                         ids=["weierstrass-rot", "rows-cost"])
def test_lockstep_swarms_equal_lone_runs(cost):
    # mixed weights in one batch, and swarms that overflow particle by
    # particle, so some calls see only a swarm's finite rows
    params = [SwarmParams(w, a1, a2, n_particles=4, dim=3)
              for w, a1, a2 in ((0.7, 0.7, 0.7), (1.1, 6.0, 6.0), (1.0, 0.0, 12.0), (0.4, 1.0, 0.5))]
    seeds = [np.random.SeedSequence([5, i]) for i in range(len(params))]
    trace = np.empty((len(params), 900))
    state = lockstep(cost, params, 900, (-100.0, 100.0), seeds, trace)
    assert state.diverged.any() and not state.diverged.all()
    for i, p in enumerate(params):
        lone = optimize(cost, p, 900, bounds=(-100.0, 100.0), seed=np.random.SeedSequence([5, i]))
        assert state.g_best_cost[i] == lone.best_cost
        assert np.array_equal(state.g_best[i], lone.best_position)
        assert state.diverged[i] == lone.diverged
        assert np.array_equal(trace[i], lone.cost_trace)


def _reference_run(cost, params, iterations, low, high, entropy):
    """One swarm, one ``rng.random((2, n, dim))`` draw per iteration, and the
    finiteness test on positions and velocities both.  A benchmark instance
    costs all n rows and the non-finite ones read +inf; any other cost is
    called on the finite rows alone."""
    init_ss, step_ss = np.random.SeedSequence(entropy).spawn(2)
    n, dim = params.n_particles, params.dim
    x = np.random.default_rng(init_ss).uniform(low, high, size=(n, dim))
    v = np.zeros_like(x)
    pb, pbc = x.copy(), cost(x)
    gb, gbc = pb[np.argmin(pbc)], pbc.min()
    rng = np.random.default_rng(step_ss)
    diverged, trace = False, []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            r = rng.random((2, n, dim))
            v = params.omega * v + params.alpha1 * r[0] * (pb - x) + params.alpha2 * r[1] * (gb - x)
            x = x + v
            finite = np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1)
            diverged = diverged or not finite.all()
            if isinstance(cost, benchmarks.BenchmarkFunction):
                c = np.where(finite, cost(x), np.inf)
            else:
                c = np.full(n, np.inf)
                if finite.any():
                    c[finite] = cost(x[finite])
            improved = c < pbc
            pb = np.where(improved[:, None], x, pb)
            pbc = np.where(improved, c, pbc)
            gi = np.argmin(pbc)
            if pbc[gi] < gbc:
                gb, gbc = pb[gi], pbc[gi]
            trace.append(gbc)
    return x, gbc, gb, diverged, trace


# 4 swarms of 4 x 3 draw 96 values an iteration, 24 each: by default 170
# iterations a call, so 900 iterations end on a partial block; then 7 a
# call, and 1
@pytest.mark.parametrize("draw_values", [pso._DRAW_VALUES, 96 * 7, 1],
                         ids=["default", "span7", "span1"])
def test_lockstep_equals_per_iteration_draws(draw_values, monkeypatch):
    monkeypatch.setattr(pso, "_DRAW_VALUES", draw_values)
    params = [SwarmParams(w, a1, a2, n_particles=4, dim=3)
              for w, a1, a2 in ((0.7, 0.7, 0.7), (1.1, 6.0, 6.0), (1.0, 0.0, 12.0), (0.4, 1.0, 0.5))]
    seeds = [[9, i] for i in range(len(params))]
    trace = np.empty((len(params), 900))
    state = lockstep(_rows_cost, params, 900, (-100.0, 100.0), seeds, trace)
    assert state.diverged.any() and not state.diverged.all()
    for i, p in enumerate(params):
        x, gbc, gb, diverged, ref_trace = _reference_run(_rows_cost, p, 900, -100.0, 100.0, seeds[i])
        assert np.array_equal(state.positions[i], x, equal_nan=True)
        assert state.g_best_cost[i] == gbc
        assert np.array_equal(state.g_best[i], gb)
        assert state.diverged[i] == diverged
        assert np.array_equal(trace[i], ref_trace)


def _count_rows(monkeypatch, fid):
    """A list that receives the number of rows of every call of the base
    formula ``fid``."""
    rows = []
    base = benchmarks._BASE[fid]

    def counted(z):
        rows.append(z.size // z.shape[-1])
        return base(z)

    monkeypatch.setitem(benchmarks._BASE, fid, counted)
    return rows


_BOUNDED = {
    "rastrigin": dict(id="rastrigin"),
    "rastrigin-rot": dict(id="rastrigin", rotated=True),
    "rastrigin-rot-nc": dict(id="rastrigin", rotated=True, noncontinuous=True),
    "griewank": dict(id="griewank"),
    "ackley": dict(id="ackley"),
    "ackley-rot": dict(id="ackley", rotated=True),
    "weierstrass": dict(id="weierstrass"),
    "weierstrass-rot": dict(id="weierstrass", rotated=True),
}


def test_every_bound_has_a_skip_test():
    assert {v["id"] for v in _BOUNDED.values()} == set(benchmarks._BOUND)


@pytest.mark.parametrize("dim", [2, 10])
@pytest.mark.parametrize("variant", list(_BOUNDED.values()), ids=list(_BOUNDED))
def test_lockstep_skipping_bounded_costs_equals_evaluating_every_particle(variant, dim,
                                                                         monkeypatch):
    # the reference evaluates every particle; lockstep skips the rows whose
    # bound cannot beat their personal best, also on swarms that grow to
    # huge finite positions and on the blocks of swarms that hold
    # non-finite rows
    fn = make_function(**variant, dim=dim, seed=19)
    params = [SwarmParams(w, a1, a2, n_particles=4, dim=dim)
              for w, a1, a2 in ((0.7, 0.7, 0.7), (1.1, 6.0, 6.0), (1.0, 0.0, 12.0), (0.4, 1.0, 0.5))]
    seeds = [[19, i] for i in range(len(params))]
    rows = _count_rows(monkeypatch, variant["id"])
    trace = np.empty((len(params), 900))
    state = lockstep(fn, params, 900, fn.domain, seeds, trace)
    evaluated = sum(rows)
    assert state.diverged.any() and not state.diverged.all()
    for i, p in enumerate(params):
        x, gbc, gb, diverged, ref_trace = _reference_run(fn, p, 900, -100.0, 100.0, seeds[i])
        assert np.array_equal(state.positions[i], x, equal_nan=True)
        assert state.g_best_cost[i] == gbc
        assert np.array_equal(state.g_best[i], gb)
        assert state.diverged[i] == diverged
        assert np.array_equal(trace[i], ref_trace)
    # the reference's calls counted the rows of every particle
    assert evaluated < sum(rows) - evaluated


def test_valley_sweep_skips_half_the_scheduled_rastrigin_rows(monkeypatch):
    # the benchmark's valley sweep: 2-d rastrigin, 12 x 10 cells, 2
    # repetitions, 25 particles, 200 iterations; the CLI builds the
    # instance from the sweep seed
    fn = make_function("rastrigin", 2, seed=10_000)
    config = SweepConfig(
        omega_values=inclusive_grid(-1.1, 1.1, 0.2), alpha_values=inclusive_grid(0.25, 5.0, 0.5),
        iterations=200, repetitions=2, functions=(fn,), n_particles=25, dim=2, master_seed=10_000,
    )
    rows = _count_rows(monkeypatch, "rastrigin")
    run_sweep(config)
    scheduled = 12 * 10 * 2 * 25 * 201
    assert sum(rows) <= 0.5 * scheduled


def _suite_grid_share(monkeypatch, fid):
    """The share of its scheduled rows that base formula ``fid`` runs in
    the suite sweep's grid at dim 10: 4 omegas x 3 alphas, one repetition,
    25 particles, 200 iterations, a plain and a rotated instance."""
    fns = (make_function(fid, 10, seed=1), make_function(fid, 10, seed=2, rotated=True))
    config = SweepConfig(
        omega_values=inclusive_grid(-0.5, 1.0, 0.5), alpha_values=inclusive_grid(1.0, 4.0, 1.5),
        iterations=200, repetitions=1, functions=fns, n_particles=25, dim=10, master_seed=14,
    )
    rows = _count_rows(monkeypatch, fid)
    run_sweep(config)
    return sum(rows) / (2 * 4 * 3 * 25 * 201)


def test_suite_sweep_skips_four_fifths_of_the_scheduled_weierstrass_rows(monkeypatch):
    assert _suite_grid_share(monkeypatch, "weierstrass") <= 0.2


def test_suite_sweep_skips_four_fifths_of_the_scheduled_ackley_rows(monkeypatch):
    assert _suite_grid_share(monkeypatch, "ackley") <= 0.2


def test_seed_sequence_argument_is_not_advanced():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=5, dim=2)
    f = make_function("sphere", 2, seed=1)
    ss = np.random.SeedSequence(5)
    first = optimize(f, params, 30, seed=ss)
    assert optimize(f, params, 30, seed=ss).best_cost == first.best_cost
    assert ss.n_children_spawned == 0
    # the copy spawns the children an integer seed gives
    assert optimize(f, params, 30, seed=5).best_cost == first.best_cost
    batch = [lockstep(f, [params, params], 30, f.domain, [ss, 6]).g_best_cost for _ in range(2)]
    assert ss.n_children_spawned == 0
    assert np.array_equal(batch[0], batch[1])
    assert batch[0][0] == first.best_cost


@pytest.mark.parametrize("n_params, seeds", [(3, [1]), (1, [1, 2]), (0, []), (0, [1])],
                         ids=["one_seed_three_swarms", "two_seeds_one_swarm", "no_swarm",
                              "seed_without_swarm"])
def test_lockstep_requires_one_seed_per_swarm(n_params, seeds):
    params = [SwarmParams(0.7, 0.7, 0.7, n_particles=3, dim=2)] * n_params
    with pytest.raises(ValueError, match="one seed per swarm"):
        lockstep(sphere, params, 5, (-1.0, 1.0), seeds)


def test_lockstep_rejects_mixed_swarm_shapes():
    params = [SwarmParams(0.7, 0.7, 0.7, n_particles=3, dim=2),
              SwarmParams(0.7, 0.7, 0.7, n_particles=4, dim=2)]
    with pytest.raises(ValueError, match="share n_particles and dim"):
        lockstep(sphere, params, 5, (-1.0, 1.0), [1, 2])


def test_optimize_rejects_negative_iterations():
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=3, dim=2)
    with pytest.raises(ValueError, match="iterations must be >= 0"):
        optimize(sphere, params, -1, seed=1)


def test_cost_errors_outside_the_batch_probe_reach_the_caller():
    calls = []

    def failing_on_batches(points):
        # a per-row fallback would run without error
        calls.append(np.shape(points))
        if np.ndim(points) == 2:
            raise RuntimeError("cost failed")
        return sphere_scalar(points)

    params = SwarmParams(0.7, 0.7, 0.7, n_particles=5, dim=2)
    with pytest.raises(RuntimeError, match="cost failed"):
        optimize(failing_on_batches, params, 10, seed=1)
    assert calls == [(5, 2)]


def test_batch_cost_is_called_once_per_iteration_on_the_whole_swarm():
    # noise makes a row's cost differ between calls, so a cost whose shape
    # is guessed from a probe of one row would be taken per row
    shapes, noise = [], np.random.default_rng(3)

    def noisy(points):
        shapes.append(points.shape)
        return sphere(points) + noise.normal(size=len(points))

    params = SwarmParams(0.7, 0.7, 0.7, n_particles=5, dim=3)
    optimize(noisy, params, 10, seed=1)
    assert shapes == [(5, 3)] * 11


_NOT_ONE_COST_PER_ROW = {
    "scalar": sphere_scalar,
    # a per-point formula: on a batch it returns dim column sums
    "columns": lambda x: x[0] ** 2 + x[1] ** 2,
}


@pytest.mark.parametrize("cost", list(_NOT_ONE_COST_PER_ROW))
def test_cost_without_one_value_per_row_is_rejected(cost):
    f = _NOT_ONE_COST_PER_ROW[cost]
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=5, dim=2)
    with pytest.raises(ValueError, match="n costs"):
        optimize(f, params, 3, seed=1)
    with pytest.raises(ValueError, match="n costs"):
        lockstep(f, [params], 0, (-1.0, 1.0), [1])
    state = lockstep(sphere, [params], 0, (-1.0, 1.0), [1])
    with pytest.raises(ValueError, match="n costs"):
        _advance_one(state, params, f, np.random.default_rng(2))


def test_scale_equivariance_power_of_two():
    # power-of-two scaling commutes with float rounding, so the whole
    # trajectory scales exactly for a homogeneous cost
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=6, dim=2)
    base = optimize(sphere, params, 40, bounds=(-16.0, 16.0), seed=15)
    for kappa in (0.5, 4.0):
        scaled = optimize(sphere, params, 40, bounds=(-16.0 * kappa, 16.0 * kappa), seed=15)
        assert np.array_equal(scaled.best_position, kappa * base.best_position)
        assert scaled.best_cost == kappa**2 * base.best_cost


def test_single_particle_matches_homogeneous_dynamics_bitwise():
    # one particle, bests pinned to the origin, social-only: the swarm
    # trajectory must equal the library's homogeneous step under the weight
    # alpha2 * r2 bit for bit given the same draws.  The best costs are 0,
    # the minimum of sphere, so no strict improvement can move the bests.
    params = SwarmParams(0.7, 0.0, 2.0, n_particles=1, dim=1)
    state = SwarmState(
        positions=np.array([[[0.8]]]),
        velocities=np.array([[[0.1]]]),
        p_best=np.zeros((1, 1, 1)),
        p_best_cost=np.zeros((1, 1)),
        g_best=np.zeros((1, 1)),
        g_best_cost=np.zeros(1),
        iteration=0,
        diverged=np.zeros(1, dtype=bool),
    )
    rng = np.random.default_rng(16)
    swarm_traj = []
    for _ in range(50):
        state = _advance_one(state, params, sphere, rng)
        swarm_traj.append((state.velocities[0, 0, 0], state.positions[0, 0, 0]))

    rng = np.random.default_rng(16)
    v, x = np.array([0.1]), np.array([0.8])
    for k in range(50):
        rng.random((1, 1))  # r1 draw, unused at alpha1 = 0
        r2 = rng.random((1, 1))[0, 0]
        v, x = _step(params.omega, params.alpha2 * r2, v, x)
        assert (v[0], x[0]) == swarm_traj[k]


def test_run_result_export(tmp_path):
    params = SwarmParams(0.7, 0.7, 0.7, n_particles=5, dim=2)
    result = optimize(sphere, params, 20, bounds=(-10.0, 10.0), seed=17)
    trace_path = tmp_path / "trace.csv"
    result.trace_to_csv(trace_path, metadata={"seed": 17})
    lines = trace_path.read_text().splitlines()
    assert "iteration,g_best_cost" in lines
    assert any(line.startswith("# seed=17") for line in lines)

