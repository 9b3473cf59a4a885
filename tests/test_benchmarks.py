import math
from fractions import Fraction

import numpy as np
import pytest

from swarmcrit import benchmarks
from swarmcrit.benchmarks import (
    FUNCTION_IDS,
    make_function,
    suite,
)


def test_sphere_optimum_is_zero():
    f = make_function("sphere", 4, seed=1)
    assert f(f.shift) == 0.0


def test_rastrigin_unit_offset_oracle():
    # direct-formula oracle: sum(z^2 - 10 cos(2 pi z) + 10) at z = (1, 1)
    z = np.ones(2)
    oracle = float(np.sum(z**2 - 10 * np.cos(2 * np.pi * z) + 10))
    f = make_function("rastrigin", 2, seed=2)
    assert f(f.shift + z) == pytest.approx(oracle, abs=1e-9)
    assert oracle == pytest.approx(2.0)


def test_ackley_optimum_cancellation():
    f = make_function("ackley", 10, seed=3)
    assert abs(f(f.shift)) < 1e-12


def test_every_instance_vanishes_at_optimum():
    for fid in FUNCTION_IDS:
        for rotated in (False, True):
            f = make_function(fid, 6, seed=11, rotated=rotated)
            assert abs(f(f.shift)) < 1e-10, f.label


def test_nonnegative_on_domain():
    rng = np.random.default_rng(4)
    for f in suite(5, seed=5):
        pts = rng.uniform(-100.0, 100.0, size=(10_000, 5))
        assert np.all(f(pts) >= 0.0), f.label


@pytest.mark.parametrize("dim", range(1, 11))
def test_column_forms_equal_numpy_bit_for_bit(dim):
    # ``_row_sum`` and ``_shifted`` replace ``np.sum(..., axis=-1)`` and a
    # broadcast subtract at low dims; they must round the same, down to the
    # sign of zero (np.sum gives +0.0 for a row of -0.0) and the bits of a
    # NaN.  numpy's reduction order is an implementation detail: a numpy
    # that changes it fails here
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((3, 400, dim)) * 10.0 ** rng.uniform(-8.0, 8.0, (3, 400, dim))
    special = rng.random(a.shape) < 0.1
    a[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], special.sum())
    a[0, :5] = -0.0
    shift = rng.standard_normal(dim) * 1e8
    with np.errstate(invalid="ignore"):
        assert np.array_equal(benchmarks._row_sum(a).view(np.uint64),
                              np.sum(a, axis=-1).view(np.uint64))
        assert np.array_equal(benchmarks._shifted(a, shift).view(np.uint64),
                              (a - shift).view(np.uint64))


@pytest.mark.parametrize("dim", [2, 10])
def test_stack_evaluates_each_batch_as_alone(dim):
    # the lockstep optimiser evaluates B swarms in one call on a (B, n, dim)
    # stack; a rotated instance's matrix product must still see n rows
    rng = np.random.default_rng(6)
    for f in suite(dim, seed=7):
        stack = rng.uniform(-100.0, 100.0, size=(12, 25, dim))
        out = f(stack)
        assert out.shape == (12, 25), f.label
        assert all(np.array_equal(out[b], f(stack[b])) for b in range(12)), f.label


@pytest.mark.parametrize("dim", [2, 10])
def test_multi_instance_stack_equals_per_instance_calls(dim):
    # a sweep batch stacks the swarms of several instances, in base-formula
    # order, and runs each formula once on the instances that share it; each
    # swarm's costs must be a one-instance stack's on its block, bit for
    # bit, with and without ceilings, also where a row is not finite, and
    # without a ceiling its own instance's call on its block
    rng = np.random.default_rng(22)
    fns = suite(dim, seed=23)
    order = sorted(range(len(fns)), key=lambda i: FUNCTION_IDS.index(fns[i].id))
    owner = np.repeat(order, rng.integers(1, 4, len(fns)))
    stack = rng.uniform(-100.0, 100.0, size=(len(owner), 25, dim))
    stack[3, 7, 0], stack[5, 2, -1], stack[-1, 0] = np.inf, np.nan, -np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        alone = np.array([fns[i](stack[b]) for b, i in enumerate(owner)])
    # about half the rows of rastrigin and griewank are skipped
    ceiling = alone * rng.uniform(0.5, 1.5, alone.shape)
    cost = benchmarks._Stack(fns, owner)
    assert len(cost._groups) == len(FUNCTION_IDS) < len(cost._runs)
    for c in (None, ceiling):
        with np.errstate(invalid="ignore", over="ignore"):
            out = cost(stack, _ceiling=c)
            expected = [benchmarks._Stack((fns[i],), [0])(
                stack[b:b + 1], _ceiling=None if c is None else c[b:b + 1])[0]
                for b, i in enumerate(owner)]
        assert out.shape == (len(owner), 25)
        assert c is not None or out.tobytes() == alone.tobytes()
        for b, i in enumerate(owner):
            assert out[b].tobytes() == expected[b].tobytes(), (fns[i].label, b)
    assert np.isinf(out).sum() > np.isinf(alone).sum()


def test_make_function_deterministic():
    a = make_function("griewank", 7, seed=6, rotated=True)
    b = make_function("griewank", 7, seed=6, rotated=True)
    assert np.array_equal(a.shift, b.shift)
    assert np.array_equal(a.rotation, b.rotation)


def test_unrotated_has_identity_rotation():
    f = make_function("ackley", 3, seed=7, rotated=False)
    assert f.rotation is None


def test_rotation_is_orthogonal():
    f = make_function("rastrigin", 8, seed=8, rotated=True)
    q = f.rotation
    assert np.allclose(q.T @ q, np.eye(8), atol=1e-10)


def test_rotated_sphere_equals_plain_sphere():
    plain = make_function("sphere", 6, seed=9)
    rotated = make_function("sphere", 6, seed=9, rotated=True)
    assert np.array_equal(plain.shift, rotated.shift)
    pts = np.random.default_rng(10).uniform(-100, 100, size=(1000, 6))
    assert np.allclose(plain(pts), rotated(pts), rtol=1e-10)


def test_noncontinuous_identity_inside_band():
    cont = make_function("rastrigin", 4, seed=12, rotated=True)
    nc = make_function("rastrigin", 4, seed=12, rotated=True, noncontinuous=True)
    rng = np.random.default_rng(13)
    y = rng.uniform(-0.5, 0.5, size=(50, 4))
    # choose x so the value after shift and rotation lands inside the band
    x = cont.shift + y @ cont.rotation
    assert np.allclose(nc(x), cont(x), rtol=1e-12)


def test_noncontinuous_rounds_outside_band():
    nc = make_function("sphere", 1, seed=14, noncontinuous=True)
    assert nc(nc.shift + np.array([2.3])) == pytest.approx(2.5**2)
    assert nc(nc.shift + np.array([0.4])) == pytest.approx(0.4**2)


def test_shift_within_080_of_domain():
    for f in suite(9, seed=15):
        assert np.all(np.abs(f.shift) <= 80.0)


def test_unknown_id_rejected():
    with pytest.raises(ValueError, match="unknown function id 'banana'"):
        make_function("banana", 3, seed=1)


def test_one_dimensional_rosenbrock_rejected():
    # its formula sums over coordinate pairs, so at dim 1 it is 0 everywhere
    with pytest.raises(ValueError, match="rosenbrock needs dim >= 2"):
        make_function("rosenbrock", 1, seed=1)


def test_zero_dimension_rejected_by_the_constructor():
    # an instance of no coordinates would cost 0 at every point
    with pytest.raises(ValueError, match="dim must be >= 1"):
        benchmarks.BenchmarkFunction("sphere", 0, np.empty(0))
    with pytest.raises(ValueError, match="dim must be >= 1"):
        make_function("sphere", 0, seed=1)


@pytest.mark.parametrize("shift, rotation, message", [
    (np.zeros(2), None, "shift must have shape"),
    (np.zeros((3, 1)), None, "shift must have shape"),
    (np.zeros(3), np.eye(2), "rotation must have shape"),
    (np.zeros(3), np.eye(3)[:2], "rotation must have shape"),
], ids=["short_shift", "column_shift", "small_rotation", "non_square_rotation"])
def test_wrongly_shaped_shift_or_rotation_rejected(shift, rotation, message):
    with pytest.raises(ValueError, match=message):
        benchmarks.BenchmarkFunction("sphere", 3, shift, rotation)


def test_dimension_mismatch_rejected():
    f = make_function("sphere", 3, seed=16)
    with pytest.raises(ValueError):
        f(np.zeros(4))
    with pytest.raises(ValueError):
        f(np.zeros((5, 4)))


def test_suite_structure():
    fns = suite(10, seed=17)
    assert len(fns) == 15
    labels = [f.label for f in fns]
    assert labels[:7] == list(FUNCTION_IDS)
    assert labels[7:14] == [f"{fid}-rot" for fid in FUNCTION_IDS]
    assert labels[14] == "rastrigin-rot-nc"
    assert len(suite(10, seed=99)) == len(fns)
    for f in fns:
        assert f.dim == 10
        assert f.domain == (-100.0, 100.0)
        assert abs(f(f.shift)) < 1e-10


def test_weierstrass_vanishes_exactly_at_shift():
    for dim in range(1, 11):
        for seed in range(5):
            f = make_function("weierstrass", dim, seed=seed)
            assert f(f.shift) == 0.0, (dim, seed)


def _weierstrass_exact(x, kmax=benchmarks._W_KMAX):
    # the terms k <= kmax, each argument reduced mod 1 in exact rationals
    # before the cosine
    q = Fraction(float(x)) + Fraction(1, 2)
    terms = (0.5**k * (1.0 + math.cos(2.0 * math.pi * float((q * 3**k) % 1)))
             for k in range(kmax + 1))
    return math.fsum(terms)


@pytest.mark.parametrize("radius, bound", [(1.0, 5e-11), (100.0, 2e-9)])
def test_weierstrass_matches_exact_reference(radius, bound):
    z = np.random.default_rng(19).uniform(-radius, radius, 200)
    exact = np.array([_weierstrass_exact(v) for v in z])
    assert np.max(np.abs(benchmarks._weierstrass(z[:, None]) - exact)) < bound


def test_weierstrass_bound_matches_exact_partial_sum():
    # random points, points n/81 where every dropped term vanishes, and
    # points on either side of the |z + 1/2| above which the bound takes
    # the float64 cosine.  The bound subtracts a budget that its float32
    # error does not exceed either way, so it lies below the exact partial
    # sum by at most twice the budget
    near = benchmarks._W_NEAR
    edge = np.array([near, -near]) - 0.5
    z = np.concatenate([np.random.default_rng(22).uniform(-1.0, 1.0, 200),
                        np.arange(-81, 82) / 81.0,
                        edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0 * edge)])
    exact = np.array([_weierstrass_exact(v, benchmarks._W_CUT) for v in z])
    bound = benchmarks._BOUND["weierstrass"](z[:, None])
    budget = benchmarks._W_ERR + benchmarks._SUM32_ERR * exact
    assert np.all(bound <= exact)
    assert np.all(exact - bound <= 2.0 * budget)


def _ackley_exact(row):
    # each cosine's argument reduced mod 1 in exact rationals, the sums by
    # math.fsum
    d = len(row)
    rms = math.sqrt(math.fsum(v * v for v in row) / d)
    mean_cos = math.fsum(math.cos(2.0 * math.pi * float(Fraction(v) % 1)) for v in row) / d
    return -20.0 * math.exp(-0.2 * rms) - math.exp(mean_cos) + 20.0 + math.e


@pytest.mark.parametrize("dim", [1, 2, 10, 128])
def test_ackley_bound_lies_within_its_budget_below_exact(dim):
    # rows near the optimum, in the domain and far out, and rows of
    # half-integers.  The bound raises the mean cosine by a budget no
    # smaller than its own error, so it lies below the exact cost, by at
    # most what twice the budget costs: e^1 a unit of mean cosine
    rng = np.random.default_rng(23)
    z = np.concatenate([rng.uniform(-r, r, (20, dim)) for r in (1e-3, 1.0, 100.0, 1e6)]
                       + [rng.integers(-50, 50, (5, dim)) + 0.5])
    exact = np.array([_ackley_exact(row) for row in z])
    bound = benchmarks._BOUND["ackley"](z)
    rms = np.sqrt(np.sum(z * z, axis=-1) / dim)
    budget = benchmarks._COS32_ERR + dim * benchmarks._SUM32_ERR + benchmarks._ARG_ERR * rms
    assert np.all(bound <= exact)
    assert np.all(exact - bound <= 2.0 * math.e * budget)


@pytest.mark.parametrize("dim", [2, 10])
def test_weierstrass_finite_at_huge_inputs(dim):
    rng = np.random.default_rng(20)
    # magnitudes 1e-3 .. 1e300, random signs, plus the extremes themselves
    pts = rng.choice([-1.0, 1.0], (200, dim)) * 10.0 ** rng.uniform(-3, 300, (200, dim))
    pts[0], pts[1] = 1e300, -1e300
    for rotated in (False, True):
        f = make_function("weierstrass", dim, seed=21, rotated=rotated)
        out = f(pts)
        assert np.all(np.isfinite(out)) and np.all(out >= 0.0), f.label
