"""Property tests: the determinant identity of the step matrix, the two
one-step maps against the matrix product and under scaling and shifts, the
kernels' out= forms against their allocating forms, the benchmark formulas
against the lower bounds that skip their rows, and the exact CSV round trip
of reals."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swarmcrit import benchmarks
from swarmcrit.dynamics import _affine, _step, _weights, affine_update, build_step_matrix
from swarmcrit.io import read_csv, write_csv
from swarmcrit.stability import RATIO_EQUAL, RATIO_SOCIAL_ONLY, split_alpha

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal


def _normal(lo, hi):
    """Reals in [lo, hi] that are 0 or at least 1e-100 in magnitude, so that
    no product or difference of the maps below falls below the normal
    range, even scaled by 2**-20."""
    return st.floats(lo, hi).filter(lambda t: t == 0.0 or abs(t) >= 1e-100)


# the ranges of acceptance criterion 01
_OMEGA = st.floats(-1.2, 1.2)
_ALPHA = st.floats(0.01, 6.0)
_R = st.floats(0.0, 1.0)
_STATE = st.floats(-1e3, 1e3)


@settings(deadline=None, max_examples=300)
@given(omega=_OMEGA, alpha=_ALPHA, r=_R)
def test_determinant_equals_omega(omega, alpha, r):
    assert abs(build_step_matrix(omega, alpha, r).det - omega) < 1e-12


@settings(deadline=None, max_examples=300)
@given(omega=_OMEGA, alpha=_ALPHA, r=_R, v=_STATE, x=_STATE)
def test_homogeneous_step_is_the_matrix_product(omega, alpha, r, v, x):
    m = build_step_matrix(omega, alpha, r)
    ar = -m.entries[0, 1]
    got = np.concatenate(_step(omega, ar, np.array([v]), np.array([x])))
    # a few roundings of terms no larger than these, each at least half a
    # subnormal step
    scale = abs(omega * v) + abs(ar * x) + abs(x)
    assert np.all(np.abs(got - m.entries @ (v, x)) <= 8.0 * _EPS * scale + 4.0 * _TINY)


_AFFINE = dict(
    omega=_normal(-1.2, 1.2), alpha=_ALPHA, ratio=st.sampled_from([RATIO_EQUAL, RATIO_SOCIAL_ONLY]),
    r1=_normal(0.0, 1.0), r2=_normal(0.0, 1.0),
    v=_normal(-1e3, 1e3), x=_normal(-1e3, 1e3), p=_normal(-1e3, 1e3), g=_normal(-1e3, 1e3),
)


@settings(deadline=None, max_examples=300)
@given(**_AFFINE, k=st.integers(-20, 20))
def test_affine_update_is_exactly_scale_equivariant(omega, alpha, ratio, r1, r2, v, x, p, g, k):
    # a power of two scales every product and sum without a new rounding
    a1, a2 = split_alpha(alpha, ratio)
    s = 2.0**k
    base = affine_update(omega, a1, a2, v, x, r1, r2, p, g)
    scaled = affine_update(omega, a1, a2, s * v, s * x, r1, r2, s * p, s * g)
    assert scaled == (s * base[0], s * base[1])


@settings(deadline=None, max_examples=300)
@given(**_AFFINE, c=_STATE)
def test_affine_update_is_shift_equivariant(omega, alpha, ratio, r1, r2, v, x, p, g, c):
    a1, a2 = split_alpha(alpha, ratio)
    base_v, base_x = affine_update(omega, a1, a2, v, x, r1, r2, p, g)
    moved_v, moved_x = affine_update(omega, a1, a2, v, x + c, r1, r2, p + c, g + c)
    # the shift rounds x, p and g, and each difference carries that error
    tol = 32.0 * _EPS * (1.0 + alpha) * max(abs(v), abs(x), abs(p), abs(g), abs(c))
    assert abs(moved_v - base_v) <= tol
    assert abs(moved_x - (base_x + c)) <= tol


def _same_floats(a, b):
    """Equal bit for bit, the sign of zero included, except that any NaN
    equals any NaN: numpy's in-place and out-of-place loops may propagate
    different NaN operands."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


# every float64, NaN and the infinities included
_ANY = st.floats(width=64)


@settings(deadline=None, max_examples=300)
@given(omega=_ANY, a1=_ANY, a2=_ANY, p=_ANY, g=_ANY,
       lanes=st.lists(st.tuples(_ANY, _ANY, _ANY, _ANY), min_size=1, max_size=6))
def test_out_forms_equal_allocating_forms(omega, a1, a2, p, g, lanes):
    # the first-passage loop's aliasing: the weights overwrite the draws,
    # the steps write (v', x') over (v, x) and use the draws as scratch
    v, x, r1, r2 = np.array(lanes).T
    with np.errstate(all="ignore"):
        ar = _weights(a1, a2, np.stack([r1, r2]))
        u = np.stack([r1, r2])
        got = _weights(a1, a2, u, u)
        assert got.base is u and _same_floats(got, ar)

        want = _step(omega, ar, v, x)
        z, work = np.stack([v, x]), ar.copy()
        got = _step(omega, work, z[0], z[1], z, work)
        assert _same_floats(got, want) and _same_floats(z, want)

        want = affine_update(omega, a1, a2, v, x, r1, r2, p, g)
        z, u = np.stack([v, x]), np.stack([r1, r2, np.zeros_like(r1)])
        got = _affine(omega, a1, a2, z[0], z[1], u[0], u[1], p, g, z, u)
        assert _same_floats(got, want) and _same_floats(z, want)


# coordinates at the edges of the bounds' argument reductions: either side
# of the |z + 1/2| above which the weierstrass bound takes the float64
# cosine, and magnitudes from 2**52 on, where every float64 is an integer
_NEAR = np.array([benchmarks._W_NEAR - 0.5, -benchmarks._W_NEAR - 0.5])
_EDGES = np.concatenate([_NEAR, np.nextafter(_NEAR, 0.0), np.nextafter(_NEAR, 2.0 * _NEAR),
                         [2.0**52, 2.0**52 + 1.0, -(2.0**52) - 2.0, 2.0**53, 2.0**53 + 2.0, 1e17]])


@settings(deadline=None, max_examples=200)
@given(fid=st.sampled_from(sorted(benchmarks._BOUND)), dim=st.integers(1, 128),
       a=st.floats(-8.0, 150.0), b=st.floats(-8.0, 150.0), near_integer=st.floats(0.0, 1.0),
       edge=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_bounded_formulas_never_fall_below_their_floor(fid, dim, a, b, near_integer, edge, seed):
    # a row skipped for its floor must not have cost less than its ceiling.
    # 1024 rows of coordinates with magnitudes from 10**a to 10**b, a share
    # of them within 1e-6 of an integer, where a rastrigin term's cosine
    # part nearly vanishes, and a share of them integers, half-integers,
    # where z - rint z is +-1/2, or ``_EDGES``
    rng = np.random.default_rng(seed)
    shape = (1024, dim)
    z = rng.choice([-1.0, 1.0], shape) * 10.0 ** (a + (b - a) * rng.random(shape))
    snap = rng.random(shape) < near_integer
    z[snap] = np.round(z[snap]) + rng.uniform(-1e-6, 1e-6, np.count_nonzero(snap))
    at_edge = rng.random(shape) < edge
    n = np.count_nonzero(at_edge)
    grid = rng.integers(-100, 100, n) + rng.choice([0.0, 0.5], n)
    z[at_edge] = np.where(rng.random(n) < 0.5, grid, rng.choice(_EDGES, n))
    floor = benchmarks._floor(benchmarks._BOUND[fid](z))
    assert np.all(benchmarks._BASE[fid](z) >= floor)


_SUITES = {dim: benchmarks.suite(dim, seed=19) for dim in (2, 10)}


@settings(deadline=None, max_examples=100)
@given(dim=st.sampled_from(sorted(_SUITES)), data=st.data())
def test_infinite_ceiling_reproduces_every_cost(dim, data):
    exps = data.draw(arrays(float, (3, 4, dim), elements=st.floats(-8.0, 150.0)))
    signs = data.draw(arrays(float, (3, 4, dim), elements=st.sampled_from([-1.0, 1.0])))
    with np.errstate(all="ignore"):
        for fn in _SUITES[dim]:
            x = fn.shift + signs * 10.0**exps
            stack = benchmarks._Stack((fn,), np.zeros(3, dtype=int))
            assert _same_floats(stack(x, _ceiling=np.full((3, 4), np.inf)), fn(x)), fn.label


def _same_real(a, b):
    """Equal as reals, the sign of zero included, with NaN equal to NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(deadline=None, max_examples=100)
@given(rows=st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=5))
def test_csv_round_trips_every_real(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "reals.csv"
    write_csv(path, ["a", "b"], rows, {"seed": 1})
    meta, header, back = read_csv(path)
    assert header == ["a", "b"] and meta["seed"] == "1"
    assert len(back) == len(rows)
    for row, cells in zip(rows, back):
        assert all(_same_real(value, float(cell)) for value, cell in zip(row, cells))
    # blank lines before the header and between rows are skipped
    spaced = path.with_name("spaced.csv")
    spaced.write_text("".join("\n" + line for line in path.read_text().splitlines(True)))
    assert read_csv(spaced) == (meta, header, back)
