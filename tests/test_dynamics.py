import math
from fractions import Fraction

import numpy as np
import pytest

from swarmcrit.dynamics import (
    MixtureWeight,
    SwarmParams,
    _children,
    _draw_weights,
    _pieces,
    _step,
    affine_update,
    build_step_matrix,
    mixture_pdf,
    sample_mixture,
)


# ---------------------------------------------------------------- types


def test_swarm_params_validation():
    SwarmParams(0.7, 0.5, 0.5)
    with pytest.raises(ValueError):
        SwarmParams(0.7, -0.1, 0.5)
    with pytest.raises(ValueError):
        SwarmParams(0.7, 0.0, 0.0)
    with pytest.raises(ValueError):
        SwarmParams(0.7, 0.5, 0.5, n_particles=0)
    with pytest.raises(ValueError, match="dim must be >= 1"):
        SwarmParams(0.7, 0.5, 0.5, dim=0)
    assert SwarmParams(0.7, 0.3, 0.5).alpha == 0.8


@pytest.mark.parametrize("field", ["omega", "alpha1", "alpha2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_swarm_params_rejects_non_finite_weights(field, value):
    weights = {"omega": 0.7, "alpha1": 0.5, "alpha2": 0.5, field: value}
    with pytest.raises(ValueError, match="finite"):
        SwarmParams(**weights)


def test_mixture_weight_validation():
    w = MixtureWeight(1.0, 3.0)
    assert w.alpha == 4.0
    assert w.variance == pytest.approx((1 + 9) / (12 * 16))
    with pytest.raises(ValueError):
        MixtureWeight(0.0, 0.0)


@pytest.mark.parametrize("pair", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf),
                                  (1.0, -math.inf), (-1.0, 2.0)])
def test_mixture_weight_rejects_bad_weights(pair):
    # a non-finite weight would give a NaN variance or a failing density
    with pytest.raises(ValueError, match="finite|nonnegative"):
        MixtureWeight(*pair)


# ---------------------------------------------------------------- mixture pdf


def _pdf_histogram_oracle(alpha1, alpha2, n=10**6, bins=400, seed=123):
    """Independent oracle: normalised histogram of direct draws."""
    rng = np.random.default_rng(seed)
    r = (alpha1 * rng.random(n) + alpha2 * rng.random(n)) / (alpha1 + alpha2)
    hist, edges = np.histogram(r, bins=bins, range=(0.0, 1.0), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, hist


def test_pdf_symmetric_pair_matches_sampling_oracle():
    # tent density: the histogram oracle gives ~4*r below 1/2, peaking at 2
    centers, hist = _pdf_histogram_oracle(1.0, 1.0)
    w = MixtureWeight(1.0, 1.0)
    i = np.argmin(np.abs(centers - 0.25))
    assert hist[i] == pytest.approx(4 * 0.25, abs=0.05)
    assert mixture_pdf(0.25, w) == pytest.approx(4 * 0.25, abs=1e-12)
    assert mixture_pdf(0.5, w) == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(mixture_pdf(centers, w) - hist)) < 0.08


def test_pdf_degenerate_is_box():
    w = MixtureWeight(0.0, 1.0)
    assert mixture_pdf(0.5, w) == 1.0
    assert mixture_pdf(0.0, w) == 1.0


def test_pdf_outside_support_is_zero():
    for w in (MixtureWeight(1.0, 1.0), MixtureWeight(0.0, 2.0), MixtureWeight(0.3, 1.7)):
        assert mixture_pdf(1.2, w) == 0.0
        assert mixture_pdf(-0.1, w) == 0.0


def test_pdf_normalisation_simpson():
    # composite Simpson on 10^4+1 points, 50 random admissible pairs
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 10_001)
    h = grid[1] - grid[0]
    weights = np.ones_like(grid)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    for _ in range(50):
        a1, a2 = rng.uniform(0.0, 3.0, 2)
        if a1 + a2 == 0.0:
            a2 = 1.0
        integral = np.sum(weights * mixture_pdf(grid, MixtureWeight(a1, a2))) * h / 3.0
        assert abs(integral - 1.0) < 1e-6


def test_pieces_have_mass_one_and_the_mean_of_the_weight():
    # each piece's moments integrated exactly from its float ends and
    # coefficients: the density of alpha1 r1 + alpha2 r2 has mass 1 and
    # mean (alpha1 + alpha2) / 2
    rng = np.random.default_rng(11)
    pairs = [tuple(rng.uniform(0.0, 3.0, 2)) for _ in range(50)]
    pairs += [(0.0, 2.5), (1.7, 0.0), (1.3, 1.3), (0.05, 0.05)]
    for a1, a2 in pairs:
        pieces = [tuple(map(Fraction, piece)) for piece in _pieces(a1, a2)]
        assert all(a < b for a, b, _, _ in pieces), (a1, a2)
        mass = sum(c0 * (b - a) + c1 * (b**2 - a**2) / 2 for a, b, c0, c1 in pieces)
        mean = sum(c0 * (b**2 - a**2) / 2 + c1 * (b**3 - a**3) / 3 for a, b, c0, c1 in pieces)
        assert abs(float(mass) - 1.0) <= 1e-14, (a1, a2)
        assert abs(float(2 * mean / (Fraction(a1) + Fraction(a2))) - 1.0) <= 1e-14, (a1, a2)
    assert len(_pieces(0.0, 2.5)) == 1 and len(_pieces(1.3, 1.3)) == 2
    assert len(_pieces(0.7, 2.3)) == 3


def test_pdf_asymmetric_matches_sampling_oracle():
    a1, a2 = 0.7, 2.3
    centers, hist = _pdf_histogram_oracle(a1, a2)
    w = MixtureWeight(a1, a2)
    assert np.mean(np.abs(mixture_pdf(centers, w) - hist)) < 0.02


# ---------------------------------------------------------------- sampling


def test_sample_mixture_mean_and_variance():
    rng = np.random.default_rng(11)
    w = MixtureWeight(1.5, 1.5)
    r = sample_mixture(rng, w, size=10**6)
    sigma = np.sqrt(1.0 / 24.0)
    assert abs(r.mean() - 0.5) < 3.0 * sigma / 1e3
    assert r.min() >= 0.0 and r.max() <= 1.0

    r_single = sample_mixture(np.random.default_rng(12), MixtureWeight(0.0, 1.0), size=10**6)
    assert r_single.var() == pytest.approx(1.0 / 12.0, abs=1e-3)


@pytest.mark.parametrize("pair", [(1.0, 3.0), (0.0, 1.0), (0.4, 1.1)])
def test_sample_mixture_is_the_estimators_draw_over_alpha(pair):
    # the stability estimators draw alpha*r with _draw_weights; the sampler
    # is that draw divided by alpha, bit for bit
    w = MixtureWeight(*pair)
    r = sample_mixture(np.random.default_rng(31), w, size=10_000)
    ar = _draw_weights(np.random.default_rng(31), w.alpha1, w.alpha2, (10_000,))
    assert np.array_equal(r, ar / w.alpha)


def test_sample_mixture_deterministic():
    w = MixtureWeight(0.4, 1.1)
    a = sample_mixture(np.random.default_rng(99), w, size=100)
    b = sample_mixture(np.random.default_rng(99), w, size=100)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("pair", [(1.0, 1.0), (0.0, 1.0), (0.7, 2.3)])
def test_sample_histogram_matches_pdf(pair):
    # multinomial noise alone contributes E[L1] ~ 0.011 at 1e6 draws and
    # 200 bins; 4e6 draws halve the floor so the 0.01 bound has real
    # discriminating power against a wrong density
    w = MixtureWeight(*pair)
    r = sample_mixture(np.random.default_rng(5), w, size=4 * 10**6)
    counts, edges = np.histogram(r, bins=200, range=(0.0, 1.0))
    emp = counts / counts.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    model = mixture_pdf(centers, w) / 200.0
    assert np.abs(emp - model).sum() < 0.01


# ---------------------------------------------------------------- step matrix


def test_build_step_matrix_examples():
    m = build_step_matrix(0.7, 1.0, 0.0)
    assert np.array_equal(m.entries, [[0.7, 0.0], [0.7, 1.0]])
    assert m.det == pytest.approx(0.7, abs=1e-15)

    m = build_step_matrix(0.0, 4.0, 0.5)
    assert np.array_equal(m.entries, [[0.0, -2.0], [0.0, -1.0]])
    assert m.det == 0.0


def test_step_matrix_det_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        omega = rng.uniform(-1.2, 1.2)
        alpha = rng.uniform(0.01, 6.0)
        r = rng.random()
        m = build_step_matrix(omega, alpha, r)
        # oracle: the 2x2 determinant formula
        oracle = m.entries[0, 0] * m.entries[1, 1] - m.entries[0, 1] * m.entries[1, 0]
        assert abs(oracle - omega) < 1e-12


def test_build_step_matrix_rejects_bad_r():
    with pytest.raises(ValueError):
        build_step_matrix(0.7, 1.0, 1.5)
    with pytest.raises(ValueError):
        build_step_matrix(0.7, 1.0, -0.01)


# ---------------------------------------------------------------- homogeneous step


def _homogeneous(m, v, x):
    """The library's homogeneous step under the weight of step matrix ``m``."""
    return _step(m.omega, -m.entries[0, 1], np.asarray(v, float), np.asarray(x, float))


def test_step_homogeneous_fixed_point_and_example():
    m = build_step_matrix(0.7, 1.0, 1.0)
    v, x = _homogeneous(m, [0.0], [0.0])
    assert v[0] == 0.0 and x[0] == 0.0

    v, x = _homogeneous(m, [0.0], [1.0])
    assert v[0] == -1.0 and x[0] == 0.0


def test_step_homogeneous_matches_matrix_product():
    rng = np.random.default_rng(17)
    v, x = np.array([0.3]), np.array([-0.8])
    vec = np.array([v[0], x[0]])
    prod = np.eye(2)
    for _ in range(100):
        m = build_step_matrix(0.8, 1.5, rng.random())
        v, x = _homogeneous(m, v, x)
        prod = m.entries @ prod
    oracle = prod @ vec
    assert np.allclose([v[0], x[0]], oracle, rtol=1e-12, atol=0.0)


def test_step_homogeneous_linearity():
    m = build_step_matrix(0.6, 2.0, 0.37)
    v, x = np.array([0.5]), np.array([1.25])
    base_v, base_x = _homogeneous(m, v, x)
    for kappa in (-1.0, 0.04, 0.1, 1.0, 10.0):
        scaled_v, scaled_x = _homogeneous(m, kappa * v, kappa * x)
        assert np.allclose(scaled_v, kappa * base_v, rtol=1e-13)
        assert np.allclose(scaled_x, kappa * base_x, rtol=1e-13)


def test_step_homogeneous_flags_divergence():
    # overflow is carried to the caller as a non-finite lane, not raised
    m = build_step_matrix(1e308, 1.0, 0.5)
    with np.errstate(over="ignore"):
        v, x = _homogeneous(m, [1e308], [1.0])
    assert not (np.isfinite(v).all() and np.isfinite(x).all())


# ---------------------------------------------------------------- affine step


def test_step_affine_vanishing_force():
    x = np.array([1.0, -2.0])
    v, x_new = affine_update(0.7, 0.5, 0.5, np.zeros(2), x, np.array([0.3, 0.9]),
                             np.array([0.1, 0.4]), x, x)
    assert np.array_equal(v, [0.0, 0.0])
    assert np.array_equal(x_new, x)


def test_step_affine_direct_substitution():
    v, x = affine_update(0.0, 0.0, 1.0, np.zeros(1), np.zeros(1), np.zeros(1), np.ones(1),
                         np.zeros(1), np.ones(1))
    assert v[0] == 1.0 and x[0] == 1.0


def test_step_affine_shift_matches_homogeneous():
    # with p = g and equal draws, the affine step is the homogeneous step
    # of the shifted state
    params = SwarmParams(0.7, 0.6, 0.9, dim=1)
    r = np.array([0.42])
    g = np.array([1.3])
    v, x = np.array([0.2]), np.array([-0.7])
    affine_v, affine_x = affine_update(params.omega, params.alpha1, params.alpha2, v, x, r, r,
                                       g, g)
    m = build_step_matrix(params.omega, params.alpha, r[0])
    shifted_v, shifted_x = _homogeneous(m, v, x - g)
    assert np.allclose(affine_v, shifted_v, atol=1e-12)
    assert np.allclose(affine_x - g, shifted_x, atol=1e-12)


def test_step_affine_shift_equivariance():
    rng = np.random.default_rng(2)
    r1 = rng.random(3)
    r2 = rng.random(3)
    x = np.array([0.5, -1.0, 2.0])
    p = np.array([1.0, 0.0, -0.5])
    g = np.array([-0.25, 0.75, 1.5])
    v = np.array([0.1, -0.2, 0.3])
    base_v, base_x = affine_update(0.5, 0.8, 1.1, v, x, r1, r2, p, g)
    c = 3.75
    moved_v, moved_x = affine_update(0.5, 0.8, 1.1, v, x + c, r1, r2, p + c, g + c)
    assert np.allclose(moved_v, base_v, atol=1e-12)
    assert np.allclose(moved_x, base_x + c, atol=1e-12)


# ---------------------------------------------------------------- seeding


def _spawned(n, pool_size=4):
    ss = np.random.SeedSequence(1511, pool_size=pool_size)
    ss.spawn(n)
    return ss


@pytest.mark.parametrize("seed", [7, _spawned(3), _spawned(0, pool_size=8)],
                         ids=["int", "spawned_three", "pool_size_8"])
def test_children_are_the_spawned_children_and_do_not_advance_the_seed(seed):
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    count = ss.n_children_spawned
    copy = np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key, pool_size=ss.pool_size,
                                  n_children_spawned=count)
    want = [c.generate_state(4).tolist() for c in copy.spawn(5)]
    for _ in range(2):
        children = _children(seed)
        got = [next(children).generate_state(4).tolist() for _ in range(5)]
        assert got == want
    assert ss.n_children_spawned == count
