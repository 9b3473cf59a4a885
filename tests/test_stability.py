import collections
import functools
import inspect
import math
import sys
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from swarmcrit import stability
from swarmcrit.dynamics import build_step_matrix
from swarmcrit.stability import (
    RATIO_EQUAL,
    RATIO_SOCIAL_ONLY,
    STATUS_NO_CROSSING,
    STATUS_OK,
    STATUS_UNRESOLVED,
    AngularHistogram,
    CriticalCurve,
    CriticalPoint,
    LyapunovEstimate,
    NumericOverflowError,
    ScalingConfig,
    critical_alpha,
    critical_curve,
    escape_probability,
    finite_time_lyapunov,
    lyapunov_exponent,
    lyapunov_pair,
    neutral_alpha,
    neutral_stability_curve,
    pushforward,
    split_alpha,
    stationary_distribution,
)


def _log_spectral_radius(omega, alpha, r):
    eigs = np.linalg.eigvals(build_step_matrix(omega, alpha, r).entries)
    return float(np.log(np.max(np.abs(eigs))))


# ---------------------------------------------------------------- lyapunov


def test_lyapunov_degenerate_hook_matches_eigen_oracle(constant_weight):
    oracle = _log_spectral_radius(0.7, 1.0, 0.5)
    constant_weight(0.5)
    est = lyapunov_exponent(0.7, 0.5, 0.5, steps=30_000, trials=2, burn_in=100, seed=1)
    assert est.value == pytest.approx(oracle, abs=1e-3)


def test_lyapunov_signs_across_the_transition():
    neg = lyapunov_exponent(0.7, 0.25, 0.25, steps=20_000, trials=12, burn_in=500, seed=2)
    assert neg.value < 0 and neg.value < -3 * neg.std_error
    pos = lyapunov_exponent(0.7, 2.4, 2.4, steps=50_000, trials=16, burn_in=500, seed=3)
    assert pos.value > 3 * pos.std_error
    # the positive exponent shows up as escape dominating convergence
    st = escape_probability(0.7, 2.4, 2.4, max_steps=30_000, trials=4000, seed=4)
    assert st.p_escaped > st.p_converged


def test_sign_consistency_with_escape_across_curve():
    # 12 grid points straddling the critical curve (measured alpha_c for the
    # equal split: -0.5 -> 2.14, -0.3 -> 3.19, 0.0 -> 4.64, 0.3 -> 5.12,
    # 0.5 -> 5.14, 0.7 -> 4.77); the exponent sign must match the majority
    # escape outcome on both sides
    curve_alpha = {-0.5: 2.14, -0.3: 3.19, 0.0: 4.64, 0.3: 5.12, 0.5: 5.14, 0.7: 4.77}
    for i, (omega, a_c) in enumerate(curve_alpha.items()):
        for side in (-0.5, 0.5):
            alpha = a_c + side
            est = lyapunov_exponent(omega, alpha / 2, alpha / 2, steps=10_000,
                                    trials=8, burn_in=500, seed=200 + i)
            st = escape_probability(omega, alpha / 2, alpha / 2,
                                    max_steps=20_000, trials=2000, seed=300 + i)
            assert (est.value > 0) == (st.p_escaped > st.p_converged), (omega, alpha)


# ---------------------------------------------------------------- exact oracle at omega = 0
#
# At omega = 0 every step matrix has rank one: x' = (1 - alpha*r) x, so the
# top exponent is exactly E log|1 - alpha*r| over the mixture density of r.


# each split name's cognitive share, alpha1 / alpha
_SHARE_OF = {RATIO_EQUAL: 0.5, RATIO_SOCIAL_ONLY: 0.0}


def _xlogx(u):
    return u * math.log(abs(u)) if u else 0.0


def _exact_lambda0(alpha, ratio):
    """E log|1 - alpha*r| from closed-form antiderivatives in u = 1 - alpha*r,
    continuous through u = 0 (r = 1/alpha).  ``ratio`` is a split name or a
    cognitive share; with lo <= hi the two weights' shares, the trapezoid
    density of r is r/(lo*hi) on [0, lo], 1/hi on [lo, hi] and
    (1 - r)/(lo*hi) on [hi, 1]: the box for lo = 0, the triangle of the
    equal split for lo = hi = 1/2."""
    share = _SHARE_OF.get(ratio, ratio)
    lo, hi = sorted((share, 1.0 - share))

    def log_integral(r):  # of log|1 - alpha*r| dr
        u = 1.0 - alpha * r
        return -(_xlogx(u) - u) / alpha

    def r_log_integral(r):  # of r*log|1 - alpha*r| dr
        u = 1.0 - alpha * r
        return -((_xlogx(u) - u) - (0.5 * u * _xlogx(u) - 0.25 * u * u)) / alpha**2

    flat = (log_integral(hi) - log_integral(lo)) / hi
    if lo == 0.0:
        return flat
    return flat + (r_log_integral(lo) - r_log_integral(0.0)
                   + log_integral(1.0) - log_integral(hi)
                   - r_log_integral(1.0) + r_log_integral(hi)) / (lo * hi)


def _exact_alpha_c0(ratio, lo=4.0, hi=5.0):
    """The root of the exact exponent at omega = 0, by bisection."""
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _exact_lambda0(mid, ratio) < 0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_exact_omega_zero_oracle_values():
    social = lambda a: -1.0 - ((1.0 - a) / a) * math.log(abs(1.0 - a))
    for alpha in (0.5, 2.0, 4.0, 4.8):
        assert _exact_lambda0(alpha, RATIO_SOCIAL_ONLY) == pytest.approx(social(alpha), abs=1e-14)
    assert _exact_lambda0(2.0, RATIO_SOCIAL_ONLY) == pytest.approx(-1.0, abs=1e-14)
    assert _exact_lambda0(2.0, RATIO_EQUAL) == pytest.approx(-1.5, abs=1e-14)
    assert _exact_alpha_c0(RATIO_SOCIAL_ONLY) == pytest.approx(4.591121476668622, abs=1e-9)
    assert _exact_alpha_c0(RATIO_EQUAL) == pytest.approx(4.639113044442183, abs=1e-9)


def _graded_quadrature(f, breaks, n=40, p=8):
    """The integral of ``f`` from ``breaks[0]`` to ``breaks[-1]`` by n-point
    Gauss-Legendre on each interval between breaks, its nodes graded as
    ``t**p`` toward the interval's end nearer 0, where ``f`` may have a log
    singularity if 0 is a break."""
    t, w = np.polynomial.legendre.leggauss(n)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    total = 0.0
    for x0, x1 in zip(breaks[:-1], breaks[1:]):
        end, other = (x1, x0) if abs(x1) < abs(x0) else (x0, x1)
        total += np.sum(w * f(end + (other - end) * t**p) * abs(other - end) * p * t ** (p - 1))
    return total


def test_exact_omega_zero_oracle_matches_quadrature():
    # an unequal split, with the log singularity r = 1/alpha on the flat
    # piece; the quadrature runs in the offset d = r - 1/alpha, so that
    # log|1 - alpha r| = log(alpha |d|) keeps its digits near the singularity
    alpha, share = 3.0, 0.25
    lo, hi, c = share, 1.0 - share, 1.0 / alpha
    density = lambda r: np.where(r < lo, r, np.where(r <= hi, lo, 1.0 - r)) / (lo * hi)
    quadrature = _graded_quadrature(lambda d: density(c + d) * np.log(alpha * np.abs(d)),
                                    [-c, lo - c, 0.0, hi - c, 1.0 - c])
    assert _exact_lambda0(alpha, share) == pytest.approx(quadrature, abs=1e-14)


@pytest.mark.parametrize("ratio", [RATIO_EQUAL, RATIO_SOCIAL_ONLY])
def test_lyapunov_matches_exact_exponent_at_omega_zero(ratio):
    for alpha in (2.0, 4.0, 4.8):
        est = lyapunov_exponent(0.0, *split_alpha(alpha, ratio), steps=20_000, trials=16,
                                burn_in=1000, seed=1)
        assert abs(est.value - _exact_lambda0(alpha, ratio)) <= 3.0 * est.std_error, alpha


@pytest.fixture
def monte_carlo_at_omega_zero(monkeypatch):
    # an exact exponent of 0 is within the rounding bound, so the searches
    # at omega = 0 run their Monte Carlo probes as at any other omega
    monkeypatch.setattr(stability, "_lambda0", lambda alpha1, alpha2: 0.0)


_ALPHA_GRID = np.linspace(0.05, 8.0, 160)


@pytest.mark.parametrize("ratio", [RATIO_EQUAL, RATIO_SOCIAL_ONLY, 0.1, 0.25, 0.75])
def test_lambda0_matches_the_exact_exponent(ratio):
    # two closed forms: the search's in s = alpha1 r1 + alpha2 r2, with
    # antiderivatives that vanish at s = 0, and the oracle's in r.  The
    # oracle divides antiderivatives of size 1 by alpha**2, so its own
    # rounding grows as 1 / alpha**2 below alpha = 0.1 (1.4e-13 at 0.05,
    # against a 40-digit quadrature), and its rise and fall pieces divide
    # by lo*hi, the product of the weights' shares, so it grows as
    # 1 / (4 lo hi) against the equal split's (5.1e-13 at share 0.1 and
    # alpha 0.05, where _lambda0 is within 3.8e-14).  A split name goes
    # through split_alpha, a cognitive share straight to the weights
    share = _SHARE_OF.get(ratio, ratio)
    scale = 0.25 / (share * (1.0 - share)) if share else 1.0
    for alpha in _ALPHA_GRID:
        bound = 1e-13 * max(1.0, 0.1 / alpha) ** 2 * scale
        if ratio in _SHARE_OF:
            weights = split_alpha(alpha, ratio)
        else:
            weights = (ratio * alpha, (1.0 - ratio) * alpha)
        got = stability._lambda0(*weights)
        assert abs(got - _exact_lambda0(alpha, ratio)) <= bound, alpha
        assert stability._lambda0(*weights[::-1]) == got, alpha


@pytest.mark.parametrize("ratio", [RATIO_EQUAL, RATIO_SOCIAL_ONLY])
def test_known_sign_at_omega_zero_is_the_exact_sign(ratio, monkeypatch):
    for alpha in _ALPHA_GRID:
        exact = _exact_lambda0(alpha, ratio)
        assert stability._known_sign(0.0, *split_alpha(alpha, ratio)) == np.sign(exact), alpha
    # at the root the exponent is within rounding of 0, and the reply is the
    # mean-square rule's: none, since the root lies above its boundary
    root = split_alpha(_exact_alpha_c0(ratio), ratio)
    reply = stability._known_sign(0.0, *root)
    monkeypatch.setattr(stability, "_lambda0", lambda alpha1, alpha2: 0.0)
    assert reply == stability._known_sign(0.0, *root)
    assert reply is None
    # with the exact exponent within its rounding bound of 0, the
    # mean-square rule holds at omega = 0 too
    boundary = _alpha_mean_square(0.0, ratio)
    assert stability._known_sign(0.0, *split_alpha(boundary * (1 - 1e-6), ratio)) == -1
    assert stability._known_sign(0.0, *split_alpha(boundary * (1 + 1e-6), ratio)) is None


@pytest.mark.parametrize("ratio", [RATIO_EQUAL, RATIO_SOCIAL_ONLY])
def test_critical_alpha_at_omega_zero_runs_no_lanes(ratio, monkeypatch):
    # every probe at omega = 0 is answered by the exact exponent, so the
    # point brackets the exact root and does not depend on the seed
    def unused(*args):
        raise AssertionError("a probe ran lanes")

    monkeypatch.setattr(stability, "_chunk", unused)
    tolerance = 0.02
    points = {critical_alpha(0.0, ratio=ratio, tolerance=tolerance, seed=seed)
              for seed in range(1, 6)}
    assert len(points) == 1
    point = points.pop()
    assert point.status == STATUS_OK
    assert point.std_error <= tolerance
    assert abs(point.alpha - _exact_alpha_c0(ratio)) <= tolerance


@pytest.mark.parametrize("ratio", [RATIO_EQUAL, RATIO_SOCIAL_ONLY])
def test_critical_alpha_matches_exact_root_at_omega_zero(ratio, monte_carlo_at_omega_zero):
    tolerance = 0.02
    point = critical_alpha(0.0, ratio=ratio, tolerance=tolerance, seed=1)
    assert point.status == STATUS_OK
    assert abs(point.alpha - _exact_alpha_c0(ratio)) <= point.std_error + tolerance


@pytest.mark.parametrize("ratio", [RATIO_EQUAL, RATIO_SOCIAL_ONLY])
def test_critical_alpha_covers_the_exact_root_at_a_small_budget(ratio,
                                                              monte_carlo_at_omega_zero):
    # ten seeds, each point within its half-bracket plus the tolerance of
    # the exact root; some points stop at a bracket of 2 * tolerance, others
    # at a midpoint statistically at the root
    tolerance = 0.05
    exact = _exact_alpha_c0(ratio)
    for seed in range(1, 11):
        point = critical_alpha(0.0, ratio=ratio, tolerance=tolerance, seed=seed, steps=4000,
                               trials=16)
        assert point.status == STATUS_OK, seed
        assert abs(point.alpha - exact) <= point.std_error + tolerance, (seed, point)


@pytest.mark.parametrize("ratio", [RATIO_EQUAL, RATIO_SOCIAL_ONLY])
def test_escape_point_covers_the_exact_root_at_omega_zero(ratio):
    # at omega = 0 the escape-equality root (default radii and step cap)
    # sits about 0.006 inside the exact lambda = 0 root, within the tolerance
    tolerance = 0.02
    exact = _exact_alpha_c0(ratio)
    for seed in range(1, 4):
        point = critical_alpha(0.0, ratio=ratio, tolerance=tolerance, seed=seed, method="escape")
        assert point.status == STATUS_OK, seed
        assert abs(point.alpha - exact) <= point.std_error + tolerance, (seed, point)


# ---------------------------------------------------------------- mean-square oracle
#
# M = A + s*B with s = alpha*r, A = [[omega, 0], [omega, 1]] and
# B = [[0, -1], [0, -1]], so E[M (x) M] needs only the first two moments of s.
# Almost-sure stability is weaker than mean-square stability, so the critical
# curve lies on or above the mean-square boundary.


def _second_moment_matrix(omega, alpha, ratio):
    """E[M (x) M] = A(x)A + E[s] (A(x)B + B(x)A) + E[s^2] B(x)B."""
    a, b = (w / alpha for w in split_alpha(alpha, ratio))
    m1 = alpha / 2.0
    m2 = alpha**2 * (0.25 + (a * a + b * b) / 12.0)
    A = np.array([[omega, 0.0], [omega, 1.0]])
    B = np.array([[0.0, -1.0], [0.0, -1.0]])
    return np.kron(A, A) + m1 * (np.kron(A, B) + np.kron(B, A)) + m2 * np.kron(B, B)


def _alpha_mean_square(omega, ratio, lo=1e-3, hi=8.0):
    """The root of rho(E[M (x) M]) = 1 in alpha, by bisection."""
    def rho(alpha):
        return np.max(np.abs(np.linalg.eigvals(_second_moment_matrix(omega, alpha, ratio))))

    assert rho(lo) < 1.0 < rho(hi)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rho(mid) < 1.0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_mean_square_oracle_values():
    for omega in (-0.5, 0.0, 0.5, 0.9):
        poli = 24.0 * (1.0 - omega**2) / (7.0 - 5.0 * omega)
        assert _alpha_mean_square(omega, RATIO_EQUAL) == pytest.approx(poli, abs=1e-9), omega
    assert _alpha_mean_square(0.0, RATIO_SOCIAL_ONLY) == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("ratio", [RATIO_EQUAL, RATIO_SOCIAL_ONLY])
def test_known_sign_is_mean_square_stability(ratio):
    # the search's theory reply is -1 just below the Kronecker oracle's
    # boundary and none just above it, and +1 wherever |omega| >= 1; at
    # omega = 0 the exact exponent answers first
    for omega in (-0.9, -0.5, 0.5, 0.9):
        root = _alpha_mean_square(omega, ratio)
        assert stability._known_sign(omega, *split_alpha(root * (1 - 1e-6), ratio)) == -1
        assert stability._known_sign(omega, *split_alpha(root * (1 + 1e-6), ratio)) is None
    for omega in (-1.1, -1.0, 1.0, 1.1):
        assert stability._known_sign(omega, *split_alpha(0.05, ratio)) == 1


def test_lyapunov_curve_at_unit_inertia_runs_no_lanes(monkeypatch):
    # the determinant identity makes every weight unstable at |omega| >= 1
    def unused(*args):
        raise AssertionError("a probe ran lanes")

    monkeypatch.setattr(stability, "_chunk", unused)
    curve = critical_curve([-1.1, -1.0, 1.0, 1.1], tolerance=0.05, steps=300, trials=4, seed=0)
    assert {p.status for p in curve.points} == {STATUS_NO_CROSSING}


@pytest.mark.parametrize("ratio", [RATIO_EQUAL, RATIO_SOCIAL_ONLY])
def test_critical_curve_lies_above_mean_square_boundary(ratio):
    # below omega = -0.5 the curve approaches the boundary (0.007 above it
    # at omega = -0.9 on the reference curve), closer than these budgets resolve
    tolerance = 0.05
    curve = critical_curve([-0.5, 0.0, 0.5], ratio=ratio, tolerance=tolerance, seed=4,
                           steps=2000, trials=8)
    assert all(p.status == STATUS_OK for p in curve.points)
    for p in curve.points:
        assert p.alpha >= _alpha_mean_square(p.omega, ratio) - (p.std_error + tolerance), p


_HIST = AngularHistogram(mass=np.full(64, 1 / 64), samples=64)

_ESTIMATORS = {
    "lyapunov_exponent": lambda seed: lyapunov_exponent(
        0.5, 0.5, 0.5, steps=2000, trials=4, burn_in=100, seed=seed),
    "lyapunov_pair": lambda seed: lyapunov_pair(
        0.5, 0.5, 0.5, steps=2000, trials=4, burn_in=100, seed=seed),
    "stationary_distribution": lambda seed: stationary_distribution(
        0.7, 0.0, 2.5, bins=64, samples=4000, burn_in=100, n_chains=4, seed=seed).mass.tobytes(),
    "pushforward": lambda seed: pushforward(
        _HIST, 0.7, 0.0, 2.5, draws=200, seed=seed).mass.tobytes(),
    "finite_time_lyapunov_homogeneous": lambda seed: finite_time_lyapunov(
        0.7, 0.5, 0.5, steps=500, repetitions=8, seed=seed),
    "finite_time_lyapunov_affine": lambda seed: finite_time_lyapunov(
        0.6, 0.9, 0.9, p=0.07, g=0.0, steps=150, repetitions=200, seed=seed),
    "neutral_alpha": lambda seed: neutral_alpha(
        0.4, ScalingConfig(kappa=0.5, iterations=100, repetitions=500), tolerance=0.05,
        seed=seed),
}


@pytest.mark.parametrize("estimator", list(_ESTIMATORS))
def test_lyapunov_seed_determinism(estimator):
    run = _ESTIMATORS[estimator]
    assert run(42) == run(42)


_SEEDED_SEARCHES = {
    "critical_alpha": lambda seed: critical_alpha(
        0.5, tolerance=0.05, seed=seed, steps=300, trials=4),
    "neutral_alpha": _ESTIMATORS["neutral_alpha"],
    "critical_curve": lambda seed: critical_curve(
        [-0.5, 0.5], tolerance=0.05, seed=seed, steps=300, trials=4),
}


@pytest.mark.parametrize("search", list(_SEEDED_SEARCHES))
def test_seed_sequence_argument_is_not_advanced(search, search_constants):
    search_constants(burn_in=50)
    run = _SEEDED_SEARCHES[search]
    ss = np.random.SeedSequence(9)
    first = run(ss)
    assert ss.n_children_spawned == 0
    assert run(ss) == first == run(np.random.SeedSequence(9))


# ---------------------------------------------------------------- blocked orbit vs per-step loop


def _reference_orbit(rng, omega, alpha1, alpha2, v, x, steps, fixed_r=None):
    """The renormalised orbit one step at a time: yields growth, unit (v, x)
    and weights per step."""
    for _ in range(steps):
        if fixed_r is None:
            u1 = rng.random(v.size)
            u2 = rng.random(v.size)
            ar = alpha1 * u1 + alpha2 * u2
        else:
            ar = np.full(v.size, (alpha1 + alpha2) * fixed_r)
        v_new = omega * v - ar * x
        x_new = v_new + x
        norm = np.hypot(v_new, x_new)
        v, x = v_new / norm, x_new / norm
        yield norm, v, x, ar


def _reference_estimate(acc, steps, burn_in):
    per_trial = acc / steps
    se = float(per_trial.std(ddof=1) / np.sqrt(acc.size)) if acc.size > 1 else 0.0
    return LyapunovEstimate(float(per_trial.mean()), se, steps, acc.size, burn_in)


def _reference(name, omega, a1, a2, steps, trials, burn_in, seed, fixed_r):
    rng = np.random.default_rng(seed)
    n = max(trials, 2) if name == "stationary" else trials
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    s, c = np.sin(theta), np.cos(theta)
    if name == "pair":
        orbit = _reference_orbit(rng, omega, a1, a2, c, s, burn_in + steps, fixed_r)
    else:
        orbit = _reference_orbit(rng, omega, a1, a2, s, c, burn_in + steps, fixed_r)
    acc1, acc2, angles = np.zeros(n), np.zeros(n), []
    q2v, q2x = -s, c
    for k, (n1, q1v, q1x, ar) in enumerate(orbit):
        w2v = omega * q2v - ar * q2x
        w2x = w2v + q2x
        proj = q1v * w2v + q1x * w2x
        w2v, w2x = w2v - proj * q1v, w2x - proj * q1x
        n2 = np.hypot(w2v, w2x)
        q2v, q2x = w2v / n2, w2x / n2
        if k >= burn_in:
            acc1 += np.log(n1)
            acc2 += np.log(n2)
            angles.append(np.arctan2(q1v, q1x))
    if name == "exponent":
        return _reference_estimate(acc1, steps, burn_in)
    if name == "pair":
        return _reference_estimate(acc1, steps, burn_in), _reference_estimate(acc2, steps, burn_in)
    if name == "stationary":
        pooled = np.mod(np.array(angles).ravel()[: steps * n - 1], 2.0 * np.pi)
        counts, _ = np.histogram(pooled, bins=64, range=(0.0, 2.0 * np.pi))
        return tuple(counts / counts.sum())
    ell = acc1 + np.log(1.5)
    m = ell.max()
    return float((m + np.log(np.mean(np.exp(ell - m)))) / steps)


def _blocked(name, omega, a1, a2, steps, trials, burn_in, seed):
    if name == "exponent":
        return lyapunov_exponent(omega, a1, a2, steps, trials, burn_in, seed)
    if name == "pair":
        return lyapunov_pair(omega, a1, a2, steps, trials, burn_in, seed)
    if name == "stationary":
        n = max(trials, 2)
        return tuple(stationary_distribution(omega, a1, a2, bins=64, samples=steps * n - 1,
                                             burn_in=burn_in, n_chains=n, seed=seed).mass)
    return finite_time_lyapunov(omega, a1, a2, z0_scale=1.5, steps=steps, repetitions=trials,
                                seed=seed)


# (steps, trials, burn_in, fixed_r), where fixed_r, if set, makes every
# weight the constant (alpha1 + alpha2) * fixed_r; the orbit blocks hold up
# to 256 steps
_ORBIT_CASES = {
    "below_one_block": (100, 3, 50, None),
    "exact_block_multiple": (412, 4, 100, None),
    "burn_in_mid_block": (300, 5, 1000, None),
    "no_burn_in": (600, 2, 0, None),
    "fixed_r": (300, 3, 20, 0.37),
    "one_trial": (700, 1, 30, None),
    "lanes_shorten_block": (500, 300, 40, None),
    "lanes_past_chunk_cap": (37, 9000, 11, None),
}


def _assert_exponent_close(estimate, reference):
    """The exponent of the log-depth kernel against the per-step sum: value
    and std_error within 1e-12 relative, the budget fields exact."""
    assert estimate.value == pytest.approx(reference.value, rel=1e-12, abs=0.0)
    assert estimate.std_error == pytest.approx(reference.std_error, rel=1e-12, abs=0.0)
    assert astuple(estimate)[2:] == astuple(reference)[2:]


def _assert_orbit_matches(name, blocked, reference):
    """``exponent`` sums its log growth over chunk products, so it agrees to
    rounding; the other orbit estimators add per-step logs and agree bit for
    bit."""
    if name == "exponent":
        _assert_exponent_close(blocked, reference)
    else:
        assert blocked == reference


@pytest.mark.parametrize("name, case", [
    (name, case) for case in _ORBIT_CASES
    for name in ("exponent", "pair", "stationary", "finite_time")
])
def test_blocked_orbit_equals_per_step_loop(name, case, constant_weight):
    steps, trials, burn_in, fixed_r = _ORBIT_CASES[case]
    if name == "finite_time":
        # no burn-in: run the same total number of steps
        steps, burn_in = steps + burn_in, 0
    args = (0.6, 1.1, 1.3, steps, trials, burn_in, 7)
    reference = _reference(name, *args, fixed_r)
    if fixed_r is not None:
        constant_weight(fixed_r)
    _assert_orbit_matches(name, _blocked(name, *args), reference)


@pytest.mark.parametrize("name", ["exponent", "pair", "stationary", "finite_time"])
def test_blocked_orbit_generator_seed_ends_in_reference_state(name):
    gen, ref_gen = np.random.default_rng(21), np.random.default_rng(21)
    burn_in = 0 if name == "finite_time" else 70
    blocked = _blocked(name, -0.4, 0.0, 3.1, 530, 3, burn_in, gen)
    reference = _reference(name, -0.4, 0.0, 3.1, 530, 3, burn_in, ref_gen, None)
    _assert_orbit_matches(name, blocked, reference)
    assert gen.bit_generator.state == ref_gen.bit_generator.state


@pytest.mark.parametrize("omega", [-1.1, -1.0, 0.0, 1.0, 1.1])
@pytest.mark.parametrize("alpha", [0.01, 0.5, 4.6, 8.0, 100.0, 1e30])
def test_exponent_kernel_matches_per_step_sum(omega, alpha, monkeypatch):
    # across the inertia range and from near-deterministic to huge weights;
    # the generator ends where the per-step loop leaves it.  At 1e30 every
    # chunk's product overflows, and the chunk runs again one step at a time
    reruns = []
    block = stability._block
    monkeypatch.setattr(stability, "_block", lambda *args: reruns.append(args) or block(*args))
    gen, ref_gen = np.random.default_rng(31), np.random.default_rng(31)
    args = (omega, 0.3 * alpha, 0.7 * alpha, 600, 6, 90)
    estimate = lyapunov_exponent(*args, seed=gen)
    # the reference also runs lyapunov_pair's second leg, singular at omega = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        reference = _reference("exponent", *args, ref_gen, None)
    _assert_exponent_close(estimate, reference)
    assert gen.bit_generator.state == ref_gen.bit_generator.state
    assert bool(reruns) == (alpha == 1e30)


# ---------------------------------------------------------------- the chunk rule


@pytest.mark.parametrize("trials, steps", [(2, 256), (12, 256), (64, 256), (65, 128),
                                           (4096, 4), (8192, 4)])
def test_chunk_steps_holds_256_steps_or_2_14_lane_steps(trials, steps):
    # the largest power of two within both caps, and at least 4
    assert stability._chunk_steps(trials) == steps


@pytest.mark.parametrize("k", [1, 2, 3, 5, 64, 100, 129, 256])
def test_identity_padding_keeps_a_chunks_bits(k):
    # each lane of a chunk padded with identities to any wider width, next to
    # lanes of other step counts, gets the bits of its steps alone
    rng = np.random.default_rng(k)
    alpha = np.array([0.01, 0.5, 4.6, 8.0, 100.0, 1.0, 2.0, 3.0])
    n = alpha.size
    omega = rng.uniform(-1.1, 1.1, n)
    ar = alpha * rng.random((256, n))
    widths = {k, k + 1, 1 << (k - 1).bit_length(), 2 * k, 256}
    for width in sorted(w for w in widths if w <= 256):
        steps = np.full(n, k)
        steps[1::2] = rng.integers(1, width + 1, n // 2)
        padded = stability._chunk(omega, ar[:width], steps)
        for count in set(steps.tolist()):
            alone = stability._chunk(omega, ar[:count], np.full(n, count))
            lanes = steps == count
            assert ([a[..., lanes].tobytes() for a in padded]
                    == [a[..., lanes].tobytes() for a in alone])


def test_a_call_of_several_sets_equals_one_call_a_set(monkeypatch):
    # two 12-trial probes at different chunk offsets share each call as two
    # sets, some chunks shorter than others and some of 0 steps: each set
    # starts from the (v, x) the set before it left, and each probe gets the
    # bits of one chunk a call
    def opened():
        return [stability._Probe.open(0.3, 1, 2.4, 2.9, 12, 100 + 1000),
                stability._Probe.open(-0.6, 2, 1.0, 1.5, 12, 100 + 333)]

    def run(probes):
        while any(p.done < p.end for p in probes):
            assert stability._advance(probes, 12, 100) == [None] * len(probes)
        return [[a.tobytes() for a in (p.acc, p.v, p.x)] for p in probes]

    calls = _record_calls(monkeypatch, 12)
    together = run(opened())
    assert calls[:2] == [[100, 100, 125, 256], [125, 77, 250, 0]]
    monkeypatch.setattr(stability, "_CHUNK_VALUES", 256 * 12)
    assert [run([p])[0] for p in opened()] == together


def _record_calls(monkeypatch, trials):
    """Per ``_chunk`` call made after this call, the steps of the chunks it
    holds of ``trials`` lanes each, set after set."""
    calls = []
    chunk = stability._chunk

    def record(omega, ar, steps):
        calls.append(steps[::trials].tolist())
        return chunk(omega, ar, steps)

    monkeypatch.setattr(stability, "_chunk", record)
    return calls


def test_a_12_trial_orbit_runs_five_chunks_a_call(monkeypatch):
    # five 256-step chunks of 12 lanes fill 2**14 lane-steps.  The burn-in is
    # cut every 256 steps, and the counted steps on the dyadic intervals of
    # their odd part 125, each cut every 256 steps; a call holds chunks of both
    calls = _record_calls(monkeypatch, 12)
    lyapunov_exponent(0.5, 1.6, 1.6, steps=1000, trials=12, burn_in=1000, seed=3)
    assert calls == [[256, 256, 256, 232, 125], [125, 250, 256, 244]]


@pytest.mark.parametrize("open_probes, calls", [
    (1, [[256, 256, 256, 232, 125]]),  # five chunks: the burn-in's and the first counted
    (2, [[256] * 4]),  # two chunks of each probe, the curve-lyapunov workload's shape
    (3, [[256] * 3]),  # one chunk of each, as many probes a call as 2**14 lane-steps hold
    (5, [[256] * 5]),
    (7, [[256] * 5, [256] * 4]),  # the last two probes, two chunks each
])
def test_a_call_gives_its_open_probes_the_chunks_it_holds(open_probes, calls, monkeypatch):
    trials = 12
    start, advance = stability._lyapunov_kind(1000, trials, 1000)
    probes = {i: start(0.3, 2.4, 2.9, 0, np.random.SeedSequence(i), None)[0]
              for i in range(open_probes)}
    recorded = _record_calls(monkeypatch, trials)
    assert [reply for _, reply in advance(probes)] == [None] * open_probes
    assert recorded == calls


@pytest.mark.parametrize("steps, trials, burn_in", [(1000, 12, 1000), (999, 5, 13),
                                                    (4096, 2, 300), (333, 31, 77)])
def test_a_call_of_one_chunk_a_probe_gives_the_same_bits(steps, trials, burn_in, monkeypatch):
    # the chunks a call holds cut no chunk differently and mix no lanes
    several = lyapunov_exponent(0.4, 1.1, 1.3, steps, trials, burn_in, seed=trials)
    k = stability._chunk_steps(trials)
    monkeypatch.setattr(stability, "_CHUNK_VALUES", k * trials)
    assert stability._chunk_steps(trials) == k
    calls = _record_calls(monkeypatch, trials)
    assert lyapunov_exponent(0.4, 1.1, 1.3, steps, trials, burn_in, seed=trials) == several
    assert all(len(call) == 1 for call in calls)


@pytest.mark.parametrize("estimator, omega, fixed_r, step", [
    (lyapunov_exponent, 0.0, 0.5, 1),  # every matrix singular: (v, x) -> 0 at step 1
    (lyapunov_pair, 1e-310, None, 2),  # the second leg underflows first
    (lyapunov_exponent, 1.7e308, None, 0),  # the norm overflows at step 0
    (lyapunov_pair, 1.3e308, None, 0),  # the second leg's projection overflows
])
def test_overflow_reports_first_failing_step_without_warning(estimator, omega, fixed_r, step,
                                                            constant_weight):
    if fixed_r is not None:
        constant_weight(fixed_r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError, match="renormalisation failed") as err:
            estimator(omega, 1.0, 1.0, steps=1000, trials=4, burn_in=300, seed=3)
    assert err.value.step == step


def _poison(monkeypatch, weight, first, last, alpha1=None):
    """Make lane 5's weight ``weight`` at the draws ``first`` to ``last`` of
    each generator, of the orbits at cognitive weight ``alpha1`` alone if it
    is given; returns the list of the ``_block`` reruns made after this
    call."""
    draw = stability._draw_weights
    drawn = {}

    def poisoned(rng, a1, a2, shape):
        ar = draw(rng, a1, a2, shape)
        if alpha1 is not None and a1 != alpha1:
            return ar
        k0 = drawn.get(rng, 0)
        drawn[rng] = k0 + shape[0]
        for step in range(max(first, k0), min(last + 1, drawn[rng])):
            ar[step - k0, 5] = weight
        return ar

    monkeypatch.setattr(stability, "_draw_weights", poisoned)
    reruns = []
    block = stability._block
    monkeypatch.setattr(stability, "_block", lambda *args: reruns.append(args) or block(*args))
    return reruns


def test_overflow_in_a_later_chunk_of_a_call_reports_its_step(monkeypatch):
    # one lane's weight is infinite at step 300, in the second of the five
    # chunks of the call: that chunk's product fails, and its per-step rerun
    # finds the step
    reruns = _poison(monkeypatch, np.inf, 300, 300)
    calls = _record_calls(monkeypatch, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError, match="renormalisation failed") as err:
            lyapunov_exponent(0.5, 1.6, 1.6, steps=1000, trials=12, burn_in=1000, seed=3)
    assert err.value.step == 300
    assert calls == [[256, 256, 256, 232, 125]]
    assert len(reruns) == 1


def test_a_rerun_chunk_restarts_the_later_chunks_of_its_call(monkeypatch):
    # weights of 1e100 at steps 300 to 303 overflow the second chunk's
    # product but not its steps: the rerun goes on, and the later chunks of
    # the call start from its (v, x), with the bits of one chunk a call
    reruns = _poison(monkeypatch, 1e100, 300, 303)
    calls = _record_calls(monkeypatch, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        several = lyapunov_exponent(0.5, 1.6, 1.6, steps=1000, trials=12, burn_in=1000, seed=3)
    assert len(reruns) == 1
    assert calls == [[256, 256, 256, 232, 125], [125, 250, 256, 244]]
    monkeypatch.undo()
    reruns = _poison(monkeypatch, 1e100, 300, 303)
    monkeypatch.setattr(stability, "_CHUNK_VALUES", 256 * 12)
    assert lyapunov_exponent(0.5, 1.6, 1.6, steps=1000, trials=12, burn_in=1000, seed=3) == several
    assert len(reruns) == 1


def test_a_rerun_in_a_call_of_two_probes_keeps_each_probes_bits(monkeypatch):
    # two open 12-trial probes share each call as two sets; weights of 1e100
    # at steps 10 to 13 of the second overflow its first chunk's product but
    # not its steps.  Only that probe reruns, its second set starts from the
    # rerun's (v, x), and each probe gets the bits of its lone call
    points = [(0.3, 2.4, 2.9), (-0.2, 2.0, 2.5)]
    reruns = _poison(monkeypatch, 1e100, 10, 13, alpha1=2.0)
    calls = _record_calls(monkeypatch, 12)
    probes = [stability._Probe.open(w, seed, a1, a2, 12, 1000)
              for seed, (w, a1, a2) in enumerate(points)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        while any(p.done < p.end for p in probes):
            assert stability._advance(probes, 12, 0) == [None, None]
    assert calls[0] == [125, 125, 125, 125]
    assert [(args[0], args[-1]) for args in reruns] == [(-0.2, 0)]
    for seed, ((w, a1, a2), p) in enumerate(zip(points, probes)):
        alone = lyapunov_exponent(w, a1, a2, steps=1000, trials=12, burn_in=0, seed=seed)
        assert stability._estimate(p.acc, 1000, 0) == alone
    assert len(reruns) == 2


def test_pair_reports_the_first_failing_step_of_either_leg():
    # weights near the float maximum: the second leg fails at step 0, and
    # the first leg only at a later step of the same block, when a weight
    # rounds to inf
    # the overflowing weights warn nothing before the failure
    with pytest.raises(NumericOverflowError, match="renormalisation failed") as err:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lyapunov_pair(0.5, 1e308, 1e308, steps=600, trials=3, burn_in=100, seed=1)
    assert err.value.step == 0


def test_lyapunov_estimator_consistency():
    # doubling the budget moves the estimate by less than 3 combined sigma
    rng = np.random.default_rng(8)
    for _ in range(10):
        omega = rng.uniform(-0.95, 0.95)
        alpha = rng.uniform(0.3, 5.0)
        a1 = rng.uniform(0.0, alpha)
        small = lyapunov_exponent(omega, a1, alpha - a1, steps=5000, trials=8,
                                  burn_in=500, seed=rng.integers(2**32))
        big = lyapunov_exponent(omega, a1, alpha - a1, steps=10_000, trials=16,
                                burn_in=500, seed=rng.integers(2**32))
        sigma = math.hypot(small.std_error, big.std_error)
        assert abs(small.value - big.value) < 3 * sigma


# ---------------------------------------------------------------- pair


def test_pair_sum_rule_matches_log_det():
    rng = np.random.default_rng(4)
    for _ in range(5):
        omega = float(rng.uniform(0.1, 0.95) * rng.choice([-1, 1]))
        alpha = float(rng.uniform(0.5, 5.0))
        frac = float(rng.uniform(0.2, 0.8))
        top, bottom = lyapunov_pair(omega, frac * alpha, (1 - frac) * alpha,
                                    steps=5000, trials=8, burn_in=200,
                                    seed=int(rng.integers(2**32)))
        sigma = math.hypot(top.std_error, bottom.std_error)
        assert abs(top.value + bottom.value - math.log(abs(omega))) < max(3 * sigma, 1e-10)
        assert top.value >= bottom.value


def test_pair_zero_omega_sentinel():
    top, bottom = lyapunov_pair(0.0, 0.5, 0.5, steps=2000, trials=4, burn_in=100, seed=5)
    assert bottom.value == -math.inf
    assert math.isfinite(top.value)


def test_pair_degenerate_hook_matches_both_moduli(constant_weight):
    # real eigenvalues of the half-weight matrix at (0.25, 0.1)
    eigs = np.abs(np.linalg.eigvals(build_step_matrix(0.25, 0.1, 0.5).entries))
    lo, hi = np.log(np.sort(eigs))
    constant_weight(0.5)
    top, bottom = lyapunov_pair(0.25, 0.05, 0.05, steps=30_000, trials=2, burn_in=100, seed=6)
    assert top.value == pytest.approx(hi, abs=1e-3)
    assert bottom.value == pytest.approx(lo, abs=1e-3)


def test_pair_top_matches_single_estimator():
    top, _ = lyapunov_pair(0.7, 0.5, 0.5, steps=20_000, trials=12, burn_in=500, seed=7)
    single = lyapunov_exponent(0.7, 0.5, 0.5, steps=20_000, trials=12, burn_in=500, seed=8)
    sigma = math.hypot(top.std_error, single.std_error)
    assert abs(top.value - single.value) < 4 * sigma


# ---------------------------------------------------------------- stationary measure


def test_stationary_masses_and_symmetry():
    hist = stationary_distribution(0.7, 0.25, 0.25, bins=128, samples=200_000,
                                   burn_in=1000, n_chains=8, seed=9)
    assert hist.mass.sum() == pytest.approx(1.0, abs=1e-9)
    assert hist.bins == 128
    # two-fold symmetry of the direction process: a and a + pi agree
    half = hist.bins // 2
    assert np.abs(hist.mass[:half] - hist.mass[half:]).sum() < 0.05


def test_stationary_peak_on_position_axis_for_small_alpha():
    hist = stationary_distribution(0.7, 0.0, 0.5, bins=128, samples=400_000,
                                   burn_in=1000, n_chains=8, seed=10)
    mode = hist.bin_centers[int(np.argmax(hist.mass))]
    # mass concentrates on the v ~ 0 axis; antipodal symmetry makes the
    # peak near pi equivalent to the one near 0
    axis_dist = min(abs(mode - math.pi), mode, 2 * math.pi - mode)
    assert axis_dist < 0.3


def test_stationary_pushforward_is_invariant():
    hist = stationary_distribution(0.7, 0.0, 2.5, bins=128, samples=400_000,
                                   burn_in=1000, n_chains=8, seed=11)
    pushed = pushforward(hist, 0.7, 0.0, 2.5, draws=3000, seed=12)
    assert np.abs(hist.mass - pushed.mass).sum() < 0.05


def test_stationary_peak_grows_with_alpha():
    big = stationary_distribution(0.7, 0.0, 4.5, bins=128, samples=300_000,
                                  burn_in=1000, n_chains=8, seed=13)
    small = stationary_distribution(0.7, 0.0, 1.5, bins=128, samples=300_000,
                                    burn_in=1000, n_chains=8, seed=14)
    assert big.mass.max() >= small.mass.max()


def test_stationary_validates_arguments():
    with pytest.raises(ValueError):
        stationary_distribution(0.7, 0.0, 0.5, bins=32, seed=1)
    with pytest.raises(ValueError):
        stationary_distribution(0.7, 0.0, 0.5, n_chains=1, seed=1)
    with pytest.raises(ValueError, match="burn_in"):
        stationary_distribution(0.7, 0.0, 0.5, samples=100, burn_in=-5, seed=1)
    with pytest.raises(ValueError, match="samples must be >= n_chains"):
        stationary_distribution(0.7, 0.0, 0.5, samples=3, n_chains=4, seed=1)
    hist = stationary_distribution(0.7, 0.0, 0.5, bins=64, samples=100, burn_in=5, seed=1)
    with pytest.raises(ValueError, match="draws"):
        pushforward(hist, 0.7, 0.0, 0.5, draws=0, seed=1)


# ---------------------------------------------------------------- escape


def test_escape_deep_stable_and_unstable():
    stable = escape_probability(0.3, 0.25, 0.25, max_steps=20_000, trials=2000, seed=15)
    assert stable.p_converged > 0.99
    assert stable.p_converged + stable.p_escaped + stable.p_undecided == pytest.approx(1.0)
    unstable = escape_probability(0.3, 3.0, 3.0, max_steps=20_000, trials=2000, seed=16)
    assert unstable.p_escaped > 0.99


def test_escape_huge_omega_escapes_without_warning():
    # the squared norm overflows to inf, which decides the lane as escaped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = escape_probability(1e200, 1.0, 1.0, max_steps=100, trials=100, seed=1)
    assert st.p_escaped == 1.0


def test_escape_seed_determinism():
    a = escape_probability(0.5, 1.0, 1.0, max_steps=5000, trials=500, seed=17)
    b = escape_probability(0.5, 1.0, 1.0, max_steps=5000, trials=500, seed=17)
    assert a == b


# radii the first-passage rule refuses: out of order, NaN, or with a square
# outside the normal floats
_BAD_RADII = [dict(r_in=2.0, r_out=1e-3), dict(r_in=-1.0, r_out=-5.0), dict(r_in=1.0),
              dict(r_out=1.0), dict(r_in=math.nan), dict(r_in=1e-200), dict(r_out=1e200)]


def test_escape_validates_radii():
    for radii in _BAD_RADII:
        with pytest.raises(ValueError, match="r_in < 1 < r_out"):
            escape_probability(0.5, 1.0, 1.0, max_steps=10, trials=10, seed=1, **radii)


@pytest.mark.parametrize("budget", [{"max_steps": 0}, {"max_steps": -3}, {"trials": 0}])
def test_escape_validates_budgets(budget):
    with pytest.raises(ValueError, match=">= 1"):
        escape_probability(0.5, 1.0, 1.0, seed=1, **{"max_steps": 10, "trials": 10, **budget})


# per-step copies of the escape and neutral loops that _FirstPassage replaced


class _ReferencePassage:
    """A per-step first passage that later cohorts of lanes can join: each
    lane carries the steps it has left and leaves undecided at 0.  A run
    stops once no lane is open or, with ``early``, once ``_early_sign``
    decides; ``steps`` counts the loop steps of all runs, ``early_stops``
    the runs stopped with lanes open, and ``capped_beside_newer`` the steps
    at which a cohort reached its cap while a newer one ran on."""

    def __init__(self, seed, max_steps, step, near, r_out, early=False):
        self.rng = np.random.default_rng(seed)
        self.max_steps, self.step, self.near, self.r_out, self.early = (max_steps, step, near,
                                                                        r_out, early)
        self.v = self.x = np.empty(0)
        self.left = np.empty(0, dtype=int)
        self.n = self.n_conv = self.n_esc = 0
        self.steps = self.early_stops = self.capped_beside_newer = 0

    def run(self, n):
        theta = self.rng.uniform(0.0, 2.0 * np.pi, n - self.n)
        v, x = np.append(self.v, np.sin(theta)), np.append(self.x, np.cos(theta))
        left = np.append(self.left, np.full(n - self.n, self.max_steps))
        self.n = n
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                capped = left == 0
                if capped.any() and not capped.all():
                    self.capped_beside_newer += 1
                v, x, left = v[~capped], x[~capped], left[~capped]
                if x.size == 0:
                    break
                if self.early and stability._early_sign(n, self.n_esc, self.n_conv,
                                                        x.size) is not None:
                    self.early_stops += 1
                    break
                u1 = self.rng.random(x.size)
                u2 = self.rng.random(x.size)
                v, x = self.step(v, x, u1, u2)
                norm2 = v * v + x * x
                conv = self.near(x, norm2)
                esc = norm2 >= self.r_out * self.r_out
                self.n_conv += int(np.count_nonzero(conv & ~esc))
                self.n_esc += int(np.count_nonzero(esc & ~conv))
                keep = ~(conv | esc)
                v, x, left = v[keep], x[keep], left[keep] - 1
                self.steps += 1
        self.v, self.x, self.left = v, x, left
        return self.n_conv, self.n_esc


def _escape_reference_rules(omega, a1, a2, r_in):
    """The escape experiment's per-step ``(step, near)``."""

    def step(v, x, u1, u2):
        v = omega * v - (a1 * u1 + a2 * u2) * x
        return v, v + x

    return step, lambda x, norm2: norm2 <= r_in * r_in


def _rounded_bounds(lo, hi, thr):
    """The segment ``[lo, hi]`` moved out by ``thr`` at each end, each bound
    rounded once and held within the float range."""
    return max(lo - thr, -sys.float_info.max), min(hi + thr, sys.float_info.max)


def _neutral_reference_rules(omega, a1, a2, config, r_in):
    """The neutral experiment's per-step ``(step, near)``."""
    p, g = config.kappa * config.p, config.kappa * config.g
    lo, hi = min(p, g), max(p, g)
    x_lo, x_hi = _rounded_bounds(lo, hi, r_in * (hi - lo))

    def step(v, x, u1, u2):
        v = omega * v + a1 * u1 * (p - x) + a2 * u2 * (g - x)
        return v, x + v

    def near(x, norm2):
        if hi == lo:
            return norm2 <= r_in * r_in
        return (x >= x_lo) & (x <= x_hi)

    return step, near


def _reference_escape(omega, a1, a2, r_in, r_out, max_steps, trials, seed):
    rules = _escape_reference_rules(omega, a1, a2, r_in)
    n_conv, n_esc = _ReferencePassage(seed, max_steps, *rules, r_out).run(trials)
    n_und = trials - n_conv - n_esc
    return stability.EscapeStats(n_conv / trials, n_esc / trials, n_und / trials, trials,
                                 r_in, r_out, max_steps)


def _neutral_passages(omega, a1, a2, config, r_in, r_out, seed, ref_seed, early=False):
    """The library's first passage of the neutral experiment, built from
    ``_neutral_segment``, and the per-step reference of the same experiment."""
    update, converged = stability._neutral_segment(config, r_in)
    passage = stability._FirstPassage(seed, config.iterations, update(omega, a1, a2), converged,
                                      r_out, early)
    rules = _neutral_reference_rules(omega, a1, a2, config, r_in)
    return passage, _ReferencePassage(ref_seed, config.iterations, *rules, r_out, early)


# (omega, alpha1, alpha2, r_in, r_out, max_steps, trials); escape needs r_in < 1 < r_out
_FIRST_PASSAGE_CASES = {
    "equal_split": (0.4, 1.3, 1.3, 1e-6, 1e6, 20_000, 400),
    "social_only": (-0.3, 0.0, 2.9, 1e-6, 1e6, 20_000, 400),
    "step_cap_leaves_undecided": (0.4, 2.55, 2.55, 1e-6, 1e6, 40, 300),
    "one_trial": (0.7, 1.0, 1.4, 1e-3, 1e3, 5000, 1),
    "nan_omega": (math.nan, 1.0, 1.0, 1e-6, 1e6, 30, 50),
    "near_radii": (0.5, 1.6, 1.6, 0.5, 2.0, 500, 300),
    # past the ~2e4 live lanes where a step's temporaries would page-fault
    "wide": (0.4, 2.55, 2.55, 1e-6, 1e6, 60, 30_000),
}

# (kappa, p, g): a segment between the bests, a nearly degenerate one (1e-8
# wide; bests may coincide only at 0), and coincident zeros; with the near
# radii, lanes of the wide segment pass both tests at once
_NEUTRAL_CONFIGS = {"segment": (0.5, 0.1, 0.0), "degenerate": (1.0, 0.3, 0.30000001),
                    "origin": (1.0, 0.0, 0.0), "wide_segment": (1.0, 1.0, -1.0)}


@pytest.mark.parametrize("case", list(_FIRST_PASSAGE_CASES))
def test_escape_equals_per_step_loop(case):
    omega, a1, a2, r_in, r_out, max_steps, trials = _FIRST_PASSAGE_CASES[case]
    if math.isnan(omega):
        # escape_probability rejects a NaN omega; the first passage it runs
        # leaves every NaN lane undecided, as the per-step loop does
        passage = stability._FirstPassage(11, max_steps, stability._escape_update(omega, a1, a2),
                                          stability._inside(r_in), r_out)
        rules = _escape_reference_rules(omega, a1, a2, r_in)
        reference = _ReferencePassage(11, max_steps, *rules, r_out)
        assert passage.run(trials) == reference.run(trials) == (0, 0)
        return
    args = (omega, a1, a2, r_in, r_out, max_steps, trials)
    stats = escape_probability(*args, seed=11)
    assert stats == _reference_escape(*args, seed=11)
    if case == "step_cap_leaves_undecided":
        assert stats.p_undecided > 0


@pytest.mark.parametrize("config", list(_NEUTRAL_CONFIGS))
@pytest.mark.parametrize("case", list(_FIRST_PASSAGE_CASES))
def test_neutral_fractions_equal_per_step_loop(case, config):
    omega, a1, a2, r_in, r_out, max_steps, trials = _FIRST_PASSAGE_CASES[case]
    kappa, p, g = _NEUTRAL_CONFIGS[config]
    cfg = ScalingConfig(kappa, p, g, iterations=min(max_steps, 400), repetitions=trials)
    passage, reference = _neutral_passages(omega, a1, a2, cfg, r_in, r_out, 12, 12)
    assert passage.run(trials) == reference.run(trials)


def test_first_passage_generator_seed_ends_in_reference_state():
    gen, ref = np.random.default_rng(13), np.random.default_rng(13)
    for lanes in (200, 30_000):
        args = (0.4, 1.25, 1.25, 1e-6, 1e6, 300, lanes)
        assert escape_probability(*args, seed=gen) == _reference_escape(*args, seed=ref)
        assert gen.bit_generator.state == ref.bit_generator.state
        cfg = ScalingConfig(1.0, 0.1, 0.0, iterations=300, repetitions=lanes)
        passage, reference = _neutral_passages(0.4, 1.25, 1.25, cfg, 1e-6, 1e6, gen, ref)
        assert passage.run(lanes) == reference.run(lanes)
        assert gen.bit_generator.state == ref.bit_generator.state


# a ladder of three levels: the lanes started in total after each run
_LADDER = (1, 2, 4)


@pytest.mark.parametrize("early", [False, True], ids=["full", "early"])
@pytest.mark.parametrize("case", list(_FIRST_PASSAGE_CASES))
def test_nested_escape_equals_per_step_cohorts(case, early):
    omega, a1, a2, r_in, r_out, max_steps, trials = _FIRST_PASSAGE_CASES[case]
    passage = stability._FirstPassage(11, max_steps, stability._escape_update(omega, a1, a2),
                                      stability._inside(r_in), r_out, early)
    rules = _escape_reference_rules(omega, a1, a2, r_in)
    reference = _ReferencePassage(11, max_steps, *rules, r_out, early)
    for k in _LADDER:
        assert passage.run(k * trials) == reference.run(k * trials)
    assert passage.rng.bit_generator.state == reference.rng.bit_generator.state


@pytest.mark.parametrize("early", [False, True], ids=["full", "early"])
@pytest.mark.parametrize("config", list(_NEUTRAL_CONFIGS))
@pytest.mark.parametrize("case", list(_FIRST_PASSAGE_CASES))
def test_nested_neutral_equals_per_step_cohorts(case, config, early):
    omega, a1, a2, r_in, r_out, max_steps, trials = _FIRST_PASSAGE_CASES[case]
    cfg = ScalingConfig(*_NEUTRAL_CONFIGS[config], iterations=min(max_steps, 400),
                        repetitions=trials)
    passage, reference = _neutral_passages(omega, a1, a2, cfg, r_in, r_out, 12, 12, early)
    for k in _LADDER:
        assert passage.run(k * trials) == reference.run(k * trials)
    assert passage.rng.bit_generator.state == reference.rng.bit_generator.state


def test_nested_neutral_cohort_reaches_its_cap_while_a_newer_one_runs():
    # every run stops early with lanes open; the first cohorts' lanes still
    # open at their 20-step cap leave while the next cohort runs on
    cfg = ScalingConfig(0.1, 0.1, 0.0, iterations=20, repetitions=200)
    passage, reference = _neutral_passages(0.0, 2.0, 2.0, cfg, 1e-6, 1e6, 5, 5, early=True)
    for k in _LADDER:
        assert passage.run(k * 200) == reference.run(k * 200)
    assert passage.rng.bit_generator.state == reference.rng.bit_generator.state
    assert reference.early_stops == 3
    assert reference.capped_beside_newer == 2


def _lanes_around(r):
    """Phase points within 64 ulp of radius ``r``, on the axes and at random
    angles, plus every pairing of extreme values with each other and with
    ``r``."""
    steps = np.arange(-64, 65)
    on_axis = r + steps * np.spacing(r)
    theta = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 1500)
    scale = 1.0 + steps * 2.0**-52
    x = [on_axis, np.zeros_like(on_axis), -on_axis, (r * np.cos(theta))[:, None] * scale]
    v = [np.zeros_like(on_axis), on_axis, on_axis / 1e9, (r * np.sin(theta))[:, None] * scale]
    special = np.array([0.0, -0.0, 5e-324, -1e-310, 1e-160, 1e160, 1e300, -1e300, np.inf,
                        -np.inf, np.nan, r, -r, np.nextafter(r, 0), np.nextafter(r, np.inf)])
    x.append(np.repeat(special, special.size))
    v.append(np.tile(special, special.size))
    return np.concatenate([a.ravel() for a in x]), np.concatenate([a.ravel() for a in v])


@pytest.mark.parametrize("r_in, r_out", [(1e-6, 1e6), (0.5, 3.0), (1e-150, 1e150),
                                         (np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0))])
def test_first_passage_radius_rule(r_in, r_out):
    x, v = (np.concatenate(pair) for pair in zip(_lanes_around(r_in), _lanes_around(r_out)))
    with np.errstate(over="ignore"):
        norm2 = v * v + x * x
        norm = np.hypot(x, v)
    conv, esc = norm2 <= r_in * r_in, norm2 >= r_out * r_out
    lo, hi = -0.5 * r_in, 0.5 * r_in

    def place(u, v_, x_):
        return v.copy(), x.copy()

    def near_segment(u, x_, out):
        return np.less_equal(np.maximum(np.maximum(lo - x_, x_ - hi), 0.0), r_in * (hi - lo), out)

    segment = near_segment(None, x, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for converged, c in ((stability._inside(r_in), conv), (near_segment, segment)):
            counts = stability._FirstPassage(0, 1, place, converged, r_out).run(x.size)
            assert counts == (np.count_nonzero(c & ~esc), np.count_nonzero(esc & ~c))
    # lanes on the v axis near r_out pass both tests and count for neither
    assert np.count_nonzero(segment & esc) > 0
    # the rule leaves the exact comparison only within rounding of a radius,
    # or on (+-inf, NaN) lanes, which no step reaches from a finite lane
    differ = (conv != (norm <= r_in)) | (esc != (norm >= r_out))
    mixed = (np.isinf(x) & np.isnan(v)) | (np.isnan(x) & np.isinf(v))
    near = np.isclose(norm, r_in, rtol=2.0**-50, atol=0.0)
    near |= np.isclose(norm, r_out, rtol=2.0**-50, atol=0.0)
    assert np.all(near[differ & ~mixed])
    assert np.any(differ & ~mixed), "some lanes sit within rounding of a radius"


def test_first_passage_rule_on_extreme_lanes():
    # (v, x): the origin and an underflowing lane converge, an overflowing
    # square and infinite lanes escape, NaN lanes stay live
    v = np.array([0.0, 1e-200, 1e300, np.inf, -np.inf, 3.0, np.nan])
    x = np.array([0.0, -1e-200, 0.0, -np.inf, 2.0, np.inf, np.nan])
    counts = stability._FirstPassage(0, 1, lambda u, v_, x_: (v.copy(), x.copy()),
                                     stability._inside(1e-150), 1e150).run(x.size)
    assert counts == (2, 4)


def _floats_around(values, k=3):
    """Each of ``values`` and the ``k`` floats on either side of it."""
    out = []
    for value in values:
        below = above = value
        out.append(value)
        for _ in range(k):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            out += [below, above]
    return out


def _rank(y):
    """The rank of the float ``y`` among the floats in order (+-0 share 0)."""
    bits = int(np.float64(y).view(np.int64))
    return bits if bits >= 0 else -(bits & (2**63 - 1))


def _of_rank(k):
    return float(np.int64(k if k >= 0 else -k - 2**63).view(np.float64))


def _rule_ends(lo, hi, thr):
    """The least and greatest float where the max-distance rule holds, by
    bisection over the floats' ranks from the segment ends to the
    infinities."""
    def holds(x):
        x = np.float64(x)
        with np.errstate(over="ignore"):
            return bool(np.maximum(np.maximum(lo - x, x - hi), 0.0) <= thr)

    ends = []
    for inside, outside in ((lo, -math.inf), (hi, math.inf)):
        a, b = _rank(inside), _rank(outside)
        while abs(b - a) > 1:
            mid = (a + b) // 2
            a, b = (mid, b) if holds(_of_rank(mid)) else (a, mid)
        ends.append(_of_rank(a))
    return ends


# (kappa, p, g, r_in): segments with p above and below g whose threshold
# r_in * width is a normal float, a subnormal one and 0; segments whose
# threshold equals or nearly equals the distance of one end from 0, so that
# seg_lo - thr (or seg_hi + thr) cancels to 0 or to a float far finer than
# the steps of the max-distance rule near it; and a segment whose low bound
# overflows
_SEGMENTS = {
    "normal_p_above_g": (0.1, 0.1, 0.0, 1e-6),
    "normal_p_below_g": (0.5, -0.3, 0.7, 1e-6),
    "normal_far_from_zero": (3.0, 1e5, 1e5 + 1e-3, 0.25),
    "subnormal_p_above_g": (1.0, 1e-303, 0.0, 1e-6),
    "subnormal_p_below_g": (1.0, -2e-310, 1e-312, 1e-3),
    "zero_p_above_g": (1.0, 5e-324, 0.0, 1e-6),
    "zero_p_below_g": (1.0, -1e-320, 0.0, 1e-20),
    "cancel_low_end": (1.0, 1.0, 9.999990000009998e-07, 1e-6),
    "cancel_high_end": (1.0, -1.0, -9.999990000009998e-07, 1e-6),
    "near_cancel_low_end": (1.0, 1.0, 1e-6, 1e-6),
    "near_cancel_high_end": (1.0, -1.0, -1e-6, 1e-6),
    "bound_overflows": (1.0, -1.7976931348623157e308, 0.0, 1e-6),
}


@pytest.mark.parametrize("segment", list(_SEGMENTS))
def test_neutral_segment_rule_is_two_rounded_bounds(segment):
    # the neutral experiment's segment test is x >= fl(lo - thr) and
    # x <= fl(hi + thr), on the floats around both segment ends, both
    # bounds and both ends of the max-distance rule; it leaves that rule
    # only within a rounding of a bound, as the ulp of the largest operand
    kappa, p, g, r_in = _SEGMENTS[segment]
    lo, hi = sorted((kappa * p, kappa * g))
    thr = r_in * (hi - lo)
    assert (thr == 0.0) == segment.startswith("zero")
    assert (0.0 < thr < 2.0**-1022) == segment.startswith("subnormal")
    if segment.startswith("cancel"):
        assert (lo - thr if segment.endswith("low_end") else hi + thr) == 0.0
    assert (lo - thr == -math.inf) == (segment == "bound_overflows")
    x = np.array(_floats_around([lo, hi, lo - thr, hi + thr, *_rule_ends(lo, hi, thr)])
                 + [0.0, -0.0, np.inf, -np.inf, np.nan])
    _, converged = stability._neutral_segment(ScalingConfig(kappa, p, g), r_in)
    # the rule may use u's rows 0 and 1 as scratch, whatever they hold
    u, out = np.full((3, x.size), np.nan), np.empty(x.size, dtype=bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        converged(u, x, out)
    x_lo, x_hi = _rounded_bounds(lo, hi, thr)
    np.testing.assert_array_equal(out, (x >= x_lo) & (x <= x_hi))
    assert not out[np.isinf(x) | np.isnan(x)].any()
    with np.errstate(over="ignore", invalid="ignore"):
        max_distance = np.maximum(np.maximum(lo - x, x - hi), 0.0) <= thr
    differ = x[out != max_distance]
    gap = np.minimum(np.abs(differ - x_lo), np.abs(differ - x_hi))
    assert np.all(gap <= math.ulp(max(abs(lo), abs(hi), thr)))
    # not vacuous: the lanes hold the first float inside each bound and the
    # float past it, so a bound one ulp off fails
    inside = x[out]
    assert np.any(x == math.nextafter(inside.min(), -math.inf))
    assert np.any(x == math.nextafter(inside.max(), math.inf))


# the early stop of bisection probes: a sign it gives must be the sign of
# every way the open lanes can end


def _reference_sign(n, e, c):
    """The reply of a probe of ``n`` trials that ends with ``e`` lanes
    escaped and ``c`` converged, in exact rationals: the sign of the
    fraction difference ``diff`` when ``diff**2 > 9*var``, with ``var`` the
    variance of the mean of ``n`` trials that score +1 escaped, -1
    converged and 0 undecided, and 0 otherwise."""
    # numpy int64 counts would overflow in the products; Python ints do not
    e, c = int(e), int(c)
    diff = Fraction(e - c, n)
    var = (Fraction(e + c, n) - diff * diff) / n
    if diff * diff > 9 * var:
        return 1 if diff > 0 else -1
    return 0


def test_early_sign_agrees_with_every_end_up_to_30_trials():
    early = collections.Counter()
    for n in range(1, 31):
        # signs[e, c] for e + c <= n; entries past that are never read
        signs = np.zeros((n + 1, n + 1), dtype=int)
        for e in range(n + 1):
            for c in range(n + 1 - e):
                signs[e, c] = _reference_sign(n, e, c)
        for live in range(n + 1):
            # the ends (pos + i, neg + j) with i + j <= live
            ends = np.add.outer(np.arange(live + 1), np.arange(live + 1)) <= live
            for pos in range(n + 1 - live):
                for neg in range(n + 1 - live - pos):
                    sign = stability._early_sign(n, pos, neg, live)
                    if sign is not None:
                        block = signs[pos:pos + live + 1, neg:neg + live + 1]
                        assert np.all(block[ends] == sign), (n, pos, neg, live)
                        early[sign] += live > 0
    # not vacuous: every reply is given early somewhere
    assert min(early[-1], early[0], early[1]) > 0


def test_early_sign_replies_at_every_end_up_to_200_trials():
    for n in range(1, 201):
        e, c = (a.ravel() for a in np.indices((n + 1, n + 1)))
        e, c = e[e + c <= n], c[e + c <= n]
        # _reference_sign's test diff**2 > 9*var with both sides times n**3,
        # d*d*n > 9*(s*n - d*d), in int64 for every end at once: Fractions
        # at every end would take over 10 s
        d, s = e - c, e + c
        expected = np.where(d * d * n > 9 * (s * n - d * d), np.sign(d), 0)
        replies = [stability._early_sign(n, a, b, 0) for a, b in zip(e.tolist(), c.tolist())]
        assert replies == expected.tolist(), n
    # ends on the threshold, d*d*(n + 9) == 9*n*s, are not significant
    for n, e, c in ((9, 7, 1), (54, 30, 12), (72, 15, 3)):
        assert (e - c) ** 2 * (n + 9) == 9 * n * (e + c)
        for a, b in ((e, c), (c, e)):
            assert stability._early_sign(n, a, b, 0) == _reference_sign(n, a, b) == 0


def test_early_sign_agrees_with_sampled_ends_at_80000_trials():
    n = 80_000
    rng = np.random.default_rng(0)
    early = collections.Counter()
    for _ in range(3000):
        # an end (e, c) near the 3-sigma threshold d*d*(n + 9) = 9*n*s ...
        s = int(rng.integers(1, n + 1))
        d = round(math.sqrt(9 * n * s / (n + 9))) + int(rng.integers(-3, 4))
        d = min(max(d, 0), s) * int(rng.choice([-1, 1]))
        e = (s + d) // 2
        c = s - e
        # ... reached from a state with up to a few thousand open lanes
        i, j, k = (int(m) for m in rng.integers(0, 2 ** rng.integers(0, 12, 3)))
        pos, neg = max(e - i, 0), max(c - j, 0)
        live = min(e - pos + c - neg + k, n - pos - neg)
        sign = stability._early_sign(n, pos, neg, live)
        if sign is None:
            continue
        early[sign] += 1
        corners = [(0, 0), (live, 0), (0, live)]
        sampled = [(a, int(rng.integers(0, live - a + 1)))
                   for a in rng.integers(0, live + 1, 20)]
        for a, b in corners + sampled:
            assert _reference_sign(n, pos + a, neg + b) == sign, (pos, neg, live, a, b)
    assert min(early[-1], early[0], early[1]) > 0


# ---------------------------------------------------------------- critical curve


def test_split_alpha_modes():
    assert split_alpha(3.0, RATIO_EQUAL) == (1.5, 1.5)
    assert split_alpha(3.0, RATIO_SOCIAL_ONLY) == (0.0, 3.0)
    with pytest.raises(ValueError):
        split_alpha(3.0, "golden")
    with pytest.raises(ValueError):
        split_alpha(-1.0, RATIO_EQUAL)


def test_critical_alpha_is_small_near_omega_one():
    point = critical_alpha(0.95, ratio=RATIO_EQUAL, tolerance=0.05, seed=18,
                           steps=8000, trials=12)
    assert point.status == STATUS_OK
    assert 0.2 < point.alpha < 3.0


def test_critical_alpha_no_crossing_beyond_unit_inertia():
    point = critical_alpha(1.05, ratio=RATIO_EQUAL, tolerance=0.05, seed=19,
                           steps=4000, trials=12)
    assert point.status == STATUS_NO_CROSSING
    assert math.isnan(point.alpha)


def test_critical_alpha_probe_of_zero_without_error_decides_nothing(search_constants):
    # one step neither converges nor escapes any trial, so every probe reads
    # (0, 0): no endpoint shows a sign
    search_constants(escape_max_steps=1, escape_trials=200)
    point = critical_alpha(0.5, method="escape", seed=1)
    assert point.status == STATUS_UNRESOLVED
    assert math.isnan(point.alpha)


def test_critical_alpha_methods_agree():
    by_lambda = critical_alpha(0.4, ratio=RATIO_EQUAL, tolerance=0.02, seed=20,
                               steps=10_000, trials=16)
    by_escape = critical_alpha(0.4, ratio=RATIO_EQUAL, tolerance=0.02, seed=21,
                               method="escape")
    assert by_lambda.status == by_escape.status == STATUS_OK
    assert abs(by_lambda.alpha - by_escape.alpha) <= 0.1


def test_critical_alpha_validates_inputs(search_constants):
    # every check runs before the first probe, so the default budgets run nothing
    for method in ("lyapunov", "escape"):
        with pytest.raises(ValueError, match="tolerance"):
            critical_alpha(0.5, tolerance=0.0005, seed=1, method=method)
        with pytest.raises(ValueError, match="tolerance"):
            critical_alpha(0.5, tolerance=math.nan, seed=1, method=method)
    with pytest.raises(ValueError):
        critical_alpha(0.5, method="newton", seed=1)
    with pytest.raises(ValueError, match="steps"):
        critical_alpha(0.5, seed=1, steps=0)
    for omega in (math.nan, math.inf, -math.inf, 1.2):
        for method in ("lyapunov", "escape"):
            with pytest.raises(ValueError, match="omega"):
                critical_alpha(omega, seed=1, method=method)
    # the floor, a bracket of 0.00125 at the finest, is accepted
    search_constants(burn_in=10, max_level=0, escape_trials=20, escape_max_steps=20)
    for method in ("lyapunov", "escape"):
        critical_alpha(0.5, tolerance=0.000625, seed=1, method=method, steps=20, trials=2)


def test_neutral_alpha_validates_inputs():
    config = ScalingConfig(kappa=1.0, iterations=10, repetitions=10)
    with pytest.raises(ValueError):
        neutral_alpha(0.5, config, tolerance=0.0005, seed=1)
    neutral_alpha(0.5, config, tolerance=0.000625, seed=1)
    for omega in (math.nan, math.inf, -math.inf, -1.2):
        with pytest.raises(ValueError, match="omega"):
            neutral_alpha(omega, config, seed=1)


@pytest.mark.parametrize("estimator", [lyapunov_exponent, lyapunov_pair])
def test_lyapunov_rejects_negative_burn_in(estimator):
    with pytest.raises(ValueError):
        estimator(0.5, 0.5, 0.5, steps=100, trials=2, burn_in=-1, seed=1)


# each estimator at a tiny budget, as a function of its point
_UNIFORM = AngularHistogram(mass=np.full(64, 1.0 / 64), samples=64)
_AT_POINT = {
    "lyapunov_exponent": lambda w, a1, a2: lyapunov_exponent(w, a1, a2, 10, 2, 0, seed=1),
    "lyapunov_pair": lambda w, a1, a2: lyapunov_pair(w, a1, a2, 10, 2, 0, seed=1),
    "stationary_distribution": lambda w, a1, a2: stationary_distribution(
        w, a1, a2, bins=64, samples=4, burn_in=0, n_chains=2, seed=1),
    "pushforward": lambda w, a1, a2: pushforward(_UNIFORM, w, a1, a2, draws=2, seed=1),
    "escape_probability": lambda w, a1, a2: escape_probability(
        w, a1, a2, max_steps=10, trials=10, seed=1),
    "finite_time_lyapunov": lambda w, a1, a2: finite_time_lyapunov(
        w, a1, a2, steps=10, repetitions=10, seed=1),
    "finite_time_lyapunov_affine": lambda w, a1, a2: finite_time_lyapunov(
        w, a1, a2, p=0.1, steps=10, repetitions=10, seed=1),
}
# the same as a function of the two weights, at omega = 0.5, and the pair
# at omega = 0 too
_WEIGHTED = {name: functools.partial(f, 0.5) for name, f in _AT_POINT.items()}
_WEIGHTED["lyapunov_pair_omega_zero"] = functools.partial(_AT_POINT["lyapunov_pair"], 0.0)


@pytest.mark.parametrize("weights", [(-1.0, -1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf),
                                     (-math.inf, 1.0)],
                         ids=["negative", "one_negative", "nan", "inf", "minus_inf"])
@pytest.mark.parametrize("estimator", list(_WEIGHTED))
def test_estimators_reject_bad_weights(estimator, weights):
    with pytest.raises(ValueError, match="alpha1 and alpha2 must be"):
        _WEIGHTED[estimator](*weights)


@pytest.mark.parametrize("estimator", list(_WEIGHTED))
def test_estimators_accept_zero_weights(estimator):
    # the CLI's smallest weight, 5e-324 split equally, rounds to (0, 0)
    _WEIGHTED[estimator](0.0, 0.0)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("estimator", list(_AT_POINT))
def test_estimators_reject_non_finite_omega(estimator, omega):
    # one point check serves every estimator: without it a non-finite omega
    # fails as a numeric error or returns a result
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="omega must be finite"):
            _AT_POINT[estimator](omega, 1.0, 1.0)


def test_critical_curve_markers_and_interpolation():
    curve = critical_curve([0.6, 0.7], ratio=RATIO_SOCIAL_ONLY, tolerance=0.05,
                           seed=22, steps=6000, trials=12)
    assert [p.omega for p in curve.points] == [0.6, 0.7]
    assert all(p.status == STATUS_OK for p in curve.points)
    mid = curve.interpolate(0.65)
    lo = min(p.alpha for p in curve.points)
    hi = max(p.alpha for p in curve.points)
    assert lo <= mid <= hi
    assert math.isnan(curve.interpolate(0.9))
    # a curve with no resolved point interpolates to NaN everywhere
    unresolved = CriticalCurve(points=(CriticalPoint(0.6, math.nan, math.nan, STATUS_NO_CROSSING),),
                               ratio=RATIO_SOCIAL_ONLY, method="LYAPUNOV_BISECTION")
    assert math.isnan(unresolved.interpolate(0.6))
    # inside the contour the exponent is negative
    for p in curve.points:
        a1, a2 = split_alpha(p.alpha / 2, RATIO_SOCIAL_ONLY)
        inside = lyapunov_exponent(p.omega, a1, a2, steps=10_000, trials=8,
                                   burn_in=500, seed=23)
        assert inside.value < 0


@pytest.mark.parametrize("solve", [
    critical_curve,
    lambda grid, seed: neutral_stability_curve(ScalingConfig(kappa=1.0), grid, seed=seed),
], ids=["critical_curve", "neutral_stability_curve"])
def test_critical_curve_validates_grid(solve):
    with pytest.raises(ValueError):
        solve([], seed=1)
    with pytest.raises(ValueError):
        solve([0.5, 0.4], seed=1)
    with pytest.raises(ValueError):
        solve([0.0, 1.3], seed=1)
    with pytest.raises(ValueError):
        solve([math.nan], seed=1)
    with pytest.raises(ValueError):
        solve([0.0, math.inf], seed=1)
    with pytest.raises(ValueError):
        solve([-math.inf, 0.0], seed=1)


def test_critical_curve_rejects_falling_omegas():
    points = (CriticalPoint(0.5, 4.5, 0.03), CriticalPoint(0.4, 4.6, 0.03))
    with pytest.raises(ValueError, match="strictly increasing"):
        CriticalCurve(points=points, ratio=RATIO_EQUAL, method="LYAPUNOV_BISECTION")


# a NaN omega passes the increasing-omega check, whose comparisons it fails
@pytest.mark.parametrize("row", ["nan,9.0,0.01,OK", "inf,9.0,0.01,OK", "0.0,inf,0.01,OK",
                                 "0.0,nan,0.01,OK", "0.0,9.0,nan,OK", "0.0,9.0,-inf,OK"])
def test_curve_rejects_a_non_finite_omega_or_ok_value(row, tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text(f"omega,alpha_critical,std_error,status\n-0.5,4.0,0.01,OK\n{row}\n"
                    "0.5,4.5,0.01,OK\n")
    with pytest.raises(ValueError, match="finite"):
        CriticalCurve.from_csv(path)
    point = CriticalPoint(*map(float, row.split(",")[:3]))
    with pytest.raises(ValueError, match="finite"):
        CriticalCurve((point,), ratio=RATIO_EQUAL, method="LYAPUNOV_BISECTION")


def test_curve_csv_with_wrong_header_rejected(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("omega,alpha,std_error,status\n0.5,4.5,0.03,OK\n")
    with pytest.raises(ValueError, match="unexpected curve header"):
        CriticalCurve.from_csv(path)


# grid, seed, budgets, search constants (``search_constants``); the
# Lyapunov curve solves its points in lockstep
_LOCKSTEP_CASES = {
    "equal": ([-0.5, 0.0, 0.4, 0.7], 2, dict(tolerance=0.05, steps=500, trials=8),
              dict(burn_in=100)),
    "social_only": ([0.0, 0.6], 5, dict(ratio=RATIO_SOCIAL_ONLY, tolerance=0.05, steps=600,
                                        trials=6), dict(burn_in=300)),
    "two_trials": ([-0.5, 0.3, 0.9, 1.05], 5, dict(tolerance=0.05, steps=600, trials=2),
                   dict(burn_in=300)),
    # odd steps and a burn-in off the chunk grid: points at different levels
    # run chunks of different lengths in one round
    "chunk_offsets": ([-0.4, 0.2, 0.8], 7, dict(tolerance=0.05, steps=333, trials=3),
                      dict(burn_in=77)),
    # |omega| >= 1 finds no crossing by theory; at omega = 0.999 the
    # mean-square boundary lies below the bracket, so the low end runs its
    # probe, which stays unresolved
    "mixed_statuses": ([-1.0, -0.2, 0.99, 0.999, 1.0, 1.05], 3,
                       dict(tolerance=0.05, steps=300, trials=6), dict(burn_in=50, max_level=1)),
    "seed_sequence": ([-0.3, 0.5], np.random.SeedSequence, dict(tolerance=0.05, steps=400,
                                                               trials=4), dict(burn_in=20)),
    # 12 points of 24 lanes: 288 lanes, so the lane cap shortens the blocks
    "lane_cap": (list(np.round(np.arange(-1.1, 1.1 + 1e-9, 0.2), 10)), 9,
                 dict(tolerance=0.05, steps=300, trials=24), dict(burn_in=100)),
}


def _make_seed(seed):
    # a SeedSequence counts its spawned children, so each run needs a new one
    return seed(11) if callable(seed) else seed


def _children(grid, seed):
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.spawn(len(grid))


def _one_at_a_time(search, probe, log=None):
    """Run a ``_bisection``, answering each request with the sign
    ``probe(*request)`` before the next is asked; returns its point.  Each
    request is appended to the list ``log``, if given."""
    reply = None
    try:
        while True:
            request = search.send(reply)
            if log is not None:
                log.append(request)
            reply = probe(*request)
    except StopIteration as stop:
        return stop.value


@pytest.mark.parametrize("bracket", [(0.05, 8.0), (1.0, 8.0), (0.25, 7.3), (4.61, 4.64)])
@pytest.mark.parametrize("tolerance", [0.000625, 0.013, 0.02, 0.05])
def test_bisection_stops_at_twice_the_tolerance(bracket, tolerance):
    # every probe significant, with the signs of a root at 4.63: the search
    # halves the bracket until it is at most 2 * tolerance wide, then asks
    # nothing more (a bracket that starts that narrow asks no midpoint)
    root, lo, hi = 4.63, *bracket
    log = []
    search = stability._bisection(1, RATIO_EQUAL, lo, hi, tolerance, 0.3, stability._MAX_LEVEL)
    point = _one_at_a_time(search, lambda a1, a2, level, seed: -1 if a1 + a2 < root else 1, log)
    midpoints = max(0, math.ceil(math.log2((hi - lo) / (2.0 * tolerance))))
    assert len(log) == 2 + midpoints
    assert {level for _, _, level, _ in log} == {0}
    assert point.status == STATUS_OK
    assert point.std_error == pytest.approx((hi - lo) / 2 ** (midpoints + 1))
    assert point.std_error <= tolerance
    assert abs(point.alpha - root) <= point.std_error


def _serial_curve(grid, seed, log=None, **budgets):
    """The reference curve: each point's bisection answered one probe at a
    time by ``lyapunov_exponent``, independent of the lane-block solver; a
    level-L request is a fresh call of ``steps * 2**L`` steps with the
    request's seed.  A request whose sign theory fixes
    (``stability._known_sign``) is answered with that sign and runs no
    orbit.  The search constants are read from ``stability``.  The requests
    that run an orbit go to ``log``, if given."""
    b = {name: p.default for name, p in inspect.signature(critical_alpha).parameters.items()}
    b.update(budgets)

    def solve(w, child):
        def probe(a1, a2, level, probe_seed):
            # a sign that theory fixes runs no orbit; its weight still took its child
            sign = stability._known_sign(w, a1, a2)
            if sign is not None:
                return sign
            if log is not None:
                log.append((a1, a2, level, probe_seed))
            est = lyapunov_exponent(w, a1, a2, b["steps"] * 2**level, b["trials"],
                                    stability._BURN_IN, probe_seed)
            return stability._sign(est.value, est.std_error)

        search = stability._bisection(child, b["ratio"], *stability._BRACKET, b["tolerance"], w,
                                      stability._MAX_LEVEL)
        return _one_at_a_time(search, probe)

    return tuple(solve(w, child) for w, child in zip(grid, _children(grid, seed)))


def _per_point(grid, seed, **budgets):
    return tuple(critical_alpha(w, seed=child, **budgets)
                 for w, child in zip(grid, _children(grid, seed)))


@pytest.mark.parametrize("case", list(_LOCKSTEP_CASES))
def test_lockstep_curve_equals_per_point_critical_alpha(case, search_constants):
    grid, seed, budgets, constants = _LOCKSTEP_CASES[case]
    search_constants(**constants)
    reference = _serial_curve(grid, _make_seed(seed), **budgets)
    curve = critical_curve(grid, seed=_make_seed(seed), **budgets)
    assert curve.points == reference
    assert _per_point(grid, _make_seed(seed), **budgets) == reference
    if case == "mixed_statuses":
        assert {p.status for p in curve.points} == {STATUS_OK, STATUS_NO_CROSSING,
                                                    STATUS_UNRESOLVED}


@pytest.mark.parametrize("case", list(_LOCKSTEP_CASES))
def test_lockstep_reference_ladders_reach_the_top_level(case, search_constants):
    # the curves above continue probes to every level, not only level 0
    grid, seed, budgets, constants = _LOCKSTEP_CASES[case]
    search_constants(**constants)
    log = []
    _serial_curve(grid, _make_seed(seed), log=log, **budgets)
    levels = {level for _, _, level, _ in log}
    top = stability._MAX_LEVEL
    assert top >= 1
    assert top in levels


def test_lockstep_pads_probes_at_different_chunk_offsets(monkeypatch, search_constants):
    grid, seed, budgets, constants = _LOCKSTEP_CASES["chunk_offsets"]
    search_constants(**constants)
    reference = _serial_curve(grid, seed, **budgets)
    lengths = []
    chunk = stability._chunk

    def record(omega, ar, steps):
        lengths.append(set(steps.tolist()))
        return chunk(omega, ar, steps)

    monkeypatch.setattr(stability, "_chunk", record)
    assert critical_curve(grid, seed=seed, **budgets).points == reference
    assert any(len(chunks) > 1 for chunks in lengths)


@pytest.mark.parametrize("steps, burn_in", [(333, 77), (5, 300), (1000, 256), (37, 0),
                                            (512, 40), (1000, 0), (999, 13)])
def test_a_ladder_probe_equals_the_longer_exponent_call(steps, burn_in):
    # a level-L probe continues the orbit below it and is cut where the
    # lyapunov_exponent call of steps * 2**L steps is, so it has its bits;
    # the steps' odd parts run from 1 (512) to the steps themselves (999).
    # The weight lies above the mean-square boundary, where theory fixes
    # no sign, so every level runs its orbit
    trials = 5
    assert stability._known_sign(0.3, 2.4, 2.9) is None
    start, advance = stability._lyapunov_kind(steps, trials, burn_in)
    child = np.random.SeedSequence(4)
    probe = None
    for level in range(4):
        probe, reply = start(0.3, 2.4, 2.9, level, child, probe)
        assert reply is None
        while reply is None:
            (_, reply), = advance({0: probe})
        estimate = stability._estimate(probe.acc, steps * 2**level, burn_in)
        assert estimate == lyapunov_exponent(0.3, 2.4, 2.9, steps * 2**level, trials, burn_in,
                                             child)


def test_lyapunov_bisection_rejects_one_trial(search_constants):
    # one trial has no spread: its std_error of 0 would make every nonzero
    # estimate significant, and the bisection would resolve one noisy orbit
    with pytest.raises(ValueError, match="trials >= 2"):
        critical_alpha(0.0, trials=1, steps=600, tolerance=0.05, seed=0)
    with pytest.raises(ValueError, match="trials >= 2"):
        critical_curve([-0.5, 0.5], trials=1, steps=600, seed=0)
    single = lyapunov_exponent(0.0, 0.5, 0.5, steps=600, trials=1, burn_in=300, seed=0)
    assert single.trials == 1 and single.std_error == 0.0
    # the escape probe has no use for the Lyapunov budget, but a curve
    # records it, so it is checked for both methods
    search_constants(escape_trials=50, escape_max_steps=50)
    with pytest.raises(ValueError, match="trials >= 2"):
        critical_alpha(0.5, method="escape", trials=1, seed=1)
    with pytest.raises(ValueError, match="steps must be >= 1"):
        critical_curve([0.5], method="escape", steps=0, seed=1)
    point = critical_alpha(0.5, method="escape", trials=2, seed=1)
    assert isinstance(point, CriticalPoint)


def _assert_same_overflow(monkeypatch, draw, grid, seed, **budgets):
    monkeypatch.setattr(stability, "_draw_weights", draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError) as serial:
            _serial_curve(grid, seed, **budgets)
        with pytest.raises(NumericOverflowError) as lockstep:
            critical_curve(grid, seed=seed, **budgets)
        with pytest.raises(NumericOverflowError) as per_point:
            _per_point(grid, seed, **budgets)
    for raised in (lockstep.value, per_point.value):
        assert str(raised) == str(serial.value)
        assert raised.step == serial.value.step
    return serial.value.step


def test_lockstep_curve_raises_the_serial_overflow(monkeypatch, search_constants,
                                                   monte_carlo_at_omega_zero):
    def unit_weights(rng, a1, a2, shape):
        # every weight (a1 + a2) * r is one: at omega = 0 the matrix maps x to
        # 0 in one step and the phase to zero in the next
        return np.full(shape, (a1 + a2) * (1.0 / (a1 + a2)))

    search_constants(burn_in=50)
    step = _assert_same_overflow(monkeypatch, unit_weights, [-0.5, 0.0, 0.5], 6,
                                 tolerance=0.05, steps=300, trials=4)
    assert step == 1


def test_lockstep_curve_raises_the_failure_of_the_lowest_omega(monkeypatch, search_constants):
    draw = stability._draw_weights

    def nan_above(rng, a1, a2, shape):
        # only the alpha = 8 bracket end draws weights above 7.95
        ar = draw(rng, a1, a2, shape)
        return np.where(ar > 7.95, np.nan, ar)

    # at seed 5 the lowest omega fails at step 662, in a later block than the
    # failures of omega = 0 (step 352) and 0.6 (step 267)
    search_constants(burn_in=100)
    step = _assert_same_overflow(monkeypatch, nan_above, [-0.6, -0.3, 0.0, 0.3, 0.6], 5,
                                 tolerance=0.05, steps=1000, trials=12)
    assert step == 662


# escape and neutral points: the curve and the per-point calls against each
# bisection answered one probe at a time by a per-step reference passage


def _reference_points(point, probe, grid, seed, bracket, max_level, log=None, passages=None,
                      **arguments):
    """Point ``i`` of ``grid``: its bisection on ``bracket`` up to
    ``max_level``, seeded by the ``i``-th child of ``seed``, answered one
    probe at a time.  ``b`` holds the arguments of the point function
    ``point``, defaults filled in; at level 0 ``probe(b, w, a1, a2, seed)``
    opens a weight's :class:`_ReferencePassage` and gives its level-0
    lanes, and a level-L request runs that passage on to ``lanes * 2**L``
    lanes.  The requests go to ``log`` and the passages to ``passages``, if
    given."""
    b = {name: p.default for name, p in inspect.signature(point).parameters.items()}
    b.update(arguments)

    def solve(w, child):
        ladder = []

        def answer(a1, a2, level, probe_seed):
            if not level:
                ladder[:] = probe(b, w, a1, a2, probe_seed)
                if passages is not None:
                    passages.append(ladder[0])
            passage, lanes = ladder
            n = lanes * 2**level
            n_conv, n_pos = passage.run(n)
            return _reference_sign(n, n_pos, n_conv)

        search = stability._bisection(child, b["ratio"], *bracket, b["tolerance"], w, max_level)
        return _one_at_a_time(search, answer, log)

    return tuple(solve(w, child) for w, child in zip(grid, _children(grid, seed)))


def _escape_probe(b, w, a1, a2, seed):
    rules = _escape_reference_rules(w, a1, a2, stability._R_IN)
    passage = _ReferencePassage(seed, stability._ESCAPE_MAX_STEPS, *rules, stability._R_OUT, True)
    return passage, stability._ESCAPE_TRIALS


def _neutral_probe(b, w, a1, a2, seed):
    config = b["config"]
    rules = _neutral_reference_rules(w, a1, a2, config, stability._R_IN)
    passage = _ReferencePassage(seed, config.iterations, *rules, stability._R_OUT, True)
    return passage, config.repetitions


# grid, seed, arguments, escape trials
_ESCAPE_CASES = {
    # OK at -0.5 and 0.5, UNRESOLVED at 1, NO_CROSSING at 1.05
    "mixed_statuses": ([-0.5, 0.5, 1.0, 1.05], 3, {}, 200),
    "social_only": ([-0.5, 0.5, 1.1], 5, dict(ratio=RATIO_SOCIAL_ONLY), 100),
    "seed_sequence": ([0.0, 0.7], np.random.SeedSequence, {}, 100),
}


def _escape_case(case, search_constants):
    """Case ``case`` of ``_ESCAPE_CASES``: its grid, seed and arguments, with
    the search constants set to the case's small budget."""
    grid, seed, arguments, trials = _ESCAPE_CASES[case]
    search_constants(bracket=(1.0, 8.0), escape_max_steps=400, escape_trials=trials)
    return grid, seed, dict(method="escape", tolerance=0.05, **arguments)


@pytest.mark.parametrize("case", list(_ESCAPE_CASES))
def test_escape_points_equal_one_probe_at_a_time(case, search_constants):
    grid, seed, budgets = _escape_case(case, search_constants)
    log = []
    reference = _reference_points(critical_alpha, _escape_probe, grid, _make_seed(seed),
                                  stability._BRACKET, stability._ESCAPE_MAX_LEVEL, log=log,
                                  **budgets)
    assert critical_curve(grid, seed=_make_seed(seed), **budgets).points == reference
    assert _per_point(grid, _make_seed(seed), **budgets) == reference
    # the ladder climbs to the top level, so probes are continued
    assert stability._ESCAPE_MAX_LEVEL == 5
    assert 5 in {level for _, _, level, _ in log}
    if case == "mixed_statuses":
        assert [p.status for p in reference] == [STATUS_OK, STATUS_OK, STATUS_UNRESOLVED,
                                                 STATUS_NO_CROSSING]


_NEUTRAL_GRID = [-0.5, 0.0, 0.5, 1.0]
_NEUTRAL_CASES = {
    "kappa_1_seed_sequence": (ScalingConfig(1.0, iterations=50, repetitions=200),
                              np.random.SeedSequence, {}),
    "kappa_0.1": (ScalingConfig(0.1, iterations=50, repetitions=200), 3, {}),
    "social_only": (ScalingConfig(0.5, iterations=50, repetitions=200), 4,
                    dict(ratio=RATIO_SOCIAL_ONLY)),
    # convergence is the phase norm reaching r_in; the ends are UNRESOLVED
    "coincident_bests": (ScalingConfig(1.0, 0.0, 0.0, iterations=100, repetitions=200), 3, {}),
}


@pytest.mark.parametrize("case", list(_NEUTRAL_CASES))
def test_neutral_points_equal_one_probe_at_a_time(case):
    config, seed, arguments = _NEUTRAL_CASES[case]
    arguments = dict(tolerance=0.05, **arguments)
    log = []
    reference = _reference_points(neutral_alpha, _neutral_probe, _NEUTRAL_GRID,
                                  _make_seed(seed), stability._NEUTRAL_BRACKET,
                                  stability._NEUTRAL_MAX_LEVEL, log=log, config=config,
                                  **arguments)
    # the ladder climbs to the top level, so probes are continued
    assert stability._NEUTRAL_MAX_LEVEL == 2
    assert 2 in {level for _, _, level, _ in log}
    curve = neutral_stability_curve(config, _NEUTRAL_GRID, seed=_make_seed(seed), **arguments)
    assert curve.points == reference
    children = _children(_NEUTRAL_GRID, _make_seed(seed))
    assert tuple(neutral_alpha(w, config, seed=child, **arguments)
                 for w, child in zip(_NEUTRAL_GRID, children)) == reference
    if case == "coincident_bests":
        assert {p.status for p in reference} == {STATUS_OK, STATUS_UNRESOLVED}


def _counted(monkeypatch, name):
    """Patch ``stability.<name>`` with a wrapper that counts its calls."""
    calls = collections.Counter()
    inner = getattr(stability, name)

    def counted(*args):
        calls[name] += 1
        return inner(*args)

    monkeypatch.setattr(stability, name, counted)
    return calls


def test_escape_curve_stops_probes_early(monkeypatch, search_constants):
    grid = [0.0, 0.5]
    search_constants(bracket=(1.0, 8.0), escape_max_steps=400, escape_trials=200)
    budgets = dict(method="escape", tolerance=0.05)
    passages = []
    reference = _reference_points(critical_alpha, _escape_probe, grid, 3, stability._BRACKET,
                                  stability._ESCAPE_MAX_LEVEL, passages=passages, **budgets)
    steps = _counted(monkeypatch, "_step")
    assert critical_curve(grid, seed=3, **budgets).points == reference
    assert steps["_step"] == sum(p.steps for p in passages)
    assert sum(p.early_stops for p in passages) > 0


def test_neutral_curve_stops_probes_early(monkeypatch):
    config = ScalingConfig(1.0, iterations=50, repetitions=200)
    passages = []
    reference = _reference_points(neutral_alpha, _neutral_probe, _NEUTRAL_GRID, 3,
                                  stability._NEUTRAL_BRACKET, stability._NEUTRAL_MAX_LEVEL,
                                  passages=passages, config=config, tolerance=0.05)
    steps = _counted(monkeypatch, "_affine")
    curve = neutral_stability_curve(config, _NEUTRAL_GRID, seed=3, tolerance=0.05)
    assert curve.points == reference
    assert steps["_affine"] == sum(p.steps for p in passages)
    assert sum(p.early_stops for p in passages) > 0


def test_neutral_curve_finds_the_segment_bounds_once(monkeypatch):
    # the bounds depend on the configuration alone: one call serves every
    # probe of every point
    calls = _counted(monkeypatch, "_neutral_segment")
    config = ScalingConfig(1.0, iterations=30, repetitions=100)
    neutral_stability_curve(config, [0.0, 0.3, 0.6], seed=5, tolerance=0.1)
    assert calls["_neutral_segment"] == 1


def _ladder_tops(log):
    """The top level of each ladder of requests in ``log``."""
    tops = []
    for _, _, level, _ in log:
        tops += [0] if level == 0 else []
        tops[-1] = level
    return tops


def test_a_lyapunov_ladder_draws_each_step_once(monkeypatch, search_constants):
    # a ladder that reaches level L draws burn_in + steps * 2**L steps of
    # weights per trial, not a fresh burn-in and orbit at every level
    grid, seed, budgets, constants = _LOCKSTEP_CASES["equal"]
    search_constants(**constants)
    log = []
    reference = _serial_curve(grid, seed, log=log, **budgets)
    drawn = []
    draw = stability._draw_weights
    monkeypatch.setattr(stability, "_draw_weights",
                        lambda rng, a1, a2, shape: drawn.append(math.prod(shape))
                        or draw(rng, a1, a2, shape))
    assert critical_curve(grid, seed=seed, **budgets).points == reference
    tops = _ladder_tops(log)
    assert max(tops) >= 2
    steps, trials, burn_in = budgets["steps"], budgets["trials"], constants["burn_in"]
    assert sum(drawn) == sum(trials * (burn_in + steps * 2**top) for top in tops)


@pytest.mark.parametrize("kind", ["escape", "neutral"])
def test_a_ladder_starts_each_lane_once(monkeypatch, search_constants, kind):
    # a ladder that reaches level L starts trials * 2**L lanes, not the
    # trials * (2**(L + 1) - 1) of a fresh probe at every level
    started = []
    start = stability._start
    monkeypatch.setattr(stability, "_start", lambda rng, n: started.append(n) or start(rng, n))
    log = []
    if kind == "escape":
        grid, seed, budgets = _escape_case("mixed_statuses", search_constants)
        reference = _reference_points(critical_alpha, _escape_probe, grid, seed,
                                      stability._BRACKET, stability._ESCAPE_MAX_LEVEL, log=log,
                                      **budgets)
        assert critical_curve(grid, seed=seed, **budgets).points == reference
        trials = stability._ESCAPE_TRIALS
    else:
        config, seed, _ = _NEUTRAL_CASES["kappa_0.1"]
        reference = _reference_points(neutral_alpha, _neutral_probe, _NEUTRAL_GRID, seed,
                                      stability._NEUTRAL_BRACKET, stability._NEUTRAL_MAX_LEVEL,
                                      log=log, config=config, tolerance=0.05)
        curve = neutral_stability_curve(config, _NEUTRAL_GRID, seed=seed, tolerance=0.05)
        assert curve.points == reference
        trials = config.repetitions
    tops = _ladder_tops(log)
    assert max(tops) >= 2
    assert sum(started) == sum(trials * 2**top for top in tops)
    assert sorted(started) == sorted(trials * 2**max(level - 1, 0) for _, _, level, _ in log)


def test_critical_curve_csv_roundtrip(tmp_path):
    points = (
        CriticalPoint(-0.5, 3.25, 0.02, STATUS_OK),
        CriticalPoint(0.5, 4.5, 0.03, STATUS_OK),
        CriticalPoint(1.1, math.nan, math.nan, STATUS_NO_CROSSING),
    )
    curve = CriticalCurve(points=points, ratio=RATIO_SOCIAL_ONLY, method="ESCAPE_EQUALITY")
    path = tmp_path / "curve.csv"
    curve.to_csv(path, metadata={"seed": 7, "ratio": curve.ratio, "method": curve.method})
    text = path.read_text()
    assert text.startswith("# tool_version=")
    assert "omega,alpha_critical,std_error,status" in text
    assert "NO_CROSSING" in text
    # 17 significant digits round-trip
    assert "3.25" in text and "4.5" in text
    loaded = CriticalCurve.from_csv(path)
    assert (loaded.ratio, loaded.method) == (curve.ratio, curve.method)
    # field by field, NaN matching NaN
    np.testing.assert_equal([astuple(p) for p in loaded.points], [astuple(p) for p in points])
    # the curve records its own ratio and method when the caller does not
    bare = tmp_path / "bare.csv"
    curve.to_csv(bare)
    loaded = CriticalCurve.from_csv(bare)
    assert (loaded.ratio, loaded.method) == (curve.ratio, curve.method)


# ---------------------------------------------------------------- finite time


def test_finite_time_homogeneous_limit_matches_lyapunov():
    ref = lyapunov_exponent(0.7, 0.5, 0.5, steps=20_000, trials=16, burn_in=1000, seed=25)
    ftl = finite_time_lyapunov(0.7, 0.5, 0.5, z0_scale=1.0, p=0.0, g=0.0,
                               steps=200_000, repetitions=4, seed=26)
    assert abs(ftl - ref.value) < 2 * ref.std_error


@pytest.mark.parametrize("p", [0.0, 0.5], ids=["homogeneous", "affine"])
@pytest.mark.parametrize("budget", [dict(steps=0), dict(repetitions=0)])
def test_finite_time_rejects_empty_budgets(p, budget):
    with pytest.raises(ValueError, match="steps and repetitions must be >= 1"):
        finite_time_lyapunov(0.7, 1.0, 1.0, p=p, **{"steps": 10, "repetitions": 10, **budget},
                             seed=1)


@pytest.mark.parametrize("bad, match", [
    (dict(z0_scale=0.0), "z0_scale must be finite and > 0"),
    (dict(z0_scale=-1.0), "z0_scale must be finite and > 0"),
    (dict(z0_scale=math.nan), "z0_scale must be finite and > 0"),
    (dict(z0_scale=math.inf), "z0_scale must be finite and > 0"),
    (dict(z0_scale=0.0, p=0.5), "z0_scale must be finite and > 0"),
    (dict(z0_scale=math.nan, p=0.5), "z0_scale must be finite and > 0"),
    (dict(p=math.nan), "p and g must be finite"),
    (dict(g=math.nan), "p and g must be finite"),
    (dict(p=math.inf), "p and g must be finite"),
    (dict(p=0.5, g=-math.inf), "p and g must be finite"),
], ids=["z0_zero", "z0_negative", "z0_nan", "z0_inf", "z0_zero_affine", "z0_nan_affine",
        "p_nan", "g_nan", "p_inf", "g_neg_inf"])
def test_finite_time_rejects_invalid_start_and_bests(bad, match):
    # before any warning, NaN or overflow error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            finite_time_lyapunov(0.7, 1.0, 1.0, **bad, steps=10, repetitions=10, seed=1)


def test_finite_time_overflow_reports_step():
    with pytest.raises(NumericOverflowError) as err:
        finite_time_lyapunov(1.1, 3.0, 3.0, z0_scale=1.0, p=0.5, g=0.0,
                             steps=20_000, repetitions=64, seed=27)
    assert err.value.step is not None and err.value.step > 0


# ---------------------------------------------------------------- neutral stability


def test_neutral_matches_escape_in_degenerate_limit(search_constants):
    # with p = g = 0 the convergence criterion coincides with the escape
    # experiment's inner-radius rule
    config = ScalingConfig(kappa=1.0, p=0.0, g=0.0, iterations=3000, repetitions=4000)
    point = neutral_alpha(0.4, config, ratio=RATIO_EQUAL, tolerance=0.02, seed=28)
    search_constants(escape_trials=8000)
    reference = critical_alpha(0.4, ratio=RATIO_EQUAL, tolerance=0.02, seed=29,
                               method="escape")
    assert point.status == reference.status == STATUS_OK
    assert abs(point.alpha - reference.alpha) <= 0.15


def test_neutral_moves_inward_for_smaller_kappa():
    outer = neutral_alpha(0.5, ScalingConfig(kappa=1.0, repetitions=8000),
                          tolerance=0.02, seed=30)
    inner = neutral_alpha(0.5, ScalingConfig(kappa=0.04, repetitions=8000),
                          tolerance=0.02, seed=31)
    assert outer.status == inner.status == STATUS_OK
    assert outer.alpha > inner.alpha


def test_scaling_config_validation():
    with pytest.raises(ValueError):
        ScalingConfig(kappa=0.0)
    for bad in ({"kappa": math.nan}, {"kappa": math.inf}, {"p": math.nan}, {"g": -math.inf},
                {"iterations": 0}, {"repetitions": 0}, {"repetitions": -1},
                # kappa*p, kappa*g or the segment width overflows
                {"kappa": 1e200, "p": 1e200, "g": 0.0}, {"kappa": 1e160, "p": 1e150, "g": -1e150},
                {"p": 1.7e308, "g": -1.7e308},
                # bests that coincide away from 0
                {"p": 0.3, "g": 0.3}, {"kappa": 0.5, "p": -2.0, "g": -2.0}):
        with pytest.raises(ValueError):
            ScalingConfig(**{"kappa": 1.0, **bad})
