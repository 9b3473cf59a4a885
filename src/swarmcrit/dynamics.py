"""Single-particle swarm dynamics: state containers, the random coefficient
mixture, one-step maps in affine and homogeneous form (the array form of the
affine update is shared by the optimiser and the scaled stability
experiments), and the deterministic regime classifier.

The homogeneous one-particle dynamics is ``z' = M z`` with ``z = (v, x)`` and

    M = [[omega, -alpha*r], [omega, 1 - alpha*r]],

where ``r`` is a random mixture weight in [0, 1].  ``det M = omega`` holds as
an algebraic identity for every realisation of ``r``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SwarmParams",
    "PhasePoint",
    "MixtureWeight",
    "StepMatrix",
    "Regime",
    "RegimeLabel",
    "mixture_pdf",
    "sample_mixture",
    "build_step_matrix",
    "step_homogeneous",
    "step_affine",
    "affine_update",
    "deterministic_regime",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _seed_sequence(seed) -> np.random.SeedSequence:
    """A ``SeedSequence`` to spawn from; a caller's ``SeedSequence`` is
    copied, so spawning does not advance it and a repeated call with the
    same object gets the same children."""
    if not isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed)
    return np.random.SeedSequence(
        seed.entropy,
        spawn_key=seed.spawn_key,
        pool_size=seed.pool_size,
        n_children_spawned=seed.n_children_spawned,
    )


def _check_weights(alpha1, alpha2):
    """The attraction weights must be finite and nonnegative, with a
    positive sum."""
    if not (math.isfinite(alpha1) and math.isfinite(alpha2)):
        raise ValueError("alpha1 and alpha2 must be finite")
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError("alpha1 and alpha2 must be nonnegative")
    if alpha1 + alpha2 <= 0:
        raise ValueError("alpha1 + alpha2 must be positive")


@dataclass(frozen=True)
class SwarmParams:
    """Parameter vector of the algorithm.

    Parameters
    ----------
    omega : float
        Inertia weight multiplying the previous velocity; finite.
    alpha1 : float
        Attraction weight towards the personal best, finite and >= 0.
    alpha2 : float
        Attraction weight towards the global best, finite and >= 0.
    n_particles : int
        Swarm size, >= 1.
    dim : int
        Search-space dimension, >= 1.
    """

    omega: float
    alpha1: float
    alpha2: float
    n_particles: int = 25
    dim: int = 1

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise ValueError("omega must be finite")
        _check_weights(self.alpha1, self.alpha2)
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    @property
    def alpha(self) -> float:
        """Combined attraction weight alpha1 + alpha2."""
        return self.alpha1 + self.alpha2


@dataclass(frozen=True)
class PhasePoint:
    """Stacked state ``z = (v, x)`` of one particle.

    Non-finite components are representable so that divergence can be
    carried to the caller; check :attr:`is_finite` to detect it.
    """

    v: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        v = _readonly(np.atleast_1d(self.v))
        x = _readonly(np.atleast_1d(self.x))
        if v.shape != x.shape or v.ndim != 1:
            raise ValueError("v and x must be 1-d arrays of equal length")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "x", x)

    @property
    def dim(self) -> int:
        return self.x.size

    @property
    def is_finite(self) -> bool:
        return bool(np.isfinite(self.v).all() and np.isfinite(self.x).all())

    def norm(self) -> float:
        """Euclidean norm of the stacked (v, x) vector."""
        return float(np.sqrt(np.sum(self.v**2) + np.sum(self.x**2)))


@dataclass(frozen=True)
class MixtureWeight:
    """Distribution parameters of the combined random weight.

    The weight is ``r = (alpha1*U1 + alpha2*U2) / (alpha1 + alpha2)`` with
    independent U1, U2 uniform on [0, 1].  Its density is supported on
    [0, 1] with mean exactly 1/2 and variance
    ``(alpha1**2 + alpha2**2) / (12 * (alpha1 + alpha2)**2)``.  Both
    weights must be finite and nonnegative, with a positive sum.
    """

    alpha1: float
    alpha2: float

    def __post_init__(self):
        _check_weights(self.alpha1, self.alpha2)

    @property
    def alpha(self) -> float:
        return self.alpha1 + self.alpha2

    @property
    def variance(self) -> float:
        a = self.alpha
        return (self.alpha1**2 + self.alpha2**2) / (12.0 * a * a)


@dataclass(frozen=True)
class StepMatrix:
    """One realisation of the 2x2 homogeneous dynamics matrix (d=1)."""

    omega: float
    alpha: float
    r: float
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _readonly(self.entries))

    @property
    def det(self) -> float:
        e = self.entries
        return float(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0])


class Regime(enum.Enum):
    """Primary deterministic regime, mutually exclusive."""

    CONVERGENT = "convergent"
    DIVERGENT = "divergent"


@dataclass(frozen=True)
class RegimeLabel:
    """Deterministic-theory classification of a parameter pair.

    ``regime`` is the exclusive primary label; ``harmonic`` and ``zigzag``
    are oscillation sub-labels that may accompany either primary state.
    ``complex_eigenvalues`` reports whether the half-weight (r = 0.5)
    matrix has complex eigenvalues, which guarantees ergodicity of the
    randomised dynamics.
    """

    regime: Regime
    harmonic: bool
    zigzag: bool
    complex_eigenvalues: bool

    @property
    def convergent(self) -> bool:
        return self.regime is Regime.CONVERGENT

    @property
    def divergent(self) -> bool:
        return self.regime is Regime.DIVERGENT


def mixture_pdf(r, w: MixtureWeight):
    """Probability density of the combined random weight at ``r``.

    Piecewise-linear trapezoid on [0, 1]: with ``a = alpha1/alpha`` and
    ``b = alpha2/alpha`` the density is ``r/(a*b)`` on [0, min(a, b)],
    ``1/max(a, b)`` on [min(a, b), max(a, b)] and ``(1-r)/(a*b)`` on
    [max(a, b), 1].  Degenerates to the uniform box density when either
    weight is zero.  Vectorised over ``r``; returns 0 outside [0, 1].
    """
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    r_arr = np.atleast_1d(r_arr)
    out = np.zeros_like(r_arr)
    inside = (r_arr >= 0.0) & (r_arr <= 1.0)
    if min(w.alpha1, w.alpha2) == 0.0:
        out[inside] = 1.0
    else:
        a = w.alpha1 / w.alpha
        b = w.alpha2 / w.alpha
        lo, hi = min(a, b), max(a, b)
        rise = inside & (r_arr <= lo)
        flat = inside & (r_arr > lo) & (r_arr <= hi)
        fall = inside & (r_arr > hi)
        out[rise] = r_arr[rise] / (a * b)
        out[flat] = 1.0 / hi
        out[fall] = (1.0 - r_arr[fall]) / (a * b)
    return float(out[0]) if scalar else out


def sample_mixture(rng: np.random.Generator, w: MixtureWeight, size=None):
    """Draw mixture weights ``(alpha1*u1 + alpha2*u2) / alpha``.

    Exact by construction; the result is clipped to [0, 1] to guard the
    last-ulp rounding of the convex combination.
    """
    u1 = rng.random(size)
    u2 = rng.random(size)
    r = (w.alpha1 * u1 + w.alpha2 * u2) / w.alpha
    return np.clip(r, 0.0, 1.0)


def build_step_matrix(omega: float, alpha: float, r: float) -> StepMatrix:
    """Assemble the homogeneous step matrix for one realised weight.

    Raises
    ------
    ValueError
        If ``r`` lies outside [0, 1].
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r}")
    ar = alpha * r
    entries = np.array([[omega, -ar], [omega, 1.0 - ar]])
    return StepMatrix(omega=omega, alpha=alpha, r=r, entries=entries)


def step_homogeneous(z: PhasePoint, m: StepMatrix) -> PhasePoint:
    """Apply ``z' = M z`` componentwise: ``v' = omega*v - alpha*r*x`` and
    ``x' = x + v'``.

    Divergence is not raised; a non-finite result is carried in the
    returned point and visible through :attr:`PhasePoint.is_finite`.
    """
    e = m.entries
    with np.errstate(over="ignore", invalid="ignore"):
        v_new = e[0, 0] * z.v + e[0, 1] * z.x
        x_new = z.x + v_new
    return PhasePoint(v=v_new, x=x_new)


def affine_update(omega, alpha1, alpha2, v, x, r1, r2, p, g):
    """Array form of the affine update with fixed best positions.

    Returns ``v' = omega*v + alpha1*r1*(p - x) + alpha2*r2*(g - x)`` and
    ``x' = x + v'``, broadcasting over any array shapes.  Divergence is not
    raised; non-finite entries are returned as they are.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v_new = omega * v + alpha1 * r1 * (p - x) + alpha2 * r2 * (g - x)
        return v_new, x + v_new


def step_affine(
    z: PhasePoint,
    params: SwarmParams,
    r1: np.ndarray,
    r2: np.ndarray,
    p: np.ndarray,
    g: np.ndarray,
) -> PhasePoint:
    """One velocity/position update with fixed best positions.

    Computes ``v' = omega*v + alpha1*r1*(p - x) + alpha2*r2*(g - x)`` and
    ``x' = x + v'`` with per-dimension weights ``r1, r2`` in [0, 1].
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    p = np.asarray(p, dtype=float)
    g = np.asarray(g, dtype=float)
    if np.any((r1 < 0) | (r1 > 1)) or np.any((r2 < 0) | (r2 > 1)):
        raise ValueError("r1 and r2 must lie componentwise in [0, 1]")
    v, x = affine_update(params.omega, params.alpha1, params.alpha2, z.v, z.x, r1, r2, p, g)
    return PhasePoint(v=v, x=x)


def deterministic_regime(omega: float, alpha: float) -> RegimeLabel:
    """Classify a parameter pair by the deterministic (noise-free) theory.

    CONVERGENT requires ``omega < 1``, ``alpha > 0`` and
    ``2*omega - alpha + 2 > 0``; DIVERGENT is its complement.  The
    ``harmonic`` sub-label holds where
    ``omega**2 + alpha**2 - 2*omega*alpha - 2*omega - 2*alpha + 1 < 0``
    (complex eigenvalues of the full-weight deterministic matrix) and
    ``zigzag`` where ``omega < 0`` and ``omega - alpha + 1 < 0``.  The
    ``complex_eigenvalues`` flag instead tests the half-weight matrix:
    ``omega**2 + alpha**2/4 - omega*alpha - 2*omega - alpha + 1 < 0``.

    Raises
    ------
    ValueError
        If ``alpha <= 0``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    convergent = omega < 1 and 2 * omega - alpha + 2 > 0
    harmonic = omega**2 + alpha**2 - 2 * omega * alpha - 2 * omega - 2 * alpha + 1 < 0
    zigzag = omega < 0 and omega - alpha + 1 < 0
    complex_eig = omega**2 + alpha**2 / 4 - omega * alpha - 2 * omega - alpha + 1 < 0
    return RegimeLabel(
        regime=Regime.CONVERGENT if convergent else Regime.DIVERGENT,
        harmonic=harmonic,
        zigzag=zigzag,
        complex_eigenvalues=complex_eig,
    )
