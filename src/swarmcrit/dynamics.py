"""Single-particle swarm dynamics: parameter and mixture-weight types, the
random coefficient mixture and the weight draw ``_draw_weights`` that every
stability estimator runs, the density of the combined weight as linear
pieces (``_pieces``), the exact top exponent at ``omega = 0`` over them
(``_lambda0``), and the two one-step maps the library runs, each written
once: the homogeneous ``_step`` of the stability estimators, and
``affine_update``, the step with fixed best positions, of the optimiser and
the scaled stability experiments (``_affine`` is its body, for loops that
hold one ``np.errstate`` for all their steps).

The homogeneous one-particle dynamics is ``z' = M z`` with ``z = (v, x)`` and

    M = [[omega, -alpha*r], [omega, 1 - alpha*r]],

where ``r`` is a random mixture weight in [0, 1].  ``det M = omega`` holds as
an algebraic identity for every realisation of ``r``; ``build_step_matrix``
assembles ``M`` for the eigenvalue and determinant oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SwarmParams",
    "MixtureWeight",
    "StepMatrix",
    "mixture_pdf",
    "sample_mixture",
    "build_step_matrix",
    "affine_update",
]


def _children(seed):
    """The children ``SeedSequence(seed).spawn`` would give, in order, as an
    endless generator.  A caller's ``SeedSequence`` is neither copied nor
    advanced: its children start at its ``n_children_spawned``, so a
    repeated call with the same object gets the same children."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for i in itertools.count(ss.n_children_spawned):
        yield np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, i),
                                     pool_size=ss.pool_size)


def _check_point(omega, alpha1, alpha2):
    """A point of the dynamics: ``omega`` must be finite, and the attraction
    weights finite and nonnegative."""
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    if not (math.isfinite(alpha1) and math.isfinite(alpha2)):
        raise ValueError("alpha1 and alpha2 must be finite")
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError("alpha1 and alpha2 must be nonnegative")


def _check_positive_weights(alpha1, alpha2, omega=0.0):
    """The point must pass :func:`_check_point`, and the weights have a
    positive sum."""
    _check_point(omega, alpha1, alpha2)
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
        _check_positive_weights(self.alpha1, self.alpha2, self.omega)
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    @property
    def alpha(self) -> float:
        """Combined attraction weight alpha1 + alpha2."""
        return self.alpha1 + self.alpha2


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
        _check_positive_weights(self.alpha1, self.alpha2)

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
        entries = np.array(self.entries, dtype=float, copy=True)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def det(self) -> float:
        e = self.entries
        return float(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0])


def mixture_pdf(r, w: MixtureWeight):
    """Probability density of the combined random weight at ``r``: the
    pieces of :func:`_pieces` for the weights ``alpha1/alpha`` and
    ``alpha2/alpha``, a trapezoid on [0, 1] (a box when either weight is
    zero, a triangle when they are equal).  Vectorised over ``r``; returns
    0 outside [0, 1].
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.zeros_like(r_arr)
    # a point shared by two pieces takes the later one's value
    for a, b, c0, c1 in _pieces(w.alpha1 / w.alpha, w.alpha2 / w.alpha):
        on = (r_arr >= a) & (r_arr <= min(b, 1.0))
        out[on] = c0 + c1 * r_arr[on]
    return float(out[0]) if np.ndim(r) == 0 else out


def sample_mixture(rng: np.random.Generator, w: MixtureWeight, size=None):
    """Draw mixture weights ``(alpha1*u1 + alpha2*u2) / alpha``: the weights
    of :func:`_draw_weights` divided by ``alpha``, with every ``u1`` drawn
    before every ``u2``, as two ``rng.random(size)`` calls would.

    Each rounded operation is monotone, so with ``u < 1`` the result lies
    in [0, 1] without clipping.
    """
    shape = () if size is None else tuple(np.atleast_1d(size))
    ar = _draw_weights(rng, w.alpha1, w.alpha2, (math.prod(shape),))
    return ar.reshape(shape) / w.alpha


def _pieces(alpha1, alpha2):
    """The density of ``s = alpha1 r1 + alpha2 r2`` for independent uniform
    ``r1, r2``, as its linear pieces ``(a, b, c0, c1)``: density ``c0 + c1 s``
    on [a, b].  With ``lo <= hi`` the two weights it rises with slope
    ``1/(lo hi)`` on [0, lo], is ``1/hi`` on [lo, hi] and falls to 0 on
    [hi, lo + hi].  Only pieces of positive width are listed, so one zero
    weight leaves the box and equal weights leave the triangle."""
    lo, hi = sorted((alpha1, alpha2))
    pieces = [(lo, hi, 1.0 / hi, 0.0)] if lo < hi else []
    if lo > 0.0:
        slope = 1.0 / (lo * hi)
        pieces = [(0.0, lo, 0.0, slope), *pieces, (hi, lo + hi, 1.0 / lo + 1.0 / hi, -slope)]
    return pieces


def _lambda0(alpha1, alpha2):
    """The top Lyapunov exponent at ``omega = 0``, ``E log|1 - s|`` for the
    combined weight ``s = alpha1 r1 + alpha2 r2``, in closed form for any
    split.

    At ``omega = 0`` every step matrix has rank one, ``x' = (1 - s) x``, so
    the exponent is this one-dimensional integral (Furstenberg and Kesten)
    over the pieces of :func:`_pieces`, on each of which the density of
    ``s`` is ``c0 + c1 s``.  With ``u = 1 - s``,

        F(s) = -u log|u| (c0 + c1 (1 + s) / 2) - s (c0 + c1 (1/2 + s/4))

    is the antiderivative of ``(c0 + c1 s) log|1 - s|`` that vanishes at
    ``s = 0``, continuous through ``u = 0``.  Its terms are of the size of
    ``s`` near 0, and ``log|u|`` is taken by ``log1p``, so a piece loses no
    digits to the ``1 / (lo hi)`` of the rising slope: on the critical
    search's bracket the result is within 1e-14 of the integral, far inside
    the 1e-9 that ``stability._known_sign`` asks of its sign.
    """
    def F(s, c0, c1):
        # u log|u| is 0 at u = 0
        log_u = math.log1p(-s) if s < 1.0 else math.log(s - 1.0) if s > 1.0 else 0.0
        u_log_u = (1.0 - s) * log_u
        return -u_log_u * (c0 + 0.5 * c1 * (1.0 + s)) - s * (c0 + c1 * (0.5 + 0.25 * s))

    return sum(F(b, c0, c1) - F(a, c0, c1) for a, b, c0, c1 in _pieces(alpha1, alpha2))


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


def _weights(alpha1, alpha2, u, out=(None, None)):
    """Combined weights ``alpha1*u1 + alpha2*u2`` from uniform draws ``u``
    of shape ``(..., 2, n)``, written into ``out[0]`` with ``out[1]`` as
    scratch when given; ``out`` may be ``u`` itself."""
    # out arguments are positional: keywords cost a parse per call
    return np.add(np.multiply(alpha1, u[..., 0, :], out[0]),
                  np.multiply(alpha2, u[..., 1, :], out[1]), out[0])


def _draw_weights(rng, alpha1, alpha2, shape):
    """Combined weights alpha*r of ``shape = (..., n)``, one per lane and
    step.  Each step draws its ``n`` values of ``u1``, then its ``n`` values
    of ``u2``: the same stream as two ``rng.random(n)`` calls per step.  A
    sum past the float maximum is inf, without a warning: the estimators'
    own checks report it as a numeric failure."""
    u = rng.random((*shape[:-1], 2, shape[-1]))
    with np.errstate(over="ignore"):
        return _weights(alpha1, alpha2, u)


def _step(omega, ar, v, x, out=(None, None), work=None):
    """The homogeneous step ``z' = M z``: ``v' = omega*v - ar*x; x' = v' + x``,
    written into ``out = (v', x')`` when given, with ``ar*x`` in ``work``
    when given.  ``out`` may be ``(v, x)``; ``work`` may be ``ar``."""
    v_new = np.multiply(omega, v, out[0])
    np.subtract(v_new, np.multiply(ar, x, work), v_new)
    return v_new, np.add(v_new, x, out[1])


def _affine(omega, alpha1, alpha2, v, x, r1, r2, p, g, out=(None, None),
            work=(None, None, None)):
    """:func:`affine_update` without its ``np.errstate``, for loops that
    hold one for all their steps.

    When given, ``out = (v', x')`` receives the result, and ``work`` holds
    ``alpha1*r1*(p - x)``, ``alpha2*r2*(g - x)`` and each difference, so no
    array is allocated; ``out`` may be ``(v, x)`` and ``work`` may begin
    with ``r1, r2``.  Every form rounds the same operations in the same order.
    """
    # one nested expression: the allocating form frees each temporary as
    # soon as the operator expression did, so no extra one stays live
    v_new = np.add(
        np.add(np.multiply(omega, v, out[0]),
               np.multiply(np.multiply(alpha1, r1, work[0]), np.subtract(p, x, work[2]),
                           work[0]), out[0]),
        np.multiply(np.multiply(alpha2, r2, work[1]), np.subtract(g, x, work[2]), work[1]),
        out[0])
    return v_new, np.add(x, v_new, out[1])


def affine_update(omega, alpha1, alpha2, v, x, r1, r2, p, g):
    """Array form of the affine update with fixed best positions.

    Returns ``v' = omega*v + alpha1*r1*(p - x) + alpha2*r2*(g - x)`` and
    ``x' = x + v'``, broadcasting over any array shapes.  Divergence is not
    raised; non-finite entries are returned as they are.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _affine(omega, alpha1, alpha2, v, x, r1, r2, p, g)
