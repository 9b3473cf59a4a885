"""Stability analysis of the randomised particle dynamics.

Estimates the top Lyapunov exponent of the random matrix product governing
one-particle motion, the stationary angular measure on the unit circle, the
escape-probability diagnostic, the critical curve where the exponent
vanishes, and the finite-time scaling experiments with distinct personal and
global best positions.

All estimators are Monte-Carlo and step their lanes with the one-step maps
of ``dynamics``: the homogeneous ``_step``, or ``_affine`` in the
experiments with fixed best positions.  The orbit average of the renormalised
random product converges to the double integral over the angular measure
and the matrix set by ergodicity.  Every function takes an explicit seed
and is bit-reproducible for a fixed seed, independent of execution order.

The renormalised orbits behind the Lyapunov-pair, stationary-measure and
homogeneous finite-time estimators advance in blocks, sized by the rule
that sizes the top exponent's chunks (:func:`_chunk_steps`): one call
draws a block's weights from the same random stream, in the same order,
as one draw per step would, and the log growth is summed step after step,
so the results are bit-identical to a step-at-a-time loop.  The block
kernel, ``_block``, also carries the pair's second leg, and raises at the
first step at which a leg's renormalisation fails.

The top exponent, alone and in every Lyapunov probe of a bisection, draws
the same stream in chunks and takes each chunk's log growth from the
product of its step matrices, formed in log-depth levels of pairwise
products (the product is associative): it agrees with the per-step sum to
rounding.  Chunks are canonical per orbit (:func:`_chunk_end`), so a
probe's bits depend neither on the other probes, nor on its budget ladder,
nor on how many of its chunks one kernel call holds.  One function,
``_advance``, lays the open probes' chunks out in kernel calls and applies
each call's chunk products one chunk of a probe after another.

The escape and neutral-stability experiments share one first-passage
loop, ``_FirstPassage``: lanes start on the unit circle, each step draws
the weights of the live lanes, and a lane retires at its first outcome or
at its step cap; each experiment passes its own update and its own
convergence rule.  A lane escapes when ``v*v + x*x >= r_out*r_out``.  It
converges by the radius rule ``v*v + x*x <= r_in*r_in`` (:func:`_inside`)
in the escape experiment, and in the neutral one by the segment test, or
by the radius rule where both bests are 0.  The radii must satisfy
``1e-150 <= r_in < 1 < r_out <= 1e150``, so both squares are normal floats
and the radius tests are the exact norm comparisons up to rounding.  The
neutral experiment fixes them at 1e-6 and 1e6.

The estimators validate their point with one check: ``omega`` must be
finite, and ``alpha1`` and ``alpha2`` finite and nonnegative.

Critical points are found by a stochastic bisection written as a generator
that yields probe requests and is sent each probe's sign: -1 or +1 when
the estimate is 3-sigma significant, 0 when it is not, decided for a
first-passage probe on its integer counts alone.  A Lyapunov request whose
sign theory fixes (:func:`_known_sign`: ``|omega| >= 1``, the exact
exponent at ``omega = 0``, or mean-square stability) is sent that sign
without a probe.  Every critical
point, alone or on a curve, runs through one driver, ``_solve``: one
bisection per inertia value.  Lyapunov probes of all points advance
together as one block of lanes with a per-lane ``omega``; an escape or
neutral probe runs to its sign when it is asked, so those points are
solved one after another, and a first-passage probe stops at the first
step after which every way its open lanes can still end gives the same
sign.  Each probed weight of a point has one child
seed, and its budget levels form a ladder: a level-L probe continues the
level-(L - 1) probe, a Lyapunov orbit for twice the steps and a first
passage with as many new lanes again, so no level redoes the work below
it.  A point's result does not depend on the other points.  A caller of
the critical search sets the split, the tolerance, the seed, the method
and, for Lyapunov probes, the steps and trials; its bracket, each
method's top budget level, the Lyapunov burn-in and the escape budget are
module constants, as are the neutral search's bracket and top budget level.
``escape_probability`` always runs every trial to its end.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import (_affine, _check_point, _children, _draw_weights, _lambda0, _step,
                       _weights)

__all__ = [
    "NumericOverflowError",
    "LyapunovEstimate",
    "AngularHistogram",
    "CriticalPoint",
    "CriticalCurve",
    "EscapeStats",
    "ScalingConfig",
    "RATIO_EQUAL",
    "RATIO_SOCIAL_ONLY",
    "STATUS_OK",
    "STATUS_NO_CROSSING",
    "STATUS_UNRESOLVED",
    "split_alpha",
    "lyapunov_exponent",
    "lyapunov_pair",
    "stationary_distribution",
    "pushforward",
    "escape_probability",
    "critical_alpha",
    "critical_curve",
    "finite_time_lyapunov",
    "neutral_alpha",
    "neutral_stability_curve",
]

RATIO_EQUAL = "equal"
RATIO_SOCIAL_ONLY = "social_only"
# each split name's cognitive share: alpha1 = share * alpha
_SHARES = {RATIO_EQUAL: 0.5, RATIO_SOCIAL_ONLY: 0.0}

STATUS_OK = "OK"
STATUS_NO_CROSSING = "NO_CROSSING"
STATUS_UNRESOLVED = "UNRESOLVED"

METHOD_LYAPUNOV = "LYAPUNOV_BISECTION"
METHOD_ESCAPE = "ESCAPE_EQUALITY"
# each critical-search method's name on its curve
_METHODS = {"lyapunov": METHOD_LYAPUNOV, "escape": METHOD_ESCAPE}

# first-passage radii: escape_probability's defaults and the neutral
# experiment's fixed radii
_R_IN, _R_OUT = 1e-6, 1e6

# the critical point's bisection bracket and the Lyapunov probes' highest
# budget level and burn-in; the escape probes' first-level trials, step cap
# and highest budget level, which tops out at 2_500 * 2**5 = 80_000 lanes
_BRACKET = (0.05, 8.0)
_MAX_LEVEL = 3
_BURN_IN = 1000
_ESCAPE_TRIALS, _ESCAPE_MAX_STEPS = 2_500, 20_000
_ESCAPE_MAX_LEVEL = 5

# the neutral boundary's bisection bracket and highest budget level
_NEUTRAL_BRACKET = (0.25, 8.0)
_NEUTRAL_MAX_LEVEL = 2

_CURVE_HEADER = ["omega", "alpha_critical", "std_error", "status"]


def _status(cell: str) -> str:
    """A curve CSV's status cell, which must be one of the ``STATUS_*``
    markers."""
    if cell not in (STATUS_OK, STATUS_NO_CROSSING, STATUS_UNRESOLVED):
        raise ValueError(f"unknown status {cell!r}")
    return cell


class NumericOverflowError(RuntimeError):
    """Raised when a trajectory leaves the representable floating range."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class LyapunovEstimate:
    """Monte-Carlo estimate of the top Lyapunov exponent (nats per step)."""

    value: float
    std_error: float
    steps: int
    trials: int
    burn_in: int


@dataclass(frozen=True)
class AngularHistogram:
    """Histogram of the stationary angular measure on [0, 2*pi).

    The angle of a unit phase vector (x, v) is ``atan2(v, x)`` mapped to
    [0, 2*pi).  Masses sum to one.
    """

    mass: np.ndarray
    samples: int

    def __post_init__(self):
        m = np.array(self.mass, dtype=float, copy=True)
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)

    @property
    def bins(self) -> int:
        return self.mass.size

    @property
    def bin_centers(self) -> np.ndarray:
        return (np.arange(self.bins) + 0.5) * (2.0 * np.pi / self.bins)

    def to_csv(self, path, metadata: dict | None = None) -> None:
        from .io import write_csv

        rows = [(c, m) for c, m in zip(self.bin_centers, self.mass)]
        write_csv(path, ["bin_center_rad", "mass"], rows, metadata)


@dataclass(frozen=True)
class CriticalPoint:
    """One resolved (or unresolved) point of a critical curve."""

    omega: float
    alpha: float
    std_error: float
    status: str = STATUS_OK


@dataclass(frozen=True)
class CriticalCurve:
    """Critical combined weight as a function of the inertia weight: the
    points' omegas are finite and strictly increasing, and an ``OK`` point
    has a finite alpha and std_error."""

    points: tuple[CriticalPoint, ...]
    ratio: str
    method: str

    def __post_init__(self):
        omegas = [p.omega for p in self.points]
        if not all(map(math.isfinite, omegas)):
            raise ValueError("curve omegas must be finite")
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise ValueError("curve omegas must be strictly increasing")
        if not all(math.isfinite(p.alpha) and math.isfinite(p.std_error)
                   for p in self.points if p.status == STATUS_OK):
            raise ValueError(f"an {STATUS_OK} curve point needs a finite alpha and std_error")
        object.__setattr__(self, "points", tuple(self.points))

    def resolved(self) -> list[CriticalPoint]:
        return [p for p in self.points if p.status == STATUS_OK]

    def interpolate(self, omega: float) -> float:
        """Linear interpolation of alpha_critical; NaN outside the resolved
        range."""
        pts = self.resolved()
        if len(pts) < 1:
            return math.nan
        xs = np.array([p.omega for p in pts])
        ys = np.array([p.alpha for p in pts])
        if omega < xs[0] or omega > xs[-1]:
            return math.nan
        return float(np.interp(omega, xs, ys))

    def to_csv(self, path, metadata: dict | None = None) -> None:
        """Write the curve; ``ratio`` and ``method`` always go into the
        metadata (after the caller's keys, or in their place), so that
        :meth:`from_csv` reads them back."""
        from .io import write_csv

        rows = [(p.omega, p.alpha, p.std_error, p.status) for p in self.points]
        metadata = {**(metadata or {}), "ratio": self.ratio, "method": self.method}
        write_csv(path, _CURVE_HEADER, rows, metadata)

    @classmethod
    def from_csv(cls, path) -> "CriticalCurve":
        """Read a curve written by :meth:`to_csv`; ``ratio`` and ``method``
        come from the metadata lines, defaulting to the equal split and
        Lyapunov bisection."""
        from .io import read_csv

        meta, header, rows = read_csv(path, (float, float, float, _status))
        if header != _CURVE_HEADER:
            raise ValueError(f"unexpected curve header {header}")
        points = tuple(CriticalPoint(*r) for r in rows)
        return cls(
            points=points,
            ratio=meta.get("ratio", RATIO_EQUAL),
            method=meta.get("method", METHOD_LYAPUNOV),
        )


@dataclass(frozen=True)
class EscapeStats:
    """Outcome fractions of the inner/outer radius first-passage experiment."""

    p_converged: float
    p_escaped: float
    p_undecided: float
    trials: int
    r_in: float
    r_out: float
    max_steps: int


@dataclass(frozen=True)
class ScalingConfig:
    """Configuration of the scaled finite-time stability experiment.

    ``kappa`` multiplies the best positions ``p`` and ``g``; trajectories
    start from the unit circle in phase space.  The scaled bests may
    coincide only at 0, where convergence is the phase norm reaching the
    inner radius.
    """

    kappa: float
    p: float = 0.1
    g: float = 0.0
    iterations: int = 200
    repetitions: int = 100_000

    def __post_init__(self):
        if not all(math.isfinite(value) for value in (self.kappa, self.p, self.g)):
            raise ValueError("kappa, p and g must be finite")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        # inf or NaN if either product or the segment width overflows
        if not math.isfinite(self.kappa * self.p - self.kappa * self.g):
            raise ValueError("kappa*p, kappa*g and their difference must be finite")
        # the radius rule that stands in for the segment test measures from 0
        if self.kappa * self.p == self.kappa * self.g != 0.0:
            raise ValueError("kappa*p and kappa*g may coincide only at 0")
        if self.iterations < 1 or self.repetitions < 1:
            raise ValueError("iterations and repetitions must be >= 1")


def split_alpha(alpha: float, ratio: str) -> tuple[float, float]:
    """Split a finite positive combined weight into ``(share * alpha,
    (1 - share) * alpha)``, with ``share`` the cognitive share that
    ``_SHARES`` gives the split name ``ratio``; exact for both names."""
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValueError("alpha must be finite and positive")
    if ratio not in _SHARES:
        raise ValueError(f"unknown ratio {ratio!r}")
    share = _SHARES[ratio]
    return share * alpha, (1.0 - share) * alpha


def _start(rng, n):
    """Random unit phase vectors ``(v, x) = (sin theta, cos theta)``."""
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.sin(theta), np.cos(theta)


def _block(omega, ar, v, x, k0, frame=None):
    """Advance unit ``(v, x)`` through the weights ``ar`` of shape ``(k, n)``,
    steps ``k0`` to ``k0 + k - 1``; ``omega`` is a scalar or one value per
    lane.  A ``frame``, the unit ``(v, x)`` of a second leg, follows the
    same steps, Gram-Schmidt orthonormalised against the first after each.

    Returns ``(norm, phase, frame)``: ``norm[j, i]`` is leg ``j``'s growth
    at step ``k0 + i``, ``phase[i]`` the first leg's new unit ``(v, x)``,
    and ``frame`` the second leg's last one.  Lanes never mix, so a failed
    norm spoils only its own lane; a growth outside (0, inf) raises
    :class:`NumericOverflowError` at the first step at which either leg
    fails.
    """
    phase = np.empty((len(ar), 2, v.size))
    norm = np.empty((1 if frame is None else 2, *ar.shape))
    # a failed norm overflows or divides by 0 or NaN; the check below reports it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for z, a, n1, n2 in zip(phase, ar, norm[0], norm[-1]):
            v, x = _step(omega, a, v, x, z)
            np.hypot(v, x, n1)
            np.divide(z, n1, z)
            if frame is not None:
                wv, wx = _step(omega, a, *frame)
                proj = z[0] * wv + z[1] * wx
                wv -= proj * z[0]
                wx -= proj * z[1]
                np.hypot(wv, wx, n2)
                frame = wv / n2, wx / n2
    # NaN fails both comparisons
    ok = ((norm > 0.0) & (norm < np.inf)).all(axis=(0, 2))
    if not ok.all():
        raise NumericOverflowError("renormalisation failed", step=k0 + int(ok.argmin()))
    return norm, phase, frame


def _orbit(rng, omega, alpha1, alpha2, v, x, burn_in, steps, frame=None):
    """Renormalised orbit from ``(v, x)``, and the second leg ``frame`` if
    given, over ``burn_in + steps`` steps, in blocks of :func:`_chunk_steps`
    steps that never straddle the end of the burn-in.

    Per block yields ``(k0, norm, phase)`` of :func:`_block`: the growths
    and new unit ``(v, x)`` of steps ``k0`` on.  A failed step raises
    :class:`NumericOverflowError` in :func:`_block`.
    """
    n = v.size
    k_max = _chunk_steps(n)
    end = burn_in + steps
    bounds = [*range(0, burn_in, k_max), *range(burn_in, end, k_max), end]
    for k0, k1 in zip(bounds, bounds[1:]):
        ar = _draw_weights(rng, alpha1, alpha2, (k1 - k0, n))
        norm, phase, frame = _block(omega, ar, v, x, k0, frame)
        yield k0, norm, phase
        v, x = phase[-1]


# The Lyapunov kernel scales its products by powers of two after every
# _RESCALE_LEVELS levels of pairwise products: a product of 2**4 step
# matrices stays within the float range for weights up to about 2**60.
# One call of either orbit kernel, _chunk or _block, holds at most
# _CHUNK_STEPS steps, and at most _CHUNK_VALUES lane-steps where it can: the
# chunk kernel's arrays, about 80 bytes a lane-step, then stay within a
# core's cache.  Above 4096 lanes a call still holds _MIN_CHUNK_STEPS steps
# and so overruns that cap: a chunk of one or two steps would spend more
# numpy calls a step than the per-step _block.  _advance lays the Lyapunov
# chunks out in _chunk calls: where few probes are open, a call holds
# several chunks of each, which fills _CHUNK_VALUES without longer chunks,
# so no cut and no bit moves.
_RESCALE_LEVELS = 4
_CHUNK_STEPS = 256
_CHUNK_VALUES = 1 << 14
_MIN_CHUNK_STEPS = 4
_EYE = np.eye(2).reshape(2, 2, 1, 1)
_LN2 = math.log(2.0)


@functools.cache
def _bit_reversed(width):
    """The indices ``0 .. width - 1``, ``width`` a power of two, in
    bit-reversed order: the first half holds the earlier step of each
    adjacent pair, the second half the later one at the same position, and
    both halves list the pairs in bit-reversed order again."""
    order = np.zeros(1, dtype=np.intp)
    while len(order) < width:
        order = np.concatenate((2 * order, 2 * order + 1))
    order.setflags(write=False)
    return order


def _normalised(m, scale):
    """The matrices ``m`` of shape ``(2, 2, h, n)``, each divided by the power
    of two that brings its largest entry into [0.5, 1); the exponents of
    the powers are added to ``scale``, one total per lane."""
    _, e = np.frexp(np.abs(m).max(axis=(0, 1)))
    scale += e.sum(axis=0)
    return np.ldexp(m, -e)


def _chunk(omega, ar, steps):
    """The product of each lane's step matrices over the weights ``ar`` of
    shape ``(k, n)``, as a normalised matrix of shape ``(2, 2, n)`` and the
    power of two that scales it back, one exponent per lane; ``omega`` is a
    scalar or one value per lane, and ``steps`` gives each lane's number of
    steps, at most ``k``.

    The step matrices are multiplied in adjacent pairs, the later times the
    earlier, level by level.  The first level applies :func:`_step` to the
    two basis vectors, which gives the columns of each earlier matrix, and
    then to those columns.  The products pass through :func:`_normalised`
    after every ``_RESCALE_LEVELS`` levels and at the end.  The steps are
    padded with identities to a power of two, at least 2, and stored in
    :func:`_bit_reversed` order, so each level multiplies one contiguous
    half by the other; a lane's steps past its ``steps`` are identities
    too.  A product with an identity or a power of two is exact, so an odd
    last matrix is in effect carried to the next level, and the last
    scaling leaves no power of two behind: a lane gets the bits of its own
    steps alone.  Lanes never mix; a product that is not finite marks a
    failed lane.
    """
    k, n = ar.shape
    order = _bit_reversed(max(2, 1 << (k - 1).bit_length()))
    h = len(order) // 2
    ar = ar[np.minimum(order, k - 1)]
    early, m = np.empty((2, 2, 2, h, n))
    scale = np.zeros(n, dtype=np.int64)
    # a failed lane overflows or divides by 0 or NaN; its growth shows it
    with np.errstate(all="ignore"):
        _step(omega, ar[:h], 1.0, 0.0, early[:, 0])
        _step(omega, ar[:h], 0.0, 1.0, early[:, 1])
        for j in (0, 1):
            _step(omega, ar[h:], *early[:, j], m[:, j])
        if steps.min() < 2 * h:
            np.copyto(m, early, where=order[h:, None] >= steps)
            np.copyto(m, _EYE, where=order[:h, None] >= steps)
        level = 1
        while h > 1:
            h //= 2
            early, late = m[:, :, :h], m[:, :, h:]
            # (late early)[i, j] = late[i, 0] early[0, j] + late[i, 1] early[1, j]
            m = late[:, :1] * early[None, 0]
            m += late[:, 1:] * early[None, 1]
            level += 1
            if level % _RESCALE_LEVELS == 0 and h > 1:
                m = _normalised(m, scale)
        m = _normalised(m, scale)[:, :, 0]
    return m, scale


def _grown(m, scale, v, x):
    """Log growth of unit ``(v, x)`` through the matrices ``m`` of shape
    ``(2, 2, n)`` times ``2**scale``, and the new unit ``(v, x)``, per lane;
    a failed lane's growth is not finite, and warns nothing."""
    (a, b), (c, d) = m
    with np.errstate(all="ignore"):
        wv = a * v + b * x
        wx = c * v + d * x
        norm = np.hypot(wv, wx)
        return np.log(norm) + scale * _LN2, wv / norm, wx / norm


def _chunk_steps(trials):
    """Steps per call of ``trials`` lanes, for both orbit kernels: a Lyapunov
    chunk (:func:`_chunk`) and an orbit block (:func:`_block`).  The largest
    power of two within ``_CHUNK_STEPS`` and ``_CHUNK_VALUES // trials``, so
    that a full chunk needs no identity padding, and at least
    ``_MIN_CHUNK_STEPS``."""
    k = max(_MIN_CHUNK_STEPS, min(_CHUNK_STEPS, _CHUNK_VALUES // trials))
    return 1 << (k.bit_length() - 1)


def _chunk_end(done, burn_in, counted, k_max):
    """The step where a Lyapunov orbit's chunk that starts at step ``done``
    ends.  The orbit runs ``burn_in`` steps and then ``counted``; the burn-in
    is cut every ``k_max`` steps.  The counted steps fall into the dyadic
    intervals ``[0, o]``, ``[o, 2 o]``, ``[2 o, 4 o]``, ... ``[counted / 2,
    counted]``, where ``o`` is the odd part of ``counted``, and each
    interval is cut every ``k_max`` steps from its own start.  An orbit of
    ``counted * 2**L`` steps has the same odd part, so it is cut wherever
    one of ``counted`` steps is, and at the end of the latter."""
    if done < burn_in:
        return min(done + k_max, burn_in)
    t = done - burn_in
    odd = counted // (counted & -counted)
    start = 0 if t < odd else odd << ((t // odd).bit_length() - 1)
    return burn_in + min(start + ((t - start) // k_max + 1) * k_max, max(odd, 2 * start))


@dataclass
class _Probe:
    """An open Lyapunov orbit: the state of one lyapunov_exponent call."""

    omega: float
    rng: np.random.Generator
    alpha1: float
    alpha2: float
    end: int
    v: np.ndarray
    x: np.ndarray
    acc: np.ndarray
    done: int = 0

    @classmethod
    def open(cls, omega, seed, alpha1, alpha2, trials, end):
        """A probe of ``trials`` lanes at step 0, drawing from ``seed``."""
        rng = np.random.default_rng(seed)
        return cls(omega, rng, alpha1, alpha2, end, *_start(rng, trials), np.zeros(trials))


def _advance(probes, trials, burn_in):
    """Advance each of the Lyapunov ``probes``, all of ``trials`` lanes,
    through its next chunks (:func:`_chunk_end`), and return per probe None
    or the :class:`NumericOverflowError` that failed it.

    The probes run in :func:`_chunk` calls of ``slots`` chunks, as many full
    chunks as ``_CHUNK_VALUES`` lane-steps hold and at least one: a call
    takes the next ``slots`` probes, or where only ``n`` are left,
    ``slots // n`` chunks of each and at least one, none past a probe's
    end.  Set ``j`` of a call holds the ``j``-th chunk of each of its probes; the
    shorter chunks, and those of 0 steps past a probe's end, are padded
    with identities.  The products of each set are applied (:func:`_grown`)
    from the ``(v, x)`` the set before it left, and the growth of a counted
    chunk is added to the probe's ``acc``.

    A chunk with a failed lane runs again one step at a time with
    :func:`_block`, from the probe's own start and the same weights, and
    the logs of its steps are added with :func:`_add_logs`; its ``(v, x)``
    is the start of the probe's next set, and a failure there is returned
    at its step.  A chunk's bits depend on its own weights and start alone,
    so a probe's bits depend neither on the other probes nor on the number
    of chunks a call holds.
    """
    k_max = _chunk_steps(trials)
    slots = max(1, _CHUNK_VALUES // (k_max * trials))
    failures = [None] * len(probes)
    for first in range(0, len(probes), slots):
        call = probes[first:first + slots]
        n = len(call)
        done = [p.done for p in call]
        ks = []
        for _ in range(max(1, slots // n)):
            if done == [p.end for p in call]:
                break
            for i, p in enumerate(call):
                end = done[i]
                if end < p.end:
                    end = _chunk_end(end, burn_in, p.end - burn_in, k_max)
                ks.append(end - done[i])
                done[i] = end
        ar = np.zeros((max(ks), trials * len(ks)))
        for e, k in enumerate(ks):
            if k:
                p = call[e % n]
                ar[:k, e * trials:(e + 1) * trials] = _draw_weights(p.rng, p.alpha1, p.alpha2,
                                                                     (k, trials))
        omega = np.repeat(np.array([p.omega for p in call] * (len(ks) // n), dtype=float), trials)
        m, scale = _chunk(omega, ar, np.repeat(ks, trials))
        v, x = np.concatenate([(p.v, p.x) for p in call], axis=1)
        for j in range(0, len(ks), n):
            cut = slice(j * trials, (j + n) * trials)
            growth, v, x = _grown(m[:, :, cut], scale[cut], v, x)
            for i, p in enumerate(call):
                k = ks[j + i]
                if not k or failures[first + i] is not None:
                    continue
                lanes = slice(i * trials, (i + 1) * trials)
                if np.isfinite(growth[lanes]).all():
                    if p.done >= burn_in:
                        p.acc = p.acc + growth[lanes]
                else:
                    try:
                        norm, phase, _ = _block(p.omega, ar[:k, cut][:, lanes], p.v, p.x, p.done)
                    except NumericOverflowError as failure:
                        failures[first + i] = failure
                        continue
                    if p.done >= burn_in:
                        p.acc = _add_logs(p.acc, norm[0])
                    v[lanes], x[lanes] = phase[-1]
                p.v, p.x = v[lanes], x[lanes]
                p.done += k
    return failures


def _known_sign(omega, alpha1, alpha2):
    """The sign of the top Lyapunov exponent where theory fixes it, else
    None.

    +1 for ``|omega| >= 1``: the determinant identity ``lambda1 + lambda2 =
    log|omega|`` and ``lambda1 >= lambda2`` give ``lambda1 >= 0``, so no
    weight is stable.  At ``omega = 0`` the sign of the exact exponent
    :func:`_lambda0`, where it exceeds 1e-9, its rounding bound, in
    magnitude; otherwise the rule below.  -1 where the dynamics is
    mean-square stable, that is where the second-moment map on ``(E v^2,
    E v x, E x^2)``,

        [[w^2, -2 w mu,       s2         ],
         [w^2, w (1 - 2 mu),  s2 - mu    ],
         [w^2, 2 w (1 - mu),  1 - 2 mu + s2]],

    with ``w = omega`` and ``mu`` and ``s2`` the mean and second moment of
    the combined weight ``alpha1 r1 + alpha2 r2``, has spectral radius
    below ``r = 1 - 1e-9``: by Jensen ``2 lambda1 <= log rho < 0``.  For the
    equal split this is Poli's ``alpha < 24 (1 - omega^2) / (7 - 5 omega)``.
    The map's characteristic polynomial is ``z^3 - t z^2 + m z - w^3``, with
    ``t`` its trace and ``m`` the sum of its principal 2x2 minors; with
    ``t``, ``m`` and ``d = w^3`` divided by ``r``, ``r^2`` and ``r^3`` its
    roots lie within ``r`` exactly when the Schur-Cohn conditions ``|d + t|
    < 1 + m`` and ``|m - d t| < 1 - d^2`` hold.  No eigenvalue solver runs:
    numpy's LAPACK takes about 1 MB of resident memory on its first call.
    """
    if abs(omega) >= 1.0:
        return 1
    if omega == 0.0:
        lam = _lambda0(alpha1, alpha2)
        if abs(lam) > 1e-9:
            return 1 if lam > 0 else -1
    r = 1.0 - 1e-9
    mu = 0.5 * (alpha1 + alpha2)
    s2 = (alpha1 * alpha1 + alpha2 * alpha2) / 12.0 + mu * mu
    b = 1.0 - 2.0 * mu
    d = omega**3 / r**3
    t = (omega * omega + omega * b + b + s2) / r
    m = omega**3 + omega * omega * b + omega * (b * (b + s2) - 2.0 * (s2 - mu) * (1.0 - mu))
    m /= r * r
    if abs(d + t) < 1.0 + m and abs(m - d * t) < 1.0 - d * d:
        return -1
    return None


def _sign(value, se):
    """A Lyapunov probe's reply to :func:`_bisection`: 0 unless
    ``abs(value) > 3*se``, otherwise the sign of ``value``."""
    # with se == 0 any nonzero value is significant, and 0 is not; NaN is not
    if not abs(value) > 3.0 * se:
        return 0
    return 1 if value > 0 else -1


def _early_sign(n, pos, neg, live):
    """The reply to :func:`_bisection` that every end of a first-passage
    probe of ``n`` trials gives, when ``pos`` lanes have escaped, ``neg``
    converged and ``live`` are open, or None while the open lanes can still
    change it; with ``live == 0``, the probe's reply, never None.

    An end of ``e`` escaped and ``c`` converged lanes replies the sign of
    ``d = e - c`` if ``d*d*(n + 9) > 9*n*(e + c)``, that is if ``d/n``
    exceeds 3 times its standard error, and 0 otherwise.  Each end has
    ``e >= pos`` and ``c >= neg`` with ``e + c <= pos + neg + live``; ending
    with every open lane undecided is one of them.  Exact integers only.
    """
    top = pos + neg + live

    def quiet(e, c):
        d = e - c
        return d * d * (n + 9) <= 9 * n * (e + c)

    # quiet's left side minus its right is convex in (e, c), so it holds on
    # the whole triangle of ends if it holds at the three corners
    if quiet(pos, neg) and quiet(pos + live, neg) and quiet(pos, neg + live):
        return 0
    # every end's d lies in [lo, hi], its s at most top; the end with d at
    # the bound nearest 0 and s = top is the one nearest the threshold
    lo, hi = pos - neg - live, pos - neg + live
    if lo > 0 or hi < 0:
        m = lo if lo > 0 else hi
        if m * m * (n + 9) > 9 * n * top:
            return 1 if m > 0 else -1
    return None


def _inside(r_in):
    """The radius rule's convergence test for :class:`_FirstPassage`: a
    lane converges when its squared norm, in ``u[2]``, is at most
    ``r_in*r_in``."""
    rin2 = r_in * r_in
    return lambda u, x, out: np.less_equal(u[2], rin2, out)


class _FirstPassage:
    """First passage of lanes started at random unit ``(v, x)``, which later
    cohorts of lanes can join: :meth:`run` starts a cohort and steps every
    open lane, of every cohort, until none is left open.

    Each step draws ``u[:2]`` of the loop's ``(3, live)`` buffer ``u`` as
    ``rng.random((2, live))`` would, the stream of two ``rng.random(live)``
    calls, advances the live lanes with ``update(u, v, x) -> (v, x)`` and
    puts their squared norm ``v*v + x*x`` in ``u[2]``.  A lane converges
    where the experiment's rule ``converged(u, x, out)`` writes True into
    the boolean row ``out`` (:func:`_inside` for the radius rule), and
    escapes when ``v*v + x*x >= r_out*r_out``.  With radii within [1e-150,
    1e150] the squares are normal floats, so the radius tests are the exact
    norm comparisons up to rounding.  A lane retires at its first step with
    either outcome and counts for one only if the other does not hold; a
    NaN lane never retires, and a lane still open after ``steps`` steps of
    its own leaves undecided.  Nothing is drawn once no lane is open.  The
    loop ignores overflow and invalid operations, so ``update`` needs no
    ``np.errstate`` of its own.  The lanes and ``u`` belong to the loop:
    ``update`` may overwrite all three, and ``converged`` rows 0 and 1 of
    ``u``; only a retirement allocates.

    Retirement keeps the open lanes in order, so each cohort is a run of
    them, the oldest first, and a cohort reaching its step cap leaves as a
    prefix.  A later cohort's lanes start where the generator stands when
    it joins; one cohort is the plain first passage of its lanes.

    With ``early``, a run also stops at the first step whose counts fix the
    sign of a probe of every lane started so far (:func:`_early_sign`); the
    counts then give that sign, though not the counts of a full run, and
    the open lanes wait for the next run.
    """

    def __init__(self, seed, steps, update, converged, r_out, early=False):
        self.rng = np.random.default_rng(seed)
        self.steps, self.update, self.converged, self.early = steps, update, converged, early
        self.rout2 = r_out * r_out
        self.v = self.x = np.empty(0)
        # per cohort, the oldest first: [the step of its cap, the end of its
        # open lanes]
        self.cohorts = []
        self.lanes = self.t = self.n_conv = self.n_esc = 0

    def run(self, n):
        """Start lanes until ``n`` have started and run; returns the
        converged and escaped counts of every lane started."""
        rng, update, converged, cohorts = self.rng, self.update, self.converged, self.cohorts
        rout2, t, n_conv, n_esc = self.rout2, self.t, self.n_conv, self.n_esc
        v, x = _start(rng, n - self.lanes)
        v, x = np.concatenate((self.v, v)), np.concatenate((self.x, x))
        self.lanes = n
        cohorts.append([t + self.steps, x.size])
        # rows of u: two draws, then the squared norm
        floats = np.empty(3 * x.size)
        conv_buf, esc_buf, done_buf = np.empty((3, x.size), dtype=bool)
        m = -1
        # a squared norm past the float range is inf, which decides its lane,
        # and an update may overflow or meet inf - inf; one errstate for the
        # loop, not one a step
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                while cohorts and cohorts[0][0] == t:
                    k = cohorts.pop(0)[1]
                    v, x = v[k:], x[k:]
                    for c in cohorts:
                        c[1] -= k
                # the counts and the open lanes change only together
                if x.size != m:
                    m = x.size
                    if m == 0 or self.early and _early_sign(n, n_esc, n_conv, m) is not None:
                        break
                    u, conv, esc = floats[:3 * m].reshape(3, m), conv_buf[:m], esc_buf[:m]
                t += 1
                rng.random(out=u[:2])
                v, x = update(u, v, x)
                norm2 = np.multiply(v, v, u[2])
                np.add(norm2, np.multiply(x, x, u[0]), norm2)
                converged(u, x, conv)
                np.greater_equal(norm2, rout2, esc)
                n_c, n_e = int(np.count_nonzero(conv)), int(np.count_nonzero(esc))
                if n_c or n_e:
                    done = np.logical_or(conv, esc, done_buf[:m])
                    if n_c and n_e:
                        # a lane passing both tests counts for neither; under
                        # the radius rule, r_in < 1 < r_out, none can
                        n_both = n_c + n_e - int(np.count_nonzero(done))
                        n_c, n_e = n_c - n_both, n_e - n_both
                    n_conv += n_c
                    n_esc += n_e
                    keep = np.logical_not(done, done)
                    for c in cohorts[:-1]:
                        c[1] = int(np.count_nonzero(keep[:c[1]]))
                    v, x = v[keep], x[keep]
                    cohorts[-1][1] = x.size
        self.v, self.x, self.t, self.n_conv, self.n_esc = v, x, t, n_conv, n_esc
        return n_conv, n_esc


def _add_logs(acc, norm):
    """``acc`` plus the logs of the rows of ``norm``, added one row after
    another exactly as a per-step ``acc += np.log(norm)`` would."""
    logs = np.log(norm)
    logs[0] += acc
    # accumulate, not reduce: numpy's reduce adds a single lane pairwise
    return np.add.accumulate(logs, axis=0, out=logs)[-1]


def _estimate(acc, steps, burn_in) -> LyapunovEstimate:
    """Per-step mean of the accumulated log growth, error across trials."""
    trials = acc.size
    per_trial = acc / steps
    std_error = float(per_trial.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return LyapunovEstimate(float(per_trial.mean()), std_error, steps, trials, burn_in)


def lyapunov_exponent(
    omega: float,
    alpha1: float,
    alpha2: float,
    steps: int = 100_000,
    trials: int = 32,
    burn_in: int = _BURN_IN,
    seed=None,
) -> LyapunovEstimate:
    """Estimate the top Lyapunov exponent of the random product.

    Iterates ``a <- M a / ||M a||`` with a fresh random matrix each step,
    accumulating ``log ||M a||`` after the burn-in; the estimate averages
    over steps and independent trials started from random directions, and
    the standard error is taken across trials (0 for one trial).

    Arithmetic: the steps run in chunks of at most 256 steps (fewer above
    64 trials).  The burn-in is cut every chunk length from its start; the
    counted steps fall into the dyadic intervals ``[0, o]``, ``[o, 2 o]``,
    ... ``[steps / 2, steps]``, ``o`` the odd part of ``steps``, each cut
    every chunk length from its own start.  A chunk's matrices are
    multiplied in pairs, level by level, with exact power-of-two
    rescaling, and its log growth ``log ||P a||`` is added once.  The
    result equals the per-step sum of ``log ||M a||`` to rounding (about
    1e-15 relative in the value); the random draws are those of one draw
    per step.

    Parameters
    ----------
    omega, alpha1, alpha2 : float
        Dynamics parameters; ``omega`` must be finite, and the weights
        finite and nonnegative.
    steps, trials, burn_in : int
        Monte-Carlo budget; at least 1000 steps and 10 trials are
        recommended for production estimates.
    seed : int, SeedSequence or Generator, optional

    Raises
    ------
    ValueError
        For a non-finite ``omega``, invalid weights or an invalid budget.
    NumericOverflowError
        If renormalisation produces a norm outside (0, inf) (not expected
        for finite weights and ``|omega| <= 1.1``).  A chunk whose product
        fails is run again one step at a time from its start, so the error
        carries the first failing step, as a per-step loop would.
    """
    _check_point(omega, alpha1, alpha2)
    if trials < 1 or steps < 1 or burn_in < 0:
        raise ValueError("steps and trials must be >= 1, burn_in >= 0")
    probe = _Probe.open(omega, seed, alpha1, alpha2, trials, burn_in + steps)
    while probe.done < probe.end:
        failure, = _advance([probe], trials, burn_in)
        if failure is not None:
            raise failure
    return _estimate(probe.acc, steps, burn_in)


def lyapunov_pair(
    omega: float,
    alpha1: float,
    alpha2: float,
    steps: int = 100_000,
    trials: int = 32,
    burn_in: int = _BURN_IN,
    seed=None,
) -> tuple[LyapunovEstimate, LyapunovEstimate]:
    """Estimate both Lyapunov exponents via per-step orthonormalisation.

    A two-frame is propagated and Gram-Schmidt orthonormalised every step;
    the log norms of the two legs accumulate into the two exponents.  Their
    sum equals ``log |omega|`` (the determinant identity) up to rounding.
    ``omega = 0`` makes every matrix singular, so the second exponent is
    the ``-inf`` sentinel.  A non-finite ``omega``, invalid weights or an
    invalid budget raise ``ValueError``, and a failed renormalisation
    :class:`NumericOverflowError`, as in :func:`lyapunov_exponent`.
    """
    _check_point(omega, alpha1, alpha2)
    if omega == 0.0:
        top = lyapunov_exponent(omega, alpha1, alpha2, steps, trials, burn_in, seed)
        bottom = LyapunovEstimate(-math.inf, 0.0, steps, trials, burn_in)
        return top, bottom
    if trials < 1 or steps < 1 or burn_in < 0:
        raise ValueError("steps and trials must be >= 1, burn_in >= 0")
    rng = np.random.default_rng(seed)
    s, c = _start(rng, trials)
    # orthonormal frame per trial: q1 = (c, s), q2 = (-s, c) in (v, x); the
    # first leg is the renormalised orbit, which carries the second along
    acc1 = np.zeros(trials)
    acc2 = np.zeros(trials)
    for k0, norm, _ in _orbit(rng, omega, alpha1, alpha2, c, s, burn_in, steps, (-s, c)):
        if k0 >= burn_in:
            acc1 = _add_logs(acc1, norm[0])
            acc2 = _add_logs(acc2, norm[1])
    return _estimate(acc1, steps, burn_in), _estimate(acc2, steps, burn_in)


def stationary_distribution(
    omega: float,
    alpha1: float,
    alpha2: float,
    bins: int = 128,
    samples: int = 1_000_000,
    burn_in: int = _BURN_IN,
    n_chains: int = 8,
    seed=None,
) -> AngularHistogram:
    """Estimate the stationary measure of the direction process.

    Runs ``n_chains`` renormalised orbits from independent random angles
    (pooling chains covers the at-most-two ergodic components that occur
    where no matrix in the set has complex eigenvalues), records the angle
    ``atan2(v, x)`` after burn-in, and bins the pooled angles on [0, 2*pi).
    A non-finite ``omega``, invalid weights or an invalid budget raise
    ``ValueError``.
    """
    _check_point(omega, alpha1, alpha2)
    if bins < 64:
        raise ValueError("bins must be >= 64")
    if n_chains < 2 or burn_in < 0:
        raise ValueError("n_chains must be >= 2 and burn_in >= 0")
    if samples < n_chains:
        raise ValueError("samples must be >= n_chains")
    rng = np.random.default_rng(seed)
    per_chain = -(-samples // n_chains)
    orbit = _orbit(rng, omega, alpha1, alpha2, *_start(rng, n_chains), burn_in, per_chain)
    angles = np.empty((per_chain, n_chains))
    for k0, _, phase in orbit:
        if k0 >= burn_in:
            # contiguous copies: numpy may take another arctan2 path on strides
            v, x = np.ascontiguousarray(phase.transpose(1, 0, 2))
            np.arctan2(v, x, out=angles[k0 - burn_in : k0 - burn_in + len(v)])
    pooled = np.mod(angles.ravel()[:samples], 2.0 * np.pi)
    counts, _ = np.histogram(pooled, bins=bins, range=(0.0, 2.0 * np.pi))
    return AngularHistogram(mass=counts / counts.sum(), samples=samples)


def pushforward(
    hist: AngularHistogram,
    omega: float,
    alpha1: float,
    alpha2: float,
    draws: int = 4000,
    seed=None,
) -> AngularHistogram:
    """Push an angular histogram through one random step.

    Each bin centre is mapped through ``draws`` independent random matrices
    and its mass redistributed to the image bins.  For the stationary
    measure the result reproduces the input up to discretisation and
    Monte-Carlo error.  ``omega`` must be finite and the weights finite and
    nonnegative.
    """
    _check_point(omega, alpha1, alpha2)
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = np.random.default_rng(seed)
    bins = hist.bins
    centers = hist.bin_centers
    x = np.cos(centers)
    v = np.sin(centers)
    out = np.zeros(bins)
    for _ in range(draws):
        ar = _draw_weights(rng, alpha1, alpha2, (bins,))
        ang = np.mod(np.arctan2(*_step(omega, ar, v, x)), 2.0 * np.pi)
        idx = np.minimum((ang * (bins / (2.0 * np.pi))).astype(np.intp), bins - 1)
        np.add.at(out, idx, hist.mass)
    return AngularHistogram(mass=out / draws, samples=hist.samples)


def _escape_update(omega, alpha1, alpha2):
    """The escape experiment's ``update`` for :class:`_FirstPassage`."""

    def update(u, v, x):
        ar = _weights(alpha1, alpha2, u, u)
        return _step(omega, ar, v, x, (v, x), ar)

    return update


def escape_probability(
    omega: float,
    alpha1: float,
    alpha2: float,
    r_in: float = _R_IN,
    r_out: float = _R_OUT,
    max_steps: int = 1_000_000,
    trials: int = 10_000,
    seed=None,
) -> EscapeStats:
    """First-passage fractions from the unit circle to the inner or outer
    radius.

    Trials start at random angles on the unit circle of the (x, v) plane
    and iterate the homogeneous dynamics until the phase norm first drops
    to ``r_in`` (converged) or reaches ``r_out`` (escaped), decided from
    the squared norm by the rule of :class:`_FirstPassage`; trials hitting
    the step cap count as undecided.  ``omega`` must be finite, the weights
    finite and nonnegative, and the radii must satisfy ``1e-150 <= r_in < 1
    < r_out <= 1e150``.
    """
    _check_point(omega, alpha1, alpha2)
    # the unit start circle lies strictly between the radii, and both squares
    # are normal floats; NaN fails the comparison
    if not 1e-150 <= r_in < 1.0 < r_out <= 1e150:
        raise ValueError("require 1e-150 <= r_in < 1 < r_out <= 1e150")
    if trials < 1 or max_steps < 1:
        raise ValueError("trials and max_steps must be >= 1")
    n_conv, n_esc = _FirstPassage(seed, max_steps, _escape_update(omega, alpha1, alpha2),
                                  _inside(r_in), r_out).run(trials)
    n_und = trials - n_conv - n_esc
    return EscapeStats(
        p_converged=n_conv / trials,
        p_escaped=n_esc / trials,
        p_undecided=n_und / trials,
        trials=trials,
        r_in=r_in,
        r_out=r_out,
        max_steps=max_steps,
    )


def _bisection(seed, ratio, lo, hi, tolerance, omega, max_level):
    """Bisect a noisy sign function of the combined weight; negative means
    inside the stable set.

    A generator: it yields probe requests ``(alpha1, alpha2, level,
    child_seed)`` (the split weights, the budget level and the child of
    ``seed`` spawned for this weight), is sent back each probe's sign, and
    returns the :class:`CriticalPoint`.  A sign is -1 or +1 when the probe's
    estimate is 3-sigma significant and 0 when it is not (:func:`_sign`, or
    :func:`_early_sign` for a first passage); the point depends on its
    probes through these signs only, so a first-passage probe may stop as
    soon as its sign is decided.  The bracket, finite with ``0 < lo < hi``,
    and ``max_level >= 0`` are the module's constants.  Bracket endpoints
    must be sign-significant before bisection.  Far from the root probes
    separate from zero at level 0; after a 0 the same weight is asked at the
    next level, up to ``max_level``, so the requests for one weight are
    levels 0, 1, ... in order with one child seed, and a level-L probe of
    budget ``2**L`` continues the probe below it.

    Bisection stops once the bracket is at most ``2 * tolerance`` wide, and
    asks no probe after that, or at a midpoint whose probe shows no
    significant sign even at ``max_level`` (statistically at the root).
    Either way the point is the bracket's midpoint with its half-width as
    ``std_error``, so a bracket that narrows to the end gives ``std_error <=
    tolerance``.  ``tolerance`` must be at least 0.000625: a bracket of
    0.00125 at the finest.
    """
    if not tolerance >= 0.000625:
        raise ValueError("tolerance must be >= 0.000625")
    children = _children(seed)

    def significant(alpha):
        """Raise the level until the probe's sign is nonzero; 0 if it never is."""
        child = next(children)
        for level in range(max_level + 1):
            sign = yield (*split_alpha(alpha, ratio), level, child)
            if sign:
                return sign
        return 0

    # the low end must probe stable (negative), the high end unstable
    for end, end_sign in ((lo, -1), (hi, 1)):
        sign = yield from significant(end)
        if not sign:
            return CriticalPoint(omega, math.nan, math.nan, STATUS_UNRESOLVED)
        if sign * end_sign < 0:
            return CriticalPoint(omega, math.nan, math.nan, STATUS_NO_CROSSING)
    while hi - lo > 2.0 * tolerance:
        mid = 0.5 * (lo + hi)
        sign = yield from significant(mid)
        if not sign:
            # statistically at the root at full budget: |value| <= 3*se
            break
        if sign < 0:
            lo = mid
        else:
            hi = mid
    return CriticalPoint(omega, 0.5 * (lo + hi), 0.5 * (hi - lo), STATUS_OK)


def _solve(omegas, seeds, ratio, tolerance, alpha_lo, alpha_max, max_level, start, advance=None):
    """Critical points: one :func:`_bisection` per value of ``omegas``,
    seeded by its entry of ``seeds``, with at most one open probe each.

    ``start(omega, *request, probe)`` answers a request of the point at
    ``omega``, given the point's previous probe (None before its first),
    which a request at a level above 0 continues.  It returns ``(probe,
    reply)``: the request's probe, or None if it needs none, and its sign
    (:func:`_bisection`), or None while the probe still runs.
    ``advance(probes)`` moves the running probes, keyed by point index, on
    and yields ``(i, reply)`` for each: None while it runs, then its sign or
    the :class:`NumericOverflowError` that failed it; a kind whose probes
    always reply at once needs no ``advance``.  A failure drops the points
    after its own, and the failure of the first failing point is raised, as
    in a loop over them.
    """
    searches = [_bisection(seed, ratio, alpha_lo, alpha_max, tolerance, w, max_level)
                for w, seed in zip(omegas, seeds)]
    points = [None] * len(omegas)
    probes = {}
    failed, failure = len(omegas), None

    def ask(i, reply):
        """Send point ``i`` its replies until a probe runs or the point
        closes with its result."""
        probe = probes.get(i)
        try:
            # a probe runs once it is there with no reply yet
            while probe is None or reply is not None:
                probe, reply = start(omegas[i], *searches[i].send(reply), probe)
            probes[i] = probe
        except StopIteration as stop:
            points[i] = stop.value
            probes.pop(i, None)

    for i in range(len(omegas)):
        ask(i, None)
    while probes:
        # every reply first: ask changes the dict that advance reads
        for i, reply in list(advance(probes)):
            if isinstance(reply, NumericOverflowError):
                if i < failed:
                    failed, failure = i, reply
            elif reply is not None:
                ask(i, reply)
        probes = {i: p for i, p in probes.items() if i < failed}
    if failure is not None:
        raise failure
    return tuple(points)


def _lyapunov_kind(steps, trials, burn_in):
    """``(start, advance)`` of :func:`_solve` for Lyapunov probes, which
    advance together through :func:`_advance`, the one place that lays
    their chunks out in kernel calls.

    A level-L probe runs ``steps * 2**L`` steps after the burn-in; above
    level 0 it continues the orbit of the probe below it, whose draws are a
    prefix of its own and whose chunks are cut where the longer orbit's
    are.  So each probe gives the bits of the :func:`lyapunov_exponent`
    call for its request: its chunks do not depend on the other probes,
    and the identities that pad them change no bit.  A probe needs two
    trials or more: its error is the spread across them.

    A request whose sign theory fixes (:func:`_known_sign`) opens no probe:
    ``start`` replies with that sign at once.  Such a sign is nonzero, so it
    never asks a level above 0.
    """
    def start(omega, a1, a2, level, child, probe):
        if not level:
            sign = _known_sign(omega, a1, a2)
            if sign is not None:
                return None, sign
            probe = _Probe.open(omega, child, a1, a2, trials, 0)
        probe.end = burn_in + steps * 2**level
        return probe, None

    def advance(probes):
        for (i, p), failure in zip(probes.items(), _advance([*probes.values()], trials, burn_in)):
            if failure is None and p.done == p.end:
                est = _estimate(p.acc, p.end - burn_in, burn_in)
                yield i, _sign(est.value, est.std_error)
            else:
                yield i, failure

    return start, advance


def _check_omega(omega) -> float:
    """``omega`` as a float; it must be finite and lie within [-1.1, 1.1]."""
    omega = float(omega)
    # NaN fails the comparison
    if not abs(omega) <= 1.1 + 1e-12:
        raise ValueError(f"omega must be finite and lie within [-1.1, 1.1], got {omega}")
    return omega


def _grid(omega_grid, seed):
    """The checked ``omega_grid`` as a list, and one child of ``seed`` a point."""
    omegas = [_check_omega(w) for w in omega_grid]
    if not omegas:
        raise ValueError("omega_grid must be non-empty")
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ValueError("omega_grid must be strictly increasing")
    return omegas, [child for _, child in zip(omegas, _children(seed))]


def _passage_kind(trials, steps, update, converged):
    """``start`` of :func:`_solve` for first-passage probes, which run to
    their sign when they are asked, so a point's probes run one after
    another and the points one after another.

    A level-L probe at ``(omega, a1, a2)`` is a :class:`_FirstPassage` with
    ``trials * 2**L`` lanes, the update ``update(omega, a1, a2)`` and the
    convergence rule ``converged``; above level 0 it is the probe below it
    with as many lanes again, its open lanes continued.  Its reply is
    :func:`_early_sign` of its escaped and converged counts.
    """

    def start(omega, a1, a2, level, child, passage):
        if not level:
            passage = _FirstPassage(child, steps, update(omega, a1, a2), converged, _R_OUT,
                                    early=True)
        passage.run(trials * 2**level)
        return passage, _early_sign(passage.lanes, passage.n_esc, passage.n_conv, 0)

    return start


def _critical_points(omegas, ratio, tolerance, seeds, method, steps, trials):
    """:func:`critical_alpha` at each value of the list ``omegas``, point
    ``i`` seeded by ``seeds[i]``, in one :func:`_solve` call.  ``steps`` and
    ``trials`` are checked for both methods, though only Lyapunov probes
    run them, so no curve records an invalid budget."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if trials < 2:
        raise ValueError("a Lyapunov bisection needs trials >= 2")
    if method == "lyapunov":
        max_level, kind = _MAX_LEVEL, _lyapunov_kind(steps, trials, _BURN_IN)
    elif method == "escape":
        max_level, kind = _ESCAPE_MAX_LEVEL, (_passage_kind(
            _ESCAPE_TRIALS, _ESCAPE_MAX_STEPS, _escape_update, _inside(_R_IN)),)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _solve(omegas, seeds, ratio, tolerance, *_BRACKET, max_level, *kind)


def critical_alpha(
    omega: float,
    ratio: str = RATIO_EQUAL,
    tolerance: float = 0.02,
    seed=None,
    method: str = "lyapunov",
    steps: int = 10_000,
    trials: int = 16,
) -> CriticalPoint:
    """Locate the combined weight where the dynamics is marginally stable.

    Stochastic bisection on the bracket ``(0.05, 8]``, solved as a curve of
    one point; with ``method="lyapunov"`` the sign probe is the Lyapunov
    estimate of ``trials`` orbits of ``steps`` steps after a burn-in of
    1000, and with ``method="escape"`` it is the difference between escape
    and convergence probabilities over 2500 trials of at most 20 000
    steps.  ``omega`` must be finite and lie within [-1.1, 1.1].  A bracket
    endpoint must show a 3-sigma significant sign before bisection (a probe
    of exactly 0 shows none).  Near the root a probe that shows no
    significant sign is continued at twice its budget: the Lyapunov orbits
    run twice the steps, up to three times, or the escape probe adds as
    many trials again, up to five times (80 000 trials at most).

    With ``method="lyapunov"``, ``trials`` must be at least 2: a probe's
    error is the spread across its trials, and one trial has none.

    With ``method="lyapunov"`` a probe whose sign theory fixes runs no
    orbit: every weight at ``|omega| >= 1`` is unstable, by the determinant
    identity, every weight at ``omega = 0`` has the sign of the exact
    exponent ``E log|1 - s|``, and every mean-square stable weight is
    stable.  So a weight below the mean-square boundary, such as the
    bracket's low end at most values of ``omega``, costs no lanes,
    ``|omega| >= 1`` gives ``NO_CROSSING``, and ``omega = 0`` gives the
    same point for every seed and budget, within ``tolerance`` of the exact
    root.

    Returns a :class:`CriticalPoint` whose status is ``NO_CROSSING`` if no
    significant sign change exists in the bracket and ``UNRESOLVED`` if the
    adaptive budget cannot separate the probe from zero (expected near
    ``omega = +-1`` with ``method="escape"``; with ``method="lyapunov"``
    chiefly just inside ``|omega| < 1``, where the mean-square boundary lies
    below the bracket's low end).  An ``OK`` point is the midpoint of the last bracket
    and its ``std_error`` the bracket's half-width: at most ``tolerance``,
    unless the bisection stopped at a midpoint whose probe showed no
    significant sign even at the top budget level, where it can be far
    above ``tolerance`` (the escape curve at CLI defaults, seed 0, gives
    ``omega = 0.9`` as 3.0312 +- 0.9938).
    """
    return _critical_points([_check_omega(omega)], ratio, tolerance, [seed], method, steps,
                            trials)[0]


def critical_curve(
    omega_grid,
    ratio: str = RATIO_EQUAL,
    tolerance: float = 0.02,
    seed=None,
    method: str = "lyapunov",
    steps: int = 10_000,
    trials: int = 16,
) -> CriticalCurve:
    """Solve for the critical weight on a grid of inertia values.

    Grid values must be finite, strictly increasing and lie within
    [-1.1, 1.1].  All points run through one solver call; point ``i`` is
    the :func:`critical_alpha` result for the ``i``-th child of ``seed`` and
    the given budget.  A point that finds no crossing or cannot resolve the
    root carries its status marker; an ``OK`` point can have a
    ``std_error`` above ``tolerance``, as :func:`critical_alpha` says.  With
    ``method="lyapunov"`` the points at ``|omega| >= 1`` are ``NO_CROSSING``
    without a probe, the point at ``omega = 0`` runs none either, and
    weights below the mean-square boundary are stable without one
    (:func:`critical_alpha`).  A
    numeric failure of a probe is not a status: it raises
    :class:`NumericOverflowError`, for the lowest failing ``omega``, as a
    loop over the grid would.
    """
    omegas, seeds = _grid(omega_grid, seed)
    points = _critical_points(omegas, ratio, tolerance, seeds, method, steps, trials)
    return CriticalCurve(points=points, ratio=ratio, method=_METHODS[method])


def finite_time_lyapunov(
    omega: float,
    alpha1: float,
    alpha2: float,
    z0_scale: float = 1.0,
    p: float = 0.0,
    g: float = 0.0,
    steps: int = 200,
    repetitions: int = 1000,
    seed=None,
) -> float:
    """Finite-time growth estimate ``log(<||(x_t, v_t)||>) / t`` for the
    one-dimensional affine dynamics with fixed best positions.

    Trajectories start from the circle of radius ``z0_scale``; the norm is
    averaged over repetitions before taking the log.  Scaling ``z0_scale``,
    ``p`` and ``g`` jointly by ``kappa`` shifts the result by exactly
    ``log(kappa) / steps`` for the same seed.  With ``p = g = 0`` the
    computation runs on the renormalised orbit in log space (immune to
    underflow) and converges to the asymptotic exponent for large ``t``.

    Raises
    ------
    ValueError
        For a non-finite ``omega``, invalid weights or budgets, a
        ``z0_scale`` that is not finite and positive, or a ``p`` or ``g``
        that is not finite.
    NumericOverflowError
        When a trajectory leaves the floating range; carries the step
        index reached.
    """
    _check_point(omega, alpha1, alpha2)
    if steps < 1 or repetitions < 1:
        raise ValueError("steps and repetitions must be >= 1")
    # NaN fails both comparisons
    if not 0.0 < z0_scale < math.inf:
        raise ValueError(f"z0_scale must be finite and > 0, got {z0_scale}")
    if not (math.isfinite(p) and math.isfinite(g)):
        raise ValueError("p and g must be finite")
    rng = np.random.default_rng(seed)
    v, x = _start(rng, repetitions)
    if p == 0.0 and g == 0.0:
        # homogeneous case: track per-repetition log norms exactly
        ell = np.zeros(repetitions)
        for _, norm, _ in _orbit(rng, omega, alpha1, alpha2, v, x, 0, steps):
            ell = _add_logs(ell, norm[0])
        ell += np.log(z0_scale)
        m = ell.max()
        return float((m + np.log(np.mean(np.exp(ell - m)))) / steps)
    x = z0_scale * x
    v = z0_scale * v
    # an escaping trajectory overflows; one errstate for the loop, not one a step
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            u = rng.random((2, repetitions))
            v, x = _affine(omega, alpha1, alpha2, v, x, u[0], u[1], p, g)
            # x' = x + v': a v' that is not finite makes x' not finite too
            if not np.isfinite(x).all():
                raise NumericOverflowError("trajectory left floating range", step=k)
    return float(np.log(np.mean(np.hypot(x, v))) / steps)


def _neutral_segment(config, r_in):
    """The neutral experiment's ``(update, converged)`` for
    :class:`_FirstPassage`, from the unit circle.  ``update(omega, alpha1,
    alpha2)`` is the affine step towards the scaled bests ``p_eff`` and
    ``g_eff`` at that point.  A lane converges when its position lies
    within ``r_in * |p - g|`` of the segment between the bests, between two
    bounds each rounded once, or, for bests that coincide (at 0, as
    :class:`ScalingConfig` requires), by the radius rule :func:`_inside`;
    it diverges when its phase norm reaches ``r_out``, and counts for
    neither outcome if it passes both tests at once.  The bests and the
    rule depend on neither the inertia nor the weights, so a curve finds
    them once."""
    p_eff = config.kappa * config.p
    g_eff = config.kappa * config.g

    def update(omega, alpha1, alpha2):
        return lambda u, v, x: _affine(omega, alpha1, alpha2, v, x, u[0], u[1], p_eff, g_eff,
                                       (v, x), u)

    seg_lo = float(min(p_eff, g_eff))
    seg_hi = float(max(p_eff, g_eff))
    width = seg_hi - seg_lo
    if width == 0.0:
        return update, _inside(r_in)
    thr = r_in * width
    # a bound past the float range is clamped to it, so that an infinite
    # position never passes; Python floats overflow without a warning
    x_lo = max(seg_lo - thr, -sys.float_info.max)
    x_hi = min(seg_hi + thr, sys.float_info.max)

    def near_segment(u, x, out):
        # the bytes of u's row 1 hold the second comparison
        below = np.less_equal(x, x_hi, u[1].view(bool)[:x.size])
        return np.logical_and(np.greater_equal(x, x_lo, out), below, out)

    return update, near_segment


def _neutral_points(omega, config, ratio, tolerance, seed):
    """:func:`neutral_alpha` at each value of the list ``omega``, point ``i``
    seeded by ``seed[i]``, in one :func:`_solve` call."""
    start = _passage_kind(config.repetitions, config.iterations, *_neutral_segment(config, _R_IN))
    return _solve(omega, seed, ratio, tolerance, *_NEUTRAL_BRACKET, _NEUTRAL_MAX_LEVEL, start)


def neutral_alpha(
    omega: float,
    config: ScalingConfig,
    ratio: str = RATIO_EQUAL,
    tolerance: float = 0.02,
    seed=None,
) -> CriticalPoint:
    """Boundary weight where convergence and divergence fractions are equal
    in the scaled finite-time experiment, solved as a curve of one point.
    ``omega`` must be finite and lie within [-1.1, 1.1].  The radii are
    fixed at ``r_in = 1e-6`` and ``r_out = 1e6``, the bisection bracket is
    ``(0.25, 8]``, and near the root a probe that shows no significant sign
    is continued with as many repetitions again, up to twice.  An ``OK``
    point's ``std_error`` is the last bracket's half-width: at most
    ``tolerance``, unless the bisection stopped at a midpoint whose probe
    showed no significant sign even at the top budget level, where it can
    be far above ``tolerance``."""
    return _neutral_points([_check_omega(omega)], config, ratio, tolerance, [seed])[0]


def neutral_stability_curve(
    config: ScalingConfig,
    omega_grid,
    tolerance: float = 0.02,
    seed=None,
    ratio: str = RATIO_EQUAL,
) -> CriticalCurve:
    """Neutral-stability boundary over an inertia grid for one scaling
    configuration, in one solver call: point ``i`` is the
    :func:`neutral_alpha` result for the ``i``-th child of ``seed``.  Point
    failures are carried as status markers.  Grid values must be finite,
    strictly increasing and lie within [-1.1, 1.1]."""
    omegas, seeds = _grid(omega_grid, seed)
    points = _neutral_points(omegas, config, ratio, tolerance, seeds)
    return CriticalCurve(points=points, ratio=ratio, method=METHOD_ESCAPE)
