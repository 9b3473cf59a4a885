"""Benchmark cost functions with shift, rotation and non-continuous
transforms.

A classical seven-function suite (sphere, rosenbrock, rastrigin, ackley,
griewank, schwefel, weierstrass) spanning unimodal, multimodal and rugged
landscapes.  Every instance satisfies ``F(x*) = 0`` at its shifted optimum
and ``F >= 0`` everywhere.  Evaluation applies the shift, then the
rotation, then the optional non-continuous transform, then the base
formula.  Weierstrass cubes one ``cos + i sin`` per coordinate for its 21
terms, within 1e-11 (``|z| <= 1``) and 1e-9 (``|z| <= 100``) of exact.

Four base formulas carry a cheap lower bound, which lets an optimiser
skip a point whose cost cannot beat a ceiling (its personal best):
rastrigin is at least ``sum z**2``, griewank at least ``sum z**2 / 4000``,
ackley at least its formula with the mean cosine screened in float32, and
weierstrass at least the partial sum of its first four terms, each
``a**k (1 + cos 2 pi 3**k (z + 1/2))`` of which is >= 0, computed with
no sine by the tripling ``cos 3u = 4 cos**3 u - 3 cos u`` from a float32
cosine.  The two float32 screens take the cosine of the exact fraction
``z - rint z`` and subtract an error budget that covers the float32
cosine, its float32 row sum, the tripling's growth and the formula's own
rounding of ``2 pi z``, so the float64 cosine runs only on the rows that
can still beat their ceiling.  With a ceiling, which only the stack cost
``_Stack`` takes, a base formula runs only on the rows whose bound, less
margins that cover the formula's rounding, is below their ceiling, and
+inf stands for the others; an instance's own call evaluates every row.
In the 15-instance suite sweep at dim 10 (25 particles, 200 iterations)
the ackley screen skips about 88% of the rows and the weierstrass bound
about 90%.  The other formulas carry none: rosenbrock costs too little
for the bookkeeping to pay, and sphere and schwefel are their own
cheapest bounds.

At low dims the shift and the formulas' sums over the coordinate axis run
one column at a time (``_shifted``, ``_row_sum``), bit for bit as the
broadcast subtract and ``np.sum`` round.

The optimiser costs each batch of swarms, of one instance or several,
through one stack cost (``_Stack``): each instance transforms its own
swarms, and each base formula then runs once on all the swarms that share
it, such as plain, rotated and non-continuous rastrigin.  A stack of one
instance makes the same transform and formula calls as that instance's
own call.  Either call takes every row, a non-finite one too, whose cost
is then inf or NaN; the optimiser reads it as +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BenchmarkFunction",
    "FUNCTION_IDS",
    "make_function",
    "suite",
]

DEFAULT_DOMAIN = (-100.0, 100.0)

# Up to these many coordinates, one ufunc call per coordinate column beats
# numpy's broadcast or reduction over the short last axis, whose inner loop
# runs only dim elements long (a 1-long axis broadcasts as a scalar, fast).
# Column adds round as ``np.sum`` does only up to 7 coordinates: from 8 on,
# it sums pairwise.
_COLUMN_SUB_DIMS = 4
_COLUMN_SUM_DIMS = 7


def _row_sum(a):
    """``np.sum(a, axis=-1)``, bit for bit, as column adds where they are
    faster."""
    d = a.shape[-1]
    if not 1 <= d <= _COLUMN_SUM_DIMS:
        return np.sum(a, axis=-1)
    s = a[..., 0] + a[..., 1] if d > 1 else a[..., 0].copy()
    for j in range(2, d):
        s += a[..., j]
    # np.sum adds to +0.0, so a row of -0.0 sums to +0.0, not -0.0
    s += 0.0
    return s


def _shifted(pts, shift):
    """``pts - shift``, as column subtracts where they are faster."""
    if not 2 <= len(shift) <= _COLUMN_SUB_DIMS:
        return pts - shift
    z = np.empty(pts.shape)
    for j, s in enumerate(shift):
        np.subtract(pts[..., j], s, z[..., j])
    return z


def _sphere(z):
    return _row_sum(z * z)


def _rosenbrock(z):
    # optimum moved to the origin: classic formula evaluated at z + 1
    y = z + 1.0
    return _row_sum(100.0 * (y[..., 1:] - y[..., :-1] ** 2) ** 2 + (y[..., :-1] - 1.0) ** 2)


def _rastrigin(z):
    return _row_sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0)


def _ackley(z):
    d = z.shape[-1]
    rms = np.sqrt(_sphere(z) / d)
    mean_cos = _row_sum(np.cos(2.0 * np.pi * z)) / d
    return -20.0 * np.exp(-0.2 * rms) - np.exp(mean_cos) + 20.0 + np.e


def _griewank(z):
    d = z.shape[-1]
    idx = np.sqrt(np.arange(1, d + 1, dtype=float))
    return _sphere(z) / 4000.0 - np.prod(np.cos(z / idx), axis=-1) + 1.0


def _schwefel(z):
    # Schwefel problem 1.2, the rotated hyper-ellipsoid double sum
    c = np.cumsum(z, axis=-1)
    return _row_sum(c * c)


_W_KMAX = 20
_W_A = 0.5 ** np.arange(_W_KMAX + 1)
# sum_k a^k cos(pi 3^k): every 3^k is odd, so each cosine is -1
_W_BIAS = -float(np.sum(_W_A))


def _weierstrass(z):
    # cos(2 pi 3^k (z + 1/2)) = Re exp(2 pi i (z + 1/2))^(3^k): no cosine of
    # an argument up to ~1e12 (slow, and NaN once 3^20 z overflows)
    t = 2.0 * np.pi * (z + 0.5)
    c, s = np.cos(t), np.sin(t)
    per_coord = c.copy()
    for a in _W_A[1:]:
        cc, ss = c * c, s * s
        c, s = c * (cc - 3.0 * ss), s * (3.0 * cc - ss)
        per_coord += a * c
    return _row_sum(per_coord) - z.shape[-1] * _W_BIAS


_BASE = {
    "sphere": _sphere,
    "rosenbrock": _rosenbrock,
    "rastrigin": _rastrigin,
    "ackley": _ackley,
    "griewank": _griewank,
    "schwefel": _schwefel,
    "weierstrass": _weierstrass,
}

FUNCTION_IDS = tuple(_BASE)


def _dot_rows(a):
    # row sums in a's dtype as one matrix-vector product over all rows, not
    # a stack of them: rounded differently from ``np.sum``, within the
    # bounds' margins, and faster at dims 2 and 10 (2-3x at 10, where
    # ``np.sum`` sums pairwise)
    d = a.shape[-1]
    return (a.reshape(-1, d) @ np.ones(d, a.dtype)).reshape(a.shape[:-1])


def _squares(z):
    return _dot_rows(np.square(z))


# The ackley and weierstrass bounds take their cosines in float32, whose
# numpy cosine is SIMD (under 1 ns a value on an AVX-512 x86-64 core, where
# the float64 one is scalar libm at 5-17 ns).  ``_cos32`` reduces z by its
# nearest integer first, exactly in float64, so the float32 argument lies
# in [-pi, pi]: there the float32 cosine is within 7.1e-8 (1.19 * 2**-24,
# the largest gap to the float64 cosine over every float32 in [0, pi]) and
# the argument's rounding within 2**-23, so ``_COS32_ERR`` bounds a
# cosine's error with room for float64's own.  A float32 sum of d terms
# of magnitude at most m errs by at most (d - 1) 2**-24 d m, and the
# formulas take the cosine of fl(2 pi z), which is within 9.5e-16 |z| of
# 2 pi z.  Each bound returns its value less these errors' budget, and
# ``_floor``'s margins then cover the float64 rounding as for the others.
_COS32_ERR = 2.0**-21
_SUM32_ERR = 2.0**-23  # per term of a float32 row sum, with room
_ARG_ERR = 1e-15  # per unit |z|


def _cos32(z):
    """cos 2 pi z in float32, from the exact fraction z - rint z."""
    f = np.rint(z)
    np.subtract(z, f, out=f)
    f *= 2.0 * np.pi
    c = f.astype(np.float32)
    return np.cos(c, out=c)


def _ackley_low(z):
    # the formula with its mean cosine raised by the budget: the float32
    # cosines and row sum, and fl(2 pi z)'s error, whose mean over a row is
    # at most _ARG_ERR mean|z| <= _ARG_ERR rms; clipped at 1, the most a
    # mean cosine can be, so that huge rows keep 20 (1 - exp(-0.2 rms))
    d = z.shape[-1]
    rms = np.sqrt(_squares(z) / d)
    budget = _COS32_ERR + d * _SUM32_ERR + _ARG_ERR * rms
    mean_cos = _dot_rows(_cos32(z)).astype(float) / d + budget
    return -20.0 * np.exp(-0.2 * rms) - np.exp(np.minimum(mean_cos, 1.0)) + 20.0 + np.e


# The weierstrass bound's last term: the terms k <= 0, 1, 2, 3 and 5 skip
# 6, 60, 83, 89 and 92% of the rows of the suite sweep at dim 10
_W_CUT = 3
# Up to this |z + 1/2| the formula's t = fl(2 pi (z + 1/2)) lies within
# 1e-9 of 2 pi (z + 1/2), inside _COS32_ERR's room; above it the bound
# takes t's own float64 cosine
_W_NEAR = 2.0**20
# The bound's error a coordinate.  A tripling scales the error of its cosine
# by at most |d cos 3u / d cos u| = |12 cos^2 u - 3| <= 9 and adds its
# float32 rounding, under 6.5 * 2**-24 < _COS32_ERR, so term k errs by at
# most (9^(k+1) - 1) / 8 _COS32_ERR; each float32 add into a coordinate's
# sum rounds by at most 3 * 2**-24 < 2**-22.
_W_ERR = float(sum(a * (9 ** (k + 1) - 1) / 8 * _COS32_ERR
                   for k, a in enumerate(_W_A[:_W_CUT + 1]))) + (_W_CUT + 1) * 2.0**-22


def _weierstrass_low(z):
    # sum_{k <= _W_CUT} a^k (1 + cos 3^k t), t = 2 pi (z + 1/2): the terms
    # of ``_weierstrass`` it drops are each >= 0.  ``_weierstrass`` cubes
    # its rounded t's cos + i sin, drifting from the exact cos 3^k t by
    # about 3^k eps, so over all 21 terms its cost stays within
    # sum_k 1.5^k eps ~ 2e-12 a coordinate of the exact sum at its t, well
    # under ``_floor``'s 1e-9 at dim 128.  The bound cubes cos t in float32
    # by the tripling cos 3u = 4 cos^3 u - 3 cos u, less _W_ERR a
    # coordinate, and its row sum of terms >= 0 less _SUM32_ERR of itself a
    # term.  A row whose t overflows has a NaN bound and is skipped as
    # +inf, where its cost would be NaN: neither beats a best.
    y = z + 0.5
    c = _cos32(y)
    far = np.abs(y) > _W_NEAR
    if far.any():
        np.cos(2.0 * np.pi * y, out=c, where=far)
    low = 1.0 + c
    # Python floats, so that the arithmetic stays float32
    for a in _W_A[1:_W_CUT + 1].tolist():
        c = c * (4.0 * c * c - 3.0)
        low += a * (1.0 + c)
    d = z.shape[-1]
    return _dot_rows(low).astype(float) * (1.0 - d * _SUM32_ERR) - d * _W_ERR


# Lower bounds of the base formulas that have a cheap one, by id: a row
# whose bound, less its margins (``_floor``), is not below a ceiling costs
# no less than that ceiling.  Rastrigin's and griewank's are float64 sums
# of squares; ackley's and weierstrass's screens take float32 cosines and
# subtract their own error budget.
_BOUND = {
    "rastrigin": _squares,  # every 10 (1 - cos 2 pi z) >= 0
    "griewank": lambda z: _squares(z) / 4000.0,  # 1 - prod cos >= 0
    "ackley": _ackley_low,
    "weierstrass": _weierstrass_low,
}


def _floor(bound):
    """``bound`` less margins that cover the rounding of the formulas it
    bounds: 1e-12 relative and 1e-9 absolute."""
    return bound * (1.0 - 1e-12) - 1e-9


def _noncontinuous(z):
    # identity within the half-unit band, half-step rounding outside
    return np.where(np.abs(z) <= 0.5, z, np.round(2.0 * z) / 2.0)


@dataclass(frozen=True)
class BenchmarkFunction:
    """One benchmark instance; pure and immutable after construction.

    Calling evaluates a single point of shape (dim,), a batch of shape
    (n, dim), or a stack of batches of shape (..., n, dim), which returns
    (..., n) and evaluates each (n, dim) batch bit for bit as a call on it
    alone would.  The optimum ``x* = shift`` satisfies ``F(x*) = 0``.
    """

    id: str
    dim: int
    shift: np.ndarray
    rotation: np.ndarray | None = None
    noncontinuous: bool = False
    # unannotated, so a class constant and not a field: every instance
    # searches the same domain
    domain = DEFAULT_DOMAIN

    def __post_init__(self):
        if self.id not in _BASE:
            raise ValueError(f"unknown function id {self.id!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.id == "rosenbrock" and self.dim < 2:
            raise ValueError("rosenbrock needs dim >= 2")
        shift = np.array(self.shift, dtype=float, copy=True)
        if shift.shape != (self.dim,):
            raise ValueError("shift must have shape (dim,)")
        shift.setflags(write=False)
        object.__setattr__(self, "shift", shift)
        if self.rotation is not None:
            rot = np.array(self.rotation, dtype=float, copy=True)
            if rot.shape != (self.dim, self.dim):
                raise ValueError("rotation must have shape (dim, dim)")
            rot.setflags(write=False)
            object.__setattr__(self, "rotation", rot)

    @property
    def label(self) -> str:
        """Distinct name for the instance variant, e.g. ``rastrigin-rot-nc``."""
        parts = [self.id]
        if self.rotation is not None:
            parts.append("rot")
        if self.noncontinuous:
            parts.append("nc")
        return "-".join(parts)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = _BASE[self.id](self._transform(np.atleast_2d(x)))
        return float(out[0]) if x.ndim == 1 else out

    def _transform(self, pts):
        """The points ``z`` the base formula takes: ``pts`` shifted, then
        rotated, then made non-continuous."""
        if pts.shape[-1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {pts.shape[-1]}")
        z = _shifted(pts, self.shift)
        if self.rotation is not None:
            z = z @ self.rotation.T
        if self.noncontinuous:
            z = _noncontinuous(z)
        return z


def _base_costs(fid, z, ceiling):
    """Base formula ``fid`` at the transformed points ``z``, +inf on the rows
    whose bound, less its margins, is not below their ``ceiling``."""
    base, bound = _BASE[fid], _BOUND.get(fid)
    if ceiling is None or bound is None:
        return base(z)
    low = _floor(bound(z))
    rows = np.flatnonzero(low < ceiling)
    out = np.full(low.shape, np.inf)
    np.put(out, rows, base(np.take(z.reshape(-1, z.shape[-1]), rows, axis=0)))
    return out


class _Stack:
    """The cost of a (B, n, dim) stack whose swarms belong to one or more
    instances: ``functions[owner[b]]`` is swarm b's.

    Each run of consecutive swarms of one instance is shifted, rotated and
    made non-continuous on its own, as a call of that instance on it would
    be, and each base formula then runs once on the consecutive runs that
    share it.  The formulas are elementwise plus row sums, so every swarm's
    costs are bit for bit those of its own instance's call on its block,
    a block with non-finite rows included.

    It is the one cost that takes a ceiling: ``_ceiling``, the optimiser's
    (B, n) personal best costs, gives +inf for each row whose bound, less
    its margins, is not below its ceiling, since that row's cost is not
    below it either, or is NaN.
    """

    def __init__(self, functions, owner):
        cuts = [0, *(np.flatnonzero(np.diff(owner)) + 1), len(owner)]
        self._runs = tuple((functions[owner[lo]], slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:]))
        groups = []
        for fn, rows in self._runs:
            if groups and groups[-1][0] == fn.id:
                groups[-1] = (fn.id, slice(groups[-1][1].start, rows.stop))
            else:
                groups.append((fn.id, rows))
        self._groups = tuple(groups)

    def __call__(self, x, *, _ceiling=None):
        z = [fn._transform(x[rows]) for fn, rows in self._runs]
        z = z[0] if len(z) == 1 else np.concatenate(z)
        out = [_base_costs(fid, z[rows], None if _ceiling is None else _ceiling[rows])
               for fid, rows in self._groups]
        return out[0] if len(out) == 1 else np.concatenate(out)


def _random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonalised Gaussian matrix with sign-fixed diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def make_function(
    id: str,
    dim: int,
    seed: int | None = None,
    rotated: bool = False,
    noncontinuous: bool = False,
) -> BenchmarkFunction:
    """Build a seeded benchmark instance.

    The shift is drawn uniformly in 0.8 times the domain; the rotation is
    a seeded random orthogonal matrix.  The same (id, dim, seed) always
    yields the same instance.
    """
    # the constructor checks the id; the dim must be valid before the draw
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = DEFAULT_DOMAIN
    shift = rng.uniform(0.8 * lo, 0.8 * hi, dim)
    rotation = _random_rotation(dim, rng) if rotated else None
    return BenchmarkFunction(
        id=id,
        dim=dim,
        shift=shift,
        rotation=rotation,
        noncontinuous=noncontinuous,
    )


def suite(dim: int, seed: int | None = None) -> list[BenchmarkFunction]:
    """Fixed-order benchmark suite: each base function plain and rotated,
    plus the non-continuous rotated rastrigin (15 instances)."""
    ss = np.random.SeedSequence(seed)
    children = iter(ss.generate_state(2 * len(FUNCTION_IDS) + 1))
    out = []
    for fid in FUNCTION_IDS:
        out.append(make_function(fid, dim, seed=int(next(children))))
    for fid in FUNCTION_IDS:
        out.append(make_function(fid, dim, seed=int(next(children)), rotated=True))
    out.append(
        make_function("rastrigin", dim, seed=int(next(children)), rotated=True, noncontinuous=True)
    )
    return out

