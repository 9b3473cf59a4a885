"""Benchmark cost functions with shift, rotation and non-continuous
transforms.

A classical seven-function suite (sphere, rosenbrock, rastrigin, ackley,
griewank, schwefel, weierstrass) spanning unimodal, multimodal and rugged
landscapes.  Every instance satisfies ``F(x*) = 0`` at its shifted optimum
and ``F >= 0`` everywhere.  Evaluation applies the shift, then the
rotation, then the optional non-continuous transform, then the base
formula.  Weierstrass cubes one ``cos + i sin`` per coordinate for its 21
terms, within 1e-11 (``|z| <= 1``) and 1e-9 (``|z| <= 100``) of exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BenchmarkFunction",
    "FUNCTION_IDS",
    "evaluate",
    "make_function",
    "save_manifest",
    "suite",
    "suite_manifest",
]

DEFAULT_DOMAIN = (-100.0, 100.0)


def _sphere(z):
    return np.sum(z * z, axis=-1)


def _rosenbrock(z):
    # optimum moved to the origin: classic formula evaluated at z + 1
    y = z + 1.0
    return np.sum(100.0 * (y[..., 1:] - y[..., :-1] ** 2) ** 2 + (y[..., :-1] - 1.0) ** 2, axis=-1)


def _rastrigin(z):
    return np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0, axis=-1)


def _ackley(z):
    d = z.shape[-1]
    rms = np.sqrt(np.sum(z * z, axis=-1) / d)
    mean_cos = np.sum(np.cos(2.0 * np.pi * z), axis=-1) / d
    return -20.0 * np.exp(-0.2 * rms) - np.exp(mean_cos) + 20.0 + np.e


def _griewank(z):
    d = z.shape[-1]
    idx = np.sqrt(np.arange(1, d + 1, dtype=float))
    return np.sum(z * z, axis=-1) / 4000.0 - np.prod(np.cos(z / idx), axis=-1) + 1.0


def _schwefel(z):
    # Schwefel problem 1.2, the rotated hyper-ellipsoid double sum
    c = np.cumsum(z, axis=-1)
    return np.sum(c * c, axis=-1)


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
    return np.sum(per_coord, axis=-1) - z.shape[-1] * _W_BIAS


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
    seed: int | None = field(default=None, compare=False)
    # unannotated, so a class constant and not a field: every instance
    # searches the same domain
    domain = DEFAULT_DOMAIN

    def __post_init__(self):
        if self.id not in _BASE:
            raise ValueError(f"unknown function id {self.id!r}")
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

    @property
    def optimum_position(self) -> np.ndarray:
        return self.shift

    @property
    def optimum_value(self) -> float:
        return 0.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {pts.shape[-1]}")
        z = pts - self.shift
        if self.rotation is not None:
            z = z @ self.rotation.T
        if self.noncontinuous:
            z = _noncontinuous(z)
        out = _BASE[self.id](z)
        return float(out[0]) if single else out

    def describe(self) -> dict:
        return {
            "id": self.id,
            "label": self.label,
            "dim": self.dim,
            "seed": self.seed,
            "rotated": self.rotation is not None,
            "noncontinuous": self.noncontinuous,
            "domain": list(self.domain),
            "shift": [float(v) for v in self.shift],
        }


def evaluate(f: BenchmarkFunction, x) -> float:
    """Evaluate one point; raises on dimension mismatch, never clamps."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dim,):
        raise ValueError(f"expected shape ({f.dim},), got {x.shape}")
    return float(f(x))


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
    if id not in _BASE:
        raise ValueError(f"unknown function id {id!r}")
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
        seed=seed,
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


def suite_manifest(functions) -> list[dict]:
    """JSON-ready description of a suite."""
    return [f.describe() for f in functions]


def save_manifest(functions, path) -> None:
    """Write the suite manifest as JSON."""
    from .io import write_json

    write_json(path, {"functions": suite_manifest(functions)})
