"""Command-line front end.

One binary with subcommands, machine-readable outputs only.  Every
stochastic subcommand takes an explicit (or defaulted) seed that is echoed
into the output metadata; identical invocations produce byte-identical
files.  Exit codes: 0 success, 1 validation error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import asdict

from . import benchmarks, harness, io, pso, stability
from .dynamics import SwarmParams

__all__ = ["main", "build_parser", "dispatch"]


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors and takes a
    negative real in exponent notation (``-1e-3``) as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # subparsers are built by this class too, so they inherit it
        self._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _ratio(value: str) -> str:
    key = value.replace("-", "_").lower()
    if key not in stability._SHARES:
        raise argparse.ArgumentTypeError(f"unknown ratio {value!r}")
    return key


def _split_help(default: str) -> str:
    """``equal | social-only (default equal)``: the split names as the
    flags take them, and ``default``."""
    names = " | ".join(name.replace("_", "-") for name in stability._SHARES)
    return f"{names} (default {default.replace('_', '-')})"


def _finite(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return x


def _positive(value: str) -> float:
    x = _finite(value)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return x


# sweep key -> (type, default, help); the key names the flag
# (``--omega-min``) and the config file entry (``omega_min = ...``), and
# both are read through the same type
_SWEEP_KEYS = {
    "omega_min": (_finite, -1.1, "lowest omega of the grid (default %(default)g)"),
    "omega_max": (_finite, 1.1, "highest omega of the grid (default %(default)g)"),
    "omega_step": (_positive, 0.1, "omega grid step (default %(default)g)"),
    "alpha_min": (_positive, 0.25, "lowest alpha of the grid (default %(default)g)"),
    "alpha_max": (_positive, 5.0, "highest alpha of the grid (default %(default)g)"),
    "alpha_step": (_positive, 0.25, "alpha grid step (default %(default)g)"),
    "split": (_ratio, "equal", _split_help("equal")),
    "iterations": (int, 2000, "iterations per run (default %(default)d)"),
    "repetitions": (int, 100, "runs per cell and function (default %(default)d)"),
    "functions": (str, None, "comma-separated ids (default: full suite)"),
    "dim": (int, 10, "problem dimension (default %(default)d)"),
    "particles": (int, 25, "swarm size (default %(default)d)"),
    "seed": (int, 0, "random seed (default %(default)d)"),
}


def _omega_grid(args):
    if args.omega_max < args.omega_min:
        raise ValueError("--omega-max must be >= --omega-min")
    return harness.inclusive_grid(args.omega_min, args.omega_max, args.step)


def _add_point(p, split="equal"):
    """Add a point's ``--omega``, ``--alpha`` and ``--split``."""
    p.add_argument("--omega", type=_finite, required=True, help="inertia weight")
    p.add_argument("--alpha", type=_positive, required=True, help="combined attraction weight")
    p.add_argument("--split", type=_ratio, default=split, help=_split_help(split))


def _add_omega_grid(p, bound):
    """Add the omega grid ``--omega-min`` (default ``-bound``) to
    ``--omega-max`` (default ``bound``) by ``--step``, and ``--tolerance``."""
    p.add_argument("--omega-min", type=_finite, default=-bound,
                   help="lowest omega of the grid (default %(default)g)")
    p.add_argument("--omega-max", type=_finite, default=bound,
                   help="highest omega of the grid (default %(default)g)")
    p.add_argument("--step", type=_positive, default=0.1, help="omega grid step (default 0.1)")
    p.add_argument("--tolerance", type=_positive, default=0.02, help="alpha tolerance (default 0.02)")


def _add_output(p, text, seed=True):
    """Add ``--seed`` (unless ``seed`` is false) and the required ``--output``."""
    if seed:
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--output", required=True, help=text)


def build_parser() -> _Parser:
    parser = _Parser(prog="swarmcrit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lyapunov", help="estimate the top Lyapunov exponent")
    _add_point(p)
    p.add_argument("--steps", type=int, default=100_000, help="steps per trial (default 100000)")
    p.add_argument("--trials", type=int, default=32, help="independent trials (default 32)")
    p.add_argument("--burn-in", type=int, default=stability._BURN_IN,
                   help="burn-in steps (default %(default)d)")
    _add_output(p, "output JSON path")

    p = sub.add_parser("curve", help="solve the critical (omega, alpha) curve")
    p.add_argument("--ratio", type=_ratio, default="equal", help=_split_help("equal"))
    _add_omega_grid(p, 1.1)
    p.add_argument("--method", choices=list(stability._METHODS), default="lyapunov",
                   help="lyapunov (default) | escape; an escape probe runs trials of at "
                        f"most {stability._ESCAPE_MAX_STEPS} steps and starts at "
                        f"{stability._ESCAPE_TRIALS} trials, doubling up to "
                        f"{stability._ESCAPE_MAX_LEVEL} times, and --steps/--trials, checked "
                        "for both, apply to lyapunov only")
    p.add_argument("--steps", type=int, default=10_000, help="Lyapunov steps per probe (default 10000)")
    p.add_argument("--trials", type=int, default=16, help="Lyapunov trials per probe, >= 2 (default 16)")
    _add_output(p, "output CSV path")

    p = sub.add_parser("stationary", help="estimate the stationary angular measure")
    _add_point(p, split="social_only")
    p.add_argument("--bins", type=int, default=128, help="histogram bins, >= 64 (default 128)")
    p.add_argument("--samples", type=int, default=1_000_000, help="pooled samples (default 1000000)")
    p.add_argument("--burn-in", type=int, default=stability._BURN_IN,
                   help="burn-in steps (default %(default)d)")
    p.add_argument("--chains", type=int, default=8, help="independent chains, >= 2 (default 8)")
    _add_output(p, "output CSV path")

    p = sub.add_parser("escape", help="inner/outer radius first-passage fractions")
    _add_point(p)
    p.add_argument("--r-in", type=_positive, default=stability._R_IN,
                   help="inner radius, within [1e-150, 1) (default %(default)g)")
    p.add_argument("--r-out", type=_positive, default=stability._R_OUT,
                   help="outer radius, within (1, 1e150] (default %(default)g)")
    p.add_argument("--max-steps", type=int, default=1_000_000, help="step cap (default 1000000)")
    p.add_argument("--trials", type=int, default=10_000, help="trials (default 10000)")
    _add_output(p, "output JSON path")

    p = sub.add_parser("optimize", help="run the swarm optimiser once")
    p.add_argument("--function", default="sphere",
                   help=f"one of {', '.join(benchmarks.FUNCTION_IDS)} (default sphere)")
    p.add_argument("--dim", type=int, default=10, help="problem dimension (default 10)")
    p.add_argument("--rotated", action="store_true", help="apply a seeded random rotation")
    p.add_argument("--noncontinuous", action="store_true", help="apply the half-step rounding")
    _add_point(p)
    p.add_argument("--iterations", type=int, default=2000, help="iterations (default 2000)")
    p.add_argument("--particles", type=int, default=25, help="swarm size (default 25)")
    _add_output(p, "result JSON path")
    p.add_argument("--trace", help="optional per-iteration trace CSV path")

    p = sub.add_parser("sweep", help="run the (omega, alpha) grid sweep")
    p.add_argument("--config", help="plain-text key=value config file")
    for key, (kind, default, text) in _SWEEP_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind, default=default, help=text)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers; more than 1 starts a process pool (default 1)")
    _add_output(p, "per-cell CSV path", seed=False)
    p.add_argument("--heatmap", help="optional aggregated heatmap CSV path")

    p = sub.add_parser("region", help="best-region cells and distance to a curve")
    p.add_argument("--sweep", required=True, help="sweep CSV produced by the sweep subcommand")
    p.add_argument("--curve", help="curve CSV produced by the curve subcommand")
    p.add_argument("--quantile", type=_positive, default=0.1, help="best quantile (default 0.1)")
    _add_output(p, "region cells CSV path", seed=False)
    p.add_argument("--stats", help="optional distance-stats JSON path (needs --curve)")

    p = sub.add_parser("scaling", help="neutral-stability curve of the scaled experiment")
    p.add_argument("--kappa", type=_positive, required=True, help="scale factor for p and g")
    p.add_argument("--p", type=_finite, default=0.1, help="personal best position (default 0.1)")
    p.add_argument("--g", type=_finite, default=0.0, help="global best position (default 0.0)")
    p.add_argument("--iterations", type=int, default=200,
                   help="step cap of each trial (default 200)")
    p.add_argument("--repetitions", type=int, default=100_000,
                   help="trials of a probe, doubling up to twice near the root (default 100000)")
    p.add_argument("--split", type=_ratio, default="equal", help=_split_help("equal"))
    _add_omega_grid(p, 1.0)
    _add_output(p, "output CSV path")

    return parser


def _write_record(path, **fields) -> None:
    """Write ``fields`` as one JSON record, headed by the tool version: the
    one writer of every JSON file the CLI writes."""
    io.write_json(path, {"tool_version": io.__version__, **fields})


def _write_point_record(args, **fields) -> None:
    """:func:`_write_record` into ``--output``, with the seed and the point's
    ``omega`` and ``alpha``."""
    _write_record(args.output, seed=args.seed, omega=args.omega, alpha=args.alpha, **fields)


def _cmd_lyapunov(args) -> int:
    a1, a2 = stability.split_alpha(args.alpha, args.split)
    est = stability.lyapunov_exponent(
        args.omega, a1, a2, steps=args.steps, trials=args.trials,
        burn_in=args.burn_in, seed=args.seed,
    )
    _write_point_record(args, **asdict(est), alpha1=a1, alpha2=a2)
    return 0


def _cmd_curve(args) -> int:
    grid = _omega_grid(args)
    curve = stability.critical_curve(
        grid, ratio=args.ratio, tolerance=args.tolerance, seed=args.seed,
        method=args.method, steps=args.steps, trials=args.trials,
    )
    curve.to_csv(args.output, metadata={
        "seed": args.seed, "ratio": args.ratio, "method": curve.method,
        "tolerance": args.tolerance, "steps": args.steps, "trials": args.trials,
    })
    return 0


def _cmd_stationary(args) -> int:
    a1, a2 = stability.split_alpha(args.alpha, args.split)
    hist = stability.stationary_distribution(
        args.omega, a1, a2, bins=args.bins, samples=args.samples,
        burn_in=args.burn_in, n_chains=args.chains, seed=args.seed,
    )
    hist.to_csv(args.output, metadata={
        "seed": args.seed, "omega": args.omega, "alpha": args.alpha,
        "split": args.split, "samples": args.samples, "chains": args.chains,
    })
    return 0


def _cmd_escape(args) -> int:
    a1, a2 = stability.split_alpha(args.alpha, args.split)
    st = stability.escape_probability(
        args.omega, a1, a2, r_in=args.r_in, r_out=args.r_out,
        max_steps=args.max_steps, trials=args.trials, seed=args.seed,
    )
    _write_point_record(args, **asdict(st), split=args.split)
    return 0


def _cmd_optimize(args) -> int:
    a1, a2 = stability.split_alpha(args.alpha, args.split)
    fn = benchmarks.make_function(
        args.function, args.dim, seed=args.seed,
        rotated=args.rotated, noncontinuous=args.noncontinuous,
    )
    params = SwarmParams(
        omega=args.omega, alpha1=a1, alpha2=a2,
        n_particles=args.particles, dim=args.dim,
    )
    result = pso.optimize(fn, params, args.iterations, bounds=fn.domain, seed=args.seed)
    _write_record(args.output, params=asdict(params), seed=args.seed, function=fn.label,
                  iterations=args.iterations, best_cost=result.best_cost,
                  best_position=result.best_position.tolist(), diverged=result.diverged,
                  evaluations=result.evaluations)
    if args.trace:
        result.trace_to_csv(args.trace, metadata={
            "seed": args.seed, "function": fn.label,
            "omega": args.omega, "alpha": args.alpha,
        })
    return 0


def _sweep_config(args) -> harness.SweepConfig:
    """Flag values, overridden by the ``--config`` file values."""
    values = {key: getattr(args, key) for key in _SWEEP_KEYS}
    if args.config:
        for key, text in io.read_keyvalue_config(args.config).items():
            if key not in _SWEEP_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            try:
                values[key] = _SWEEP_KEYS[key][0](text)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"config key {key}: {exc}") from exc
    functions = None
    if values["functions"] is not None:
        ids = [s.strip() for s in values["functions"].split(",") if s.strip()]
        functions = tuple(
            benchmarks.make_function(fid, values["dim"], seed=values["seed"]) for fid in ids
        )
    return harness.SweepConfig(
        omega_values=harness.inclusive_grid(
            values["omega_min"], values["omega_max"], values["omega_step"]),
        alpha_values=harness.inclusive_grid(
            values["alpha_min"], values["alpha_max"], values["alpha_step"]),
        split=values["split"],
        iterations=values["iterations"],
        repetitions=values["repetitions"],
        functions=functions,
        n_particles=values["particles"],
        dim=values["dim"],
        master_seed=values["seed"],
    )


def _cmd_sweep(args) -> int:
    config = _sweep_config(args)
    grid = harness.run_sweep(config, jobs=args.jobs)
    meta = {
        "seed": config.master_seed, "split": config.split,
        "iterations": config.iterations, "repetitions": config.repetitions,
        "dim": config.dim, "particles": config.n_particles,
        "functions": ";".join(grid.function_labels),
    }
    grid.to_csv(args.output, metadata=meta)
    if args.heatmap:
        harness.heatmap_to_csv(harness.aggregate_heatmap(grid), args.heatmap, metadata=meta)
    return 0


def _cmd_region(args) -> int:
    if args.quantile > 1.0:
        raise ValueError("--quantile must lie in (0, 1]")
    if args.stats and not args.curve:
        raise ValueError("--stats requires --curve")
    curve = stability.CriticalCurve.from_csv(args.curve) if args.curve else None
    grid = harness.SweepGrid.from_csv(args.sweep)
    cells = harness.best_region(grid, quantile=args.quantile)
    harness.heatmap_to_csv(cells, args.output, metadata={
        "sweep": args.sweep, "quantile": args.quantile,
    })
    if args.stats:
        stats = harness.distance_to_curve(cells, curve)
        _write_record(args.stats, **asdict(stats), quantile=args.quantile)
    return 0


def _cmd_scaling(args) -> int:
    config = stability.ScalingConfig(
        kappa=args.kappa, p=args.p, g=args.g,
        iterations=args.iterations, repetitions=args.repetitions,
    )
    grid = _omega_grid(args)
    curve = stability.neutral_stability_curve(
        config, grid, tolerance=args.tolerance, seed=args.seed, ratio=args.split,
    )
    curve.to_csv(args.output, metadata={
        "seed": args.seed, "kappa": args.kappa, "p": args.p, "g": args.g,
        "iterations": args.iterations, "repetitions": args.repetitions,
        "split": args.split, "tolerance": args.tolerance,
    })
    return 0


_COMMANDS = {
    "lyapunov": _cmd_lyapunov,
    "curve": _cmd_curve,
    "stationary": _cmd_stationary,
    "escape": _cmd_escape,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "region": _cmd_region,
    "scaling": _cmd_scaling,
}


@functools.cache
def _parser() -> _Parser:
    """The parser ``dispatch`` uses, built once per process: parsing leaves
    it unchanged."""
    return build_parser()


def dispatch(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except stability.NumericOverflowError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
