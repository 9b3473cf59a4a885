"""The benchmark's workloads: CLI argument lists built from the workload
seed, and the oracle check for each call's result files.

A run repeats one *pass* of a workload several times.  Pass ``k`` runs the
same CLI calls as every other pass, with CLI seeds drawn from
``SeedSequence([seed, k, call])``, so a fixed (workload, seed, pass count)
always gives the same inputs and the same work.  See NOTES.md for why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

# CLI seeds start here; the reference table uses seed 1511, below it
FIRST_CLI_SEED = 10_000

REFERENCE = "bench/reference_curve.csv"


@dataclass(frozen=True)
class Call:
    argv: list[str]
    outputs: list[str]
    units: int
    check: Callable[[], int]


@dataclass(frozen=True)
class Workload:
    name: str
    # seconds of --seconds charged to one pass: somewhat below the pass's
    # reference time for the workloads whose passes vary most in work
    pass_s: float
    build: Callable[[Callable[[int], str], str], list[Call]]


def cli_seed(seed: int, k: int, call: int) -> str:
    state = np.random.SeedSequence([seed, k, call]).generate_state(1)[0]
    return str(FIRST_CLI_SEED + int(state) % 2**30)


def grid(lo: float, hi: float, step: float) -> list[float]:
    return [float(w) for w in np.round(np.arange(lo, hi + 1e-9, step), 10)]


def _curve_lyapunov(seed_of, d):
    omegas = grid(-1.0, 1.0, 0.5)
    out = f"{d}/curve.csv"
    argv = ["curve", "--ratio", "equal", "--omega-min", "-1", "--omega-max", "1",
            "--step", "0.5", "--tolerance", "0.05", "--steps", "1000", "--trials", "12",
            "--seed", seed_of(0), "--output", out]
    return [Call(argv, [out], len(omegas), lambda: oracles.check_curve(out, omegas, 0.05))]


NEUTRAL_OMEGAS = ("0", "0.8", "0.4")  # omega-min, omega-max, step


def _boundary_escape(seed_of, d):
    esc = f"{d}/escape.csv"
    outer, inner = f"{d}/neutral_k1.csv", f"{d}/neutral_k01.csv"
    neutral = grid(*map(float, NEUTRAL_OMEGAS))
    lo, hi, step = NEUTRAL_OMEGAS

    def scaling(kappa, out, i):
        return ["scaling", "--kappa", kappa, "--p", "0.1", "--g", "0",
                "--omega-min", lo, "--omega-max", hi, "--step", step,
                "--repetitions", "5000", "--seed", seed_of(i), "--output", out]

    return [
        Call(["curve", "--method", "escape", "--omega-min", "0.4", "--omega-max", "0.4",
              "--step", "0.4", "--seed", seed_of(0), "--output", esc],
             [esc], 1, lambda: oracles.check_curve(esc, [0.4], 0.02)),
        Call(scaling("1", outer, 1), [outer], len(neutral),
             lambda: oracles.check_neutral(outer)),
        Call(scaling("0.1", inner, 2), [inner], len(neutral),
             lambda: oracles.check_nesting(outer, inner)),
    ]


VALLEY_CELLS = len(grid(-1.1, 1.1, 0.2)) * len(grid(0.25, 5.0, 0.5))


def _sweep_valley(seed_of, d):
    sweep, region, stats = f"{d}/sweep.csv", f"{d}/region.csv", f"{d}/region.json"
    argv = ["sweep", "--functions", "rastrigin", "--dim", "2", "--particles", "25",
            "--iterations", "200", "--omega-min", "-1.1", "--omega-max", "1.1",
            "--omega-step", "0.2", "--alpha-min", "0.25", "--alpha-max", "5",
            "--alpha-step", "0.5", "--repetitions", "2", "--jobs", "1",
            "--seed", seed_of(0), "--output", sweep]
    return [
        Call(argv, [sweep], VALLEY_CELLS, lambda: oracles.check_sweep(sweep, VALLEY_CELLS)),
        # every heatmap cell is judged: a cell fails if it is a divergent-corner
        # cell that made the best decile
        Call(["region", "--sweep", sweep, "--curve", REFERENCE, "--quantile", "0.1",
              "--output", region, "--stats", stats],
             [region, stats], VALLEY_CELLS, lambda: oracles.check_region(region, stats)),
    ]


SUITE_SIZE = 15
SUITE_CELLS = SUITE_SIZE * len(grid(-0.5, 1.0, 0.5)) * len(grid(1.0, 4.0, 1.5))


def _sweep_suite10(seed_of, d):
    sweep = f"{d}/sweep.csv"
    argv = ["sweep", "--dim", "10", "--particles", "25", "--iterations", "200",
            "--omega-min", "-0.5", "--omega-max", "1", "--omega-step", "0.5",
            "--alpha-min", "1", "--alpha-max", "4", "--alpha-step", "1.5",
            "--repetitions", "1", "--jobs", "1", "--seed", seed_of(0), "--output", sweep]
    return [Call(argv, [sweep], SUITE_CELLS, lambda: oracles.check_sweep(sweep, SUITE_CELLS))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("curve-lyapunov", 2.2, _curve_lyapunov),
        Workload("boundary-escape", 5.0, _boundary_escape),
        Workload("sweep-valley", 4.0, _sweep_valley),
        Workload("sweep-suite10", 5.0, _sweep_suite10),
    )
}


def passes(workload: Workload, seed: int, seconds: float, workdir: str) -> list[list[Call]]:
    """The run's passes; their number depends only on ``seconds``, so the
    work of a (workload, seed, seconds) triple repeats exactly."""
    n = max(3, round(seconds / workload.pass_s))
    return [workload.build(lambda i, k=k: cli_seed(seed, k, i), workdir) for k in range(n)]
