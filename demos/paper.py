"""The paper's results at desk-scale budgets, in one run.

Critical curves.  The top Lyapunov exponent of the random matrix product is
negative inside the critical (omega, alpha) curve (the particle collapses
onto the best position with probability one) and positive outside
(arbitrarily large excursions).  The curve for the equal split lies at
larger alpha than the social-only split at medium inertia because its
weight distribution has smaller variance.  Writes curve_equal.csv and
curve_social.csv.

Stationary measure.  The renormalised one-particle dynamics induces a
Markov chain of directions a = (x, v)/||(x, v)|| on the unit circle; its
stationary measure is far from uniform and sharpens as the combined weight
grows.  For small alpha the mass gathers on the position axis (angles near
0 and pi: velocity decays faster than the position contracts); for large
alpha two sharp antipodal peaks appear.  Writes stationary_alpha<val>.csv
and prints peak locations.

Performance valley.  Sweeps the optimiser over the (omega, alpha) grid on a
2-d rastrigin instance, aggregates best costs, extracts the best decile and
measures its distance to the critical curve.  The low-cost band hugs the
inside of the curve; the divergent corner (omega > 1, alpha > 4) never
appears in it.  Writes sweep.csv, heatmap.csv and region.csv.

Finite-time scaling.  Linearity makes the asymptotic exponent scale-free,
but with a finite horizon the scale of the best positions matters:
shrinking p and g by a factor kappa leaves the particle a longer journey
from its unit-circle start down to the segment between them, so the
neutral boundary (equal convergence and divergence fractions after 200
iterations) moves inwards as kappa decreases.  The exact shift of the
finite-time growth estimate under joint scaling is log(kappa)/t.

Optimiser runs.  The swarm runs on a 10-d non-continuous rotated rastrigin
instance for a fixed 2000-iteration horizon at several combined weights
(omega = 0.7, critical weight ~ 4.8).  Heavily contractive settings
converge prematurely onto poor local minima; moving the weight up towards
the margin of instability buys exploration and improves the found costs by
more than an order of magnitude; beyond the margin the swarm diverges and
keeps little more than what initialisation offered.  At a finite horizon
the sweet spot sits inside the critical curve, approaching it as the
horizon grows.

Run as ``python demos/paper.py [OUT]``: the files go to the directory OUT,
by default this script's own, and each section prints its seconds after its
results (about 10 s in all on a 2-core machine).
"""

import argparse
import math
import time
from pathlib import Path

import numpy as np

from swarmcrit import (
    RATIO_EQUAL, RATIO_SOCIAL_ONLY, ScalingConfig, SwarmParams, SweepConfig, aggregate_heatmap,
    best_region, critical_curve, distance_to_curve, finite_time_lyapunov, heatmap_to_csv,
    inclusive_grid, make_function, neutral_alpha, optimize, pushforward, run_sweep, split_alpha,
    stationary_distribution,
)

HERE = Path(__file__).resolve().parent

# budgets
CURVE_STEPS, CURVE_TRIALS = 8000, 12  # each Lyapunov probe of a critical curve
STATIONARY_SAMPLES, STATIONARY_BURN_IN, PUSH_DRAWS = 500_000, 1000, 2000
SWEEP_ITERATIONS, SWEEP_REPETITIONS = 200, 10
NEUTRAL_REPETITIONS = 10_000
GROWTH_STEPS, GROWTH_REPETITIONS = 200, 2000  # the finite-time growth estimate
RUN_ITERATIONS, RUN_SEEDS = 2000, 10  # each optimiser setting


def solve_curve(omegas, ratio, seed):
    return critical_curve(omegas, ratio=ratio, tolerance=0.05, seed=seed,
                          steps=CURVE_STEPS, trials=CURVE_TRIALS)


def curves(out):
    for ratio, name, seed in ((RATIO_EQUAL, "curve_equal.csv", 1),
                              (RATIO_SOCIAL_ONLY, "curve_social.csv", 2)):
        solved = solve_curve(inclusive_grid(-1.0, 1.0, 0.1), ratio, seed)
        solved.to_csv(out / name, metadata={"seed": seed, "ratio": ratio})
        print(f"\n{ratio} split -> {name}")
        print(" omega   alpha_c  status")
        for p in solved.points:
            alpha = f"{p.alpha:7.3f}" if p.status == "OK" else "      -"
            print(f"{p.omega:+6.1f}  {alpha}  {p.status}")


def stationary(out):
    for alpha in (0.5, 1.5, 2.5, 3.5, 4.5):
        hist = stationary_distribution(0.7, 0.0, alpha, bins=128, samples=STATIONARY_SAMPLES,
                                       burn_in=STATIONARY_BURN_IN, n_chains=8,
                                       seed=int(alpha * 10))
        pushed = pushforward(hist, 0.7, 0.0, alpha, draws=PUSH_DRAWS, seed=99)
        residual = np.abs(hist.mass - pushed.mass).sum()
        mode = hist.bin_centers[int(np.argmax(hist.mass))]
        name = f"stationary_alpha{alpha}.csv"
        hist.to_csv(out / name, metadata={"omega": 0.7, "alpha": alpha})
        print(f"alpha={alpha}: peak at {mode:.2f} rad, height {hist.mass.max():.4f}, "
              f"one-step invariance residual {residual:.4f} -> {name}")


def valley(out):
    omegas = inclusive_grid(-1.1, 1.1, 0.1)
    config = SweepConfig(omega_values=omegas, alpha_values=inclusive_grid(0.25, 5.0, 0.25),
                         split=RATIO_EQUAL, iterations=SWEEP_ITERATIONS,
                         repetitions=SWEEP_REPETITIONS, n_particles=25, dim=2, master_seed=11,
                         functions=(make_function("rastrigin", 2, seed=77),))
    grid = run_sweep(config, jobs=2)
    grid.to_csv(out / "sweep.csv", metadata={"seed": config.master_seed})
    heatmap = aggregate_heatmap(grid)
    heatmap_to_csv(heatmap, out / "heatmap.csv")
    top = best_region(grid, quantile=0.1)
    heatmap_to_csv(top, out / "region.csv")
    critical = solve_curve(omegas, RATIO_EQUAL, 5)
    top_stats = distance_to_curve(top, critical)
    all_stats = distance_to_curve(heatmap, critical)
    print(f"best-decile cells: {len(top)}")
    print(f"median |alpha - alpha_c|: best decile {top_stats.median:.2f} "
          f"vs whole grid {all_stats.median:.2f}")
    print("divergent corner in best region:", any(c[0] > 1.0 and c[1] > 4.0 for c in top))


def scaling(out):
    for omega in (0.2, 0.5):
        line = [f"omega={omega}:"]
        for kappa in (1.0, 0.1, 0.04):
            config = ScalingConfig(kappa=kappa, p=0.1, g=0.0, iterations=200,
                                   repetitions=NEUTRAL_REPETITIONS)
            point = neutral_alpha(omega, config, tolerance=0.01,
                                  seed=int(omega * 10) + int(1 / kappa))
            line.append(f"kappa={kappa}: alpha*={point.alpha:.3f}")
        print("  ".join(line))
    base, *scaled = (finite_time_lyapunov(0.6, 0.9, 0.9, z0_scale=kappa, p=0.1 * kappa, g=0.0,
                                          steps=GROWTH_STEPS, repetitions=GROWTH_REPETITIONS,
                                          seed=3) for kappa in (1.0, 0.1, 0.04))
    for kappa, growth in zip((0.1, 0.04), scaled):
        print(f"kappa={kappa}: measured shift {growth - base:+.6f}, "
              f"log(kappa)/t = {math.log(kappa) / GROWTH_STEPS:+.6f}")


def optimiser(out):
    fn = make_function("rastrigin", 10, seed=2013, rotated=True, noncontinuous=True)
    print(f"cost function: {fn.label}, d={fn.dim}, optimum at shift, F(x*)=0")
    for alpha, where in ((0.5, "strongly contractive"), (1.0, "contractive"),
                         (3.0, "towards the margin"), (6.0, "beyond the margin")):
        alpha1, alpha2 = split_alpha(alpha, "equal")
        params = SwarmParams(omega=0.7, alpha1=alpha1, alpha2=alpha2, n_particles=25, dim=10)
        costs = [optimize(fn, params, RUN_ITERATIONS, bounds=fn.domain, seed=seed).best_cost
                 for seed in range(RUN_SEEDS)]
        print(f"omega=0.7 alpha={alpha:3} ({where:>20}): median best {np.median(costs):9.1f}")


def main(out=HERE):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for section in (curves, stationary, valley, scaling, optimiser):
        start = time.perf_counter()
        section(out)
        print(f"-- {section.__name__}: {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", default=HERE, help="output directory (default: demos/)")
    main(parser.parse_args().out)
