"""Desk-scale reproduction of the performance valley.

Sweeps the optimiser over the (omega, alpha) grid on a 2-d rastrigin
instance, aggregates best costs, extracts the best decile and measures its
distance to the critical curve.  The low-cost band hugs the inside of the
curve; the divergent corner (omega > 1, alpha > 4) never appears in it.

Takes a few minutes.  Writes sweep.csv, heatmap.csv and region.csv.
"""

from pathlib import Path

import numpy as np

from swarmcrit import (
    RATIO_EQUAL,
    SweepConfig,
    aggregate_heatmap,
    best_region,
    critical_curve,
    distance_to_curve,
    heatmap_to_csv,
    make_function,
    run_sweep,
)
from swarmcrit.io import write_csv

HERE = Path(__file__).resolve().parent

omegas = np.round(np.arange(-1.1, 1.1 + 1e-9, 0.1), 10)
config = SweepConfig(
    omega_values=omegas,
    alpha_values=np.round(np.arange(0.25, 5.0 + 1e-9, 0.25), 10),
    split=RATIO_EQUAL,
    iterations=200,
    repetitions=10,
    functions=(make_function("rastrigin", 2, seed=77),),
    n_particles=25,
    dim=2,
    master_seed=11,
)

print("sweeping", len(config.omega_values) * len(config.alpha_values), "cells ...")
grid = run_sweep(config, jobs=2)
grid.to_csv(HERE / "sweep.csv", metadata={"seed": config.master_seed})
heatmap = aggregate_heatmap(grid)
heatmap_to_csv(heatmap, HERE / "heatmap.csv")

print("solving the critical curve ...")
curve = critical_curve(omegas, ratio=RATIO_EQUAL, tolerance=0.05, seed=5,
                       steps=8000, trials=12)

top = best_region(grid, quantile=0.1)
write_csv(HERE / "region.csv", ["omega", "alpha", "normalized_cost"], top)
top_stats = distance_to_curve(top, curve)
all_stats = distance_to_curve(heatmap, curve)
print(f"best-decile cells: {len(top)}")
print(f"median |alpha - alpha_c|: best decile {top_stats.median:.2f} "
      f"vs whole grid {all_stats.median:.2f}")
print("divergent corner in best region:",
      any(c[0] > 1.0 and c[1] > 4.0 for c in top))
