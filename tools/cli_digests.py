"""sha256 of every CLI output file, for byte-comparing two source trees.

Usage::

    python tools/cli_digests.py SRC OUTDIR

Runs every ``swarmcrit`` subcommand at tiny budgets with the package under
``SRC/src`` (``python -m swarmcrit.cli`` with that directory on
``PYTHONPATH``), writes the outputs into ``OUTDIR`` and prints one
``name sha256`` line per output file.  A failing command prints
``name exit=CODE`` for each of its files instead, the run goes on, and the
script exits 1 at the end, so trees that accept different inputs still
compare line by line.  Commands run inside ``OUTDIR`` with
relative paths, so file paths echoed into metadata are the same for any
``OUTDIR``.  Run it on two trees (say a ``git archive`` of the parent
commit and the working tree) and diff the printed lines.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SWEEP_CONFIG = """\
# the flags below set --seed 3, which this file overrides, and
# --particles 4, which this file omits
omega_min = 0.4
omega_max = 0.7
omega_step = 0.3
alpha_min = 1.0
alpha_max = 2.0
alpha_step = 1.0
iterations = 20
repetitions = 2
functions = sphere,rastrigin
dim = 2
seed = 11
"""

# the cells of the ``sweep.csv`` case's grid, in shuffled row order and
# with 4 significant digits: ``region`` must give the heatmap in grid order
SWEEP_SHUFFLED = """\
function,omega,alpha,iterations,mean_best_cost,median_best_cost,divergence_fraction,repetitions
rastrigin,0.4,3.5,20,2.183,2.183,0,2
sphere,0.7,2.25,20,0.06413,0.06413,0,2
rastrigin,0.7,1,20,2.727,2.727,0,2
rastrigin,0.4,2.25,20,3.503,3.503,0,2
rastrigin,0.7,3.5,20,18.58,18.58,0,2
sphere,0.4,4.75,20,5.919,5.919,0,2
sphere,0.4,1,20,0.001059,0.001059,0,2
rastrigin,0.4,1,20,1887,1887,0,2
rastrigin,0.7,2.25,20,7.299,7.299,0,2
sphere,0.4,3.5,20,0.003973,0.003973,0,2
rastrigin,0.7,4.75,20,47.41,47.41,0,2
sphere,0.7,3.5,20,1.264,1.264,0,2
rastrigin,0.4,4.75,20,8.969,8.969,0,2
sphere,0.4,2.25,20,0.0003889,0.0003889,0,2
sphere,0.7,1,20,0.3171,0.3171,0,2
sphere,0.7,4.75,20,24.45,24.45,0,2
"""

SWEEP = ["--omega-min", "0.4", "--omega-max", "0.7", "--omega-step", "0.3",
         "--alpha-min", "1.0", "--alpha-max", "4.75", "--alpha-step", "1.25",
         "--iterations", "20", "--repetitions", "2", "--functions", "sphere,rastrigin",
         "--dim", "2", "--particles", "6", "--seed", "12"]

# (argv, output files); later commands read files that earlier ones wrote
COMMANDS = [
    (["lyapunov", "--omega", "0.5", "--alpha", "1.0", "--steps", "2000", "--trials", "4",
      "--burn-in", "100", "--seed", "1", "--output", "lyapunov.json"], ["lyapunov.json"]),
    # every chunk's product overflows, so each chunk runs again one step at
    # a time and adds the logs of its steps
    (["lyapunov", "--omega", "0.5", "--alpha", "2e30", "--steps", "600", "--trials", "4",
      "--burn-in", "100", "--seed", "3", "--output", "lyapunov_rerun.json"],
     ["lyapunov_rerun.json"]),
    (["curve", "--omega-min", "0.4", "--omega-max", "0.7", "--step", "0.3",
      "--tolerance", "0.05", "--steps", "500", "--trials", "8", "--seed", "2",
      "--output", "curve_lyapunov.csv"], ["curve_lyapunov.csv"]),
    # 12 points of 24 trials: 288 lanes, more than one lockstep block holds;
    # the ends find no crossing
    (["curve", "--omega-min", "-1.1", "--omega-max", "1.1", "--step", "0.2",
      "--tolerance", "0.05", "--steps", "300", "--trials", "24", "--seed", "16",
      "--output", "curve_lanes.csv"], ["curve_lanes.csv"]),
    # the fewest trials a Lyapunov bisection takes
    (["curve", "--ratio", "social-only", "--omega-min", "-0.9", "--omega-max", "0.9",
      "--step", "0.6", "--tolerance", "0.05", "--steps", "400", "--trials", "2",
      "--seed", "17", "--output", "curve_two_trials.csv"], ["curve_two_trials.csv"]),
    (["curve", "--method", "escape", "--ratio", "social-only", "--omega-min", "0.4",
      "--omega-max", "0.4", "--tolerance", "0.05", "--seed", "3",
      "--output", "curve_escape.csv"], ["curve_escape.csv"]),
    # two escape points, one OK and one NO_CROSSING, solved one after another
    (["curve", "--method", "escape", "--omega-min", "0.25", "--omega-max", "1.05",
      "--step", "0.8", "--tolerance", "0.05", "--seed", "21",
      "--output", "curve_escape_two.csv"], ["curve_escape_two.csv"]),
    (["stationary", "--omega", "0.7", "--alpha", "0.5", "--bins", "64", "--samples", "2000",
      "--burn-in", "50", "--chains", "2", "--seed", "4", "--output", "stationary.csv"],
     ["stationary.csv"]),
    # 100 chains: orbit blocks of 128 steps, not the 256 of a few chains
    (["stationary", "--omega", "0.7", "--alpha", "3", "--chains", "100", "--samples", "30000",
      "--burn-in", "50", "--seed", "5", "--output", "stationary_chains.csv"],
     ["stationary_chains.csv"]),
    (["escape", "--omega", "0.5", "--alpha", "2.0", "--trials", "200", "--max-steps", "500",
      "--seed", "5", "--output", "escape.json"], ["escape.json"]),
    # radii near the unit start circle: many lanes retire at the radii
    (["escape", "--omega", "0.5", "--alpha", "3.2", "--r-in", "0.5", "--r-out", "2",
      "--trials", "300", "--max-steps", "500", "--seed", "20", "--output", "escape_near.json"],
     ["escape_near.json"]),
    # near the critical weight: the step cap leaves lanes undecided
    (["escape", "--omega", "0.4", "--alpha", "5.17", "--trials", "500", "--max-steps", "400",
      "--seed", "9", "--output", "escape_capped.json"], ["escape_capped.json"]),
    # 3e4 lanes, above the ~2e4 where live-size temporaries cost page faults
    (["escape", "--omega", "0.4", "--alpha", "5.17", "--trials", "30000", "--max-steps", "200",
      "--seed", "23", "--output", "escape_wide.json"], ["escape_wide.json"]),
    (["optimize", "--function", "rastrigin", "--dim", "2", "--omega", "0.7", "--alpha", "1.4",
      "--iterations", "20", "--particles", "5", "--seed", "6",
      "--output", "optimize.json", "--trace", "optimize_trace.csv"],
     ["optimize.json", "optimize_trace.csv"]),
    (["optimize", "--function", "sphere", "--dim", "2", "--rotated", "--noncontinuous",
      "--omega", "1.0", "--alpha", "12", "--iterations", "2000", "--particles", "5",
      "--seed", "7", "--output", "divergent.json", "--trace", "divergent_trace.csv"],
     ["divergent.json", "divergent_trace.csv"]),
    # a rotated instance on a swarm that overflows particle by particle: its
    # finite rows are costed as rows of the whole swarm's block
    (["optimize", "--function", "rastrigin", "--dim", "10", "--rotated", "--omega", "1.1",
      "--alpha", "12", "--split", "social-only", "--particles", "5", "--iterations", "1500",
      "--seed", "1", "--output", "divergent_rotated.json", "--trace",
      "divergent_rotated_trace.csv"], ["divergent_rotated.json", "divergent_rotated_trace.csv"]),
    (["sweep", *SWEEP, "--output", "sweep.csv", "--heatmap", "heatmap.csv"],
     ["sweep.csv", "heatmap.csv"]),
    (["sweep", *SWEEP, "--jobs", "2", "--output", "sweep_jobs.csv"], ["sweep_jobs.csv"]),
    (["sweep", "--config", "sweep.cfg", "--seed", "3", "--particles", "4",
      "--output", "sweep_config.csv"], ["sweep_config.csv"]),
    # divergent corner: swarms overflow, some particles before others
    (["sweep", "--omega-min", "0.9", "--omega-max", "1.1", "--omega-step", "0.1",
      "--alpha-min", "6", "--alpha-max", "12", "--alpha-step", "3", "--iterations", "1500",
      "--repetitions", "2", "--functions", "rastrigin", "--dim", "2", "--particles", "5",
      "--seed", "13", "--output", "sweep_corner.csv"], ["sweep_corner.csv"]),
    (["sweep", *SWEEP, "--split", "social-only", "--output", "sweep_social.csv"],
     ["sweep_social.csv"]),
    # 16 swarms of 6 x 2 draw 170 iterations a generator call, so 400
    # iterations draw in blocks of 170, 170 and 60
    (["sweep", "--omega-min", "0.4", "--omega-max", "0.7", "--omega-step", "0.3",
      "--alpha-min", "1.0", "--alpha-max", "4.75", "--alpha-step", "1.25", "--iterations", "400",
      "--repetitions", "2", "--functions", "sphere,rastrigin", "--dim", "2", "--particles", "6",
      "--seed", "18", "--output", "sweep_blocks.csv"], ["sweep_blocks.csv"]),
    # the full 15-instance suite at dim 10, rotated and non-continuous included
    (["sweep", "--dim", "10", "--particles", "4", "--iterations", "10",
      "--omega-min", "0.4", "--omega-max", "0.7", "--omega-step", "0.3",
      "--alpha-min", "1", "--alpha-max", "2", "--alpha-step", "1", "--repetitions", "1",
      "--seed", "14", "--output", "sweep_suite10.csv"], ["sweep_suite10.csv"]),
    # weierstrass at the suite sweep's dim, particles and iterations, where
    # its lower bound skips most rows
    (["sweep", "--dim", "10", "--particles", "25", "--iterations", "200",
      "--omega-min", "0.4", "--omega-max", "0.7", "--omega-step", "0.3",
      "--alpha-min", "1", "--alpha-max", "2.5", "--alpha-step", "1.5", "--repetitions", "1",
      "--functions", "weierstrass", "--seed", "25", "--output", "sweep_weierstrass.csv"],
     ["sweep_weierstrass.csv"]),
    # 23 x 20 cells of 25 x 2 swarms: more swarms than one batch holds
    (["sweep", "--omega-min", "-1.1", "--omega-max", "1.1", "--omega-step", "0.1",
      "--alpha-min", "0.25", "--alpha-max", "5", "--alpha-step", "0.25", "--iterations", "5",
      "--repetitions", "1", "--functions", "sphere", "--dim", "2", "--particles", "25",
      "--seed", "15", "--output", "sweep_batches.csv"], ["sweep_batches.csv"]),
    (["region", "--sweep", "sweep.csv", "--curve", "curve_lyapunov.csv", "--quantile", "0.5",
      "--output", "region.csv", "--stats", "region.json"], ["region.csv", "region.json"]),
    (["region", "--sweep", "sweep_shuffled.csv", "--curve", "curve_lyapunov.csv",
      "--quantile", "0.5", "--output", "region_shuffled.csv", "--stats",
      "region_shuffled.json"], ["region_shuffled.csv", "region_shuffled.json"]),
    (["scaling", "--kappa", "0.5", "--split", "social-only", "--iterations", "50",
      "--repetitions", "300", "--omega-min", "0.4", "--omega-max", "0.4",
      "--tolerance", "0.05", "--seed", "8", "--output", "scaling.csv"], ["scaling.csv"]),
    # coincident bests: convergence is the phase norm reaching r_in
    (["scaling", "--kappa", "1", "--p", "0", "--g", "0", "--iterations", "300",
      "--repetitions", "400", "--omega-min", "0.4", "--omega-max", "0.4",
      "--tolerance", "0.05", "--seed", "10", "--output", "scaling_degenerate.csv"],
     ["scaling_degenerate.csv"]),
    # five neutral points, solved one after another
    (["scaling", "--kappa", "0.5", "--iterations", "50", "--repetitions", "300",
      "--omega-min", "-1", "--omega-max", "1", "--step", "0.5", "--tolerance", "0.05",
      "--seed", "22", "--output", "scaling_five.csv"], ["scaling_five.csv"]),
    # budget levels of 1e4, 2e4 and 4e4 lanes
    (["scaling", "--kappa", "1", "--iterations", "60", "--repetitions", "10000",
      "--omega-min", "0.4", "--omega-max", "0.4", "--tolerance", "0.05", "--seed", "24",
      "--output", "scaling_wide.csv"], ["scaling_wide.csv"]),
    # budget levels of 9, 18 and 36 lanes, where a probe can end exactly on
    # the 3-sigma threshold: one here ends with 7 of 9 lanes escaped and 1
    # converged, a tie, which is not significant
    (["scaling", "--kappa", "1", "--iterations", "100", "--repetitions", "9",
      "--omega-min", "-0.6", "--omega-max", "0.6", "--step", "0.3", "--tolerance", "0.05",
      "--seed", "31", "--output", "scaling_ties.csv"], ["scaling_ties.csv"]),
    # at omega = 1 the determinant identity fixes the exponent's sign: no
    # crossing, where Monte Carlo probes of this budget stay unresolved
    (["curve", "--omega-min", "0.99", "--omega-max", "1", "--step", "0.01",
      "--tolerance", "0.05", "--steps", "300", "--trials", "6", "--seed", "2",
      "--output", "curve_unit_omega.csv"], ["curve_unit_omega.csv"]),
    # negative reals in exponent notation are values, not options
    (["curve", "--omega-min", "-5e-1", "--omega-max", "5e-1", "--step", "5e-1",
      "--tolerance", "0.05", "--steps", "300", "--trials", "4", "--seed", "19",
      "--output", "curve_exponent.csv"], ["curve_exponent.csv"]),
    # at omega = 0 the exact exponent E log|1 - s| answers every probe: the
    # point brackets the exact root whatever the budget and seed
    (["curve", "--omega-min", "0", "--omega-max", "0", "--tolerance", "0.01",
      "--steps", "300", "--trials", "4", "--seed", "5", "--output", "curve_omega_zero.csv"],
     ["curve_omega_zero.csv"]),
    (["curve", "--ratio", "social-only", "--omega-min", "0", "--omega-max", "0",
      "--tolerance", "0.01", "--steps", "300", "--trials", "4", "--seed", "5",
      "--output", "curve_omega_zero_social.csv"], ["curve_omega_zero_social.csv"]),
]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(args[0]).resolve() / "src"
    out = Path(args[1])
    if not (src / "swarmcrit" / "cli.py").is_file():
        print(f"error: no swarmcrit package under {src}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.cfg").write_text(SWEEP_CONFIG)
    (out / "sweep_shuffled.csv").write_text(SWEEP_SHUFFLED)
    env = {**os.environ, "PYTHONPATH": str(src)}
    status = 0
    for cmd, files in COMMANDS:
        for name in files:
            (out / name).unlink(missing_ok=True)
        done = subprocess.run([sys.executable, "-m", "swarmcrit.cli", *cmd], cwd=out, env=env)
        if done.returncode != 0:
            status = 1
            for name in files:
                print(name, f"exit={done.returncode}")
            continue
        for name in files:
            print(name, hashlib.sha256((out / name).read_bytes()).hexdigest())
    return status


if __name__ == "__main__":
    sys.exit(main())
