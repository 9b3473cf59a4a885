"""sha256 of every CLI output file, for byte-comparing two source trees.

Usage::

    python tools/cli_digests.py SRC OUTDIR

Runs every ``swarmcrit`` subcommand at tiny budgets with the package under
``SRC/src`` (``python -m swarmcrit.cli`` with that directory on
``PYTHONPATH``), writes the outputs into ``OUTDIR`` and prints one
``name sha256`` line per output file.  Commands run inside ``OUTDIR`` with
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

SWEEP = ["--omega-min", "0.4", "--omega-max", "0.7", "--omega-step", "0.3",
         "--alpha-min", "1.0", "--alpha-max", "4.75", "--alpha-step", "1.25",
         "--iterations", "20", "--repetitions", "2", "--functions", "sphere,rastrigin",
         "--dim", "2", "--particles", "6", "--seed", "12"]

# (argv, output files); later commands read files that earlier ones wrote
COMMANDS = [
    (["lyapunov", "--omega", "0.5", "--alpha", "1.0", "--steps", "2000", "--trials", "4",
      "--burn-in", "100", "--seed", "1", "--output", "lyapunov.json"], ["lyapunov.json"]),
    (["curve", "--omega-min", "0.4", "--omega-max", "0.7", "--step", "0.3",
      "--tolerance", "0.05", "--steps", "500", "--trials", "8", "--seed", "2",
      "--output", "curve_lyapunov.csv"], ["curve_lyapunov.csv"]),
    (["curve", "--method", "escape", "--ratio", "social-only", "--omega-min", "0.4",
      "--omega-max", "0.4", "--tolerance", "0.05", "--seed", "3",
      "--output", "curve_escape.csv"], ["curve_escape.csv"]),
    (["stationary", "--omega", "0.7", "--alpha", "0.5", "--bins", "64", "--samples", "2000",
      "--burn-in", "50", "--chains", "2", "--seed", "4", "--output", "stationary.csv"],
     ["stationary.csv"]),
    (["escape", "--omega", "0.5", "--alpha", "2.0", "--trials", "200", "--max-steps", "500",
      "--seed", "5", "--output", "escape.json"], ["escape.json"]),
    (["optimize", "--function", "rastrigin", "--dim", "2", "--omega", "0.7", "--alpha", "1.4",
      "--iterations", "20", "--particles", "5", "--seed", "6",
      "--output", "optimize.json", "--trace", "optimize_trace.csv"],
     ["optimize.json", "optimize_trace.csv"]),
    (["optimize", "--function", "sphere", "--dim", "2", "--rotated", "--noncontinuous",
      "--omega", "1.0", "--alpha", "12", "--iterations", "2000", "--particles", "5",
      "--seed", "7", "--output", "divergent.json", "--trace", "divergent_trace.csv"],
     ["divergent.json", "divergent_trace.csv"]),
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
    # the full 15-instance suite at dim 10, rotated and non-continuous included
    (["sweep", "--dim", "10", "--particles", "4", "--iterations", "10",
      "--omega-min", "0.4", "--omega-max", "0.7", "--omega-step", "0.3",
      "--alpha-min", "1", "--alpha-max", "2", "--alpha-step", "1", "--repetitions", "1",
      "--seed", "14", "--output", "sweep_suite10.csv"], ["sweep_suite10.csv"]),
    # 23 x 20 cells of 25 x 2 swarms: more swarms than one batch holds
    (["sweep", "--omega-min", "-1.1", "--omega-max", "1.1", "--omega-step", "0.1",
      "--alpha-min", "0.25", "--alpha-max", "5", "--alpha-step", "0.25", "--iterations", "5",
      "--repetitions", "1", "--functions", "sphere", "--dim", "2", "--particles", "25",
      "--seed", "15", "--output", "sweep_batches.csv"], ["sweep_batches.csv"]),
    (["region", "--sweep", "sweep.csv", "--curve", "curve_lyapunov.csv", "--quantile", "0.5",
      "--output", "region.csv", "--stats", "region.json"], ["region.csv", "region.json"]),
    (["scaling", "--kappa", "0.5", "--split", "social-only", "--iterations", "50",
      "--repetitions", "300", "--omega-min", "0.4", "--omega-max", "0.4",
      "--tolerance", "0.05", "--seed", "8", "--output", "scaling.csv"], ["scaling.csv"]),
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
    env = {**os.environ, "PYTHONPATH": str(src)}
    for cmd, files in COMMANDS:
        for name in files:
            (out / name).unlink(missing_ok=True)
        done = subprocess.run([sys.executable, "-m", "swarmcrit.cli", *cmd], cwd=out, env=env)
        if done.returncode != 0:
            print(f"error: {cmd[0]} exited {done.returncode}", file=sys.stderr)
            return 1
        for name in files:
            print(name, hashlib.sha256((out / name).read_bytes()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
