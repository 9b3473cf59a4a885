"""Regenerate ``reference_curve.csv``, the oracle table of alpha_c(omega).

    python3 bench/make_reference.py

The table is the Lyapunov-method critical curve for the equal split at the
CLI's default budgets (tolerance 0.02, 10000 steps, 16 trials, omega from
-1.1 to 1.1 at step 0.1) on seed 1511.  No workload uses that seed:
workload CLI seeds start at 10000.  It takes about two minutes.  The
checked-in table was made with this command at the commit that added the
benchmark; it is data, so later changes to the program do not invalidate
it.
"""

import os
import sys
from pathlib import Path

COMMAND = ["curve", "--seed", "1511", "--output", "bench/reference_curve.csv"]

if __name__ == "__main__":
    os.chdir(Path(__file__).resolve().parent.parent)
    sys.path.insert(0, "src")
    from swarmcrit import cli

    print("swarmcrit " + " ".join(COMMAND), file=sys.stderr)
    sys.exit(cli.dispatch(COMMAND))
