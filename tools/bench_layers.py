"""Layer timing of the Lyapunov orbit: ns per lane-step of the exponent
estimator at several lane counts, for two source trees.

Usage::

    python tools/bench_layers.py PARENT CHANGE OUT.json

A lane is one trial of ``stability.lyapunov_exponent``; a lane-step is one
lane advanced one step.  Each of ``ROUNDS`` rounds runs one fresh process
per tree (the package under ``<tree>/src``), alternating which tree runs
first from one round to the next.  The process times, at each of ``LANES``,
one call of ``lyapunov_exponent(0.4, 1.1, 1.3, steps, lanes, burn_in=0)``
with ``steps = LANE_STEPS // lanes``, after one untimed call at a tenth of
the steps; the weight draws and the log sum are part of the time.  The
lane counts above 4096 are those where a Lyapunov chunk holds its fewest
steps.

OUT.json gets a ``layers`` entry with, per lane count, each side's median,
inclusive quartiles and runs of the ns per lane-step, the ratio of the
medians (change over parent) and ``change_lower_in_rounds``.  Other entries
of an existing OUT.json, such as the ones ``tools/bench_pairs.py`` writes,
are kept; run this after that script, which writes its file anew.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
LANES = (12, 60, 368, 1024, 4096, 8192, 16384, 65536)
ROUNDS = 7
LANE_STEPS = 1 << 20

# one process: ns per lane-step at each lane count of argv[1:]
PROBE = """
import json, sys, time
from swarmcrit.stability import lyapunov_exponent
lane_steps, lanes = int(sys.argv[1]), [int(n) for n in sys.argv[2:]]
out = {}
for n in lanes:
    steps = max(1, lane_steps // n)
    lyapunov_exponent(0.4, 1.1, 1.3, max(1, steps // 10), n, 0, seed=1)
    t = time.perf_counter()
    lyapunov_exponent(0.4, 1.1, 1.3, steps, n, 0, seed=2)
    out[n] = 1e9 * (time.perf_counter() - t) / (steps * n)
print(json.dumps(out))
"""


def run_tree(tree: Path) -> dict[int, float]:
    # no bytecode files: a cache left in one tree would speed up the
    # benchmark's set-up there
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-c", PROBE, str(LANE_STEPS), *map(str, LANES)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return {int(n): ns for n, ns in json.loads(proc.stdout).items()}


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("output", type=Path)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {side: {n: [] for n in LANES} for side in SIDES}
    for k in range(ROUNDS):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            for n, ns in run_tree(trees[side]).items():
                runs[side][n].append(ns)
            print(f"round {k} {side}: " + ", ".join(
                f"{n} lanes {runs[side][n][-1]:.1f} ns" for n in LANES), file=sys.stderr)

    entry = {
        "command": "lyapunov_exponent(0.4, 1.1, 1.3, lane_steps // lanes, lanes, burn_in=0)",
        "method": "one fresh process per tree and round, the first tree alternating; "
                  "q1/q3 are the inclusive quartiles of the rounds",
        "unit": "ns per lane-step",
        "lane_steps": LANE_STEPS,
        "lanes": {},
    }
    for n in LANES:
        row = {side: summary(runs[side][n]) for side in SIDES}
        row["ratio"] = row["change"]["median"] / row["parent"]["median"]
        row["change_lower_in_rounds"] = sum(c < p for c, p in zip(runs["change"][n],
                                                                  runs["parent"][n]))
        entry["lanes"][str(n)] = row
    record = json.loads(args.output.read_text()) if args.output.exists() else {}
    record["layers"] = entry
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
