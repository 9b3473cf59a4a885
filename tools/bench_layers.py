"""Layer timing of two source trees: ns per lane-step of the Lyapunov orbit
at several lane counts, and µs per iteration of the lockstep optimiser at
the two sweep shapes.

Usage::

    python tools/bench_layers.py PARENT CHANGE OUT.json

Each of ``ROUNDS`` rounds runs, per layer, one fresh process per tree (the
package under ``<tree>/src``), alternating which tree runs first from one
round to the next.

Lyapunov layer: a lane is one trial of ``stability.lyapunov_exponent``; a
lane-step is one lane advanced one step.  The process times, at each of
``LANES``, one call of ``lyapunov_exponent(0.4, 1.1, 1.3, steps, lanes,
burn_in=0)`` with ``steps = LANE_STEPS // lanes``, after one untimed call at
a tenth of the steps; the weight draws and the log sum are part of the
time.  The lane counts above 4096 are those where a Lyapunov chunk holds
its fewest steps.

Lockstep layer: the process times, at each of ``SHAPES``, one call of
``pso.lockstep`` on the shape's swarms for ``ITERATIONS`` iterations, after
one untimed call of a tenth of them, and divides by ``ITERATIONS``; the
start, the weight draws and the cost evaluations are part of the time.  The
shapes are the batches of the benchmark's sweeps: ``valley``, 2-d
rastrigin, 12 omegas by 10 alphas by 2 repetitions (240 swarms); and
``suite``, 10-d weierstrass, 4 omegas by 3 alphas (12 swarms); 25 particles
each, as in the sweeps' CLI calls.

OUT.json gets a ``layers`` entry (Lyapunov) and a ``lockstep`` entry with,
per lane count or shape, each side's median, inclusive quartiles and runs,
the ratio of the medians (change over parent) and
``change_lower_in_rounds``.  Other entries of an existing OUT.json, such as
the ones ``tools/bench_pairs.py`` writes, are kept; run this after that
script, which writes its file anew.
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
ITERATIONS = 200
# name: (function id, dim, omegas, alphas, repetitions); the grids are
# those of the sweeps' CLI calls, alphas split equally
SHAPES = {
    "valley": ("rastrigin", 2, (-1.1, 1.1, 0.2), (0.25, 5.0, 0.5), 2),
    "suite": ("weierstrass", 10, (-0.5, 1.0, 0.5), (1.0, 4.0, 1.5), 1),
}

# one process: ns per lane-step at each lane count of argv[2:]
LYAPUNOV_PROBE = """
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

# one process: µs per lockstep iteration at each shape of the JSON argv[2]
LOCKSTEP_PROBE = """
import json, sys, time
from swarmcrit.benchmarks import make_function
from swarmcrit.dynamics import SwarmParams
from swarmcrit.harness import inclusive_grid
from swarmcrit.pso import lockstep
iterations, shapes = int(sys.argv[1]), json.loads(sys.argv[2])
out = {}
for name, (fid, dim, omegas, alphas, reps) in shapes.items():
    fn = make_function(fid, dim, seed=1)
    params = [SwarmParams(w, a / 2, a / 2, n_particles=25, dim=dim)
              for w in inclusive_grid(*omegas) for a in inclusive_grid(*alphas)
              for _ in range(reps)]
    lockstep(fn, params, max(1, iterations // 10), fn.domain, [[1, i] for i in range(len(params))])
    t = time.perf_counter()
    lockstep(fn, params, iterations, fn.domain, [[2, i] for i in range(len(params))])
    out[name] = 1e6 * (time.perf_counter() - t) / iterations
print(json.dumps(out))
"""

# entry of OUT.json: (probe, its arguments, the unit of its values)
PROBES = {
    "layers": (LYAPUNOV_PROBE, [str(LANE_STEPS), *map(str, LANES)], "ns per lane-step"),
    "lockstep": (LOCKSTEP_PROBE, [str(ITERATIONS), json.dumps(SHAPES)], "us per iteration"),
}


def run_tree(tree: Path, layer: str) -> dict[str, float]:
    # no bytecode files: a cache left in one tree would speed up the
    # benchmark's set-up there
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    probe, args, _ = PROBES[layer]
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout)


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(runs: dict[str, dict[str, list[float]]]) -> dict:
    """Per key, each side's summary, the ratio of the medians and the
    rounds where the change was lower."""
    out = {}
    for key in runs["parent"]:
        row = {side: summary(runs[side][key]) for side in SIDES}
        row["ratio"] = row["change"]["median"] / row["parent"]["median"]
        row["change_lower_in_rounds"] = sum(c < p for c, p in zip(runs["change"][key],
                                                                  runs["parent"][key]))
        out[key] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("output", type=Path)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {layer: {side: {} for side in SIDES} for layer in PROBES}
    for k in range(ROUNDS):
        for layer, (_, _, unit) in PROBES.items():
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                for key, value in run_tree(trees[side], layer).items():
                    runs[layer][side].setdefault(key, []).append(value)
                print(f"round {k} {layer} {side} ({unit}): " + ", ".join(
                    f"{key} {values[-1]:.1f}" for key, values in runs[layer][side].items()),
                    file=sys.stderr)

    record = json.loads(args.output.read_text()) if args.output.exists() else {}
    record["layers"] = {
        "command": "lyapunov_exponent(0.4, 1.1, 1.3, lane_steps // lanes, lanes, burn_in=0)",
        "method": "one fresh process per tree and round, the first tree alternating; "
                  "q1/q3 are the inclusive quartiles of the rounds",
        "unit": PROBES["layers"][2],
        "lane_steps": LANE_STEPS,
        "lanes": compare(runs["layers"]),
    }
    record["lockstep"] = {
        "command": f"lockstep(make_function(id, dim, seed=1), params, {ITERATIONS}, domain, "
                   "seeds), 25 particles",
        "method": "one fresh process per tree and round, the first tree alternating; "
                  "q1/q3 are the inclusive quartiles of the rounds",
        "unit": PROBES["lockstep"][2],
        "shapes": {name: dict(zip(("function", "dim", "omegas", "alphas", "repetitions"), shape))
                   for name, shape in SHAPES.items()},
        "results": compare(runs["lockstep"]),
    }
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
