"""Layer timing of two source trees: ns per lane-step of the Lyapunov orbit
at several lane counts, with its minor page faults, seconds of one
23-point Lyapunov curve, ns per lane-step of the first-passage loop at
two lane counts, µs per iteration of the lockstep optimiser at the two
sweep shapes, seconds of one lockstep call whose swarms overflow, µs per
swarm-iteration of the suite sweep with the share of its rows each base
formula ran, the cold start of the CLI and a cold ``region`` call; and
the bisection's probe requests per critical-curve point, with an escape
point's lanes started and lane-steps.

Usage::

    python tools/bench_layers.py PARENT CHANGE OUT.json [--layers startup,probes]

``--layers`` names the entries to measure, of ``layers`` (Lyapunov),
``grid``, ``passage``, ``lockstep``, ``divergent``, ``sweep``,
``startup``, ``region`` and ``probes``; the default is all of them.  Each of ``ROUNDS`` rounds
(``STARTUP_ROUNDS`` for the startup and region layers) runs, per timing
layer, one fresh process per tree (the package under ``<tree>/src``),
alternating which tree runs first from one round to the next.  The script
refuses to start while either tree holds a ``__pycache__`` under ``src/``
and names it, as ``tools/bench_pairs.py`` does: the startup layer times the
import without the package's bytecode caches.

Lyapunov layer: a lane is one trial of ``stability.lyapunov_exponent``; a
lane-step is one lane advanced one step.  The process times, at each of
``LANES``, one call of ``lyapunov_exponent(0.4, 1.1, 1.3, steps, lanes,
burn_in=0)`` with ``steps = LANE_STEPS // lanes``, after one untimed call at
a tenth of the steps; the weight draws and the log sum are part of the
time.  One kernel call holds five chunks of the orbit at 12 lanes, two at
32 lanes, the ``lyapunov`` command's default trials, and one from 43 lanes
up; the lane counts above 4096 are those where a chunk holds its fewest
steps.  Beside each lane count's time (key ``N``) the process reports the
minor page faults of the timed call (key ``minflt-N``, the ``ru_minflt``
difference around it): two trees whose kernels do the same numpy work
can still differ in the memory each call maps anew.

Grid layer: the process times one ``stability.critical_curve`` call of
``GRID_CURVE``, 23 omegas from -1.1 to 1.1 at 1000 steps and 16 trials,
seed ``CURVE_SEED``, after one untimed call at a tenth of the steps and
the seed before, and reports its seconds and minor page faults (keys
``grid-16`` and ``minflt-grid-16``).  Its kernel calls hold one chunk of
each of four open probes, several calls a round: the layout of curves at
CLI scale, which no benchmark workload runs.  It makes public calls only,
so the same probe text runs in trees whose chunk layouts differ.

Passage layer: a lane-step is one open lane of the first-passage loop
advanced one step.  The process times, for each rule of ``PASSAGE_RULES``
at each of ``PASSAGE_LANES``, whole public calls of seeds 2, 3, ... until
they have run ``PASSAGE_LANE_STEPS`` lane-steps, after one untimed call of
seed 1.  The escape rule calls ``escape_probability(omega, alpha1, alpha2,
max_steps=stability._ESCAPE_MAX_STEPS, trials=lanes, seed=seed)``, at the
default radii 1e-6 and 1e6, and runs every lane to its end.  The neutral
rule calls ``neutral_alpha(omega, ScalingConfig(kappa, p, g,
repetitions=lanes), seed=seed)``: a whole bisection of first-passage probes
of the scaled experiment, its 200 iterations a lane at most, each probe
stopping once its sign is fixed, so its time holds the search's own work
too.  The process wraps ``stability._step`` and ``stability._affine``, the
steps of the two experiments' updates, to count the lane-steps (the lanes
of each call); it reports them per rule and lane count (key
``lane_steps-RULE-N``), the same in trees that run the same passages.  It
makes public calls only, so the same probe text runs in trees whose
first-passage helpers differ; the weight draws, the update, the tests and
the retirements are part of the time.

Lockstep layer: the process times, at each of ``SHAPES``, one call of
``pso.lockstep`` on the shape's swarms for ``ITERATIONS`` iterations, after
one untimed call of a tenth of them, and divides by ``ITERATIONS``; the
start, the weight draws and the cost evaluations are part of the time.  The
shapes are one instance's swarms in the benchmark's sweeps: ``valley``, 2-d
rastrigin, 12 omegas by 10 alphas by 2 repetitions (240 swarms, the
valley's one batch); and ``suite``, 10-d weierstrass, 4 omegas by 3 alphas
(12 swarms; the suite sweep's batches hold several instances, which the
sweep layer times); 25 particles each, as in the sweeps' CLI calls.

Divergent layer: the process times one call of ``pso.lockstep`` for
``DIVERGENT_ITERATIONS`` iterations on the ``DIVERGENT`` shape, a valley
sweep at the paper's budget: 2-d rastrigin (instance seed 77), 12 omegas
(-1.1 to 1.1 by 0.2) by 24 alphas (0.25 to 6 by 0.25, split equally), 25
particles, 288 swarms.  By the end about a third of its swarms have
overflowed, many of them particle by particle; no other layer and no
benchmark workload runs such a swarm.  The start, the weight draws and the
cost evaluations are part of the time.

Sweep layer: the process times one ``harness.run_sweep`` of the
benchmark's ``sweep-suite10`` configuration (the 15-instance suite at
dim 10, 4 omegas by 3 alphas, one repetition, ``ITERATIONS`` iterations,
25 particles), after one untimed sweep of a tenth of the iterations, and
divides by the swarm-iterations (180 swarms times ``ITERATIONS``); batching,
the start, the weight draws and the cost evaluations are part of the time.
It then runs the timed sweep again, untimed, with each ``benchmarks._BASE``
entry wrapped to count the rows it evaluates, and reports the share of its
scheduled rows (its instances' swarms times 25 particles times
``ITERATIONS`` + 1 evaluations) that each base formula ran (key
``rows-FID``): 1 for a formula without a bound, less where a bound skips
rows, so a bound's screen shows as rows as well as time.

Startup layer: the process imports numpy, then times ``import
swarmcrit.cli`` and counts the modules that import adds to
``sys.modules``; the benchmark starts such a process for every run.  Each
round starts it twice per tree: once without bytecode caches of the
package, as the benchmark runs its checkouts (``import_s``, ``modules``),
and once with caches in a temporary directory outside the trees, written
by one untimed start per tree before the first round
(``cached_import_s``).

Region layer: before the first round, each tree writes one small valley
sweep CSV with its own ``sweep`` command (``REGION_SWEEP``: the
``sweep-valley`` grid at 20 iterations), untimed.  The process imports
``swarmcrit.cli``, then times one ``dispatch`` of the ``sweep-valley``
workload's ``region`` call on that CSV, with the tree's
``bench/reference_curve.csv`` as the curve and ``--stats``, the first
call of the process as in the benchmark (``region_s``); it counts the
modules the call adds to ``sys.modules`` (``modules``) and reads the
process's peak resident memory after it (``maxrss_mb``, ``ru_maxrss``).

Probe layer: not a timing, so it runs once per tree.  The process wraps
``stability._bisection`` so that it counts the probe requests of each
critical point, by budget level, and solves each of ``CURVES``: the
``boundary-escape`` workload's escape curve (omega 0.4 at the CLI's
defaults), the ``curve-lyapunov`` workload's curve and two 23-point
Lyapunov curves that keep many probes open, all at seed ``CURVE_SEED``.
A level-L request runs ``2**L`` times the level-0 budget
(the Lyapunov steps, or the escape trials, of which it continues the
level below), so a request at the top level is the most expensive a point
asks.  The requests count what a point asked, not what it cost: an escape
probe can stop early, and the levels' budgets differ between trees whose
ladders differ.  So for an escape curve the process also wraps
``stability._start`` and ``stability._step`` and charges to the point whose
request runs, as its first-passage probe answers that request at once,
the lanes started (the sum of ``n``) and the lane-steps (the sum of
``x.size`` over the escape update's steps).  For a Lyapunov curve it
wraps ``stability._chunk``, whose calls serve the probes of every point
at once, and counts the curve's chunk calls and padded lane-steps: a call
on weights of shape ``(k, n)`` pads its ``k`` steps to a power of two, at
least 2, for each of its ``n`` lanes.  The wrapper passes its arguments on
by position, so the same probe text runs in trees whose chunk rules
differ.

OUT.json gets, of the measured entries, a ``layers`` entry (Lyapunov), a
``grid`` entry, a ``passage`` entry, a ``lockstep`` entry, a
``divergent`` entry, a ``sweep`` entry, a ``startup`` entry and a
``region`` entry with, per key (a lane count, a rule at a lane count, a
shape, a sweep, a startup or a region figure), each side's median,
inclusive quartiles and runs, the ratio of the medians (change over
parent, null where the parent's is 0) and ``change_lower_in_rounds``;
and a ``probes`` entry with, per curve and tree, each point's requests by level, its ``std_error`` and status, and
the curve's totals, with, for an escape curve, the lanes started and
lane-steps of each point and of the curve, and for a Lyapunov curve its
chunk calls and padded lane-steps.  Other entries of an existing
OUT.json, such as the ones ``tools/bench_pairs.py`` writes, are kept; run
this after that script, which writes its file anew.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import SIDES, refuse_bytecode, summary

LANES = (12, 32, 60, 368, 1024, 4096, 8192, 16384, 65536)
# 15 rounds resolve a 15-25% Lyapunov layer move; 7 could not tell a
# 10-20% move from the rounds' spread
ROUNDS = 15
# a start takes about 0.2 s, and its rounds spread by about 6% either
# side of the median: a 10% move needs more rounds than the other layers
STARTUP_ROUNDS = 31
LANE_STEPS = 1 << 20
ITERATIONS = 200
# name: (omega, alpha1, alpha2, (kappa, p, g) of the neutral rule, or None
# for the escape rule); the neutral bisection picks its own weights
PASSAGE_RULES = {
    "escape": (0.4, 1.3, 1.3, None),
    "neutral": (0.4, None, None, (0.1, 0.1, 0.0)),
}
PASSAGE_LANES = (1000, 10_000)
PASSAGE_LANE_STEPS = 1 << 22
# name: (function id, dim, omegas, alphas, repetitions); the grids are
# those of the sweeps' CLI calls, alphas split equally
SHAPES = {
    "valley": ("rastrigin", 2, (-1.1, 1.1, 0.2), (0.25, 5.0, 0.5), 2),
    "suite": ("weierstrass", 10, (-0.5, 1.0, 0.5), (1.0, 4.0, 1.5), 1),
}
# the sweep-suite10 sweep: (omegas, alphas, dim), one repetition
SWEEP = ((-0.5, 1.0, 0.5), (1.0, 4.0, 1.5), 10)
# (function id, dim, instance seed, omegas, alphas) of the divergent layer
DIVERGENT = ("rastrigin", 2, 77, (-1.1, 1.1, 0.2), (0.25, 6.0, 0.25))
DIVERGENT_ITERATIONS = 4000

# one process: ns per lane-step, and the minor page faults of the timed
# call, at each lane count of argv[2:]
LYAPUNOV_PROBE = """
import json, resource, sys, time
from swarmcrit.stability import lyapunov_exponent
lane_steps, lanes = int(sys.argv[1]), [int(n) for n in sys.argv[2:]]
out = {}
for n in lanes:
    steps = max(1, lane_steps // n)
    lyapunov_exponent(0.4, 1.1, 1.3, max(1, steps // 10), n, 0, seed=1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t = time.perf_counter()
    lyapunov_exponent(0.4, 1.1, 1.3, steps, n, 0, seed=2)
    out[n] = 1e9 * (time.perf_counter() - t) / (steps * n)
    out[f"minflt-{n}"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps(out))
"""

# one process: ns per lane-step, and the lane-steps run, of each rule of
# the JSON argv[2] at each lane count of argv[3:]
PASSAGE_PROBE = """
import json, sys, time
from swarmcrit import stability
lane_steps, rules, lanes = int(sys.argv[1]), json.loads(sys.argv[2]), [int(n) for n in sys.argv[3:]]
count = [0]
def counted(step, x_at):
    def wrapped(*args, **kwargs):
        count[0] += args[x_at].size
        return step(*args, **kwargs)
    return wrapped
# the escape update steps through _step, the neutral one through _affine
stability._step = counted(stability._step, 3)
stability._affine = counted(stability._affine, 4)
def call(rule, seed, n):
    omega, a1, a2, segment = rule
    if segment is None:
        stability.escape_probability(omega, a1, a2, max_steps=stability._ESCAPE_MAX_STEPS,
                                     trials=n, seed=seed)
    else:
        stability.neutral_alpha(omega, stability.ScalingConfig(*segment, repetitions=n),
                                seed=seed)
out = {}
for name, rule in rules.items():
    for n in lanes:
        call(rule, 1, n)
        count[0], seed, busy = 0, 1, 0.0
        while count[0] < lane_steps:
            seed += 1
            t = time.perf_counter()
            call(rule, seed, n)
            busy += time.perf_counter() - t
        out[f"{name}-{n}"] = 1e9 * busy / count[0]
        out[f"lane_steps-{name}-{n}"] = count[0]
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

# one process: seconds of one lockstep call on the shape of the JSON argv[2]
DIVERGENT_PROBE = """
import json, sys, time
from swarmcrit.benchmarks import make_function
from swarmcrit.dynamics import SwarmParams
from swarmcrit.harness import inclusive_grid
from swarmcrit.pso import lockstep
iterations, (fid, dim, seed, omegas, alphas) = int(sys.argv[1]), json.loads(sys.argv[2])
fn = make_function(fid, dim, seed=seed)
params = [SwarmParams(w, a / 2, a / 2, n_particles=25, dim=dim)
          for w in inclusive_grid(*omegas) for a in inclusive_grid(*alphas)]
t = time.perf_counter()
lockstep(fn, params, iterations, fn.domain, [[2, i] for i in range(len(params))])
print(json.dumps({"valley": time.perf_counter() - t}))
"""

# one process: µs per swarm-iteration of the sweep of the JSON argv[2], and
# the share of its scheduled rows that each base formula ran
SWEEP_PROBE = """
import json, sys, time
from swarmcrit import benchmarks
from swarmcrit.harness import SweepConfig, inclusive_grid, run_sweep
iterations, (omegas, alphas, dim) = int(sys.argv[1]), json.loads(sys.argv[2])
def config(seed, iterations):
    return SweepConfig(omega_values=inclusive_grid(*omegas), alpha_values=inclusive_grid(*alphas),
                       iterations=iterations, repetitions=1, n_particles=25, dim=dim,
                       master_seed=seed)
run_sweep(config(1, max(1, iterations // 10)))
t = time.perf_counter()
swarms = len(run_sweep(config(2, iterations)).cells)
out = {"suite10": 1e6 * (time.perf_counter() - t) / (swarms * iterations)}
rows, scheduled = dict.fromkeys(benchmarks._BASE, 0), dict.fromkeys(benchmarks._BASE, 0)
def counted(fid, base):
    def formula(z):
        rows[fid] += z.size // z.shape[-1]
        return base(z)
    return formula
for fid, base in list(benchmarks._BASE.items()):
    benchmarks._BASE[fid] = counted(fid, base)
instances = benchmarks.suite(dim)
for fn in instances:
    scheduled[fn.id] += swarms // len(instances) * 25 * (iterations + 1)
run_sweep(config(2, iterations))
out.update((f"rows-{fid}", rows[fid] / scheduled[fid]) for fid in rows)
print(json.dumps(out))
"""

# name: critical_curve keyword arguments; the boundary-escape escape curve
# runs the CLI's defaults, curve-lyapunov the workload's budget, with two
# open probes a round; the grid curves keep many probes open, 23 omegas at
# 12 and at 20 trials
_GRID = [round(-1.1 + 0.1 * i, 10) for i in range(23)]
CURVES = {
    "boundary-escape": dict(omega_grid=[0.4], method="escape"),
    "curve-lyapunov": dict(omega_grid=[-1.0, -0.5, 0.0, 0.5, 1.0], tolerance=0.05, steps=1000,
                           trials=12),
    "grid-12": dict(omega_grid=_GRID, tolerance=0.05, steps=1000, trials=12),
    "grid-20": dict(omega_grid=_GRID, tolerance=0.05, steps=1000, trials=20),
}
CURVE_SEED = 1511
# the grid layer's curve: 23 omegas at 16 trials, four open probes a call
GRID_CURVE = dict(omega_grid=_GRID, tolerance=0.05, steps=1000, trials=16)

# one process: the seconds and minor page faults of one critical_curve
# call of the JSON argv[2] at seed argv[1]
GRID_PROBE = """
import json, resource, sys, time
from swarmcrit.stability import critical_curve
seed, kwargs = int(sys.argv[1]), json.loads(sys.argv[2])
critical_curve(seed=seed - 1, **{**kwargs, "steps": max(1, kwargs["steps"] // 10)})
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t = time.perf_counter()
critical_curve(seed=seed, **kwargs)
wall = time.perf_counter() - t
key = f"grid-{kwargs['trials']}"
print(json.dumps({key: wall,
                  f"minflt-{key}": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults}))
"""

# one process: each point's bisection requests by level, an escape point's
# lanes started and lane-steps, and a Lyapunov curve's chunk calls and
# padded lane-steps, per curve of the JSON argv[2]
COUNT_PROBE = """
import json, math, sys
from swarmcrit import stability
seed, curves = int(sys.argv[1]), json.loads(sys.argv[2])
bisection, start, step = stability._bisection, stability._start, stability._step
chunk = stability._chunk
counts, work, current, chunks = [], [], [0], {"chunk_calls": 0, "padded_lane_steps": 0}
def counted(*args):
    levels, point = [0] * (args[-1] + 1), len(counts)
    counts.append(levels)
    work.append({"lanes": 0, "lane_steps": 0})
    search, reply = bisection(*args), None
    try:
        while True:
            request = search.send(reply)
            levels[request[2]] += 1
            current[0] = point
            reply = yield request
    except StopIteration as stop:
        return stop.value
def started(rng, n):
    work[current[0]]["lanes"] += n
    return start(rng, n)
def stepped(omega, ar, v, x, *rest):
    work[current[0]]["lane_steps"] += x.size
    return step(omega, ar, v, x, *rest)
def chunked(omega, ar, *rest):
    chunks["chunk_calls"] += 1
    chunks["padded_lane_steps"] += max(2, 1 << (len(ar) - 1).bit_length()) * ar.shape[1]
    return chunk(omega, ar, *rest)
stability._bisection = counted
out = {}
for name, kwargs in curves.items():
    counts.clear()
    work.clear()
    chunks.update(dict.fromkeys(chunks, 0))
    escape = kwargs.get("method") == "escape"
    stability._start, stability._step = (started, stepped) if escape else (start, step)
    stability._chunk = chunk if escape else chunked
    curve = stability.critical_curve(seed=seed, **kwargs)
    out[name] = {
        "points": [{"omega": p.omega, "requests": sum(levels), "by_level": levels,
                    **(cost if escape else {}),
                    "std_error": None if math.isnan(p.std_error) else p.std_error,
                    "status": p.status}
                   for p, levels, cost in zip(curve.points, counts, work)],
        "requests": sum(map(sum, counts)),
        "by_level": [sum(column) for column in zip(*counts)],
    }
    if escape:
        out[name].update({key: sum(cost[key] for cost in work) for key in work[0]})
    else:
        out[name].update(chunks)
print(json.dumps(out))
"""

# one process: after numpy, the wall seconds of importing the CLI and the
# number of modules that import adds
STARTUP_PROBE = """
import sys, time
import numpy
before = len(sys.modules)
t = time.perf_counter()
import swarmcrit.cli
import json
print(json.dumps({"import_s": time.perf_counter() - t, "modules": len(sys.modules) - before}))
"""

# the sweep-valley workload's sweep at 20 iterations, for the region layer
REGION_SWEEP = ["sweep", "--functions", "rastrigin", "--dim", "2", "--particles", "25",
                "--iterations", "20", "--omega-min", "-1.1", "--omega-max", "1.1",
                "--omega-step", "0.2", "--alpha-min", "0.25", "--alpha-max", "5",
                "--alpha-step", "0.5", "--repetitions", "2", "--seed", "1"]

# one process: the CLI call argv[1:], which must succeed
CLI_PROBE = """
import sys
from swarmcrit.cli import dispatch
assert dispatch(sys.argv[1:]) == 0
print("{}")
"""

# one process: after importing the CLI, the wall seconds of the region call
# on the sweep CSV argv[1] and the curve CSV argv[2], writing into the
# directory argv[3], the modules the call adds and the peak RSS after it
REGION_PROBE = """
import json, resource, sys, time
from swarmcrit.cli import dispatch
sweep, curve, out = sys.argv[1:]
before = len(sys.modules)
t = time.perf_counter()
code = dispatch(["region", "--sweep", sweep, "--curve", curve, "--quantile", "0.1",
                 "--output", out + "/region.csv", "--stats", out + "/region.json"])
region_s = time.perf_counter() - t
assert code == 0
print(json.dumps({"region_s": region_s, "modules": len(sys.modules) - before,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

# entry of OUT.json: (probe, its arguments, the unit of its values, rounds)
PROBES = {
    "layers": (LYAPUNOV_PROBE, [str(LANE_STEPS), *map(str, LANES)],
               "ns per lane-step (N), minor page faults per timed call (minflt-N)", ROUNDS),
    "grid": (GRID_PROBE, [str(CURVE_SEED), json.dumps(GRID_CURVE)],
             "s per curve (grid-T), minor page faults per timed call (minflt-grid-T)", ROUNDS),
    "passage": (PASSAGE_PROBE, [str(PASSAGE_LANE_STEPS), json.dumps(PASSAGE_RULES),
                                *map(str, PASSAGE_LANES)],
                "ns per lane-step (RULE-N), lane-steps run (lane_steps-RULE-N)", ROUNDS),
    "lockstep": (LOCKSTEP_PROBE, [str(ITERATIONS), json.dumps(SHAPES)], "us per iteration",
                 ROUNDS),
    "divergent": (DIVERGENT_PROBE, [str(DIVERGENT_ITERATIONS), json.dumps(DIVERGENT)],
                  "s per call", ROUNDS),
    "sweep": (SWEEP_PROBE, [str(ITERATIONS), json.dumps(SWEEP)],
              "us per swarm-iteration (suite10), share of scheduled rows run (rows-FID)", ROUNDS),
    "startup": (STARTUP_PROBE, [], "s (import_s, cached_import_s), modules (modules)",
                STARTUP_ROUNDS),
    # the arguments name each tree's own files, so run_tree fills them in
    "region": (REGION_PROBE, [], "s (region_s), modules (modules), MB (maxrss_mb)",
               STARTUP_ROUNDS),
}


LAYERS = (*PROBES, "probes")


def run_probe(tree: Path, probe: str, args: list[str], cache: Path | None = None) -> dict:
    # no bytecode files in the tree: a cache left in one tree would speed up
    # the benchmark's set-up there; ``cache`` is a directory for them
    # outside the trees
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    if cache:
        del env["PYTHONDONTWRITEBYTECODE"]
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout)


def run_tree(tree: Path, layer: str, cache: Path) -> dict[str, float]:
    """One process of ``layer`` in ``tree``; ``cache`` is the tree's own
    directory outside the trees, for bytecode and the region layer's files."""
    probe, args, _, _ = PROBES[layer]
    if layer == "region":
        return run_probe(tree, probe, [str(cache / "sweep.csv"),
                                       str(tree / "bench" / "reference_curve.csv"), str(cache)])
    if layer != "startup":
        return run_probe(tree, probe, args)
    cached = run_probe(tree, probe, args, cache)
    return {**run_probe(tree, probe, args), "cached_import_s": cached["import_s"]}


def compare(runs: dict[str, dict[str, list[float]]]) -> dict:
    """Per key, each side's summary, the ratio of the medians and the
    rounds where the change was lower."""
    out = {}
    for key in runs["parent"]:
        row = {side: summary(runs[side][key]) for side in SIDES}
        parent = row["parent"]["median"]
        row["ratio"] = row["change"]["median"] / parent if parent else None
        row["change_lower_in_rounds"] = sum(c < p for c, p in zip(runs["change"][key],
                                                                  runs["parent"][key]))
        out[key] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("output", type=Path)
    parser.add_argument("--layers", default=",".join(LAYERS),
                        help=f"comma-separated entries to measure (default {','.join(LAYERS)})")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    layers = args.layers.split(",")
    if unknown := set(layers) - set(LAYERS):
        parser.error(f"unknown layers: {', '.join(sorted(unknown))}")
    refuse_bytecode(parser, trees.values())

    runs = {layer: {side: {} for side in SIDES} for layer in PROBES}
    with tempfile.TemporaryDirectory() as caches:
        cache = {side: Path(caches) / side for side in SIDES}
        if "startup" in layers:
            # one untimed start per tree writes its bytecode caches
            for side in SIDES:
                run_probe(trees[side], STARTUP_PROBE, [], cache[side])
        if "region" in layers:
            # each tree's own sweep writes the CSV its region calls read
            for side in SIDES:
                cache[side].mkdir(exist_ok=True)
                run_probe(trees[side], CLI_PROBE,
                          [*REGION_SWEEP, "--output", str(cache[side] / "sweep.csv")])
        for k in range(max((PROBES[layer][3] for layer in layers if layer in PROBES), default=0)):
            for layer, (_, _, unit, rounds) in PROBES.items():
                if layer not in layers or k >= rounds:
                    continue
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    for key, value in run_tree(trees[side], layer, cache[side]).items():
                        runs[layer][side].setdefault(key, []).append(value)
                    print(f"round {k} {layer} {side} ({unit}): " + ", ".join(
                        f"{key} {values[-1]:.4g}" for key, values in runs[layer][side].items()),
                        file=sys.stderr)

    method = ("one fresh process per tree and round, the first tree alternating; "
              "q1/q3 are the inclusive quartiles of the rounds")
    entries = {
        "layers": {
            "command": "lyapunov_exponent(0.4, 1.1, 1.3, lane_steps // lanes, lanes, burn_in=0)",
            "method": method,
            "unit": PROBES["layers"][2],
            "lane_steps": LANE_STEPS,
            "lanes": compare(runs["layers"]),
        },
        "grid": {
            "command": f"critical_curve(seed={CURVE_SEED}, **kwargs)",
            "method": method + "; after one untimed curve at a tenth of the steps",
            "unit": PROBES["grid"][2],
            "kwargs": GRID_CURVE,
            "results": compare(runs["grid"]),
        },
        "passage": {
            "command": "escape_probability(omega, alpha1, alpha2, "
                       "max_steps=stability._ESCAPE_MAX_STEPS, trials=lanes, seed=seed) and "
                       "neutral_alpha(omega, ScalingConfig(kappa, p, g, repetitions=lanes), "
                       f"seed=seed), seeds 2, 3, ... until {PASSAGE_LANE_STEPS} lane-steps, "
                       "counted at wrapped stability._step and stability._affine",
            "method": method,
            "unit": PROBES["passage"][2],
            "rules": {name: dict(zip(("omega", "alpha1", "alpha2", "kappa_p_g"), rule))
                      for name, rule in PASSAGE_RULES.items()},
            "results": compare(runs["passage"]),
        },
        "lockstep": {
            "command": f"lockstep(make_function(id, dim, seed=1), params, {ITERATIONS}, domain, "
                       "seeds), 25 particles",
            "method": method,
            "unit": PROBES["lockstep"][2],
            "shapes": {name: dict(zip(("function", "dim", "omegas", "alphas", "repetitions"),
                                      shape))
                       for name, shape in SHAPES.items()},
            "results": compare(runs["lockstep"]),
        },
        "divergent": {
            "command": f"lockstep(make_function(id, dim, seed=seed), params, "
                       f"{DIVERGENT_ITERATIONS}, domain, seeds), 25 particles",
            "method": method,
            "unit": PROBES["divergent"][2],
            "shape": dict(zip(("function", "dim", "instance_seed", "omegas", "alphas"),
                              DIVERGENT)),
            "results": compare(runs["divergent"]),
        },
        "sweep": {
            "command": f"run_sweep(SweepConfig(omegas, alphas, iterations={ITERATIONS}, "
                       "repetitions=1, n_particles=25, dim=dim, master_seed=2)), then once "
                       "more, untimed, with benchmarks._BASE entries wrapped to count rows",
            "method": method,
            "unit": PROBES["sweep"][2],
            "config": dict(zip(("omegas", "alphas", "dim"), SWEEP)),
            "results": compare(runs["sweep"]),
        },
        "startup": {
            "command": "import numpy, then time `import swarmcrit.cli` and count the modules "
                       "it adds to sys.modules",
            "method": method + "; import_s and modules without bytecode caches of the package, "
                      "as the benchmark runs, cached_import_s with caches written outside the "
                      "trees by one untimed start",
            "unit": PROBES["startup"][2],
            "results": compare(runs["startup"]),
        },
        "region": {
            "command": "import swarmcrit.cli, then time one dispatch(['region', '--sweep', "
                       "SWEEP, '--curve', 'bench/reference_curve.csv', '--quantile', '0.1', "
                       "'--output', ..., '--stats', ...]), count the modules it adds to "
                       "sys.modules and read ru_maxrss after it",
            "method": method + "; SWEEP written once per tree by its own sweep command, untimed",
            "unit": PROBES["region"][2],
            "sweep": " ".join(REGION_SWEEP),
            "results": compare(runs["region"]),
        },
    }
    record = json.loads(args.output.read_text()) if args.output.exists() else {}
    record.update((layer, entries[layer]) for layer in layers if layer in entries)
    if "probes" in layers:
        counts = {side: run_probe(trees[side], COUNT_PROBE, [str(CURVE_SEED), json.dumps(CURVES)])
                  for side in SIDES}
        record["probes"] = {
            "command": f"critical_curve(seed={CURVE_SEED}, **kwargs) with stability._bisection "
                       "wrapped to count each point's requests by budget level, and for an "
                       "escape curve stability._start and stability._step wrapped to count "
                       "each point's lanes started and lane-steps, and for a Lyapunov curve "
                       "stability._chunk wrapped to count the curve's chunk calls and padded "
                       "lane-steps",
            "method": "one fresh process per tree; the counts do not vary from run to run",
            "curves": {name: {"kwargs": kwargs, **{side: counts[side][name] for side in SIDES}}
                       for name, kwargs in CURVES.items()},
        }
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
