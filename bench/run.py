"""Benchmark runner for the swarmcrit CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in-process through ``swarmcrit.cli.dispatch`` on argument
lists generated from ``--seed``, checks every result file against the
oracles in ``oracles.py``, writes a run record under ``bench/out/records``
and prints one JSON line as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.

The speed of a shared virtual CPU drifts by 2x and more over seconds, so
every timed block is sampled by ``SpeedProbe`` and reported in *reference
seconds*: raw seconds at the speed where the probe kernel takes
KERNEL_REF_S.  Raw seconds are kept in the run record.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path("bench/out")
WORKDIR = "bench/out/work"

# speed-probe kernel time at the baseline machine's typical speed (NOTES.md),
# and the probe period
KERNEL_REF_S = 0.0025
PROBE_INTERVAL_S = 0.2
SETUP_STARTS = 7

# fixed here, not read from swarmcrit: they name per-layer metrics
FUNCTION_IDS = ("sphere", "rosenbrock", "rastrigin", "ackley", "griewank", "schwefel", "weierstrass")
EVAL_LABELS = FUNCTION_IDS + tuple(f"{f}-rot" for f in FUNCTION_IDS) + ("rastrigin-rot-nc",)

SETUP_PROBE = """\
import sys
sys.path[:0] = ["src", "bench"]
import swarmcrit.cli, workloads
workloads.passes(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4])
print("ready", flush=True)
"""


def _kernel():
    # small-array steps (per-call overhead, like the 12-lane orbit step and
    # pso_step), then large-array elementwise work (like the 1e4-lane escape
    # step and weierstrass); about 2.5 ms on the baseline machine
    a = np.linspace(0.0, 1.0, 12)
    b = np.linspace(1.0, 2.0, 12)
    for _ in range(60):
        c = 0.5 * a - b * a
        a = np.hypot(c, b)
        b = (c + a) / np.max(a)
        a = a / np.max(a)
    x = np.linspace(0.0, 1.0, 20_000)
    for _ in range(4):
        x = np.cos(x) * 0.5 + x * 0.5


class SpeedProbe:
    """Samples the machine's speed while a timed block runs.

    The fixed kernel runs once on entry, once on exit and, on a SIGALRM
    timer, every PROBE_INTERVAL_S of wall time.  Samples are uniform in
    wall time, so the harmonic mean of 1/kernel_time weights them by work
    done, and ``scale`` = KERNEL_REF_S * that mean turns the block's raw
    seconds into reference seconds.  ``spent`` / ``spent_cpu`` are the cost
    of the timer samples, which the caller takes out of the block's times;
    ``on_tick`` receives each sample's wall time, so that open spans can
    take it out too.
    """

    def __init__(self, on_tick):
        self.on_tick = on_tick
        self.inverse = self.spent = self.spent_cpu = 0.0
        self.samples = 0

    def sample(self) -> tuple[float, float]:
        w0, c0 = time.perf_counter(), time.process_time()
        _kernel()
        w1 = time.perf_counter()
        self.inverse += 1.0 / (w1 - w0)
        self.samples += 1
        return w1 - w0, time.process_time() - c0

    def _tick(self, *_):
        wall, cpu = self.sample()
        self.spent += wall
        self.spent_cpu += cpu
        self.on_tick(wall)

    def __enter__(self):
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    @property
    def scale(self) -> float:
        return KERNEL_REF_S * self.inverse / self.samples


def cpu_time() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src/swarmcrit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_setup(args) -> tuple[list[float], float]:
    """Fresh-interpreter starts to ready: import ``swarmcrit.cli`` and build
    the workload's inputs.  Returns raw seconds per start and the speed
    scale measured over them."""
    raw = []
    # the starts and the speed samples between them share one CPU (children
    # inherit the affinity), so that the samples measure the CPU the starts
    # ran on; a sample taken during a start would compete with it
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    probe = SpeedProbe(on_tick=None)
    try:
        probe.sample()
        for _ in range(SETUP_STARTS):
            t0 = time.perf_counter()
            with subprocess.Popen(
                [sys.executable, "-c", SETUP_PROBE, args.workload, str(args.seed),
                 str(args.seconds), WORKDIR],
                stdout=subprocess.PIPE, text=True,
            ) as proc:
                line = proc.stdout.readline()
                raw.append(time.perf_counter() - t0)
                proc.stdout.read()
            if proc.returncode != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
            probe.sample()
    finally:
        os.sched_setaffinity(0, cpus)
    return raw, probe.scale


class DigestStore:
    """sha256 of every result file, keyed by the program source and the
    argument lists of the pass up to the call (a call's inputs can be files
    that earlier calls of the pass wrote).  A file whose digest differs
    from an earlier run of the same code and inputs breaks the
    byte-identical contract."""

    def __init__(self, path: Path, code_id: str):
        self.path = path
        self.code_id = code_id
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def check(self, argvs, digests: dict) -> bool:
        key = hashlib.sha256(json.dumps([self.code_id, argvs]).encode()).hexdigest()
        known = self.data.setdefault(key, digests)
        return known == digests

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True))
        os.replace(tmp, self.path)


def run_call(call, cli, tracer, traced: bool) -> dict:
    """One timed CLI call; a crash or a non-zero exit is recorded, not raised."""
    dispatch = tracer.wrap("cli.dispatch", cli.dispatch) if traced else cli.dispatch
    with SpeedProbe(tracer.exclude) as probe:
        c0, t0 = cpu_time(), time.perf_counter()
        try:
            rc = dispatch(call.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash fails the call's units; the run goes on
            traceback.print_exc(file=sys.stderr)
            rc = -1
        wall = time.perf_counter() - t0 - probe.spent
        cpu = cpu_time() - c0 - probe.spent_cpu
    return {"argv": call.argv, "exit": rc, "raw_wall_s": wall, "raw_cpu_s": cpu,
            "scale": probe.scale, "probe_samples": probe.samples}


def run_pass(calls, cli, tracer, modules, store, traced: bool) -> dict:
    for old in Path(WORKDIR).glob("*"):
        old.unlink()
    record = {"calls": [], "attempted": 0, "failed": 0, "wall_s": 0.0, "cpu_s": 0.0,
              "raw_wall_s": 0.0, "raw_cpu_s": 0.0}
    with tracer.installed(modules):
        for i, call in enumerate(calls):
            res = run_call(call, cli, tracer, traced)
            digests = {p: sha256_file(p) for p in call.outputs if Path(p).exists()}
            same = store.check([c.argv for c in calls[: i + 1]], digests)
            failed = call.units
            if res["exit"] == 0 and same:
                try:
                    failed = min(call.check(), call.units)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    print(f"check failed for {call.argv[0]}: {exc!r}", file=sys.stderr)
            res.update(digests=digests, deterministic=same, units=call.units, failed=failed)
            record["calls"].append(res)
            record["attempted"] += call.units
            record["failed"] += failed
            record["wall_s"] += res["raw_wall_s"] * res["scale"]
            record["cpu_s"] += res["raw_cpu_s"] * res["scale"]
            record["raw_wall_s"] += res["raw_wall_s"]
            record["raw_cpu_s"] += res["raw_cpu_s"]
    return record


def environment(args) -> dict:
    commit = None  # a plain checkout carries no git metadata
    if Path(".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or None
    model = None
    if Path("/proc/cpuinfo").exists():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": model,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit, "source_sha256": source_digest(),
        "kernel_ref_s": KERNEL_REF_S, "probe_interval_s": PROBE_INTERVAL_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not Path("src/swarmcrit/cli.py").is_file():
        print("error: src/swarmcrit not found next to bench/", file=sys.stderr)
        return 2
    sys.path[:0] = ["src", str(HERE)]
    import workloads
    from spans import Tracer, layer_metrics, unit_of
    from swarmcrit import benchmarks, cli, harness, io, pso, stability

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    modules = {"stability": stability, "pso": pso, "harness": harness,
               "io": io, "benchmarks": benchmarks}
    Path(WORKDIR).mkdir(parents=True, exist_ok=True)
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    env = environment(args)
    store = DigestStore(OUT / "digests.json",
                        f"{env['source_sha256']} {env['python']} {env['numpy']}")
    plan = workloads.passes(workloads.WORKLOADS[args.workload], args.seed, args.seconds, WORKDIR)
    run = {"environment": env, "passes": []}
    counters = Tracer(full=False)

    if args.trace == 0:
        setup_raw, setup_scale = measure_setup(args)
        for calls in plan:
            run["passes"].append(run_pass(calls, cli, counters, modules, store, traced=False))
        rec = run["passes"]
        # a mean, not a median: passes differ in work (a bisection's probe
        # count depends on its seed) and the mean averages that best
        metrics = {
            "wall_s": (statistics.fmean(p["wall_s"] for p in rec), "s"),
            "cpu_s": (statistics.fmean(p["cpu_s"] for p in rec), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_raw) * setup_scale, "s"),
        }
        run["setup"] = {"raw_s": setup_raw, "scale": setup_scale}
    else:
        full = Tracer(full=True)
        pairs = plan[: (len(plan) + 1) // 2]
        for calls in pairs:
            run["passes"].append(run_pass(calls, cli, counters, modules, store, traced=False))
            run["passes"].append(run_pass(calls, cli, full, modules, store, traced=True))
        plain, traced = run["passes"][0::2], run["passes"][1::2]
        overhead = sum(p["wall_s"] for p in traced) / sum(p["wall_s"] for p in plain) - 1.0
        layer = layer_metrics(full, sum(p["raw_wall_s"] for p in traced), overhead, EVAL_LABELS)
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
        run["traced_work_counts"] = full.work_counts()
        run["spans"] = full.spans

    attempted = sum(p["attempted"] for p in run["passes"])
    failed = sum(p["failed"] for p in run["passes"])
    if args.trace == 0:
        metrics["pass_rate"] = (1.0 - failed / attempted, "ratio")
    run["work_counts"] = counters.work_counts()
    run["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    store.save()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(run, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
