"""Paired benchmark runs of two source trees, written as one JSON record.

Usage::

    python tools/bench_pairs.py PARENT CHANGE OUT.json --seeds 1401-1410 \\
        [--workloads curve-lyapunov,boundary-escape] [--seconds 20]

For every workload and seed it runs
``python3 <tree>/bench/run.py --workload W --seed S --seconds 20 --trace 0``
once in each tree, alternating which tree runs first from one seed to the
next, and reads the JSON line each run prints last.  Each tree should be a
checkout of its own (say ``git archive`` of the parent commit and an export
of the working tree): the benchmark writes under ``bench/out`` of the tree
it runs in, and this script writes nothing else there.  The script
refuses to start while either tree holds a ``__pycache__`` under ``src/``
and names it: the benchmark's set-up probe starts fresh interpreters, and
a bytecode cache in one tree spares only that tree's compile.

OUT.json has, per workload, the seeds and, per end-to-end metric of
``BENCHMARK.json``, each side's median, inclusive quartiles and runs, plus
``change_lower_in_pairs``: the number of seeds where the change's value is
below the parent's (null for a metric where higher is better).  Runs whose
results fail the benchmark's oracles are listed under ``failed_runs``.

Under ``raw`` it has the same per-side summaries of what each run's record
in ``<tree>/bench/out/records`` holds behind those metrics: ``raw_wall_s``
and ``raw_cpu_s``, the mean raw seconds of a pass; ``scale``, the reference
seconds of the passes per raw second; ``raw_setup_s``, the median raw
set-up time; and ``setup_scale``.  A move in ``scale`` that ``wall_s``
shows and ``raw_wall_s`` does not is the speed probe's, not the code's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RAW = ("raw_wall_s", "raw_cpu_s", "scale", "raw_setup_s", "setup_scale")


def seed_list(text: str) -> list[int]:
    """``1401-1410`` or ``1,5,9`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line the run prints last, with its record's raw figures
    under ``raw``."""
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    records = tree / "bench" / "out" / "records"
    before = set(records.glob("*.json"))
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    new = set(records.glob(f"{workload}-seed{seed}-trace0-*.json")) - before
    if len(new) != 1:
        raise RuntimeError(f"{' '.join(argv)} left {len(new)} new run records in {records}")
    run = json.loads(new.pop().read_text())
    passes = run["passes"]
    result["raw"] = {
        "raw_wall_s": statistics.fmean(p["raw_wall_s"] for p in passes),
        "raw_cpu_s": statistics.fmean(p["raw_cpu_s"] for p in passes),
        "scale": sum(p["wall_s"] for p in passes) / sum(p["raw_wall_s"] for p in passes),
        "raw_setup_s": statistics.median(run["setup"]["raw_s"]),
        "setup_scale": run["setup"]["scale"],
    }
    return result


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("output", type=Path)
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="workload seeds, e.g. 1401-1410 (at least 2)")
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least 2 seeds")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        for cache in sorted((tree / "src").rglob("__pycache__")):
            parser.error(f"{cache} holds a bytecode cache; remove it before the runs")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    record = {
        "command": f"python3 bench/run.py --workload <name> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": "each seed runs once in each tree; the tree that runs first alternates "
                  "from seed to seed; q1/q3 are the inclusive quartiles of the runs",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    for workload in workloads:
        values = {side: {name: [] for name in lower} for side in SIDES}
        raw = {side: {name: [] for name in RAW} for side in SIDES}
        failed = []
        for k, seed in enumerate(args.seeds):
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                result = run_once(trees[side], workload, seed, args.seconds)
                if not result["correct"]:
                    failed.append({"side": side, "seed": seed, "failed": result["failed"]})
                for name in lower:
                    values[side][name].append(result["metrics"][name]["value"])
                for name in RAW:
                    raw[side][name].append(result["raw"][name])
                print(f"{workload} seed {seed} {side}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.3f}, raw_wall_s "
                      f"{result['raw']['raw_wall_s']:.3f}", file=sys.stderr)
        entry = {"seeds": args.seeds}
        for name, lower_better in lower.items():
            pairs = zip(values["change"][name], values["parent"][name])
            entry[name] = {side: summary(values[side][name]) for side in SIDES}
            entry[name]["change_lower_in_pairs"] = (sum(c < p for c, p in pairs)
                                                    if lower_better else None)
        entry["raw"] = {name: {side: summary(raw[side][name]) for side in SIDES} for name in RAW}
        entry["failed_runs"] = failed
        record["workloads"][workload] = entry
        args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
