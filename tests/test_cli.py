import argparse
import importlib.util
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmcrit import cli, harness, stability
from swarmcrit.benchmarks import make_function
from swarmcrit.cli import build_parser, dispatch
from swarmcrit.dynamics import SwarmParams
from swarmcrit.io import read_csv, read_keyvalue_config, write_json
from swarmcrit.pso import optimize
from swarmcrit.stability import CriticalCurve, CriticalPoint


def run(argv):
    return dispatch(argv)


def exit_code(argv):
    """The exit code of a call, usage errors included."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------- validation


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["transmogrify"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["lyapunov", "--omega", "0.7", "--alpha", "1", "--output", "x.json", "--frob", "1"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_negative_alpha_exits_one_without_output(tmp_path, capsys):
    out = tmp_path / "never.json"
    with pytest.raises(SystemExit) as exc:
        run(["lyapunov", "--omega", "0.7", "--alpha", "-1", "--output", str(out)])
    assert exc.value.code == 1
    assert not out.exists()


# a sweep of two swarms a function, so a case that the parser wrongly
# accepts still ends quickly
_TINY_SWEEP = ["--dim", "2", "--omega-min", "0.4", "--omega-max", "0.4", "--alpha-min", "1",
               "--alpha-max", "1", "--iterations", "1", "--repetitions", "2"]

_INVALID = {
    "lyapunov-alpha-nan": ["lyapunov", "--omega", "0.7", "--alpha", "nan"],
    "optimize-alpha-inf": ["optimize", "--omega", "0.7", "--alpha", "inf", "--dim", "2",
                           "--iterations", "5"],
    "optimize-omega-nan": ["optimize", "--omega", "nan", "--alpha", "1.4", "--dim", "2",
                           "--iterations", "5"],
    "sweep-config-zero-step": ["sweep", "--config", "{zero_step}"],
    "sweep-config-unknown-key": ["sweep", "--config", "{unknown_key}"],
    "sweep-config-no-equals": ["sweep", "--config", "{no_equals}"],
    "lyapunov-split-unknown": ["lyapunov", "--omega", "0.7", "--alpha", "1", "--split", "foo"],
    "curve-omega-max-below-min": ["curve", "--omega-min", "0.5", "--omega-max", "0.2"],
    "region-quantile-above-one": ["region", "--sweep", "never.csv", "--quantile", "1.5"],
    "sweep-jobs-zero": ["sweep", "--jobs", "0"],
    "sweep-jobs-negative": ["sweep", "--jobs", "-4"],
    "sweep-functions-empty": ["sweep", "--functions", ","],
    # an empty list given on purpose is not the default suite
    "sweep-functions-blank": ["sweep", "--functions", "", *_TINY_SWEEP],
    "sweep-config-functions-blank": ["sweep", "--config", "{no_functions}", *_TINY_SWEEP],
    "scaling-repetitions-zero": ["scaling", "--kappa", "1", "--repetitions", "0"],
    "scaling-iterations-zero": ["scaling", "--kappa", "1", "--iterations", "0",
                                "--repetitions", "10"],
    "scaling-kappa-p-overflow": ["scaling", "--kappa", "1e200", "--p", "1e200", "--g", "0"],
    "scaling-coincident-bests": ["scaling", "--kappa", "1", "--p", "0.3", "--g", "0.3"],
    "curve-one-trial": ["curve", "--omega-min", "0.4", "--omega-max", "0.4", "--steps", "200",
                        "--trials", "1"],
    # the escape method runs no Lyapunov probe, but records its budget
    "curve-escape-bad-budget": ["curve", "--method", "escape", "--omega-min", "0.4",
                                "--omega-max", "0.4", "--tolerance", "0.05", "--steps", "0",
                                "--trials", "-3", "--seed", "3"],
    "curve-escape-one-trial": ["curve", "--method", "escape", "--omega-min", "0.4",
                               "--omega-max", "0.4", "--trials", "1"],
    "escape-max-steps-zero": ["escape", "--omega", "0.5", "--alpha", "2", "--max-steps", "0"],
    "escape-max-steps-negative": ["escape", "--omega", "0.5", "--alpha", "2",
                                  "--max-steps", "-3"],
    "escape-r-out-huge": ["escape", "--omega", "0.5", "--alpha", "2", "--r-out", "1e200"],
    "escape-r-in-tiny": ["escape", "--omega", "0.5", "--alpha", "2", "--r-in", "1e-200"],
    "stationary-burn-in-negative": ["stationary", "--omega", "0.7", "--alpha", "0.5",
                                    "--samples", "100", "--burn-in", "-5"],
    # rosenbrock is 0 everywhere at dim 1
    "optimize-rosenbrock-dim-one": ["optimize", "--function", "rosenbrock", "--dim", "1",
                                    "--omega", "0.7", "--alpha", "1.4", "--iterations", "5"],
    "sweep-dim-one": ["sweep", "--dim", "1", "--iterations", "5", "--repetitions", "1"],
}


# sweep config files, by the name _INVALID's cases give them
_CONFIGS = {
    "zero_step": "functions = sphere\ndim = 2\nomega_step = 0\n",
    "unknown_key": "functions = sphere\ndim = 2\nomega_stride = 0.1\n",
    "no_equals": "functions = sphere\ndim 2\n",
    "no_functions": "functions =\ndim = 2\n",
}


@pytest.mark.parametrize("case", list(_INVALID))
def test_non_finite_and_zero_step_exit_one_without_output(tmp_path, case):
    configs = {name: tmp_path / f"{name}.cfg" for name in _CONFIGS}
    for name, path in configs.items():
        path.write_text(_CONFIGS[name])
    out = tmp_path / "never.out"
    argv = [a.format(**configs) for a in _INVALID[case]] + ["--output", str(out)]
    assert exit_code(argv) == 1
    assert not out.exists()


def test_sweep_without_particles_exits_one_with_a_message(tmp_path, capsys):
    # the sweep's batch sizing divides by the particle count
    out = tmp_path / "never.csv"
    assert run(["sweep", "--particles", "0", "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: n_particles and dim must be >= 1\n"
    assert not out.exists()


def test_numeric_failure_exits_two_without_output(tmp_path, capsys):
    # the norm overflows at the first step: a numeric failure, not a
    # validation error
    out = tmp_path / "never.json"
    assert run(["lyapunov", "--omega", "1.5e308", "--alpha", "1", "--steps", "50",
                "--trials", "2", "--burn-in", "0", "--output", str(out)]) == 2
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


# the exit-code contract for the weight flags, each written by repr (so small
# reals come in exponent notation), at tiny budgets
_WEIGHT_COMMANDS = {
    "lyapunov": ["--steps", "20", "--trials", "2", "--burn-in", "5"],
    "escape": ["--trials", "20", "--max-steps", "20"],
    "stationary": ["--bins", "64", "--samples", "40", "--burn-in", "5", "--chains", "2"],
}
_OMEGA = st.floats(-1.1, 1.1)
_ALPHA = st.floats(0.0, 12.0, exclude_min=True)


def _weight_codes(directory, omega, alpha):
    """Exit code and output path of each command run at ``(omega, alpha)``."""
    results = []
    for sub, budget in _WEIGHT_COMMANDS.items():
        out = directory / f"{sub}.out"
        argv = [sub, "--omega", repr(omega), "--alpha", repr(alpha), *budget,
                "--output", str(out)]
        results.append((exit_code(argv), out))
    return results


@settings(deadline=None, max_examples=100)
@given(omega=_OMEGA, alpha=_ALPHA)
def test_finite_weights_exit_zero(tmp_path_factory, omega, alpha):
    for code, out in _weight_codes(tmp_path_factory.mktemp("cli"), omega, alpha):
        assert code == 0 and out.exists(), out.name


@settings(deadline=None, max_examples=60)
@given(omega=st.one_of(_OMEGA, st.sampled_from([math.nan, math.inf, -math.inf])),
       alpha=st.one_of(_ALPHA, st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf])))
def test_non_finite_or_non_positive_weights_exit_one_without_output(tmp_path_factory, omega,
                                                                    alpha):
    assume(not (math.isfinite(omega) and math.isfinite(alpha) and alpha > 0.0))
    for code, out in _weight_codes(tmp_path_factory.mktemp("cli"), omega, alpha):
        assert code == 1 and not out.exists(), out.name


def test_help_smoke(capsys):
    # every stochastic subcommand documents a seed; region is pure
    # post-processing of files
    for sub in ("lyapunov", "curve", "stationary", "escape", "optimize",
                "sweep", "region", "scaling"):
        with pytest.raises(SystemExit) as exc:
            run([sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        if sub != "region":
            assert "--seed" in text
        assert "--output" in text


def test_every_action_has_help():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    missing = [(name, action.option_strings) for name, p in sub.choices.items()
               for action in p._actions if not action.help]
    assert missing == []
    # the split flags share one help text, built from the split names
    for name, flag in [("lyapunov", "--split"), ("curve", "--ratio"), ("scaling", "--split"),
                       ("sweep", "--split")]:
        action = next(a for a in sub.choices[name]._actions if flag in a.option_strings)
        assert action.help == "equal | social-only (default equal)", name


_POINT = ["--omega", "0.5", "--alpha", "1"]
_GRID = {"step": 0.1, "tolerance": 0.02}


# each subcommand's fewest flags besides --output, and the defaults of its
# shared flag groups: a point, an omega grid and a seed
@pytest.mark.parametrize("sub, argv, defaults", [
    ("lyapunov", _POINT, {"split": "equal", "seed": 0}),
    ("stationary", _POINT, {"split": "social_only", "seed": 0}),
    ("escape", _POINT, {"split": "equal", "seed": 0}),
    ("optimize", _POINT, {"split": "equal", "seed": 0}),
    ("curve", [], {"omega_min": -1.1, "omega_max": 1.1, **_GRID, "seed": 0}),
    ("scaling", ["--kappa", "1"], {"omega_min": -1.0, "omega_max": 1.0, **_GRID, "seed": 0}),
    ("sweep", [], {"seed": 0}),
    ("region", ["--sweep", "sweep.csv"], {}),
])
def test_shared_flag_defaults(capsys, sub, argv, defaults):
    args = vars(build_parser().parse_args([sub, *argv, "--output", "out"]))
    assert {key: args[key] for key in defaults} == defaults
    assert ("seed" in args) == (sub != "region")
    if argv is _POINT:
        # a point's --omega and --alpha are required: drop each in turn
        for i in (0, 2):
            assert exit_code([sub, *argv[:i], *argv[i + 2:], "--output", "out"]) == 1
            assert "required" in capsys.readouterr().err


def test_digest_cases_read_only_files_written_before_them(tmp_path):
    # tools/cli_digests.py runs its cases in order in one directory: a file
    # a case reads must be an input the set-up writes or an earlier output
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
    spec = importlib.util.spec_from_file_location("cli_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    digests.write_inputs(tmp_path)
    written = {p.name for p in tmp_path.iterdir()}
    for argv, outputs in digests.COMMANDS:
        reads = {argv[i + 1] for i, flag in enumerate(argv)
                 if flag in ("--sweep", "--curve", "--config")}
        assert reads <= written, argv
        written.update(outputs)


# ---------------------------------------------------------------- lyapunov


def test_lyapunov_json_positive_above_critical(tmp_path):
    out = tmp_path / "lyap.json"
    code = run(["lyapunov", "--omega", "0.7", "--alpha", "4.8", "--split", "equal",
                "--steps", "30000", "--trials", "16", "--burn-in", "500",
                "--seed", "1", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["value"] > 0
    assert payload["seed"] == 1
    assert payload["alpha1"] == payload["alpha2"] == 2.4


_TINY = {
    "lyapunov": ["--omega", "0.5", "--alpha", "1.0", "--steps", "2000", "--trials", "4",
                 "--burn-in", "100"],
    "curve": ["--omega-min", "0.4", "--omega-max", "0.4", "--tolerance", "0.05",
              "--steps", "500", "--trials", "8"],
    "stationary": ["--omega", "0.7", "--alpha", "0.5", "--bins", "64", "--samples", "2000",
                   "--burn-in", "50", "--chains", "2"],
    "escape": ["--omega", "0.5", "--alpha", "2.0", "--trials", "200", "--max-steps", "500"],
    "optimize": ["--function", "rastrigin", "--dim", "2", "--omega", "0.7", "--alpha", "1.4",
                 "--iterations", "20", "--particles", "5"],
    "sweep": ["--omega-min", "0.4", "--omega-max", "0.7", "--omega-step", "0.3",
              "--alpha-min", "1.0", "--alpha-max", "2.0", "--alpha-step", "1.0",
              "--iterations", "10", "--repetitions", "2", "--functions", "sphere",
              "--dim", "2", "--particles", "4"],
    "scaling": ["--kappa", "0.5", "--iterations", "50", "--repetitions", "300",
                "--omega-min", "0.4", "--omega-max", "0.4", "--tolerance", "0.05"],
}


@pytest.mark.parametrize("sub", list(_TINY))
def test_identical_invocations_are_byte_identical(tmp_path, sub):
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    argv = [sub, *_TINY[sub], "--seed", "9"]
    assert run(argv + ["--output", str(a)]) == 0
    assert run(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dispatch_builds_its_parser_once(tmp_path, monkeypatch):
    builds = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda real=cli.build_parser: builds.append(1) or real())
    cli._parser.cache_clear()
    assert exit_code(["optimize", "--frob", "1"]) == 1
    escape = ["escape", *_TINY["escape"], "--seed", "9", "--output"]
    optimize = ["optimize", *_TINY["optimize"], "--seed", "9", "--output"]
    assert run(escape + [str(tmp_path / "a.json")]) == 0
    assert run(optimize + [str(tmp_path / "b.json")]) == 0
    assert run(escape + [str(tmp_path / "c.json")]) == 0
    assert exit_code(["curve", "--trials", "x", "--output", "never.csv"]) == 1
    assert builds == [1]
    # the shared parser gives what a fresh one gives
    for argv, name in ((escape, "a"), (optimize, "b")):
        args = build_parser().parse_args(argv + [str(tmp_path / f"{name}-fresh.json")])
        assert cli._COMMANDS[args.command](args) == 0
        assert (tmp_path / f"{name}.json").read_bytes() == \
            (tmp_path / f"{name}-fresh.json").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "c.json").read_bytes()


# ---------------------------------------------------------------- curve / scaling


def test_curve_csv_one_row_per_omega(tmp_path):
    out = tmp_path / "curve.csv"
    code = run(["curve", "--ratio", "equal", "--omega-min", "0.4", "--omega-max", "0.7",
                "--step", "0.3", "--tolerance", "0.05", "--steps", "4000",
                "--trials", "8", "--seed", "7", "--output", str(out)])
    assert code == 0
    meta, header, rows = read_csv(out)
    assert header == ["omega", "alpha_critical", "std_error", "status"]
    assert len(rows) == 2
    assert meta["seed"] == "7"
    assert [r[0] for r in rows] == ["0.40000000000000002", "0.69999999999999996"]


def test_scaling_csv(tmp_path):
    out = tmp_path / "scaling.csv"
    code = run(["scaling", "--kappa", "1.0", "--p", "0.1", "--g", "0.0",
                "--iterations", "200", "--repetitions", "2000",
                "--omega-min", "0.5", "--omega-max", "0.5", "--step", "0.1",
                "--tolerance", "0.05", "--seed", "3", "--output", str(out)])
    assert code == 0
    meta, header, rows = read_csv(out)
    assert header == ["omega", "alpha_critical", "std_error", "status"]
    assert len(rows) == 1
    assert meta["kappa"] == "1"


# ---------------------------------------------------------------- stationary / escape


def test_stationary_csv(tmp_path):
    out = tmp_path / "hist.csv"
    code = run(["stationary", "--omega", "0.7", "--alpha", "0.5",
                "--bins", "64", "--samples", "20000", "--burn-in", "200",
                "--chains", "4", "--seed", "2", "--output", str(out)])
    assert code == 0
    meta, header, rows = read_csv(out)
    assert header == ["bin_center_rad", "mass"]
    assert len(rows) == 64
    mass = np.array([float(r[1]) for r in rows])
    assert mass.sum() == pytest.approx(1.0, abs=1e-9)
    assert meta["seed"] == "2"


def test_escape_json(tmp_path):
    out = tmp_path / "escape.json"
    code = run(["escape", "--omega", "0.3", "--alpha", "0.5", "--trials", "400",
                "--max-steps", "2000", "--seed", "4", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["p_converged"] > 0.99
    assert payload["p_converged"] + payload["p_escaped"] + payload["p_undecided"] == 1.0


def test_escape_radii_default_to_the_library_radii(capsys):
    args = build_parser().parse_args(["escape", "--omega", "0.3", "--alpha", "0.5",
                                      "--output", "escape.json"])
    assert (args.r_in, args.r_out) == (stability._R_IN, stability._R_OUT)
    with pytest.raises(SystemExit):
        run(["escape", "--help"])
    assert f"(default {stability._R_IN:g})" in capsys.readouterr().out


# the flags each subcommand requires, and (subcommand, flag's dest, the
# library callable it feeds, its parameter there)
_POINT = ["--omega", "0.3", "--alpha", "0.5"]
_REQUIRED = {"lyapunov": _POINT, "curve": [], "stationary": _POINT, "escape": _POINT,
             "scaling": ["--kappa", "1"], "sweep": []}
_LIBRARY_DEFAULTS = [
    *[("lyapunov", name, stability.lyapunov_exponent, name)
      for name in ("steps", "trials", "burn_in")],
    *[("curve", name, stability.critical_curve, name)
      for name in ("steps", "trials", "tolerance", "method", "ratio")],
    ("stationary", "bins", stability.stationary_distribution, "bins"),
    ("stationary", "samples", stability.stationary_distribution, "samples"),
    ("stationary", "burn_in", stability.stationary_distribution, "burn_in"),
    ("stationary", "chains", stability.stationary_distribution, "n_chains"),
    *[("escape", name, stability.escape_probability, name)
      for name in ("r_in", "r_out", "max_steps", "trials")],
    *[("scaling", name, stability.ScalingConfig, name)
      for name in ("p", "g", "iterations", "repetitions")],
    ("scaling", "tolerance", stability.neutral_stability_curve, "tolerance"),
    *[("sweep", name, harness.SweepConfig, name)
      for name in ("iterations", "repetitions", "dim", "split")],
    ("sweep", "particles", harness.SweepConfig, "n_particles"),
    ("sweep", "seed", harness.SweepConfig, "master_seed"),
]


@pytest.mark.parametrize("command, dest, target, name", _LIBRARY_DEFAULTS,
                         ids=[f"{c}-{d}" for c, d, _, _ in _LIBRARY_DEFAULTS])
def test_cli_defaults_are_the_library_defaults(command, dest, target, name):
    args = build_parser().parse_args([command, *_REQUIRED[command], "--output", "out"])
    assert getattr(args, dest) == inspect.signature(target).parameters[name].default


# ---------------------------------------------------------------- optimize / sweep / region


def test_optimize_json_and_trace(tmp_path):
    out = tmp_path / "run.json"
    trace = tmp_path / "trace.csv"
    code = run(["optimize", "--function", "sphere", "--dim", "2",
                "--omega", "0.7", "--alpha", "1.4", "--iterations", "200",
                "--particles", "25", "--seed", "5",
                "--output", str(out), "--trace", str(trace)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"tool_version", "params", "seed", "function", "iterations",
                            "best_cost", "best_position", "diverged", "evaluations"}
    assert payload["params"] == {"omega": 0.7, "alpha1": 0.7, "alpha2": 0.7,
                                 "n_particles": 25, "dim": 2}
    assert (payload["seed"], payload["iterations"]) == (5, 200)
    # the record holds the run of a library call with the same instance,
    # weights and seed
    fn = make_function("sphere", 2, seed=5)
    result = optimize(fn, SwarmParams(0.7, 0.7, 0.7, n_particles=25, dim=2), 200,
                      bounds=fn.domain, seed=5)
    assert payload["function"] == fn.label
    assert payload["best_cost"] == result.best_cost < 1.0
    assert payload["best_position"] == result.best_position.tolist()
    assert payload["evaluations"] == result.evaluations == 25 * 201
    assert payload["diverged"] is False
    _, header, rows = read_csv(trace)
    assert header == ["iteration", "g_best_cost"]
    assert len(rows) == 200
    costs = [float(r[1]) for r in rows]
    assert all(b <= a for a, b in zip(costs, costs[1:]))


def test_sweep_with_config_file_and_jobs(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "# desk-scale sweep\n"
        "omega_min = 0.4\nomega_max = 0.7\nomega_step = 0.3\n"
        "alpha_min = 1.0\nalpha_max = 2.0\nalpha_step = 1.0\n"
        "iterations = 40\nrepetitions = 3\n"
        "functions = sphere\ndim = 2\nparticles = 8\nseed = 11\n"
    )
    assert read_keyvalue_config(config)["functions"] == "sphere"
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    heatmap = tmp_path / "heat.csv"
    code = run(["sweep", "--config", str(config), "--output", str(serial),
                "--heatmap", str(heatmap)])
    assert code == 0
    code = run(["sweep", "--config", str(config), "--jobs", "2",
                "--output", str(parallel)])
    assert code == 0
    assert serial.read_bytes() == parallel.read_bytes()
    _, header, rows = read_csv(serial)
    assert header[0] == "function" and len(rows) == 4
    _, hheader, hrows = read_csv(heatmap)
    assert hheader == ["omega", "alpha", "normalized_cost"]
    assert len(hrows) == 4


def test_sweep_config_file_beats_flags_and_flags_fill_in(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "omega_min = 0.4\nomega_max = 0.4\nalpha_min = 1.0\nalpha_max = 1.0\n"
        "iterations = 5\nrepetitions = 1\nfunctions = sphere\ndim = 2\nseed = 11\n"
    )
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--config", str(config), "--seed", "3", "--particles", "4",
                "--dim", "3", "--output", str(out)])
    assert code == 0
    meta, _, rows = read_csv(out)
    # seed and dim come from the file, particles from the flag
    assert (meta["seed"], meta["dim"], meta["particles"]) == ("11", "2", "4")
    assert len(rows) == 1


def test_region_with_curve(tmp_path):
    sweep_csv = tmp_path / "sweep.csv"
    run(["sweep", "--omega-min", "0.4", "--omega-max", "0.7", "--omega-step", "0.3",
         "--alpha-min", "1.0", "--alpha-max", "4.75", "--alpha-step", "1.25",
         "--iterations", "40", "--repetitions", "3", "--functions", "sphere",
         "--dim", "2", "--particles", "8", "--seed", "12", "--output", str(sweep_csv)])
    curve_csv = tmp_path / "curve.csv"
    run(["curve", "--omega-min", "0.4", "--omega-max", "0.7", "--step", "0.3",
         "--tolerance", "0.05", "--steps", "3000", "--trials", "8",
         "--seed", "13", "--output", str(curve_csv)])
    region_csv = tmp_path / "region.csv"
    stats_json = tmp_path / "stats.json"
    code = run(["region", "--sweep", str(sweep_csv), "--curve", str(curve_csv),
                "--quantile", "0.5", "--output", str(region_csv),
                "--stats", str(stats_json)])
    assert code == 0
    _, header, rows = read_csv(region_csv)
    assert header == ["omega", "alpha", "normalized_cost"]
    assert 1 <= len(rows) <= 8
    stats = json.loads(stats_json.read_text())
    assert stats["count"] >= 1
    assert stats["median"] >= 0.0


def test_region_stats_requires_curve(tmp_path):
    sweep_csv = tmp_path / "sweep.csv"
    run(["sweep", "--omega-min", "0.4", "--omega-max", "0.4", "--omega-step", "0.1",
         "--alpha-min", "1.0", "--alpha-max", "1.0", "--alpha-step", "0.5",
         "--iterations", "10", "--repetitions", "2", "--functions", "sphere",
         "--dim", "2", "--particles", "5", "--seed", "1", "--output", str(sweep_csv)])
    code = run(["region", "--sweep", str(sweep_csv), "--output",
                str(tmp_path / "r.csv"), "--stats", str(tmp_path / "s.json")])
    assert code == 1
    assert not (tmp_path / "r.csv").exists()


def _resize_last_row(path, fields):
    """Rewrite the CSV ``path`` with its last row cut to ``fields`` fields,
    or padded with zeros to them; returns that row's line number."""
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    lines[-1] = ",".join((cells + ["0"] * fields)[:fields])
    path.write_text("\n".join(lines) + "\n")
    return len(lines)


def _region_inputs(tmp_path):
    """A two-cell sweep CSV and a two-point curve CSV that ``region`` reads."""
    sweep_csv, curve_csv = tmp_path / "sweep.csv", tmp_path / "curve.csv"
    run(["sweep", "--omega-min", "0.4", "--omega-max", "0.7", "--omega-step", "0.3",
         "--alpha-min", "1.0", "--alpha-max", "1.0", "--alpha-step", "0.5",
         "--iterations", "5", "--repetitions", "1", "--functions", "sphere",
         "--dim", "2", "--particles", "4", "--seed", "1", "--output", str(sweep_csv)])
    CriticalCurve((CriticalPoint(0.4, 4.6, 0.01), CriticalPoint(0.7, 4.9, 0.01)),
                  ratio="equal", method="LYAPUNOV_BISECTION").to_csv(curve_csv)
    return {"sweep": (sweep_csv, harness.SweepGrid.from_csv),
            "curve": (curve_csv, CriticalCurve.from_csv)}


def _assert_region_fails_at(tmp_path, capsys, inputs, bad, line):
    capsys.readouterr()
    code = run(["region", "--sweep", str(inputs["sweep"][0]), "--curve", str(inputs["curve"][0]),
                "--output", str(tmp_path / "region.csv"), "--stats", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {bad}, line {line}: ") and "Traceback" not in err
    assert not (tmp_path / "region.csv").exists()


# a sweep row has 8 fields and a curve row 4: cut short, or one too many
@pytest.mark.parametrize("kind, fields", [("sweep", 4), ("sweep", 7), ("sweep", 9),
                                          ("curve", 2), ("curve", 3), ("curve", 5)])
def test_region_rejects_a_row_of_another_length(tmp_path, capsys, kind, fields):
    inputs = _region_inputs(tmp_path)
    bad, reader = inputs[kind]
    line = _resize_last_row(bad, fields)
    with pytest.raises(ValueError, match=f"{kind}.csv, line {line}: {fields} fields"):
        reader(bad)
    _assert_region_fails_at(tmp_path, capsys, inputs, bad, line)


def _set_last_cell(path, column, value):
    """Rewrite the CSV ``path`` with cell ``column`` of its last row set to
    ``value``; returns that row's line number."""
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[column] = value
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return len(lines)


# a non-numeric cell in each file's numeric columns, and a status outside
# the STATUS_* markers
@pytest.mark.parametrize("kind, column, value, message", [
    ("sweep", 1, "abc", "could not convert string to float: 'abc'"),
    ("sweep", 3, "1.5", "invalid literal for int() with base 10: '1.5'"),
    ("curve", 1, "abc", "could not convert string to float: 'abc'"),
    ("curve", 3, "BOGUS", "unknown status 'BOGUS'"),
])
def test_region_names_the_line_of_a_bad_cell(tmp_path, capsys, kind, column, value, message):
    inputs = _region_inputs(tmp_path)
    bad, reader = inputs[kind]
    line = _set_last_cell(bad, column, value)
    with pytest.raises(ValueError) as exc:
        reader(bad)
    assert str(exc.value) == f"{bad}, line {line}: {message}"
    _assert_region_fails_at(tmp_path, capsys, inputs, bad, line)


# a non-finite omega, or a non-finite value of an OK point, between two
# finite rows: a curve that would interpolate to NaN or inf everywhere
@pytest.mark.parametrize("row", ["nan,9.0,0.01,OK", "0.5,inf,0.01,OK"])
def test_region_rejects_a_curve_of_non_finite_values(tmp_path, capsys, row):
    inputs = _region_inputs(tmp_path)
    curve_csv = inputs["curve"][0]
    lines = curve_csv.read_text().splitlines()
    curve_csv.write_text("\n".join([*lines[:-1], row, lines[-1]]) + "\n")
    capsys.readouterr()
    code = run(["region", "--sweep", str(inputs["sweep"][0]), "--curve", str(curve_csv),
                "--output", str(tmp_path / "region.csv"), "--stats", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "finite" in err and "Traceback" not in err
    assert not (tmp_path / "region.csv").exists()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_write_json_writes_non_finite_reals_as_null(tmp_path):
    out = tmp_path / "x.json"
    write_json(out, {"a": float("nan"), "b": [1.5, float("inf"), (float("-inf"), 2)],
                     "c": {"d": np.float64("nan"), "e": 3}})
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert payload == {"a": None, "b": [1.5, None, [None, 2]], "c": {"d": None, "e": 3}}


def test_region_stats_with_every_cell_skipped_is_standard_json(tmp_path):
    sweep_csv = tmp_path / "sweep.csv"
    run(["sweep", "--omega-min", "0.4", "--omega-max", "0.7", "--omega-step", "0.3",
         "--alpha-min", "1.0", "--alpha-max", "2.0", "--alpha-step", "1.0",
         "--iterations", "10", "--repetitions", "2", "--functions", "sphere",
         "--dim", "2", "--particles", "5", "--seed", "1", "--output", str(sweep_csv)])
    # resolved only below the swept inertia range, so every cell is skipped
    curve_csv = tmp_path / "curve.csv"
    CriticalCurve((CriticalPoint(0.0, 4.6, 0.01), CriticalPoint(0.1, 4.9, 0.01)),
                  ratio="equal", method="LYAPUNOV_BISECTION").to_csv(curve_csv)
    stats_json = tmp_path / "stats.json"
    code = run(["region", "--sweep", str(sweep_csv), "--curve", str(curve_csv),
                "--quantile", "1", "--output", str(tmp_path / "region.csv"),
                "--stats", str(stats_json)])
    assert code == 0
    stats = json.loads(stats_json.read_text(), parse_constant=_reject_constant)
    assert stats["count"] == 0 and stats["skipped"] == 4
    assert stats["mean"] is None and stats["median"] is None and stats["max"] is None
