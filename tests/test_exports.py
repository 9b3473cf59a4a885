import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swarmcrit
from swarmcrit import benchmarks, dynamics, harness, pso, stability


@pytest.mark.parametrize("layer", [dynamics, stability, pso, benchmarks, harness],
                         ids=lambda m: m.__name__)
def test_package_exports_every_layer_name(layer):
    for name in layer.__all__:
        assert getattr(swarmcrit, name) is getattr(layer, name)
        assert name in swarmcrit.__all__


def test_package_exports_are_unique_and_resolve():
    assert len(set(swarmcrit.__all__)) == len(swarmcrit.__all__)
    for name in swarmcrit.__all__:
        assert hasattr(swarmcrit, name)


def test_cli_import_loads_no_process_pool():
    # a fresh interpreter, since this one may have loaded the pool already;
    # only ``run_sweep`` with ``jobs > 1`` needs it
    src = Path(swarmcrit.__file__).parents[1]
    code = ("import sys, swarmcrit, swarmcrit.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_sweep_and_region_load_no_numpy_ma(tmp_path):
    # ``np.median`` and ``np.quantile`` import numpy.ma for their NaN check;
    # the region command's statistics take their own steps
    from swarmcrit.stability import CriticalCurve, CriticalPoint

    CriticalCurve((CriticalPoint(0.2, 3.0, 0.01), CriticalPoint(0.6, 2.0, 0.01)),
                  "equal", "LYAPUNOV_BISECTION").to_csv(tmp_path / "curve.csv")
    src = Path(swarmcrit.__file__).parents[1]
    code = ("import sys\n"
            "from swarmcrit.cli import dispatch\n"
            "assert dispatch(['sweep', '--functions', 'rastrigin', '--dim', '2', "
            "'--particles', '4', '--iterations', '5', '--omega-min', '0.2', '--omega-max', "
            "'0.6', '--omega-step', '0.2', '--alpha-min', '1', '--alpha-max', '3', "
            "'--alpha-step', '1', '--repetitions', '2', '--output', 'sweep.csv']) == 0\n"
            "assert dispatch(['region', '--sweep', 'sweep.csv', '--curve', 'curve.csv', "
            "'--quantile', '0.5', '--output', 'region.csv', '--stats', 'stats.json']) == 0\n"
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_traced_benchmark_wraps_only_names_that_exist(monkeypatch):
    # ``bench/run.py --trace 1`` wraps every (module, name) of ``FULL``; a
    # name that is gone fails the traced run.  The file is read, not cached.
    path = Path(swarmcrit.__file__).parents[2] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it runs
    monkeypatch.setitem(sys.modules, spec.name, spans)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(spans)
    for module, name, *_ in spans.FULL:
        assert hasattr(getattr(swarmcrit, module), name), f"{module}.{name}"
