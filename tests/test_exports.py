import ast
import importlib.util
import inspect
import os
import re
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


def test_layer_probes_name_only_attributes_that_exist(monkeypatch):
    # ``tools/bench_layers.py`` runs each ``*_PROBE`` text in a fresh process
    # of both trees; a name that is gone fails that measurement run
    tools = Path(swarmcrit.__file__).parents[2] / "tools"
    monkeypatch.syspath_prepend(str(tools))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_layers", tools / "bench_layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    probes = {name: text for name, text in vars(layers).items() if name.endswith("_PROBE")}
    assert "COUNT_PROBE" in probes and "SWEEP_PROBE" in probes
    for probe, text in probes.items():
        tree, modules = ast.parse(text), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "swarmcrit":
                        importlib.import_module(alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "swarmcrit":
                source = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(source, alias.name), f"{probe}: {node.module}.{alias.name}"
                    if inspect.ismodule(getattr(source, alias.name)):
                        modules[alias.asname or alias.name] = getattr(source, alias.name)
        # the attributes read or assigned on a swarmcrit module the probe binds
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                assert hasattr(modules[node.value.id], node.attr), \
                    f"{probe}: {node.value.id}.{node.attr}"


def test_readme_library_tour_runs(tmp_path, monkeypatch):
    # the README's one python block is the code users copy first: it runs
    # as written, here in a temporary directory that takes its curve.csv
    readme = (Path(swarmcrit.__file__).parents[2] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert (tmp_path / "curve.csv").is_file()
