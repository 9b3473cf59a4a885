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
