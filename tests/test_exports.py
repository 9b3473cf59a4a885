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
