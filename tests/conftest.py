import numpy as np
import pytest

from swarmcrit import stability


@pytest.fixture
def constant_weight(monkeypatch):
    """``constant_weight(r)`` makes every stability estimator's weight draw
    return the constant ``(alpha1 + alpha2) * r`` without drawing: the
    deterministic matrix of the eigenvalue oracle."""

    def fix(r):
        monkeypatch.setattr(stability, "_draw_weights",
                            lambda rng, a1, a2, shape: np.full(shape, (a1 + a2) * r))

    return fix
