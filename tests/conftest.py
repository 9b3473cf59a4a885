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


@pytest.fixture
def search_constants(monkeypatch):
    """``search_constants(burn_in=50, ...)`` sets the critical search's
    private constants for one test, so that it runs at a small budget: each
    keyword names ``stability._<KEYWORD>`` (``bracket``, ``max_level``,
    ``burn_in``, ``escape_trials``, ``escape_max_steps``)."""

    def fix(**values):
        for name, value in values.items():
            monkeypatch.setattr(stability, "_" + name.upper(), value)

    return fix
