"""Property tests: the determinant identity of the step matrix and the
exact CSV round trip of reals."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcrit.dynamics import build_step_matrix
from swarmcrit.io import read_csv, write_csv


@settings(deadline=None, max_examples=300)
@given(omega=st.floats(-1.2, 1.2), alpha=st.floats(0.01, 6.0), r=st.floats(0.0, 1.0))
def test_determinant_equals_omega(omega, alpha, r):
    # the ranges of acceptance criterion 01
    assert abs(build_step_matrix(omega, alpha, r).det - omega) < 1e-12


def _same_real(a, b):
    """Equal as reals, the sign of zero included, with NaN equal to NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(deadline=None, max_examples=100)
@given(rows=st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=5))
def test_csv_round_trips_every_real(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "reals.csv"
    write_csv(path, ["a", "b"], rows, {"seed": 1})
    meta, header, back = read_csv(path)
    assert header == ["a", "b"] and meta["seed"] == "1"
    assert len(back) == len(rows)
    for row, cells in zip(rows, back):
        assert all(_same_real(value, float(cell)) for value, cell in zip(row, cells))
