import numpy as np
import pytest

from swarmcrit.benchmarks import (
    FUNCTION_IDS,
    evaluate,
    make_function,
    suite,
    suite_manifest,
)


def test_sphere_optimum_is_zero():
    f = make_function("sphere", 4, seed=1)
    assert evaluate(f, f.optimum_position) == 0.0


def test_rastrigin_unit_offset_oracle():
    # direct-formula oracle: sum(z^2 - 10 cos(2 pi z) + 10) at z = (1, 1)
    z = np.ones(2)
    oracle = float(np.sum(z**2 - 10 * np.cos(2 * np.pi * z) + 10))
    f = make_function("rastrigin", 2, seed=2)
    assert f(f.shift + z) == pytest.approx(oracle, abs=1e-9)
    assert oracle == pytest.approx(2.0)


def test_ackley_optimum_cancellation():
    f = make_function("ackley", 10, seed=3)
    assert abs(evaluate(f, f.optimum_position)) < 1e-12


def test_every_instance_vanishes_at_optimum():
    for fid in FUNCTION_IDS:
        for rotated in (False, True):
            f = make_function(fid, 6, seed=11, rotated=rotated)
            assert abs(f(f.optimum_position)) < 1e-10, f.label


def test_nonnegative_on_domain():
    rng = np.random.default_rng(4)
    for f in suite(5, seed=5):
        pts = rng.uniform(-100.0, 100.0, size=(10_000, 5))
        assert np.all(f(pts) >= 0.0), f.label


@pytest.mark.parametrize("dim", [2, 10])
def test_stack_evaluates_each_batch_as_alone(dim):
    # the lockstep optimiser evaluates B swarms in one call on a (B, n, dim)
    # stack; a rotated instance's matrix product must still see n rows
    rng = np.random.default_rng(6)
    for f in suite(dim, seed=7):
        stack = rng.uniform(-100.0, 100.0, size=(12, 25, dim))
        out = f(stack)
        assert out.shape == (12, 25), f.label
        assert all(np.array_equal(out[b], f(stack[b])) for b in range(12)), f.label


def test_make_function_deterministic():
    a = make_function("griewank", 7, seed=6, rotated=True)
    b = make_function("griewank", 7, seed=6, rotated=True)
    assert np.array_equal(a.shift, b.shift)
    assert np.array_equal(a.rotation, b.rotation)


def test_unrotated_has_identity_rotation():
    f = make_function("ackley", 3, seed=7, rotated=False)
    assert f.rotation is None


def test_rotation_is_orthogonal():
    f = make_function("rastrigin", 8, seed=8, rotated=True)
    q = f.rotation
    assert np.allclose(q.T @ q, np.eye(8), atol=1e-10)


def test_rotated_sphere_equals_plain_sphere():
    plain = make_function("sphere", 6, seed=9)
    rotated = make_function("sphere", 6, seed=9, rotated=True)
    assert np.array_equal(plain.shift, rotated.shift)
    pts = np.random.default_rng(10).uniform(-100, 100, size=(1000, 6))
    assert np.allclose(plain(pts), rotated(pts), rtol=1e-10)


def test_noncontinuous_identity_inside_band():
    cont = make_function("rastrigin", 4, seed=12, rotated=True)
    nc = make_function("rastrigin", 4, seed=12, rotated=True, noncontinuous=True)
    rng = np.random.default_rng(13)
    y = rng.uniform(-0.5, 0.5, size=(50, 4))
    # choose x so the value after shift and rotation lands inside the band
    x = cont.shift + y @ cont.rotation
    assert np.allclose(nc(x), cont(x), rtol=1e-12)


def test_noncontinuous_rounds_outside_band():
    nc = make_function("sphere", 1, seed=14, noncontinuous=True)
    assert nc(nc.shift + np.array([2.3])) == pytest.approx(2.5**2)
    assert nc(nc.shift + np.array([0.4])) == pytest.approx(0.4**2)


def test_shift_within_080_of_domain():
    for f in suite(9, seed=15):
        assert np.all(np.abs(f.shift) <= 80.0)


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        make_function("banana", 3, seed=1)


def test_dimension_mismatch_rejected():
    f = make_function("sphere", 3, seed=16)
    with pytest.raises(ValueError):
        evaluate(f, np.zeros(4))
    with pytest.raises(ValueError):
        f(np.zeros((5, 4)))


def test_suite_structure():
    fns = suite(10, seed=17)
    assert len(fns) == 15
    labels = [f.label for f in fns]
    assert labels[:7] == list(FUNCTION_IDS)
    assert labels[7:14] == [f"{fid}-rot" for fid in FUNCTION_IDS]
    assert labels[14] == "rastrigin-rot-nc"
    assert len(suite(10, seed=99)) == len(fns)
    for f in fns:
        assert f.domain == (-100.0, 100.0)
        assert abs(f(f.optimum_position)) < 1e-10


def test_suite_manifest_fields(tmp_path):
    fns = suite(3, seed=18)
    manifest = suite_manifest(fns)
    assert len(manifest) == 15
    entry = manifest[0]
    assert set(entry) >= {"id", "label", "dim", "seed", "rotated", "noncontinuous", "shift"}
    assert entry["dim"] == 3
    import json

    from swarmcrit.benchmarks import save_manifest

    path = tmp_path / "suite.json"
    save_manifest(fns, path)
    payload = json.loads(path.read_text())
    assert len(payload["functions"]) == 15
    assert payload["functions"][14]["noncontinuous"] is True
