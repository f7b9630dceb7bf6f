import math

import numpy as np
import pytest

from zrxner.errors import UsageError
from zrxner.numeric import (
    Rng,
    clipped_sgd_step,
    gaussian_init,
    global_grad_norm,
    log_sum_exp,
    sigmoid,
    svd_square,
)


def test_log_sum_exp_uniform_pair():
    assert log_sum_exp(np.zeros(2), 0) == pytest.approx(math.log(2), abs=1e-12)


def test_log_sum_exp_singleton():
    assert log_sum_exp(np.array([5.0]), 0) == pytest.approx(5.0, abs=1e-12)


def test_log_sum_exp_no_overflow():
    # Exact value via shift: lse([1000,1000]) = 1000 + lse([0,0]).
    got = log_sum_exp(np.array([1000.0, 1000.0]), 0)
    assert math.isfinite(got)
    assert got == pytest.approx(1000.0 + math.log(2), abs=1e-9)


def test_log_sum_exp_shift_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 12))
        c = float(rng.normal() * 10)
        assert log_sum_exp(v + c, 0) == pytest.approx(
            log_sum_exp(v, 0) + c, abs=1e-10)


def test_log_sum_exp_rows_matches_scalar():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 5))
    rows = log_sum_exp(m, 1)
    assert rows.shape == (6,)
    for i in range(6):
        want = math.log(sum(math.exp(x) for x in m[i]))
        assert rows[i] == pytest.approx(want, abs=1e-12)


def test_svd_identity():
    u, s, v = svd_square(np.eye(3))
    np.testing.assert_allclose(s, [1.0, 1.0, 1.0], atol=1e-12)


def test_svd_diag():
    u, s, v = svd_square(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(s, [3.0, 2.0, 1.0], atol=1e-12)


def test_svd_reconstruction_random_8x8():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(8, 8))
    u, s, v = svd_square(m)
    np.testing.assert_allclose(u @ np.diag(s) @ v.T, m, atol=1e-9)


def test_svd_orthogonality_sweep():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = int(rng.integers(2, 17))
        m = rng.normal(size=(d, d))
        u, s, v = svd_square(m)
        eye = np.eye(d)
        assert np.abs(u.T @ u - eye).max() < 1e-9
        assert np.abs(v.T @ v - eye).max() < 1e-9
        assert (np.diff(s) <= 1e-12).all()
        assert (s >= 0).all()


def test_svd_rejects_nonsquare():
    with pytest.raises(UsageError):
        svd_square(np.zeros((2, 3)))


def test_clip_scales_when_over():
    p = {"a": np.array([[1.0]])}
    g = {"a": np.array([[10.0]])}  # global norm 10, clip 5 -> halved
    clipped_sgd_step(p, g, lr=1.0, clip=5.0)
    assert p["a"][0, 0] == pytest.approx(1.0 - 5.0, abs=1e-12)


def test_clip_noop_when_under():
    p = {"a": np.array([2.0, 0.0])}
    g = {"a": np.array([1.0, 0.0])}
    clipped_sgd_step(p, g, lr=0.5, clip=5.0)
    np.testing.assert_allclose(p["a"], [1.5, 0.0], atol=1e-12)


def test_clip_scalar_arithmetic():
    p = {"w": np.array([1.0])}
    clipped_sgd_step(p, {"w": np.array([2.0])}, lr=0.1, clip=5.0)
    assert p["w"][0] == pytest.approx(0.8, abs=1e-12)


def test_clip_applied_update_bounded():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = {k: rng.normal(size=(3, 2)) * 10 for k in "ab"}
        p = {k: np.zeros((3, 2)) for k in "ab"}
        lr, clip = 0.3, 2.0
        clipped_sgd_step(p, {k: v.copy() for k, v in g.items()}, lr, clip)
        applied = global_grad_norm(p)
        assert applied <= lr * clip + 1e-9


def test_clip_step_bits_match_the_formula_and_leave_grads_alone():
    # the step forms each product in one scratch buffer; the bits must be
    # those of p -= (lr * scale) * g with the norm summed tensor by tensor
    rng = np.random.default_rng(17)
    stacked = rng.normal(size=(2, 4, 3))
    params = {"big": rng.normal(size=(5, 7)), "f": stacked[0], "b": stacked[1],
              "vec": rng.normal(size=3)}
    grads = {k: rng.normal(size=v.shape) * 3 for k, v in params.items()}
    kept = {k: v.copy() for k, v in grads.items()}
    lr, clip = 0.3, 2.0
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in kept.values())))
    assert norm > clip
    want = {k: v - (lr * (clip / norm)) * kept[k] for k, v in params.items()}
    clipped_sgd_step(params, grads, lr, clip)
    assert global_grad_norm(grads) == norm
    for k in params:
        assert params[k].tobytes() == want[k].tobytes(), k
        assert grads[k].tobytes() == kept[k].tobytes(), k
    assert params["f"].base is stacked  # views stay views


def test_sigmoid_in_place_matches_the_new_array():
    z = np.random.default_rng(3).normal(size=(4, 6)) * 5
    want = 0.5 * (1.0 + np.tanh(0.5 * z))
    assert sigmoid(z).tobytes() == want.tobytes()
    view = z[:, 1:4]
    got = sigmoid(view, out=view)
    assert got is view
    assert got.tobytes() == want[:, 1:4].tobytes()


def test_clip_shape_mismatch():
    with pytest.raises(UsageError):
        clipped_sgd_step({"a": np.zeros(2)}, {"a": np.zeros(3)}, 0.1, 1.0)


def test_clip_preserves_aliasing():
    shared = np.ones(4)
    p = {"x": shared, "y": shared}
    clipped_sgd_step(p, {"x": np.ones(4)}, lr=0.1, clip=10.0)
    assert p["x"] is p["y"]
    np.testing.assert_allclose(p["y"], 0.9)


def test_uniform_int_degenerate():
    assert Rng(0).uniform_int(7, 7) == 7


def test_uniform_int_frequencies():
    rng = Rng(42)
    counts = np.zeros(6, dtype=int)
    for _ in range(60000):
        counts[rng.uniform_int(1, 6) - 1] += 1
    assert counts.sum() == 60000
    assert (np.abs(counts - 10000) <= 500).all()


def test_uniform_int_deterministic():
    a = [Rng(123).uniform_int(0, 100) for _ in range(1)]
    seq1 = Rng(9)
    seq2 = Rng(9)
    assert [seq1.uniform_int(0, 50) for _ in range(200)] == [
        seq2.uniform_int(0, 50) for _ in range(200)
    ]
    assert a  # draws happened


def test_uniform_int_rejects_bad_range():
    with pytest.raises(UsageError):
        Rng(0).uniform_int(3, 2)


def test_gaussian_init_moments():
    m = gaussian_init(Rng(5), 1000, 1000, 0.1)
    assert abs(m.mean()) < 0.001
    assert abs(m.std() - 0.1) < 0.005


def test_gaussian_init_tiny_scale():
    m = gaussian_init(Rng(1), 4, 4, 1e-12)
    assert np.abs(m).max() < 1e-10


def test_gaussian_init_rejects_zero_scale():
    with pytest.raises(UsageError):
        gaussian_init(Rng(0), 2, 2, 0.0)


def test_gaussian_init_bitwise_reproducible():
    a = gaussian_init(Rng(77), 8, 8, 0.5)
    b = gaussian_init(Rng(77), 8, 8, 0.5)
    assert (a == b).all()
