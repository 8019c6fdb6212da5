"""Tests for loss functions (values + gradients) and streaming metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensorlib import losses
from repro.tensorlib.metrics import PSNR, MeanSquaredError, R2Score

RNG = lambda s=0: np.random.default_rng(s)  # noqa: E731


def numeric_grad(fn, pred, eps=1e-4):
    grad = np.zeros_like(pred, dtype=np.float64)
    it = np.nditer(pred, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = float(pred[i])
        pred[i] = orig + eps
        plus = fn(pred)[0]
        pred[i] = orig - eps
        minus = fn(pred)[0]
        pred[i] = orig
        grad[i] = (plus - minus) / (2 * eps)
    return grad


class TestMSE:
    def test_value(self):
        v, _ = losses.mean_squared_error(
            np.array([[1.0, 2.0]], dtype=np.float32),
            np.array([[0.0, 0.0]], dtype=np.float32),
        )
        assert v == pytest.approx(2.5)

    def test_gradient_numeric(self):
        pred = RNG(0).normal(size=(3, 4)).astype(np.float64)
        target = RNG(1).normal(size=(3, 4)).astype(np.float32)
        _, g = losses.mean_squared_error(pred.astype(np.float32), target)
        num = numeric_grad(
            lambda p: losses.mean_squared_error(p.astype(np.float32), target), pred
        )
        np.testing.assert_allclose(g, num, rtol=1e-2, atol=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            losses.mean_squared_error(np.zeros((2, 2)), np.zeros((2, 3)))


class TestMAE:
    def test_value_and_grad_signs(self):
        pred = np.array([[2.0, -1.0]], dtype=np.float32)
        target = np.array([[0.0, 0.0]], dtype=np.float32)
        v, g = losses.mean_absolute_error(pred, target)
        assert v == pytest.approx(1.5)
        np.testing.assert_array_equal(np.sign(g), [[1.0, -1.0]])

    def test_gradient_magnitude(self):
        pred = RNG(2).normal(size=(4, 5)).astype(np.float32)
        target = np.zeros_like(pred)
        _, g = losses.mean_absolute_error(pred, target)
        np.testing.assert_allclose(np.abs(g[pred != 0]), 1.0 / pred.size)

    def test_zero_at_target(self):
        x = RNG(0).normal(size=(3, 3)).astype(np.float32)
        v, _ = losses.mean_absolute_error(x, x)
        assert v == 0.0


class TestBCEWithLogits:
    def test_matches_reference(self):
        z = np.array([[0.0], [2.0], [-2.0]], dtype=np.float32)
        t = np.array([[1.0], [1.0], [0.0]], dtype=np.float32)
        v, _ = losses.bce_with_logits(z, t)
        p = 1 / (1 + np.exp(-z))
        ref = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert v == pytest.approx(float(ref), rel=1e-5)

    def test_gradient_numeric(self):
        z = RNG(3).normal(size=(6, 1)).astype(np.float64)
        t = (RNG(4).random((6, 1)) > 0.5).astype(np.float32)
        _, g = losses.bce_with_logits(z.astype(np.float32), t)
        num = numeric_grad(
            lambda p: losses.bce_with_logits(p.astype(np.float32), t), z
        )
        np.testing.assert_allclose(g, num, rtol=1e-2, atol=1e-4)

    def test_stable_at_extreme_logits(self):
        z = np.array([[1e4], [-1e4]], dtype=np.float32)
        t = np.array([[1.0], [0.0]], dtype=np.float32)
        v, g = losses.bce_with_logits(z, t)
        assert math.isfinite(v) and v == pytest.approx(0.0, abs=1e-6)
        assert np.all(np.isfinite(g))

    def test_soft_labels_allowed_hard_bounds_enforced(self):
        z = np.zeros((2, 1), dtype=np.float32)
        losses.bce_with_logits(z, np.full((2, 1), 0.9, dtype=np.float32))
        with pytest.raises(ValueError):
            losses.bce_with_logits(z, np.full((2, 1), 1.5, dtype=np.float32))


class TestMetrics:
    def test_mse_streaming_equals_batch(self):
        pred = RNG(2).normal(size=(8, 4))
        target = RNG(3).normal(size=(8, 4))
        m = MeanSquaredError()
        m.update(pred[:5], target[:5])
        m.update(pred[5:], target[5:])
        assert m.result() == pytest.approx(float(((pred - target) ** 2).mean()))

    def test_r2_perfect_and_mean_predictor(self):
        t = RNG(4).normal(size=200)
        perfect = R2Score()
        perfect.update(t, t)
        assert perfect.result() == pytest.approx(1.0)
        mean_pred = R2Score()
        mean_pred.update(np.full_like(t, t.mean()), t)
        assert mean_pred.result() == pytest.approx(0.0, abs=1e-6)

    def test_r2_streaming_equals_batch(self):
        pred = RNG(5).normal(size=300)
        target = pred + 0.3 * RNG(6).normal(size=300)
        whole = R2Score()
        whole.update(pred, target)
        stream = R2Score()
        for chunk in np.split(np.arange(300), 3):
            stream.update(pred[chunk], target[chunk])
        assert stream.result() == pytest.approx(whole.result(), rel=1e-9)

    def test_r2_constant_target_nan(self):
        m = R2Score()
        m.update(np.zeros(5), np.ones(5))
        assert math.isnan(m.result())

    def test_psnr_known_value(self):
        m = PSNR(data_range=1.0)
        pred = np.zeros((4, 4))
        target = np.full((4, 4), 0.1)
        m.update(pred, target)
        assert m.result() == pytest.approx(20.0, rel=1e-6)  # -10 log10(0.01)

    def test_psnr_identical_is_inf(self):
        m = PSNR()
        x = RNG(7).random((3, 3))
        m.update(x, x)
        assert m.result() == math.inf

    def test_metric_shape_mismatch(self):
        with pytest.raises(ValueError):
            MeanSquaredError().update(np.zeros(3), np.zeros(4))


@given(st.integers(1, 40), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_mae_grad_descends(n, d):
    """Property: stepping predictions along -grad reduces the MAE."""
    rng = np.random.default_rng(n * 7 + d)
    pred = rng.normal(size=(n, d)).astype(np.float32)
    target = rng.normal(size=(n, d)).astype(np.float32)
    v0, g = losses.mean_absolute_error(pred, target)
    if v0 == 0:
        return
    v1, _ = losses.mean_absolute_error(pred - 1e-3 * np.sign(g), target)
    assert v1 <= v0 + 1e-7


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        z = np.zeros((4, 5), dtype=np.float32)
        y = np.array([0, 1, 2, 3])
        v, _ = losses.softmax_cross_entropy(z, y)
        assert v == pytest.approx(math.log(5.0), rel=1e-5)

    def test_gradient_numeric(self):
        z = RNG(8).normal(size=(6, 4)).astype(np.float64)
        y = RNG(9).integers(0, 4, size=6)
        _, g = losses.softmax_cross_entropy(z.astype(np.float32), y)
        num = numeric_grad(
            lambda p: losses.softmax_cross_entropy(p.astype(np.float32), y), z
        )
        np.testing.assert_allclose(g, num, rtol=1e-2, atol=1e-4)

    def test_stable_at_extreme_logits(self):
        z = np.array([[1e4, -1e4, 0.0]], dtype=np.float32)
        v, g = losses.softmax_cross_entropy(z, np.array([0]))
        assert math.isfinite(v) and v == pytest.approx(0.0, abs=1e-6)
        assert np.all(np.isfinite(g))

    def test_gradient_rows_sum_to_zero(self):
        z = RNG(10).normal(size=(8, 3)).astype(np.float32)
        y = RNG(11).integers(0, 3, size=8)
        _, g = losses.softmax_cross_entropy(z, y)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            losses.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 5]))
        with pytest.raises(ValueError):
            losses.softmax_cross_entropy(np.zeros(3), np.array([0]))
        with pytest.raises(ValueError):
            losses.softmax_cross_entropy(np.zeros((2, 3)), np.array([0]))


class TestAccuracy:
    def test_basic(self):
        from repro.tensorlib.metrics import Accuracy

        m = Accuracy()
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
        m.update(logits, np.array([0, 1, 1]))
        assert m.result() == pytest.approx(2 / 3)
        m.reset()
        assert math.isnan(m.result())

    def test_streaming(self):
        from repro.tensorlib.metrics import Accuracy

        m = Accuracy()
        m.update(np.array([[1.0, 0.0]]), np.array([0]))
        m.update(np.array([[1.0, 0.0]]), np.array([1]))
        assert m.result() == pytest.approx(0.5)

    def test_shape_validation(self):
        from repro.tensorlib.metrics import Accuracy

        with pytest.raises(ValueError):
            Accuracy().update(np.zeros(3), np.zeros(3, dtype=int))
