"""Tests for optimizers and weights."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensorlib.optimizers import SGD, Adam, Momentum
from repro.tensorlib.weights import Weight


def quad_weight(value=5.0):
    """Scalar weight with loss 0.5*w^2 (gradient = w)."""
    return Weight("w", np.array([value], dtype=np.float32))


def converges(opt, steps=400, start=5.0, tol=1e-2):
    w = quad_weight(start)
    for _ in range(steps):
        w.zero_grad()
        w.accumulate_grad(w.value.copy())
        opt.step([w])
    return abs(float(w.value[0])) < tol


class TestSGD:
    def test_single_step_math(self):
        w = quad_weight(2.0)
        w.accumulate_grad(np.array([1.0], dtype=np.float32))
        SGD(0.5).step([w])
        assert float(w.value[0]) == pytest.approx(1.5)

    def test_converges_on_quadratic(self):
        assert converges(SGD(0.1))


class TestMomentum:
    def test_converges(self):
        assert converges(Momentum(0.05, momentum=0.9))

    def test_nesterov_converges(self):
        assert converges(Momentum(0.05, momentum=0.9, nesterov=True))

    def test_velocity_accumulates(self):
        opt = Momentum(1.0, momentum=0.5)
        w = quad_weight(0.0)
        for expected in (-1.0, -2.5):  # v: -1, then -1.5
            w.zero_grad()
            w.accumulate_grad(np.array([1.0], dtype=np.float32))
            opt.step([w])
            assert float(w.value[0]) == pytest.approx(expected)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            Momentum(0.1, momentum=1.0)


class TestAdam:
    def test_converges(self):
        assert converges(Adam(0.3))

    def test_first_step_magnitude_is_lr(self):
        # With bias correction, |first update| ~= lr regardless of grad size.
        for scale in (1e-3, 1.0, 1e3):
            w = quad_weight(0.0)
            w.accumulate_grad(np.array([scale], dtype=np.float32))
            Adam(0.01).step([w])
            assert float(w.value[0]) == pytest.approx(-0.01, rel=1e-3)

    def test_state_roundtrip(self):
        opt = Adam(0.1)
        w = quad_weight(3.0)
        for _ in range(5):
            w.zero_grad()
            w.accumulate_grad(w.value.copy())
            opt.step([w])
        snapshot = opt.get_state()
        v_after_5 = float(w.value[0])
        w.zero_grad()
        w.accumulate_grad(w.value.copy())
        opt.step([w])
        v_after_6 = float(w.value[0])

        # Restore and replay step 6 — must match exactly.
        opt2 = Adam(0.1)
        opt2.set_state(snapshot)
        w2 = quad_weight(v_after_5)
        w2.accumulate_grad(w2.value.copy())
        opt2.step([w2])
        assert float(w2.value[0]) == pytest.approx(v_after_6, rel=1e-6)

    def test_reset_clears_slots(self):
        opt = Adam(0.1)
        w = quad_weight(1.0)
        w.accumulate_grad(np.ones(1, dtype=np.float32))
        opt.step([w])
        assert opt.step_count == 1
        opt.reset()
        assert opt.step_count == 0
        assert opt.get_state()["slots"] == {}

    def test_distinct_weights_distinct_slots(self):
        opt = Adam(0.1)
        a = Weight("m1/w", np.ones(2))
        b = Weight("m2/w", np.ones(3))
        a.accumulate_grad(np.ones(2))
        b.accumulate_grad(np.ones(3))
        opt.step([a, b])  # would broadcast-error if slots collided
        assert set(opt.get_state()["slots"]) == {"m1/w", "m2/w"}

    def test_learning_rate_is_a_positive_float(self):
        assert Adam(0.05).learning_rate == 0.05
        for lr in (0.0, -1e-3):
            with pytest.raises(ValueError, match="learning rate"):
                Adam(lr)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Adam(0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Adam(0.1, epsilon=0.0)


class TestWeight:
    def test_grad_shape_check(self):
        w = Weight("w", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            w.accumulate_grad(np.zeros(3))

    def test_assign_shape_check(self):
        w = Weight("w", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            w.assign(np.zeros((3, 3)))

    def test_assign_in_place(self):
        w = Weight("w", np.zeros(3))
        buf = w.value
        w.assign(np.ones(3))
        assert buf is w.value
        np.testing.assert_array_equal(w.value, 1.0)

    def test_value_is_float32_copy(self):
        src = np.ones(3, dtype=np.float64)
        w = Weight("w", src)
        src[:] = 7.0
        assert w.value.dtype == np.float32
        np.testing.assert_array_equal(w.value, 1.0)
