"""Tests for weight initializers: distribution, fans, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensorlib.initializers import Constant, GlorotUniform, Zeros, _fans

RNG = lambda: np.random.default_rng(0)  # noqa: E731

ALL_INITS = [Constant(0.5), Zeros(), GlorotUniform()]


@pytest.mark.parametrize("init", ALL_INITS, ids=lambda i: type(i).__name__)
def test_shape_and_dtype(init):
    out = init((64, 32), RNG())
    assert out.shape == (64, 32)
    assert out.dtype == np.float32


@pytest.mark.parametrize("init", ALL_INITS, ids=lambda i: type(i).__name__)
def test_deterministic_given_rng(init):
    a = init((16, 16), np.random.default_rng(7))
    b = init((16, 16), np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_fans():
    assert _fans((10, 20)) == (10, 20)
    assert _fans((5,)) == (5, 5)
    assert _fans(()) == (1, 1)


def test_constant_and_zeros():
    assert np.all(Constant(3.5)((4,), RNG()) == 3.5)
    assert np.all(Zeros()((4, 4), RNG()) == 0.0)


def test_glorot_uniform_bounds_and_scale():
    w = GlorotUniform()((400, 200), RNG())
    limit = np.sqrt(6.0 / 600)
    assert np.all(np.abs(w) <= limit)
    # Uniform on [-L, L] has std L/sqrt(3).
    assert w.std() == pytest.approx(limit / np.sqrt(3), rel=0.05)
