"""Tests for the activation kernels and their derivatives.

Every registered activation is checked against a central-difference
numerical derivative (property-based over random inputs), plus targeted
checks of numerical stability at extreme inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensorlib import functional as F
from repro.tensorlib.layers import Activation


@pytest.mark.parametrize("name", sorted(F.ACTIVATIONS))
def test_grad_matches_numerical(name):
    fn, grad_fn = F.ACTIVATIONS[name]
    rng = np.random.default_rng(42)
    # Avoid the relu/leaky-relu kink at exactly 0.
    x = rng.normal(scale=2.0, size=256).astype(np.float64)
    x = np.where(np.abs(x) < 1e-3, 0.5, x)
    y = fn(x)
    analytic = grad_fn(x, y)
    eps = 1e-5
    numeric = (fn(x + eps) - fn(x - eps)) / (2 * eps)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("name", sorted(F.ACTIVATIONS))
def test_preserves_shape_and_does_not_mutate(name):
    fn, _ = F.ACTIVATIONS[name]
    x = np.random.default_rng(0).normal(size=(4, 5)).astype(np.float32)
    x_copy = x.copy()
    y = fn(x)
    assert y.shape == x.shape
    assert np.array_equal(x, x_copy)


def test_sigmoid_stable_at_extremes():
    x = np.array([-1e4, -100.0, 0.0, 100.0, 1e4], dtype=np.float32)
    y = F.sigmoid(x)
    assert np.all(np.isfinite(y))
    assert y[0] == 0.0 and y[-1] == 1.0
    assert y[2] == pytest.approx(0.5)


def test_softplus_stable_and_positive():
    x = np.array([-1e4, -50.0, 0.0, 50.0, 1e4], dtype=np.float64)
    y = F.softplus(x)
    assert np.all(np.isfinite(y))
    assert np.all(y >= 0)
    assert y[-1] == pytest.approx(1e4)
    assert y[2] == pytest.approx(np.log(2.0))


def test_log_sigmoid_matches_log_of_sigmoid():
    x = np.linspace(-10, 10, 101)
    np.testing.assert_allclose(F.log_sigmoid(x), np.log(F.sigmoid(x)), atol=1e-9)


def test_log_sigmoid_no_overflow():
    assert np.isfinite(F.log_sigmoid(np.array([-1e5]))).all()


def test_relu_values():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(F.relu(x), [0.0, 0.0, 3.0])


def test_leaky_relu_slope():
    x = np.array([-10.0, 10.0])
    y = F.leaky_relu(x, alpha=0.1)
    np.testing.assert_allclose(y, [-1.0, 10.0])


def test_elu_continuity_at_zero():
    eps = 1e-6
    below = F.elu(np.array([-eps]))[0]
    above = F.elu(np.array([eps]))[0]
    assert abs(above - below) < 1e-5


def test_tanh_grad_identity():
    x = np.linspace(-3, 3, 50)
    y = F.tanh(x)
    np.testing.assert_allclose(F.tanh_grad(x, y), 1 - y**2)


@given(
    hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=1, max_dims=2, max_side=16),
        elements=st.floats(-50, 50, width=32),
    )
)
@settings(max_examples=40, deadline=None)
def test_sigmoid_range_property(x):
    y = F.sigmoid(x)
    assert np.all((y >= 0.0) & (y <= 1.0))


@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 64),
        elements=st.floats(-30, 30),
    )
)
@settings(max_examples=40, deadline=None)
def test_elu_monotone_property(x):
    xs = np.sort(x)
    ys = F.elu(xs)
    assert np.all(np.diff(ys) >= -1e-12)


def _masked_sigmoid(x):
    """The gather/scatter formulation ``F.sigmoid`` replaced: the
    reference it must stay bit-equal to."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bit_equal_to_masked_formulation(dtype):
    tiny = np.finfo(dtype).tiny
    edge = [0.0, -0.0, 88.0, -88.0, 1e4, -1e4, tiny, -tiny, tiny / 4, -tiny / 4]
    rng = np.random.default_rng(0)
    cases = [
        np.array(edge, dtype=dtype),
        (rng.normal(size=(64, 5)) * 6).astype(dtype),
        (rng.normal(size=(33, 1)) * 40).astype(dtype),
        rng.uniform(-1e-3, 1e-3, size=257).astype(dtype),
    ]
    with np.errstate(over="raise"):
        for x in cases:
            before = x.copy()
            y = F.sigmoid(x)
            assert y.dtype == dtype and y.shape == x.shape
            np.testing.assert_array_equal(y, _masked_sigmoid(x))
            np.testing.assert_array_equal(x, before)


# -- the select-free kernels equal their np.where forms, bit for bit -----------


def _sigmoid_where(x):
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _leaky_relu_where(x, alpha=0.2):
    return np.where(x > 0.0, x, alpha * x)


def _activation_shapes(rows, hidden, heads):
    """(rows, width) of every activation of one workload's surrogate:
    hidden widths run leaky_relu, heads (inverse output, decoder image
    head, discriminator logit) run sigmoid; both kernels see them all."""
    return [(r, w) for r in rows for w in (*hidden, *heads)]


#: offline_serial / offline_process (batch 64, tournament 361 and
#: validation 492 rows, small_schema(16)) and streaming_ingest (batch 32,
#: 128-row calibration set, 512-row probe reference, 8x8x2x2 images).
_WORKLOAD_SHAPES = _activation_shapes(
    (64, 361, 492), (256, 128, 96, 64, 32), (5, 3072, 1)
) + _activation_shapes((32, 128, 512), (48, 32, 24, 16, 8), (5, 256, 1))

_SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1e-40, -1e-40,
     3.4e38, -3.4e38, 88.7, -88.7, 104.0, -104.0],
    dtype=np.float32,
)


def _kernel_inputs(shape, seed, scale, extra):
    """Normal float32 values at ``scale`` with every special value (and
    ``extra`` ones) sprinkled in; returned as a column slice of a wider
    array (how the decoder's image head reaches sigmoid) and contiguous."""
    rng = np.random.default_rng(seed)
    wide = (rng.standard_normal((*shape[:-1], shape[-1] + 15)) * scale).astype(np.float32)
    specials = np.concatenate([_SPECIALS, np.asarray(extra, dtype=np.float32)])
    flat = wide.reshape(-1)
    flat[rng.integers(0, flat.size, 4 * specials.size)] = np.resize(specials, 4 * specials.size)
    view = wide[..., 15:]
    return view, np.ascontiguousarray(view)


def _with_every_workload_shape(test):
    for rows, width in _WORKLOAD_SHAPES:
        for k in (1, 4):
            test = example(rows=rows, width=width, k=k, seed=rows * width + k,
                           scale=1.0, extra=[])(test)
    return test


@_with_every_workload_shape
@given(
    rows=st.sampled_from(sorted({r for r, _ in _WORKLOAD_SHAPES})),
    width=st.sampled_from(sorted({w for _, w in _WORKLOAD_SHAPES})),
    k=st.sampled_from((1, 4)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from((1e-40, 1e-3, 1.0, 30.0, 1e4)),
    extra=st.lists(st.floats(width=32), max_size=16),
)
@settings(max_examples=30, deadline=None)
def test_select_free_kernels_bit_equal_to_where_forms(rows, width, k, seed, scale, extra):
    """sigmoid and leaky_relu equal their np.where forms bit for bit on
    float32 with +-0, +-inf, NaN and subnormals, at every activation
    shape of the three training workloads, unstacked (k = 1) and as a
    stacked population (k = 4)."""
    shape = (rows, width) if k == 1 else (k, rows, width)
    with np.errstate(all="ignore"):
        for x in _kernel_inputs(shape, seed, scale, extra):
            before = x.copy()
            for new, old in ((F.sigmoid(x), _sigmoid_where(x)),
                             (F.leaky_relu(x), _leaky_relu_where(x))):
                assert new.dtype == np.float32 and new.shape == shape
                assert np.array_equal(new.view(np.uint32), old.view(np.uint32))
            assert np.array_equal(x.view(np.uint32), before.view(np.uint32))


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
def test_leaky_relu_layer_refuses_alpha_outside_open_unit_interval(alpha):
    # max(x, alpha * x) is the select only for 0 < alpha < 1 (at alpha = 0,
    # +inf * 0 is NaN).
    with pytest.raises(ValueError, match="alpha"):
        Activation("act", "leaky_relu", alpha=alpha)
    Activation("act", "leaky_relu", alpha=0.01)
