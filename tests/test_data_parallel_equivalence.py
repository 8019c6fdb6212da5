"""Data-parallel equivalence: the mathematical identity the trainer's
single-process execution relies on.

The functional trainer computes one step on the global mini-batch; the
performance model prices a 16-GPU data-parallel version.  These agree
because sum-reduced losses make the global gradient equal the average of
per-shard gradients — verified here for the actual models, including a
full SGD step taken from the mean of the shard gradients (what an
allreduce followed by a division by the rank count delivers to every
rank; :mod:`repro.comm.costmodel` prices that allreduce).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensorlib import losses
from repro.tensorlib.model import mlp
from repro.utils.rng import RngFactory


def build_model(seed=0):
    return mlp("net", RngFactory(seed), input_dim=6, hidden=[16, 16], output_dim=3)


def grads_of(model, x, t):
    model.zero_grad()
    out, tape = model.forward({"in": x}, outputs=["out"])
    _, g = losses.mean_squared_error(out["out"], t)
    model.backward({"out": g}, tape)
    return {w.name: w.grad.copy() for w in model.weights}


@pytest.mark.parametrize("shards", [2, 4, 8])
def test_shard_average_equals_global_gradient(shards):
    """MSE is a mean over elements, so grad(global batch) equals the
    average of grads over equal shards."""
    rng = np.random.default_rng(1)
    n = 32
    x = rng.normal(size=(n, 6)).astype(np.float32)
    t = rng.normal(size=(n, 3)).astype(np.float32)
    model = build_model()
    global_grads = grads_of(model, x, t)

    accum = {k: np.zeros_like(v) for k, v in global_grads.items()}
    for shard_x, shard_t in zip(np.split(x, shards), np.split(t, shards)):
        shard_grads = grads_of(model, shard_x, shard_t)
        for k in accum:
            accum[k] += shard_grads[k] / shards
    for k in global_grads:
        np.testing.assert_allclose(accum[k], global_grads[k], rtol=1e-4, atol=1e-6)


def test_data_parallel_sgd_step_via_shard_mean():
    """One SGD update from the mean of the shard gradients, applied to
    every replica, equals the single-process step on the global batch."""
    rng = np.random.default_rng(2)
    p, n = 4, 16
    x = rng.normal(size=(n, 6)).astype(np.float32)
    t = rng.normal(size=(n, 3)).astype(np.float32)
    lr = 0.1

    # Reference: single-process step.
    ref = build_model(seed=7)
    ref_grads = grads_of(ref, x, t)
    expected = {w.name: w.value - lr * ref_grads[w.name] for w in ref.weights}

    # Data-parallel: each rank grads its shard on its own replica.
    replicas = [build_model(seed=7) for _ in range(p)]
    shard_grads = [
        grads_of(model, xs, ts)
        for model, xs, ts in zip(replicas, np.split(x, p), np.split(t, p))
    ]
    mean_grads = {k: sum(g[k] for g in shard_grads) / p for k in expected}
    for model in replicas:
        for k, v in expected.items():
            stepped = model.weight(k).value - lr * mean_grads[k]
            np.testing.assert_allclose(stepped, v, rtol=1e-4, atol=1e-6)


def test_bce_loss_also_shard_averages():
    """The GAN's discriminator loss reduces by mean too."""
    rng = np.random.default_rng(3)
    z = rng.normal(size=(24, 1)).astype(np.float32)
    t = (rng.random((24, 1)) > 0.5).astype(np.float32)
    _, g_full = losses.bce_with_logits(z, t)
    parts = [
        losses.bce_with_logits(zs, ts)[1]
        for zs, ts in zip(np.split(z, 4), np.split(t, 4))
    ]
    np.testing.assert_allclose(
        np.concatenate(parts) / 4, g_full, rtol=1e-5, atol=1e-8
    )
