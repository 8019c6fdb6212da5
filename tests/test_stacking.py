"""Property: a stacked population pass is k unstacked passes, bit for bit.

``tensorlib`` runs k trainers' batches ``[k, b, ·]`` through k trainers'
weights ``[k, ...]`` in one call (the frozen decoder's plain weights
broadcast), and the serial backend trains its population that way.  That
is only sound if every slice of every result equals what the trainer's
own unstacked pass computes, exactly: forward outputs, weight and input
gradients, bias sums, per-trainer loss values, and the optimizer updates
driven by per-trainer learning-rate and bias-correction columns.  The
shapes are every dense layer and loss of the streamed and offline
surrogate geometries; ``assert_array_equal`` throughout, no tolerance.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jag.dataset import JagSchema, small_schema
from repro.models.autoencoder import MultimodalAutoencoder
from repro.models.cyclegan import ICFSurrogate, SurrogateConfig, small_config
from repro.tensorlib import losses
from repro.tensorlib.layers import FullyConnected
from repro.tensorlib.model import mlp
from repro.tensorlib.optimizers import (
    SGD, Adam, ConstantLR, CosineDecayLR, Momentum, Optimizer, StepDecayLR,
)
from repro.tensorlib.weights import Weight
from repro.utils.rng import RngFactory

#: (surrogate config, batch size) of the two benchmark geometries.
GEOMETRIES = {
    "streamed": (
        SurrogateConfig(
            schema=JagSchema(image_size=8, views=2, channels=2),
            ae_hidden=(48, 32),
            forward_hidden=(24, 24),
            inverse_hidden=(24, 24),
            disc_hidden=(16, 8),
            batch_size=32,
        ),
        32,
    ),
    "offline": (small_config(small_schema(16), batch_size=64), 64),
}

KS = st.sampled_from([1, 2, 4, 8])
SEEDS = st.integers(0, 2**32 - 1)


def _surrogate(cfg: SurrogateConfig) -> ICFSurrogate:
    ae = MultimodalAutoencoder(
        RngFactory(0), cfg.schema, hidden=cfg.ae_hidden, latent_dim=cfg.latent_dim
    )
    return ICFSurrogate(RngFactory(1), cfg, ae)


def _dense_layers():
    """Every dense layer of both geometries: trained ones (F, G, D) stack
    their weights, frozen ones (the autoencoder halves) broadcast."""
    out = []
    for geometry, (cfg, batch) in GEOMETRIES.items():
        s = _surrogate(cfg)
        parts = [
            (s.forward_model, True), (s.inverse_model, True),
            (s.discriminator, True),
            (s.autoencoder.decoder, False), (s.autoencoder.encoder, False),
        ]
        for model, trained in parts:
            for layer in model.graph.layers.values():
                if isinstance(layer, FullyConnected):
                    out.append(pytest.param(
                        batch, layer.input_shapes[0][0], layer.units, trained,
                        id=f"{geometry}-{model.name}/{layer.name}",
                    ))
    return out


def _loss_widths():
    """Every loss of the GAN step: D logits, decoded scalars and images,
    and the cycle-consistency parameters."""
    out = []
    for geometry, (cfg, batch) in GEOMETRIES.items():
        s = cfg.schema
        for what, width in (
            ("logits", 1), ("scalars", s.n_scalars),
            ("images", s.image_flat_dim), ("params", s.n_params),
        ):
            out.append(pytest.param(batch, width, id=f"{geometry}-{what}"))
    return out


def _load(fc: FullyConnected, kernel: np.ndarray, bias: np.ndarray) -> None:
    for w, value in ((fc.kernel, kernel), (fc.bias, bias)):
        w.value = value
        w.grad = np.zeros_like(value)


DENSE_LAYERS = _dense_layers()


@pytest.mark.parametrize("batch, n_in, units, trained", DENSE_LAYERS)
@settings(max_examples=6, deadline=None)
@given(k=KS, seed=SEEDS)
def test_dense_layer_slices_equal_unstacked(batch, n_in, units, trained, k, seed):
    rng = np.random.default_rng(seed)
    fc = FullyConnected("fc", units)
    fc.build([(n_in,)], rng)
    lead = (k,) if trained else ()
    kernel = rng.normal(size=lead + (n_in, units)).astype(np.float32)
    bias = rng.normal(size=lead + (units,)).astype(np.float32)
    x = rng.normal(size=(k, batch, n_in)).astype(np.float32)
    g = rng.normal(size=(k, batch, units)).astype(np.float32)

    _load(fc, kernel, bias)
    y, cache = fc.forward([x], True)
    dx = fc.backward(g, cache, through=not trained)[0]
    kernel_grad, bias_grad = fc.kernel.grad, fc.bias.grad
    for j in range(k):
        _load(fc, kernel[j] if trained else kernel, bias[j] if trained else bias)
        y_j, cache_j = fc.forward([x[j]], True)
        np.testing.assert_array_equal(y[j], y_j)
        np.testing.assert_array_equal(
            dx[j], fc.backward(g[j], cache_j, through=not trained)[0]
        )
        if trained:
            np.testing.assert_array_equal(kernel_grad[j], fc.kernel.grad)
            np.testing.assert_array_equal(bias_grad[j], fc.bias.grad)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@settings(max_examples=4, deadline=None)
@given(k=KS, seed=SEEDS)
def test_stacked_models_equal_unstacked(geometry, k, seed):
    """Whole graphs: k generators stacked into one (``Model.stack``), and
    the frozen decoder's pass-through with its slices and sigmoid."""
    cfg, batch = GEOMETRIES[geometry]
    s = cfg.schema
    rng = np.random.default_rng(seed)
    members = [
        mlp("forward", RngFactory(seed + j), s.n_params, cfg.forward_hidden,
            cfg.latent_dim, activation="leaky_relu")
        for j in range(k)
    ]
    population = mlp("forward", RngFactory(0), s.n_params, cfg.forward_hidden,
                     cfg.latent_dim, activation="leaky_relu")
    population.stack(members)
    x = rng.random((k, batch, s.n_params)).astype(np.float32)
    g = rng.normal(size=(k, batch, cfg.latent_dim)).astype(np.float32)
    out, tape = population.forward({"in": x}, ["out"], training=True)
    dx = population.backward({"out": g}, tape)["in"]

    decoder = _surrogate(cfg).autoencoder.decoder
    heads = ["scalars_out", "images_out"]
    dec, dec_tape = decoder.forward({"latent": out["out"]}, heads)
    dec_grads = {h: rng.normal(size=dec[h].shape).astype(np.float32) for h in heads}
    dz = decoder.backward(dec_grads, dec_tape, through=True)["latent"]

    for j, member in enumerate(members):
        out_j, tape_j = member.forward({"in": x[j]}, ["out"], training=True)
        np.testing.assert_array_equal(out["out"][j], out_j["out"])
        np.testing.assert_array_equal(
            dx[j], member.backward({"out": g[j]}, tape_j)["in"]
        )
        for w, w_j in zip(population.weights, member.weights):
            np.testing.assert_array_equal(w.grad[j], w_j.grad)
        dec_j, dec_tape_j = decoder.forward({"latent": out_j["out"]}, heads)
        for h in heads:
            np.testing.assert_array_equal(dec[h][j], dec_j[h])
        dz_j = decoder.backward(
            {h: dec_grads[h][j] for h in heads}, dec_tape_j, through=True
        )["latent"]
        np.testing.assert_array_equal(dz[j], dz_j)


@pytest.mark.parametrize("batch, width", _loss_widths())
@settings(max_examples=6, deadline=None)
@given(k=KS, seed=SEEDS)
def test_losses_one_value_per_trainer(batch, width, k, seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(k, batch, width)).astype(np.float32)
    target = rng.random((k, batch, width)).astype(np.float32)
    for loss in (
        losses.mean_absolute_error, losses.mean_squared_error,
        losses.bce_with_logits,
    ):
        values, grad = loss(pred, target)
        assert values.shape == (k,)
        for j in range(k):
            value_j, grad_j = loss(pred[j], target[j])
            assert values[j] == value_j
            np.testing.assert_array_equal(grad[j], grad_j)


def _schedule(rng: np.random.Generator):
    lr = float(10.0 ** rng.uniform(-4, -2))
    return [
        ConstantLR(lr),
        StepDecayLR(lr, factor=0.5, every=int(rng.integers(1, 4))),
        CosineDecayLR(lr, total_steps=int(rng.integers(2, 9))),
    ][int(rng.integers(3))]


OPTIMIZERS = {
    "adam": lambda schedule: Adam(schedule, beta1=0.8, beta2=0.99),
    "sgd": SGD,
    "momentum": lambda schedule: Momentum(schedule, momentum=0.7, nesterov=True),
}


@pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
@pytest.mark.parametrize(
    "batch, n_in, units, trained", [p for p in DENSE_LAYERS if p.values[3]]
)
@settings(max_examples=8, deadline=None)
@given(k=KS, seed=SEEDS)
def test_column_optimizer_equals_separate_updates(
    kind, batch, n_in, units, trained, k, seed
):
    """Distinct schedules and step counts per trainer, and the last
    trainer reset (no slots, step 0), as after ``adopt_optimizer="reset"``."""
    rng = np.random.default_rng(seed)
    shapes = {"fc/kernel": (n_in, units), "fc/bias": (units,)}
    members = [OPTIMIZERS[kind](_schedule(rng)) for _ in range(k)]
    values = {name: rng.normal(size=(k,) + shape).astype(np.float32)
              for name, shape in shapes.items()}
    own = [[Weight(name, values[name][j]) for name in shapes] for j in range(k)]
    for opt, weights in zip(members, own):
        for _ in range(int(rng.integers(0, 5))):
            for w in weights:
                w.grad[...] = rng.normal(size=w.shape)
            opt.step(weights)
    members[-1].reset()
    stacked_members = copy.deepcopy(members)
    stacked = [
        Weight(name, np.stack([weights[i].value for weights in own]))
        for i, name in enumerate(shapes)
    ]
    column = Optimizer.stack(stacked_members)
    for _ in range(3):
        grads = [rng.normal(size=w.shape).astype(np.float32) for w in stacked]
        for w, g in zip(stacked, grads):
            w.grad[...] = g
        column.step(stacked)
        for j, (opt, weights) in enumerate(zip(members, own)):
            for w, g in zip(weights, grads):
                w.grad[...] = g[j]
            opt.step(weights)
    column.unstack()
    for j, (opt, weights) in enumerate(zip(members, own)):
        for w, w_stacked in zip(weights, stacked):
            np.testing.assert_array_equal(w_stacked.value[j], w.value)
        mine, theirs = stacked_members[j].get_state(), opt.get_state()
        assert mine["step_count"] == theirs["step_count"]
        assert mine["slots"].keys() == theirs["slots"].keys()
        for wname, slots in theirs["slots"].items():
            assert mine["slots"][wname].keys() == slots.keys()
            for slot, value in slots.items():
                np.testing.assert_array_equal(mine["slots"][wname][slot], value)
