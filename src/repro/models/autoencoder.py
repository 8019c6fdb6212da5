"""The multimodal autoencoder behind the surrogate's latent space.

"The forward model ... maps from the 5-D experiment parameter space to a
20-D latent space.  This is trained a priori using a multimodal
autoencoder of all outputs."  The encoder ingests both output modalities
(scalars and flattened images) jointly; the decoder reconstructs both from
the 20-D code.  Joint encoding is what gives the surrogate its internal
consistency: one latent point determines *all* modalities at once.
"""

from __future__ import annotations

import weakref
from typing import Mapping, Sequence

import numpy as np

from repro.jag.dataset import JagSchema
from repro.tensorlib import losses
from repro.tensorlib.graph import LayerGraph
from repro.tensorlib.layers import (
    Activation,
    Concatenation,
    FullyConnected,
    Identity,
    Input,
    Slice,
)
from repro.tensorlib.model import Model
from repro.tensorlib.optimizers import Optimizer
from repro.utils.rng import RngFactory

__all__ = ["MultimodalAutoencoder", "LatentTable", "BatchLatent"]


def _build_encoder(
    name: str,
    rngs: RngFactory,
    schema: JagSchema,
    hidden: Sequence[int],
    latent_dim: int,
) -> Model:
    g = LayerGraph()
    g.add(Input("scalars", shape=(schema.n_scalars,)))
    g.add(Input("images", shape=(schema.image_flat_dim,)))
    g.add(Concatenation("concat"), parents=["scalars", "images"])
    prev = "concat"
    for i, width in enumerate(hidden):
        g.add(FullyConnected(f"fc{i}", units=int(width)), parents=[prev])
        g.add(Activation(f"act{i}", "leaky_relu"), parents=[f"fc{i}"])
        prev = f"act{i}"
    g.add(FullyConnected("latent_fc", units=latent_dim), parents=[prev])
    g.add(Identity("latent"), parents=["latent_fc"])
    return Model(name, g, rngs)


def _build_decoder(
    name: str,
    rngs: RngFactory,
    schema: JagSchema,
    hidden: Sequence[int],
    latent_dim: int,
) -> Model:
    g = LayerGraph()
    g.add(Input("latent", shape=(latent_dim,)))
    prev = "latent"
    for i, width in enumerate(reversed(list(hidden))):
        g.add(FullyConnected(f"fc{i}", units=int(width)), parents=[prev])
        g.add(Activation(f"act{i}", "leaky_relu"), parents=[f"fc{i}"])
        prev = f"act{i}"
    total_out = schema.n_scalars + schema.image_flat_dim
    g.add(FullyConnected("head", units=total_out), parents=[prev])
    g.add(Slice("scalars_out", 0, schema.n_scalars), parents=["head"])
    g.add(Slice("images_logits", schema.n_scalars, total_out), parents=["head"])
    # Images live in [0, 1); squash them.  Scalars are z-scored: linear head.
    g.add(Activation("images_out", "sigmoid"), parents=["images_logits"])
    return Model(name, g, rngs)


class MultimodalAutoencoder:
    """Encoder/decoder pair over (scalars, images) with a 20-D bottleneck.

    Parameters
    ----------
    rngs:
        RNG factory scoping this component's weight init.
    schema:
        Sample shapes (scalar and flattened-image widths).
    hidden:
        Encoder hidden widths; the decoder mirrors them.
    latent_dim:
        Bottleneck width (20 in the paper).
    image_loss_weight:
        Relative weight of the image reconstruction term; scalars and
        images have very different widths, so the per-element mean losses
        are combined with an explicit weight instead of letting the image
        term dominate by count.
    """

    def __init__(
        self,
        rngs: RngFactory,
        schema: JagSchema,
        hidden: Sequence[int] = (128, 64),
        latent_dim: int = 20,
        image_loss_weight: float = 1.0,
    ) -> None:
        if latent_dim <= 0:
            raise ValueError("latent_dim must be positive")
        self.schema = schema
        self.hidden = tuple(int(h) for h in hidden)
        self.latent_dim = int(latent_dim)
        self.image_loss_weight = float(image_loss_weight)
        self.encoder = _build_encoder("encoder", rngs, schema, hidden, latent_dim)
        self.decoder = _build_decoder("decoder", rngs, schema, hidden, latent_dim)
        #: Bumped by everything here that changes the weights
        #: (:meth:`train_step`, :meth:`set_state`); caches of encoder
        #: outputs (:class:`LatentTable`, :class:`BatchLatent`) compare it
        #: to know when they are stale.
        self.generation = 0

    # -- inference ---------------------------------------------------------

    def encode(self, scalars: np.ndarray, images: np.ndarray) -> np.ndarray:
        return self.encoder.predict(
            {"scalars": scalars, "images": images}, "latent"
        )

    def decode(self, latent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out, _ = self.decoder.forward(
            {"latent": latent}, outputs=["scalars_out", "images_out"]
        )
        return out["scalars_out"], out["images_out"]

    # -- training -------------------------------------------------------------

    def train_step(
        self, batch: Mapping[str, np.ndarray], optimizer: Optimizer
    ) -> dict[str, float]:
        """One reconstruction step on a mini-batch with keys
        ``scalars`` and ``images``.  Returns the loss terms."""
        scalars, images = batch["scalars"], batch["images"]
        self.encoder.zero_grad()
        self.decoder.zero_grad()

        enc, enc_tape = self.encoder.forward(
            {"scalars": scalars, "images": images}, outputs=["latent"], training=True
        )
        dec, dec_tape = self.decoder.forward(
            {"latent": enc["latent"]},
            outputs=["scalars_out", "images_out"],
            training=True,
        )
        s_loss, s_grad = losses.mean_absolute_error(dec["scalars_out"], scalars)
        i_loss, i_grad = losses.mean_absolute_error(dec["images_out"], images)
        latent_grad = self.decoder.backward(
            {
                "scalars_out": s_grad,
                "images_out": self.image_loss_weight * i_grad,
            },
            dec_tape,
        )["latent"]
        self.encoder.backward({"latent": latent_grad}, enc_tape)
        optimizer.step(self.encoder.weights + self.decoder.weights)
        self.generation += 1
        return {
            "scalar_mae": s_loss,
            "image_mae": i_loss,
            "loss": s_loss + self.image_loss_weight * i_loss,
        }

    def reconstruction_error(self, batch: Mapping[str, np.ndarray]) -> dict[str, float]:
        """Evaluation-mode reconstruction MAE per modality."""
        latent = self.encode(batch["scalars"], batch["images"])
        s_hat, i_hat = self.decode(latent)
        s_loss, _ = losses.mean_absolute_error(s_hat, batch["scalars"])
        i_loss, _ = losses.mean_absolute_error(i_hat, batch["images"])
        return {"scalar_mae": s_loss, "image_mae": i_loss}

    # -- state ------------------------------------------------------------------

    def get_state(self) -> dict[str, np.ndarray]:
        # Weight names are model-qualified ("encoder/...", "decoder/...")
        # so the two dicts are disjoint by construction.
        state = self.encoder.get_state()
        state.update(self.decoder.get_state())
        return state

    def set_state(self, state: Mapping[str, np.ndarray]) -> None:
        enc = {k: v for k, v in state.items() if k.startswith("encoder/")}
        dec = {k: v for k, v in state.items() if k.startswith("decoder/")}
        self.encoder.set_state(enc)
        self.decoder.set_state(dec)
        self.generation += 1


# ---------------------------------------------------------------------------
# Encode once: caches of the frozen encoder's outputs
# ---------------------------------------------------------------------------


class LatentTable:
    """Sample-id-keyed table of ``encode(sample)``: the data store's
    "pay for a sample once" applied to the frozen encoder.

    A batch whose ids are all present is gathered from the table; a batch
    with *any* unseen id is encoded whole, exactly as an uncached caller
    would have encoded it, and its unseen rows are added.  Rows are
    therefore only ever produced by full-batch encodes at the caller's
    one batch shape, and with the GEMM shape fixed a row's result depends
    on that row alone (the contract :mod:`repro.serve.runtime` states),
    so a gathered row is bit-equal to recomputing it.

    Ids are non-negative dataset indices (what every reader plans over);
    the index is dense over the id space seen so far (8 B per id), the
    rows cost ``4 * latent_dim`` B per cached sample.  The table empties
    itself when asked about another autoencoder or after the encoder's
    weights changed (:attr:`MultimodalAutoencoder.generation`).  It is
    derived state: owners leave it out of pickles and checkpoints and
    let it refill.

    ``hits`` counts batch rows gathered from the table, ``misses`` batch
    rows that went through the encoder.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._encoder: weakref.ref | None = None  # whose outputs these are
        self._generation = -1
        self.clear()

    def __reduce__(self):
        # Derived state never travels: a copy (pickle, deepcopy) is empty.
        return (type(self), ())

    def clear(self) -> None:
        """Forget every row (the hit/miss counts keep running)."""
        self._slot_of = np.empty(0, dtype=np.intp)  # id -> row, -1 = unseen
        self._rows: np.ndarray | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def latents(
        self,
        autoencoder: MultimodalAutoencoder,
        sample_ids: np.ndarray,
        scalars: np.ndarray,
        images: np.ndarray,
    ) -> np.ndarray:
        """``autoencoder.encode(scalars, images)``, row ``i`` being sample
        ``sample_ids[i]`` — gathered when every id has been seen."""
        if (
            self._encoder is None
            or self._encoder() is not autoencoder
            or self._generation != autoencoder.generation
        ):
            self.clear()
            self._encoder = weakref.ref(autoencoder)
            self._generation = autoencoder.generation
        ids = np.asarray(sample_ids, dtype=np.intp)
        if ids.min() < 0:
            raise ValueError("sample ids must be non-negative")
        top = int(ids.max())
        if top >= self._slot_of.size:
            grown = np.full(max(top + 1, 2 * self._slot_of.size), -1, dtype=np.intp)
            grown[: self._slot_of.size] = self._slot_of
            self._slot_of = grown
        slots = self._slot_of[ids]
        unseen = slots < 0
        if not unseen.any():
            self.hits += ids.size
            return self._rows[slots]
        latent = autoencoder.encode(scalars, images)
        self.misses += ids.size
        self._add(ids[unseen], latent[unseen])
        return latent

    def _add(self, ids: np.ndarray, rows: np.ndarray) -> None:
        ids, first = np.unique(ids, return_index=True)
        end = self._size + ids.size
        if self._rows is None or end > self._rows.shape[0]:
            grown = np.empty((max(end, 2 * self._size), rows.shape[1]), rows.dtype)
            if self._rows is not None:
                grown[: self._size] = self._rows[: self._size]
            self._rows = grown
        self._rows[self._size : end] = rows[first]
        self._slot_of[ids] = np.arange(self._size, end)
        self._size = end


class BatchLatent:
    """Latents of the one fixed batch its owner keeps scoring on (a
    driver's validation set): encoded as one block, once per autoencoder
    asked about, and again only after that encoder's weights changed or
    the owner moved to other arrays.  The arrays are recognized by
    identity, so writing *into* them goes unnoticed — hand over new arrays
    instead.  The returned latents are shared between calls; treat them
    as read-only."""

    def __init__(self) -> None:
        self._scalars: np.ndarray | None = None
        self._images: np.ndarray | None = None
        #: autoencoder -> (generation, latents); weak, so a dropped
        #: autoencoder is not kept alive by a cache of its outputs.
        self._encoded: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def __reduce__(self):
        return (type(self), ())  # as LatentTable: a copy starts empty

    def of(
        self, autoencoder: MultimodalAutoencoder, batch: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        scalars, images = batch["scalars"], batch["images"]
        if scalars is not self._scalars or images is not self._images:
            self._encoded.clear()
            self._scalars, self._images = scalars, images
        entry = self._encoded.get(autoencoder)
        if entry is None or entry[0] != autoencoder.generation:
            entry = (autoencoder.generation, autoencoder.encode(scalars, images))
            self._encoded[autoencoder] = entry
        return entry[1]
