"""The CycleGAN ICF surrogate: runtime model + symbolic architecture.

Runtime side (:class:`ICFSurrogate`): the trainable composite of
Section II-D, built on a *pre-trained, frozen* multimodal autoencoder
(shared by all trainers, so their 20-D latent spaces are coherent and
exchanging generators between trainers is meaningful):

- discriminator phase: D learns to separate encoder(real outputs) from
  F(params) in latent space;
- generator phase: F (and the inverse model G) minimize
  ``w_s * MAE(decoded scalars)`` + ``w_i * MAE(decoded images)``
  (surrogate fidelity / internal consistency, through the frozen decoder)
  + ``w_adv * BCE(D(F(x)), 1)`` (physical consistency, through the frozen
  discriminator) + ``w_cyc * MAE(G(F(x)), x)`` (self consistency).

Symbolic side (:class:`MLPSpec`, :class:`SurrogateArchitecture`): layer
widths only, from which FLOP counts, parameter counts and gradient sizes
follow — the cluster performance model prices paper-scale (64x64-image)
training steps from these without materializing ~2 GB of weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.jag.dataset import JagSchema, small_schema, paper_schema
from repro.models.autoencoder import MultimodalAutoencoder
from repro.tensorlib import losses
from repro.tensorlib.model import mlp
from repro.tensorlib.optimizers import Optimizer
from repro.utils.rng import RngFactory
from repro.utils.serialization import nbytes_of

__all__ = [
    "MLPSpec",
    "SurrogateArchitecture",
    "paper_architecture",
    "SurrogateConfig",
    "small_config",
    "ICFSurrogate",
]


# ---------------------------------------------------------------------------
# Symbolic architecture (performance modelling)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MLPSpec:
    """A fully-connected stack described by its layer widths."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dims) < 2 or any(d <= 0 for d in self.dims):
            raise ValueError(f"MLPSpec needs >= 2 positive widths, got {self.dims}")

    @property
    def param_count(self) -> int:
        return sum(
            a * b + b for a, b in zip(self.dims[:-1], self.dims[1:])
        )

    @property
    def param_nbytes(self) -> int:
        return 4 * self.param_count  # float32

    @property
    def fwd_flops(self) -> int:
        """Forward multiply-add FLOPs per sample (2 per weight)."""
        return 2 * sum(a * b for a, b in zip(self.dims[:-1], self.dims[1:]))

    def flops(self, mode: str) -> int:
        """FLOPs per sample by traversal mode.

        - ``"fwd"`` — inference;
        - ``"train"`` — forward + data-gradient + weight-gradient (3x);
        - ``"through"`` — forward + data-gradient only, for *frozen*
          components gradients merely pass through (2x).
        """
        factor = {"fwd": 1, "train": 3, "through": 2}.get(mode)
        if factor is None:
            raise ValueError(f"unknown flops mode {mode!r}")
        return factor * self.fwd_flops


@dataclass(frozen=True)
class SurrogateArchitecture:
    """Widths of all five components, plus derived training-step costs."""

    schema: JagSchema
    latent_dim: int
    encoder: MLPSpec
    decoder: MLPSpec
    forward: MLPSpec
    inverse: MLPSpec
    discriminator: MLPSpec

    @classmethod
    def from_widths(
        cls,
        schema: JagSchema,
        latent_dim: int,
        ae_hidden: Sequence[int],
        forward_hidden: Sequence[int],
        inverse_hidden: Sequence[int],
        disc_hidden: Sequence[int],
    ) -> "SurrogateArchitecture":
        bundle = schema.n_scalars + schema.image_flat_dim
        return cls(
            schema=schema,
            latent_dim=latent_dim,
            encoder=MLPSpec((bundle, *ae_hidden, latent_dim)),
            decoder=MLPSpec((latent_dim, *reversed(tuple(ae_hidden)), bundle)),
            forward=MLPSpec((schema.n_params, *forward_hidden, latent_dim)),
            inverse=MLPSpec((latent_dim, *inverse_hidden, schema.n_params)),
            discriminator=MLPSpec((latent_dim, *disc_hidden, 1)),
        )

    # -- per-sample costs of one GAN training step -------------------------

    @property
    def train_flops_per_sample(self) -> int:
        """Both phases of one step.

        Discriminator phase: encoder fwd (real latents), F fwd (fake
        latents, detached), D trained on both populations (2 samples per
        dataset sample).  Generator phase: F and G trained; decoder and D
        are frozen pass-throughs.
        """
        d_phase = (
            self.encoder.flops("fwd")
            + self.forward.flops("fwd")
            + 2 * self.discriminator.flops("train")
        )
        g_phase = (
            self.forward.flops("train")
            + self.decoder.flops("through")
            + self.discriminator.flops("through")
            + self.inverse.flops("train")
        )
        return d_phase + g_phase

    @property
    def inference_flops_per_sample(self) -> int:
        """A forward surrogate query: decoder(F(x))."""
        return self.forward.flops("fwd") + self.decoder.flops("fwd")

    @property
    def eval_flops_per_sample(self) -> int:
        """A validation pass: forward prediction plus cycle check."""
        return self.inference_flops_per_sample + self.inverse.flops("fwd")

    @property
    def disc_grad_nbytes(self) -> int:
        """Allreduce payload of the discriminator phase."""
        return self.discriminator.param_nbytes

    @property
    def gen_grad_nbytes(self) -> int:
        """Allreduce payload of the generator phase (F and G train)."""
        return self.forward.param_nbytes + self.inverse.param_nbytes

    @property
    def generator_state_nbytes(self) -> int:
        """LTFB exchange payload: generators only, discriminator stays."""
        return self.forward.param_nbytes + self.inverse.param_nbytes

    @property
    def total_param_count(self) -> int:
        return (
            self.encoder.param_count
            + self.decoder.param_count
            + self.forward.param_count
            + self.inverse.param_count
            + self.discriminator.param_count
        )


def paper_architecture() -> SurrogateArchitecture:
    """Paper-scale architecture used by the performance benchmarks.

    The paper does not publish layer widths (it cites an OSTI report for
    "a complete description of the network"); these widths are our
    calibration — chosen so the per-step compute, gradient-allreduce
    payload (~70 MB of trained F/G parameters), and generator-exchange
    size reproduce the timing ratios of Figures 9-11.  The frozen
    autoencoder halves dominate FLOPs (49,167-wide output bundles), the
    trained components dominate the allreduce.
    """
    return SurrogateArchitecture.from_widths(
        schema=paper_schema(),
        latent_dim=20,
        ae_hidden=(8192, 4096),
        forward_hidden=(2048, 4096),
        inverse_hidden=(4096, 2048),
        disc_hidden=(2048, 1024),
    )


# ---------------------------------------------------------------------------
# Runtime configuration and model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurrogateConfig:
    """Hyperparameters of a runnable (scaled-down) surrogate.

    Defaults follow the paper where it is explicit: mini-batch 128, Adam,
    initial learning rate 1e-3, 20-D latent space.
    """

    schema: JagSchema = field(default_factory=small_schema)
    latent_dim: int = 20
    ae_hidden: tuple[int, ...] = (256, 128)
    forward_hidden: tuple[int, ...] = (96, 96)
    inverse_hidden: tuple[int, ...] = (96, 96)
    disc_hidden: tuple[int, ...] = (64, 32)
    batch_size: int = 128
    learning_rate: float = 1.0e-3
    disc_learning_rate: float = 1.0e-3
    w_scalar_fidelity: float = 1.0
    w_image_fidelity: float = 1.0
    w_adversarial: float = 0.02
    w_cycle: float = 1.0
    label_smoothing: float = 0.1  # real labels = 1 - smoothing for D

    def __post_init__(self) -> None:
        if self.latent_dim <= 0 or self.batch_size <= 0:
            raise ValueError("latent_dim and batch_size must be positive")
        if min(self.learning_rate, self.disc_learning_rate) <= 0:
            raise ValueError("learning rates must be positive")
        if not 0 <= self.label_smoothing < 0.5:
            raise ValueError("label_smoothing must be in [0, 0.5)")

    def architecture(self) -> SurrogateArchitecture:
        return SurrogateArchitecture.from_widths(
            self.schema,
            self.latent_dim,
            self.ae_hidden,
            self.forward_hidden,
            self.inverse_hidden,
            self.disc_hidden,
        )


def small_config(schema: JagSchema | None = None, **overrides) -> SurrogateConfig:
    """Laptop-scale config for the real training experiments."""
    if schema is not None:
        overrides["schema"] = schema
    return SurrogateConfig(**overrides)


class ICFSurrogate:
    """Runnable CycleGAN surrogate for one trainer.

    Parameters
    ----------
    rngs:
        RNG factory; components derive their init streams from it, so two
        surrogates built from different factories start at different
        points of the loss landscape (LTFB's initial-state exploration).
    config:
        Hyperparameters and widths.
    autoencoder:
        A pre-trained :class:`MultimodalAutoencoder`.  Frozen here; shared
        between trainers by the ensemble driver.
    """

    def __init__(
        self,
        rngs: RngFactory,
        config: SurrogateConfig,
        autoencoder: MultimodalAutoencoder,
    ) -> None:
        if autoencoder.latent_dim != config.latent_dim:
            raise ValueError(
                f"autoencoder latent dim {autoencoder.latent_dim} != "
                f"config latent dim {config.latent_dim}"
            )
        if autoencoder.schema != config.schema:
            raise ValueError("autoencoder and config disagree on the sample schema")
        self.config = config
        self.autoencoder = autoencoder
        s = config.schema
        self.forward_model = mlp(
            "forward",
            rngs,
            input_dim=s.n_params,
            hidden=config.forward_hidden,
            output_dim=config.latent_dim,
            activation="leaky_relu",
        )
        self.inverse_model = mlp(
            "inverse",
            rngs,
            input_dim=config.latent_dim,
            hidden=config.inverse_hidden,
            output_dim=s.n_params,
            activation="leaky_relu",
            output_activation="sigmoid",  # params are normalized to [0, 1]
        )
        self.discriminator = mlp(
            "discriminator",
            rngs,
            input_dim=config.latent_dim,
            hidden=config.disc_hidden,
            output_dim=1,
            activation="leaky_relu",
        )
        self.steps_trained = 0

    # -- inference ------------------------------------------------------------

    def predict_latent(self, params: np.ndarray) -> np.ndarray:
        return self.forward_model.predict({"in": params}, "out")

    def predict_outputs(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full surrogate query: (scalars_hat, images_hat) = decoder(F(x))."""
        return self.autoencoder.decode(self.predict_latent(params))

    def invert(self, scalars: np.ndarray, images: np.ndarray) -> np.ndarray:
        """Inverse query: infer parameters from observed outputs."""
        return self.invert_latent(self.autoencoder.encode(scalars, images))

    def invert_latent(self, latent: np.ndarray) -> np.ndarray:
        """Inverse query on outputs that are already encoded."""
        return self.inverse_model.predict({"in": latent}, "out")

    # -- training ----------------------------------------------------------------

    def train_step(
        self,
        batch: Mapping[str, np.ndarray],
        disc_optimizer: Optimizer,
        gen_optimizer: Optimizer,
        latent_real: np.ndarray | None = None,
    ) -> dict[str, float]:
        """One full GAN step (discriminator phase, then generator phase).

        ``batch`` needs keys ``params``, ``scalars``, ``images``.
        ``latent_real`` is ``encoder(scalars, images)`` when the caller
        already has it (trainers keep it per sample, see
        :class:`~repro.models.autoencoder.LatentTable`); encoded here
        otherwise.  Returns all loss terms.

        On a population (:meth:`stack`), with ``[k, b, ·]`` batches and
        stacked optimizers, each loss term is one value per trainer, each
        slice bit for bit its own unstacked step.
        """
        cfg = self.config
        params, scalars, images = batch["params"], batch["scalars"], batch["images"]
        label_shape = params.shape[:-1] + (1,)

        # Real/fake latents.  The encoder is frozen: evaluation mode,
        # no backward pass.
        if latent_real is None:
            latent_real = self.autoencoder.encode(scalars, images)

        # --- discriminator phase ---
        self.discriminator.zero_grad()
        latent_fake = self.predict_latent(params)  # detached from F
        real, tape = self.discriminator.forward(
            {"in": latent_real}, outputs=["out"], training=True
        )
        real_targets = np.full(label_shape, 1.0 - cfg.label_smoothing, dtype=np.float32)
        d_real, g_real = losses.bce_with_logits(real["out"], real_targets)
        self.discriminator.backward({"out": g_real}, tape)
        fake, tape = self.discriminator.forward(
            {"in": latent_fake}, outputs=["out"], training=True
        )
        d_fake, g_fake = losses.bce_with_logits(
            fake["out"], np.zeros(label_shape, dtype=np.float32)
        )
        self.discriminator.backward({"out": g_fake}, tape)
        disc_optimizer.step(self.discriminator.trainable_weights)

        # --- generator phase ---
        # The decoder and (for this phase) the discriminator are frozen:
        # gradients pass through them to z, their weights get none.
        self.forward_model.zero_grad()
        self.inverse_model.zero_grad()

        out, z_tape = self.forward_model.forward(
            {"in": params}, outputs=["out"], training=True
        )
        z = out["out"]
        dec, tape = self.autoencoder.decoder.forward(
            {"latent": z}, outputs=["scalars_out", "images_out"], training=False
        )
        fid_s, grad_s = losses.mean_absolute_error(dec["scalars_out"], scalars)
        fid_i, grad_i = losses.mean_absolute_error(dec["images_out"], images)
        z_grad = self.autoencoder.decoder.backward(
            {
                "scalars_out": cfg.w_scalar_fidelity * grad_s,
                "images_out": cfg.w_image_fidelity * grad_i,
            },
            tape,
            through=True,
        )["latent"]

        adv_logits, tape = self.discriminator.forward(
            {"in": z}, outputs=["out"], training=False
        )
        adv, grad_adv = losses.bce_with_logits(
            adv_logits["out"], np.ones(label_shape, dtype=np.float32)
        )
        z_grad = z_grad + self.discriminator.backward(
            {"out": cfg.w_adversarial * grad_adv}, tape, through=True
        )["in"]

        x_hat, tape = self.inverse_model.forward(
            {"in": z}, outputs=["out"], training=True
        )
        cyc, grad_cyc = losses.mean_absolute_error(x_hat["out"], params)
        z_grad = z_grad + self.inverse_model.backward(
            {"out": cfg.w_cycle * grad_cyc}, tape
        )["in"]

        self.forward_model.backward({"out": z_grad}, z_tape)
        gen_optimizer.step(
            self.forward_model.trainable_weights + self.inverse_model.trainable_weights
        )
        self.steps_trained += 1
        return {
            "disc_real": d_real,
            "disc_fake": d_fake,
            "disc_loss": d_real + d_fake,
            "fidelity_scalar": fid_s,
            "fidelity_image": fid_i,
            "adversarial": adv,
            "cycle": cyc,
            "gen_loss": (
                cfg.w_scalar_fidelity * fid_s
                + cfg.w_image_fidelity * fid_i
                + cfg.w_adversarial * adv
                + cfg.w_cycle * cyc
            ),
        }

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self,
        batch: Mapping[str, np.ndarray],
        latent_real: np.ndarray | None = None,
        inverse: bool = True,
    ) -> dict[str, float]:
        """Validation metrics on a batch; no parameter updates.

        ``val_loss`` (forward fidelity + cycle consistency, per the
        paper's "forward and inverse loss" quality measure) is the LTFB
        tournament/validation criterion — lower is better.
        ``latent_real`` as in :meth:`train_step`.  ``inverse=False`` skips
        ``inverse_mae``, the one metric that reads the batch's encoding.
        """
        params, scalars, images = batch["params"], batch["scalars"], batch["images"]
        mae = losses.mean_absolute_error_value
        z = self.predict_latent(params)
        s_hat, i_hat = self.autoencoder.decode(z)
        fwd_s, fwd_i = mae(s_hat, scalars), mae(i_hat, images)
        cyc = mae(self.invert_latent(z), params)
        metrics = {"forward_scalar_mae": fwd_s, "forward_image_mae": fwd_i, "cycle_mae": cyc}
        if inverse:
            if latent_real is None:
                latent_real = self.autoencoder.encode(scalars, images)
            metrics["inverse_mae"] = mae(self.invert_latent(latent_real), params)
        cfg = self.config
        metrics["val_loss"] = (
            cfg.w_scalar_fidelity * fwd_s + cfg.w_image_fidelity * fwd_i + cfg.w_cycle * cyc
        )
        return metrics

    def discriminator_score(self, batch: Mapping[str, np.ndarray]) -> float:
        """Local-discriminator tournament metric: BCE of D(F(x)) against
        the "real" label.  Lower means the generator fools this trainer's
        discriminator better (paper Fig. 6b)."""
        params = batch["params"]
        z = self.predict_latent(params)
        logits = self.discriminator.predict({"in": z}, "out")
        value, _ = losses.bce_with_logits(
            logits, np.ones((params.shape[0], 1), dtype=np.float32)
        )
        return value

    # -- state exchange ------------------------------------------------------------

    GENERATOR_PARTS = ("forward", "inverse")

    def get_generator_state(self) -> dict[str, np.ndarray]:
        """The LTFB-GAN exchange payload: generators only (F and G); the
        discriminator never leaves its trainer.  Weight names are
        model-qualified ("forward/...", "inverse/..."), so the union is
        disjoint."""
        state = self.forward_model.get_state()
        state.update(self.inverse_model.get_state())
        return state

    def set_generator_state(self, state: Mapping[str, np.ndarray]) -> None:
        fwd = {k: v for k, v in state.items() if k.startswith("forward/")}
        inv = {k: v for k, v in state.items() if k.startswith("inverse/")}
        self.forward_model.set_state(fwd)
        self.inverse_model.set_state(inv)

    def generator_state_nbytes(self) -> int:
        return nbytes_of(self.get_generator_state())

    def get_full_state(self) -> dict[str, np.ndarray]:
        """Everything trainable in this trainer (generators + local D)."""
        state = self.get_generator_state()
        state.update(self.discriminator.get_state())
        return state

    def set_full_state(self, state: Mapping[str, np.ndarray]) -> None:
        self.set_generator_state(state)
        disc = {k: v for k, v in state.items() if k.startswith("discriminator/")}
        self.discriminator.set_state(disc)

    @classmethod
    def population_of(cls, member: "ICFSurrogate") -> "ICFSurrogate":
        """A surrogate to :meth:`stack` ``member``'s population into."""
        return cls(RngFactory(0), member.config, member.autoencoder)

    TRAINED_PARTS = ("forward_model", "inverse_model", "discriminator")

    def stack(self, members: Sequence["ICFSurrogate"]) -> None:
        """Hold ``members``' F, G and D as ``[k, ...]`` stacks (the frozen
        decoder broadcasts); :meth:`unstack` hands them back."""
        for part in self.TRAINED_PARTS:
            getattr(self, part).stack([getattr(m, part) for m in members])
        self.steps_trained = 0

    def unstack(self, members: Sequence["ICFSurrogate"]) -> None:
        for part in self.TRAINED_PARTS:
            getattr(self, part).unstack([getattr(m, part) for m in members])
        for m in members:
            m.steps_trained += self.steps_trained
