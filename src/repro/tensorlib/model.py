"""The Model abstraction: a built layer graph plus its trainable state.

In the paper's terminology a *model* is "a neural network, comprised of a
DAG of tensor operations (layers), trainable parameter tensors (weights),
and data readers"; trainers train models and LTFB exchanges model state
between trainers.  Data readers live in :mod:`repro.datastore`; this class
owns the graph and the state, including (de)serialization used by the
tournament exchange.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.tensorlib.graph import LayerGraph, Tape
from repro.tensorlib.layers import Activation, BatchNorm, Dropout, FullyConnected
from repro.tensorlib.layers import Identity, Input
from repro.tensorlib.weights import Weight
from repro.utils.rng import RngFactory
from repro.utils.serialization import nbytes_of, pack_arrays, unpack_arrays

__all__ = ["Model", "mlp"]


class Model:
    """A built layer graph with named weights.

    Parameters
    ----------
    name:
        Model name; scopes the RNG streams used for weight init and dropout.
    graph:
        An *unbuilt* :class:`LayerGraph`; the model builds it.
    rngs:
        RNG factory. The model derives per-layer streams under
        ``"<name>/<layer>"``.
    """

    def __init__(self, name: str, graph: LayerGraph, rngs: RngFactory) -> None:
        if not name:
            raise ValueError("model name must be non-empty")
        self.name = name
        self.graph = graph
        graph.build(rngs.child(name))
        self._weights = graph.all_weights()
        by_name = {}
        for w in self._weights:
            # Qualify with the model name so weights from different models
            # never alias in optimizer slot state or merged state dicts.
            w.name = f"{name}/{w.name}"
            if w.name in by_name:
                raise ValueError(f"duplicate weight name {w.name!r} in model {name!r}")
            by_name[w.name] = w
        self._weights_by_name = by_name

    # -- execution -------------------------------------------------------

    def forward(
        self,
        feeds: Mapping[str, np.ndarray],
        outputs: Iterable[str] | None = None,
        training: bool = False,
    ) -> tuple[dict[str, np.ndarray], Tape]:
        return self.graph.forward(feeds, outputs=outputs, training=training)

    def backward(
        self, output_grads: Mapping[str, np.ndarray], tape: Tape, through: bool = False
    ) -> dict[str, np.ndarray]:
        """Back-propagate; with ``through`` only the input gradients are
        computed (a frozen model: no ``Weight.grad`` is written)."""
        return self.graph.backward(output_grads, tape, through)

    def predict(self, feeds: Mapping[str, np.ndarray], output: str) -> np.ndarray:
        """Convenience single-output inference call (the tape is dropped)."""
        return self.forward(feeds, outputs=[output], training=False)[0][output]

    # -- weights and state -------------------------------------------------

    @property
    def weights(self) -> list[Weight]:
        return list(self._weights)

    @property
    def trainable_weights(self) -> list[Weight]:
        return [w for w in self._weights if w.trainable]

    def weight(self, name: str) -> Weight:
        """Look up a weight by qualified name or model-local suffix."""
        if name in self._weights_by_name:
            return self._weights_by_name[name]
        return self._weights_by_name[f"{self.name}/{name}"]

    def zero_grad(self) -> None:
        for w in self._weights:
            w.zero_grad()

    def param_count(self) -> int:
        return sum(w.size for w in self._weights if w.trainable)

    def state_nbytes(self) -> int:
        """Bytes of the full state — what an LTFB exchange transfers."""
        return nbytes_of({w.name: w.value for w in self._weights})

    def get_state(self) -> dict[str, np.ndarray]:
        """Copy out all weight values (trainable and running statistics)."""
        return {w.name: w.value.copy() for w in self._weights}

    def set_state(self, state: Mapping[str, np.ndarray]) -> None:
        """Load a state produced by :meth:`get_state` (strict name match)."""
        missing = set(self._weights_by_name) - set(state)
        extra = set(state) - set(self._weights_by_name)
        if missing or extra:
            raise ValueError(
                f"state mismatch for model {self.name!r}: "
                f"missing={sorted(missing)}, unexpected={sorted(extra)}"
            )
        for name, value in state.items():
            self._weights_by_name[name].assign(value)

    def stack(self, models: Sequence["Model"]) -> None:
        """Hold same-architecture ``models``' weights as one ``[k, ...]``
        stack; :meth:`unstack` writes the slices back."""
        for w in self._weights:
            w.value = np.stack([m._weights_by_name[w.name].value for m in models])
            if w.grad.shape != w.value.shape:
                w.grad = np.zeros_like(w.value)

    def unstack(self, models: Sequence["Model"]) -> None:
        for w in self._weights:
            for value, m in zip(w.value, models):
                m._weights_by_name[w.name].assign(value)

    def serialize_state(self) -> bytes:
        """Pack the state into one buffer (the LTFB wire format)."""
        return pack_arrays(self.get_state())

    def load_state_bytes(self, payload: bytes) -> None:
        self.set_state(unpack_arrays(payload))

    # -- cost accounting -----------------------------------------------------

    def flops_per_sample(self, training: bool = False) -> int:
        """FLOPs per sample: forward only, or forward+backward (3x) when
        training — the standard dense-layer estimate (backward costs two
        matmuls per forward matmul)."""
        fwd = self.graph.flops_per_sample()
        return 3 * fwd if training else fwd

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, layers={len(self.graph.layers)}, "
            f"params={self.param_count()})"
        )


def mlp(
    name: str,
    rngs: RngFactory,
    input_dim: int,
    hidden: Sequence[int],
    output_dim: int,
    activation: str = "relu",
    output_activation: str | None = None,
    dropout: float = 0.0,
    batchnorm: bool = False,
    input_name: str = "in",
    output_name: str = "out",
    activation_kwargs: Mapping[str, float] | None = None,
) -> Model:
    """Build a plain multilayer perceptron model.

    The paper's CycleGAN components (forward, inverse, discriminator, and
    the multimodal autoencoder halves) are all "standard fully-connected
    neural networks"; this is the shared constructor for them.

    The returned model has one input layer (``input_name``) and one output
    layer (``output_name``).
    """
    if input_dim <= 0 or output_dim <= 0:
        raise ValueError("input_dim and output_dim must be positive")
    g = LayerGraph()
    g.add(Input(input_name, shape=(input_dim,)))
    prev = input_name
    kwargs = dict(activation_kwargs or {})
    for i, width in enumerate(hidden):
        fc = f"fc{i}"
        g.add(FullyConnected(fc, units=int(width)), parents=[prev])
        prev = fc
        if batchnorm:
            bn = f"bn{i}"
            g.add(BatchNorm(bn), parents=[prev])
            prev = bn
        act = f"act{i}"
        g.add(Activation(act, activation, **kwargs), parents=[prev])
        prev = act
        if dropout > 0.0:
            dp = f"drop{i}"
            g.add(Dropout(dp, dropout), parents=[prev])
            prev = dp
    head = "head"
    g.add(FullyConnected(head, units=output_dim), parents=[prev])
    prev = head
    if output_activation is not None:
        g.add(Activation(output_name, output_activation), parents=[prev])
    else:
        g.add(Identity(output_name), parents=[prev])
    return Model(name, g, rngs)
