"""Layer abstraction: a node in the model DAG with explicit forward/backward.

Mirrors LBANN's design where a model is a DAG of tensor operations
("layers") over trainable tensors ("weights").  A layer

- is *built* once against the per-sample shapes of its inputs (deferred
  shape inference, so architectures compose without manual bookkeeping),
- hands what its backward pass needs (a *cache*) to the caller with each
  forward output and keeps no per-call state, so any number of passes
  through one layer may interleave or run concurrently,
- *accumulates* weight gradients into :class:`~repro.tensorlib.weights.Weight`
  buffers and returns gradients with respect to each of its inputs,
- reports per-sample forward FLOPs so the cluster performance model
  (:mod:`repro.cluster.compute`) can price a training step without running
  it at full scale.

Shapes are **per-sample**: a layer built with input shape ``(64,)``
processes batches of shape ``(batch, 64)`` — or, with a leading population
axis, k trainers' batches ``(k, batch, 64)`` through ``[k, ...]`` weights
(plain weights broadcast), each slice bit for bit its unstacked pass.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.tensorlib.initializers import Initializer
from repro.tensorlib.weights import Weight

__all__ = ["Layer", "LayerBuildError"]

Shape = tuple[int, ...]


class LayerBuildError(RuntimeError):
    """Raised when a layer is built with incompatible input shapes."""


class Layer(ABC):
    """Base class for all layers.

    Subclasses implement :meth:`_build`, :meth:`_forward` and
    :meth:`_backward`; this base class enforces the build-before-use
    protocol and owns the weight list.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("layer name must be non-empty")
        self.name = name
        self.weights: list[Weight] = []
        self.input_shapes: list[Shape] | None = None
        self.output_shape: Shape | None = None
        self._rng: np.random.Generator | None = None

    # -- construction ------------------------------------------------------

    @property
    def built(self) -> bool:
        return self.output_shape is not None

    def build(self, input_shapes: Sequence[Shape], rng: np.random.Generator) -> None:
        """Resolve shapes and allocate weights.  Idempotence is an error:
        a layer instance belongs to exactly one graph."""
        if self.built:
            raise LayerBuildError(f"layer {self.name!r} is already built")
        self.input_shapes = [tuple(int(d) for d in s) for s in input_shapes]
        self._rng = rng
        self.output_shape = tuple(int(d) for d in self._build(self.input_shapes))

    def add_weight(self, suffix: str, shape: Shape, initializer: Initializer) -> Weight:
        """Create and register a weight named ``"<layer>/<suffix>"``."""
        assert self._rng is not None, "add_weight must be called from _build"
        w = Weight(f"{self.name}/{suffix}", initializer(shape, self._rng))
        self.weights.append(w)
        return w

    # -- execution ----------------------------------------------------------

    def forward(
        self, inputs: list[np.ndarray], training: bool
    ) -> tuple[np.ndarray, dict]:
        """Run the layer on a batch; returns ``(output, cache for backward)``."""
        if not self.built:
            raise LayerBuildError(f"layer {self.name!r} used before build()")
        self._check_batch_shapes(inputs)
        cache: dict = {}
        return self._forward(inputs, training, cache), cache

    def backward(
        self, grad_output: np.ndarray, cache: dict, through: bool = False
    ) -> list[np.ndarray]:
        """Propagate a gradient through the layer given its forward's
        ``cache``: returns one gradient per forward input and accumulates
        weight gradients, unless ``through`` (a frozen layer the gradient
        merely passes through: same input gradients, weights untouched)."""
        if cache is None:
            raise RuntimeError(
                f"backward() on layer {self.name!r} without a forward() cache"
            )
        return self._backward(grad_output, cache, through)

    # -- cost accounting ----------------------------------------------------

    def flops_per_sample(self) -> int:
        """Forward-pass floating-point operations per sample (estimate).

        The standard backward-pass estimate used by the performance model
        is 2x the forward count (one matmul each for data and weight
        gradients in dense layers).
        """
        return 0

    def param_count(self) -> int:
        return sum(w.size for w in self.weights)

    # -- subclass API ---------------------------------------------------------

    @abstractmethod
    def _build(self, input_shapes: list[Shape]) -> Shape:
        """Validate input shapes, create weights, return the output shape."""

    @abstractmethod
    def _forward(
        self, inputs: list[np.ndarray], training: bool, cache: dict
    ) -> np.ndarray:
        """Compute the layer output; stash backward context in ``cache``."""

    @abstractmethod
    def _backward(
        self, grad_output: np.ndarray, cache: dict, through: bool
    ) -> list[np.ndarray]:
        """Return input gradients; accumulate weight gradients unless
        ``through``."""

    # -- helpers -------------------------------------------------------------

    def _check_batch_shapes(self, inputs: list[np.ndarray]) -> None:
        assert self.input_shapes is not None
        if len(inputs) != len(self.input_shapes):
            raise ValueError(
                f"layer {self.name!r} expects {len(self.input_shapes)} inputs, "
                f"got {len(inputs)}"
            )
        for arr, expected in zip(inputs, self.input_shapes):
            lead = arr.ndim - len(expected)
            if lead < 1 or arr.shape[lead:] != expected:
                raise ValueError(
                    f"layer {self.name!r}: input shape {arr.shape} has no "
                    f"batch of built sample shape {expected}"
                )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, out={self.output_shape}, "
            f"params={self.param_count()})"
        )
