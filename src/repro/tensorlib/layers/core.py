"""Core layer implementations: dense, activation, regularization, plumbing."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensorlib import functional as F
from repro.tensorlib.initializers import GlorotUniform, Initializer, Zeros, Constant
from repro.tensorlib.layers.base import Layer, LayerBuildError, Shape

__all__ = [
    "Input",
    "Identity",
    "FullyConnected",
    "Activation",
    "Dropout",
    "BatchNorm",
    "Concatenation",
    "Slice",
    "Sum",
]


class Input(Layer):
    """Named entry point of a model graph.

    Declared with a fixed per-sample shape; the graph feeds batches into it
    and it passes them through unchanged (casting to float32).
    """

    def __init__(self, name: str, shape: Sequence[int]) -> None:
        super().__init__(name)
        self.declared_shape: Shape = tuple(int(d) for d in shape)

    def _build(self, input_shapes: list[Shape]) -> Shape:
        if input_shapes:
            raise LayerBuildError(f"Input layer {self.name!r} takes no parents")
        return self.declared_shape

    def _forward(self, inputs, training, cache):  # pragma: no cover - graph feeds directly
        raise RuntimeError("Input layers are fed by the graph, not forwarded")

    def _backward(self, grad_output, cache, through):  # pragma: no cover
        raise RuntimeError("Input layers have no backward pass")

    def feed(self, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float32)
        lead = batch.ndim - len(self.declared_shape)
        if lead < 1:
            raise ValueError(
                f"input {self.name!r} expects batched rank "
                f">= {len(self.declared_shape) + 1}, got shape {batch.shape}"
            )
        if batch.shape[lead:] != self.declared_shape:
            raise ValueError(
                f"input {self.name!r} expects sample shape {self.declared_shape}, "
                f"got {batch.shape[lead:]}"
            )
        return batch


class Identity(Layer):
    """Pass-through (useful as a named output tap)."""

    def _build(self, input_shapes: list[Shape]) -> Shape:
        if len(input_shapes) != 1:
            raise LayerBuildError(f"Identity {self.name!r} takes exactly one parent")
        return input_shapes[0]

    def _forward(self, inputs, training, cache):
        return inputs[0]

    def _backward(self, grad_output, cache, through):
        return [grad_output]


class FullyConnected(Layer):
    """Affine map ``y = x @ W + b`` over flattened per-sample features.

    Samples of higher rank are flattened; the FLOP count is the usual
    ``2 * n_in * n_out`` multiply-adds per sample.  A ``[k, b, n_in]`` stack
    through ``[k, n_in, n_out]`` kernels is k GEMMs at the unstacked shapes.
    """

    def __init__(
        self,
        name: str,
        units: int,
        kernel_init: Initializer | None = None,
        bias_init: Initializer | None = None,
        use_bias: bool = True,
    ) -> None:
        super().__init__(name)
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = int(units)
        self.kernel_init = kernel_init or GlorotUniform()
        self.bias_init = bias_init or Zeros()
        self.use_bias = bool(use_bias)
        self.kernel = None
        self.bias = None

    def _build(self, input_shapes: list[Shape]) -> Shape:
        if len(input_shapes) != 1:
            raise LayerBuildError(
                f"FullyConnected {self.name!r} takes exactly one parent"
            )
        n_in = int(np.prod(input_shapes[0]))
        self.kernel = self.add_weight("kernel", (n_in, self.units), self.kernel_init)
        if self.use_bias:
            self.bias = self.add_weight("bias", (self.units,), self.bias_init)
        return (self.units,)

    def _forward(self, inputs, training, cache):
        x = inputs[0]
        sample = self.input_shapes[0]
        if len(sample) > 1:
            x = x.reshape(x.shape[: x.ndim - len(sample)] + (-1,))
        cache["x"] = x
        y = np.matmul(x, self.kernel.value)
        if self.use_bias:
            y += self.bias.value[..., None, :]
        return y

    def _backward(self, grad_output, cache, through):
        x = cache["x"]
        if not through:
            self.kernel.accumulate_grad(np.matmul(x.swapaxes(-1, -2), grad_output))
            if self.use_bias:
                self.bias.accumulate_grad(grad_output.sum(axis=-2))
        dx = np.matmul(grad_output, self.kernel.value.swapaxes(-1, -2))
        return [dx.reshape(dx.shape[:-1] + self.input_shapes[0])]

    def flops_per_sample(self) -> int:
        n_in = int(np.prod(self.input_shapes[0]))
        return 2 * n_in * self.units


class Activation(Layer):
    """Elementwise nonlinearity from the :data:`repro.tensorlib.functional.ACTIVATIONS` registry."""

    def __init__(self, name: str, kind: str, **kwargs: float) -> None:
        super().__init__(name)
        if kind not in F.ACTIVATIONS:
            raise ValueError(
                f"unknown activation {kind!r}; available: {sorted(F.ACTIVATIONS)}"
            )
        if kind == "leaky_relu" and not 0.0 < kwargs.get("alpha", 0.2) < 1.0:
            raise ValueError(f"leaky_relu alpha must be in (0, 1), got {kwargs['alpha']}")
        self.kind = kind
        self.kwargs = dict(kwargs)
        self._fn, self._grad_fn = F.ACTIVATIONS[kind]

    def _build(self, input_shapes: list[Shape]) -> Shape:
        if len(input_shapes) != 1:
            raise LayerBuildError(f"Activation {self.name!r} takes exactly one parent")
        return input_shapes[0]

    def _forward(self, inputs, training, cache):
        x = inputs[0]
        y = self._fn(x, **self.kwargs)
        cache["x"], cache["y"] = x, y
        return y

    def _backward(self, grad_output, cache, through):
        local = self._grad_fn(cache["x"], cache["y"], **self.kwargs)
        return [grad_output * local]

    def flops_per_sample(self) -> int:
        # A handful of elementwise flops; 4 is a reasonable uniform estimate.
        return 4 * int(np.prod(self.input_shapes[0]))


class Dropout(Layer):
    """Inverted dropout: active only when ``training=True``.

    Draws its mask from the generator supplied at build time, so models are
    reproducible given their seed (a population stack draws one mask).
    """

    def __init__(self, name: str, rate: float) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)

    def _build(self, input_shapes: list[Shape]) -> Shape:
        if len(input_shapes) != 1:
            raise LayerBuildError(f"Dropout {self.name!r} takes exactly one parent")
        return input_shapes[0]

    def _forward(self, inputs, training, cache):
        x = inputs[0]
        if not training or self.rate == 0.0:
            cache["mask"] = None
            return x
        keep = 1.0 - self.rate
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype) / np.float32(keep)
        cache["mask"] = mask
        return x * mask

    def _backward(self, grad_output, cache, through):
        mask = cache["mask"]
        if mask is None:
            return [grad_output]
        return [grad_output * mask]


class BatchNorm(Layer):
    """Batch normalization of rank-1 features over the batch axis.

    Maintains running statistics as non-trainable weights so they travel
    with the model state during LTFB exchanges (a winning model's
    normalization statistics must move with it or evaluation on the new
    trainer's data would be inconsistent).
    """

    def __init__(
        self, name: str, momentum: float = 0.9, epsilon: float = 1e-5
    ) -> None:
        super().__init__(name)
        if not 0.0 < momentum < 1.0:
            raise ValueError(f"momentum must be in (0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)

    def _build(self, input_shapes: list[Shape]) -> Shape:
        if len(input_shapes) != 1 or len(input_shapes[0]) != 1:
            raise LayerBuildError(
                f"BatchNorm {self.name!r} requires a single rank-1 feature input"
            )
        (n,) = input_shapes[0]
        self.gamma = self.add_weight("gamma", (n,), Constant(1.0))
        self.beta = self.add_weight("beta", (n,), Zeros())
        self.running_mean = self.add_weight(
            "running_mean", (n,), Zeros(), trainable=False
        )
        self.running_var = self.add_weight(
            "running_var", (n,), Constant(1.0), trainable=False
        )
        return input_shapes[0]

    def _forward(self, inputs, training, cache):
        x = inputs[0]
        if training:
            mean = x.mean(axis=-2)
            var = x.var(axis=-2)
            m = self.momentum
            self.running_mean.value[...] = m * self.running_mean.value + (1 - m) * mean
            self.running_var.value[...] = m * self.running_var.value + (1 - m) * var
        else:
            mean = self.running_mean.value
            var = self.running_var.value
        inv_std = (1.0 / np.sqrt(var + self.epsilon))[..., None, :]
        x_hat = (x - mean[..., None, :]) * inv_std
        cache.update(x_hat=x_hat, inv_std=inv_std, training=training)
        return self.gamma.value[..., None, :] * x_hat + self.beta.value[..., None, :]

    def _backward(self, grad_output, cache, through):
        x_hat, inv_std = cache["x_hat"], cache["inv_std"]
        if not through:
            self.gamma.accumulate_grad((grad_output * x_hat).sum(axis=-2))
            self.beta.accumulate_grad(grad_output.sum(axis=-2))
        g = grad_output * self.gamma.value[..., None, :]
        if not cache["training"]:
            return [g * inv_std]
        # Standard batch-norm backward through the batch statistics.
        dx = (
            g - g.mean(-2, keepdims=True) - x_hat * (g * x_hat).mean(-2, keepdims=True)
        ) * inv_std
        return [dx]

    def flops_per_sample(self) -> int:
        return 8 * int(np.prod(self.input_shapes[0]))


class Concatenation(Layer):
    """Concatenate rank-1 feature inputs along the feature (last) axis."""

    def _build(self, input_shapes: list[Shape]) -> Shape:
        if not input_shapes:
            raise LayerBuildError(f"Concatenation {self.name!r} needs >= 1 parent")
        for s in input_shapes:
            if len(s) != 1:
                raise LayerBuildError(
                    f"Concatenation {self.name!r} requires rank-1 inputs, got {s}"
                )
        return (sum(s[0] for s in input_shapes),)

    def _forward(self, inputs, training, cache):
        cache["widths"] = [a.shape[-1] for a in inputs]
        return np.concatenate(inputs, axis=-1)

    def _backward(self, grad_output, cache, through):
        splits = np.cumsum(cache["widths"])[:-1]
        return list(np.split(grad_output, splits, axis=-1))


class Slice(Layer):
    """Select a half-open feature range ``[start, stop)`` of a rank-1 input."""

    def __init__(self, name: str, start: int, stop: int) -> None:
        super().__init__(name)
        if start < 0 or stop <= start:
            raise ValueError(f"invalid slice [{start}, {stop})")
        self.start, self.stop = int(start), int(stop)

    def _build(self, input_shapes: list[Shape]) -> Shape:
        if len(input_shapes) != 1 or len(input_shapes[0]) != 1:
            raise LayerBuildError(f"Slice {self.name!r} requires one rank-1 input")
        (n,) = input_shapes[0]
        if self.stop > n:
            raise LayerBuildError(
                f"Slice {self.name!r}: stop {self.stop} exceeds input width {n}"
            )
        return (self.stop - self.start,)

    def _forward(self, inputs, training, cache):
        cache["width"] = inputs[0].shape[-1]
        # A view, not a copy — the guide's "views over copies" idiom; the
        # consumer layers never mutate activations in place.
        return inputs[0][..., self.start : self.stop]

    def _backward(self, grad_output, cache, through):
        dx = np.zeros(grad_output.shape[:-1] + (cache["width"],), grad_output.dtype)
        dx[..., self.start : self.stop] = grad_output
        return [dx]


class Sum(Layer):
    """Elementwise sum of same-shaped inputs (residual connections)."""

    def _build(self, input_shapes: list[Shape]) -> Shape:
        if len(input_shapes) < 2:
            raise LayerBuildError(f"Sum {self.name!r} needs >= 2 parents")
        if len(set(input_shapes)) != 1:
            raise LayerBuildError(
                f"Sum {self.name!r} requires identical input shapes, got {input_shapes}"
            )
        return input_shapes[0]

    def _forward(self, inputs, training, cache):
        cache["n"] = len(inputs)
        out = inputs[0].copy()
        for a in inputs[1:]:
            out += a
        return out

    def _backward(self, grad_output, cache, through):
        return [grad_output] * cache["n"]

    def flops_per_sample(self) -> int:
        return (len(self.input_shapes) - 1) * int(np.prod(self.input_shapes[0]))
