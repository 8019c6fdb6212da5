"""Vectorized numerical kernels: activations and their derivatives.

Every activation is exposed as a pair ``f(x)`` and ``f_grad(x, y)`` where
``y = f(x)`` — passing the forward output into the gradient lets a
derivative (sigmoid's) be computed without re-evaluating the
transcendental, an in-place-friendly idiom that keeps the backward pass
memory-light (see the NumPy optimization guidance on in-place operations
and views).

All kernels accept and return float32 arrays and never mutate their inputs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "relu",
    "relu_grad",
    "leaky_relu",
    "leaky_relu_grad",
    "sigmoid",
    "sigmoid_grad",
    "softplus",
    "softplus_grad",
    "LEAKY_SLOPE",
    "ACTIVATIONS",
]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(x.dtype)


#: Negative-side slope of :func:`leaky_relu` (the CycleGAN's, every model's).
LEAKY_SLOPE = 0.2


def leaky_relu(x: np.ndarray) -> np.ndarray:
    # The np.where select, bit for bit, because 0 < LEAKY_SLOPE < 1.
    return np.maximum(x, LEAKY_SLOPE * x)


def leaky_relu_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, np.float32(1.0), np.float32(LEAKY_SLOPE)).astype(x.dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid: ``exp(min(x, 0)) / (1 + exp(-|x|))``.

    ``exp`` never sees a positive argument, so it cannot overflow for
    large-magnitude logits.  The numerator is ``exp(-|x|)`` for x < 0 and
    ``1`` for x >= 0: bit for bit the two well-conditioned forms a sign
    select would pick between, without the select.
    """
    num = np.exp(np.minimum(x, 0.0))
    den = np.exp(-np.abs(x))
    den += 1.0
    num /= den
    return num


def sigmoid_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


def softplus(x: np.ndarray) -> np.ndarray:
    """Stable softplus: max(x, 0) + log1p(exp(-|x|))."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return sigmoid(x)


# Registry used by the Activation layer: name -> (forward, grad).
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (relu, relu_grad),
    "leaky_relu": (leaky_relu, leaky_relu_grad),
    "sigmoid": (sigmoid, sigmoid_grad),
    "softplus": (softplus, softplus_grad),
}
