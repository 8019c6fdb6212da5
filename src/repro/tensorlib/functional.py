"""Vectorized numerical kernels: activations and their derivatives.

Every activation is exposed as a pair ``f(x)`` and ``f_grad(x, y)`` where
``y = f(x)`` — passing the forward output into the gradient lets several
derivatives (sigmoid, tanh, elu) be computed without re-evaluating the
transcendental, an in-place-friendly idiom that keeps the backward pass
memory-light (see the NumPy optimization guidance on in-place operations
and views).

All kernels accept and return float32 arrays and never mutate their inputs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "identity",
    "identity_grad",
    "relu",
    "relu_grad",
    "leaky_relu",
    "leaky_relu_grad",
    "elu",
    "elu_grad",
    "sigmoid",
    "sigmoid_grad",
    "tanh",
    "tanh_grad",
    "softplus",
    "softplus_grad",
    "ACTIVATIONS",
    "log_sigmoid",
]


def identity(x: np.ndarray) -> np.ndarray:
    return x


def identity_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(x.dtype)


def leaky_relu(x: np.ndarray, alpha: float = 0.2) -> np.ndarray:
    # The np.where select, bit for bit, for 0 < alpha < 1 (Activation checks).
    return np.maximum(x, alpha * x)


def leaky_relu_grad(x: np.ndarray, y: np.ndarray, alpha: float = 0.2) -> np.ndarray:
    return np.where(x > 0.0, np.float32(1.0), np.float32(alpha)).astype(x.dtype)


def elu(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    # expm1 is accurate near zero; clip the negative branch input to avoid
    # overflow warnings for very negative pre-activations.
    neg = alpha * np.expm1(np.minimum(x, 0.0))
    return np.where(x > 0.0, x, neg).astype(x.dtype)


def elu_grad(x: np.ndarray, y: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    # For x <= 0, d/dx alpha*(e^x - 1) = alpha*e^x = y + alpha.
    return np.where(x > 0.0, np.float32(1.0), y + np.float32(alpha)).astype(x.dtype)


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


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) computed stably: -softplus(-x)."""
    return -softplus(-x)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 - y * y


def softplus(x: np.ndarray) -> np.ndarray:
    """Stable softplus: max(x, 0) + log1p(exp(-|x|))."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return sigmoid(x)


# Registry used by the Activation layer: name -> (forward, grad).
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "identity": (identity, identity_grad),
    "relu": (relu, relu_grad),
    "leaky_relu": (leaky_relu, leaky_relu_grad),
    "elu": (elu, elu_grad),
    "sigmoid": (sigmoid, sigmoid_grad),
    "tanh": (tanh, tanh_grad),
    "softplus": (softplus, softplus_grad),
}
