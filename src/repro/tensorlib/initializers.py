"""Weight initialization schemes.

Each initializer is a callable ``(shape, rng) -> ndarray`` returning a
float32 array.  Kernels draw Glorot & Bengio (2010) uniform values with
fans taken from a 2-D shape ``(fan_in, fan_out)``; for 1-D shapes (biases)
both fans equal the length.  Biases start at zero.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

__all__ = [
    "Initializer",
    "Constant",
    "Zeros",
    "GlorotUniform",
]

DTYPE = np.float32


def _fans(shape: Sequence[int]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for a weight shape."""
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return int(shape[0]), int(shape[0])
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return int(shape[0]) * receptive, int(shape[1]) * receptive


class Initializer(ABC):
    """Base class for weight initializers."""

    @abstractmethod
    def __call__(self, shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """Return a freshly initialized float32 array of the given shape."""

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({attrs})"


class Constant(Initializer):
    """Fill with a constant value."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def __call__(self, shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        return np.full(shape, self.value, dtype=DTYPE)


class Zeros(Constant):
    """Fill with zeros (the conventional bias initializer)."""

    def __init__(self) -> None:
        super().__init__(0.0)


class GlorotUniform(Initializer):
    """Glorot/Xavier uniform: U(±sqrt(6 / (fan_in + fan_out)))."""

    def __call__(self, shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        fan_in, fan_out = _fans(shape)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape).astype(DTYPE)
