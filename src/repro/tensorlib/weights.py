"""Trainable parameter tensors.

A :class:`Weight` pairs a value array with a same-shaped gradient
accumulator.  Layers *accumulate* into ``grad`` during backward (so one
weight may be shared by several layers, and multiple backward passes per
optimizer step — the GAN phases — compose additively); optimizers consume
``grad`` and the training loop calls :meth:`Weight.zero_grad` between
steps.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Weight"]


class Weight:
    """A named trainable tensor with a gradient accumulator.

    Parameters
    ----------
    name:
        Unique name within the owning model, e.g. ``"fc1/kernel"``.
    value:
        Initial value; stored as float32 and owned by this object.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray) -> None:
        if not name:
            raise ValueError("weight name must be non-empty")
        self.name = name
        self.value = np.asarray(value, dtype=np.float32).copy()
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    @property
    def nbytes(self) -> int:
        return int(self.value.nbytes)

    def zero_grad(self) -> None:
        """Reset the gradient accumulator in place (no reallocation)."""
        self.grad[...] = 0.0

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add a gradient contribution in place."""
        if g.shape != self.grad.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match weight "
                f"{self.name!r} shape {self.grad.shape}"
            )
        self.grad += g

    def assign(self, value: np.ndarray) -> None:
        """Overwrite the value in place (shape-checked)."""
        value = np.asarray(value, dtype=np.float32)
        if value.shape != self.value.shape:
            raise ValueError(
                f"cannot assign shape {value.shape} to weight {self.name!r} "
                f"of shape {self.value.shape}"
            )
        self.value[...] = value

    def __repr__(self) -> str:
        return f"Weight({self.name!r}, shape={self.shape})"
