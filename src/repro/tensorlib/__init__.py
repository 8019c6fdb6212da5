"""A from-scratch, vectorized NumPy neural-network substrate (LBANN analog).

The paper's LBANN framework represents a *model* as a directed acyclic
graph of tensor operations ("layers") plus trainable parameter tensors
("weights"), driven by an optimizer and fed by data readers.  This package
reproduces that architecture in pure NumPy:

- :mod:`repro.tensorlib.initializers` — weight initialization (Glorot
  uniform kernels, zero biases).
- :mod:`repro.tensorlib.functional` — vectorized activations and their
  derivatives (the numerical kernels).
- :mod:`repro.tensorlib.layers` — layer classes with explicit
  ``forward``/``backward`` and per-sample FLOP accounting.
- :mod:`repro.tensorlib.graph` — the layer DAG (networkx-backed) with
  topological forward/backward execution over a caller-owned ``Tape``.
- :mod:`repro.tensorlib.model` — ``Model``: graph + weights + state
  (de)serialization for LTFB model exchange.
- :mod:`repro.tensorlib.optimizers` — SGD / Momentum / Adam at a fixed
  learning rate.
- :mod:`repro.tensorlib.losses` — losses as (value, gradient) pairs.
- :mod:`repro.tensorlib.metrics` — streaming evaluation metrics.

All layer math is float32 by default, matching the paper's
single-precision training.
"""

from repro.tensorlib.initializers import Constant, GlorotUniform, Initializer, Zeros
from repro.tensorlib.weights import Weight
from repro.tensorlib.layers import (
    Activation,
    Concatenation,
    FullyConnected,
    Identity,
    Input,
    Layer,
    Slice,
)
from repro.tensorlib.graph import LayerGraph
from repro.tensorlib.model import Model, mlp
from repro.tensorlib.optimizers import SGD, Adam, Momentum, Optimizer
from repro.tensorlib import functional, losses, metrics

__all__ = [
    "Initializer",
    "Constant",
    "Zeros",
    "GlorotUniform",
    "Weight",
    "Layer",
    "Input",
    "Identity",
    "FullyConnected",
    "Activation",
    "Concatenation",
    "Slice",
    "LayerGraph",
    "Model",
    "mlp",
    "Optimizer",
    "SGD",
    "Momentum",
    "Adam",
    "functional",
    "losses",
    "metrics",
]
