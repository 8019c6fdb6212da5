"""Layer classes: the nodes of a model DAG."""

from repro.tensorlib.layers.base import Layer, LayerBuildError
from repro.tensorlib.layers.core import (
    Activation,
    Concatenation,
    FullyConnected,
    Identity,
    Input,
    Slice,
)

__all__ = [
    "Layer",
    "LayerBuildError",
    "Input",
    "Identity",
    "FullyConnected",
    "Activation",
    "Concatenation",
    "Slice",
]
