"""The model DAG: layers wired by name, executed in topological order.

Uses :mod:`networkx` for cycle detection and topological sorting, matching
LBANN's representation of a model as a DAG of tensor operations.  Parent
*order* is semantically meaningful (e.g. ``Slice`` vs ``Concatenation``
operands), so ordered parent lists are kept alongside the graph edges.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.tensorlib.layers import Input, Layer
from repro.utils.rng import RngFactory

__all__ = ["LayerGraph", "GraphError", "Tape"]


class GraphError(RuntimeError):
    """Raised for structural problems: duplicate names, cycles, bad wiring."""


class Tape:
    """One forward pass's backward context, owned by the caller: each
    layer's cache, each activation's shape (for the gradient-shape check)
    and whether a :meth:`LayerGraph.backward` has consumed it."""

    def __init__(self, graph: "LayerGraph") -> None:
        self.graph = graph
        self.caches: dict[str, dict] = {}
        self.shapes: dict[str, tuple[int, ...]] = {}
        self.consumed = False


class LayerGraph:
    """A directed acyclic graph of layers.

    Layers are added with :meth:`add` together with their (ordered)
    parents, then the whole graph is shape-inferred and weight-initialized
    in one :meth:`build` call.

    Example
    -------
    >>> from repro.tensorlib import layers as L
    >>> from repro.utils.rng import RngFactory
    >>> g = LayerGraph()
    >>> _ = g.add(L.Input("x", shape=(5,)))
    >>> _ = g.add(L.FullyConnected("fc", units=3), parents=["x"])
    >>> g.build(RngFactory(0))
    >>> import numpy as np
    >>> out, tape = g.forward({"x": np.zeros((2, 5))}, outputs=["fc"])
    >>> out["fc"].shape
    (2, 3)
    >>> g.backward({"fc": np.ones((2, 3))}, tape)["x"].shape
    (2, 5)
    """

    def __init__(self) -> None:
        self._nx = nx.DiGraph()
        self._layers: dict[str, Layer] = {}
        self._parents: dict[str, list[str]] = {}
        self._order: list[str] | None = None
        # Fixed by the wiring, so kept rather than re-derived per pass.
        self._inputs: dict[str, Input] = {}
        self._sinks: list[str] = []

    # -- construction --------------------------------------------------------

    def add(self, layer: Layer, parents: Sequence[str] = ()) -> Layer:
        """Register a layer below the named parents; returns the layer."""
        if layer.name in self._layers:
            raise GraphError(f"duplicate layer name {layer.name!r}")
        if self._order is not None:
            raise GraphError("cannot add layers after build()")
        for p in parents:
            if p not in self._layers:
                raise GraphError(
                    f"layer {layer.name!r} references unknown parent {p!r}"
                )
        if isinstance(layer, Input) and parents:
            raise GraphError(f"Input layer {layer.name!r} cannot have parents")
        self._layers[layer.name] = layer
        self._parents[layer.name] = list(parents)
        if isinstance(layer, Input):
            self._inputs[layer.name] = layer
        self._nx.add_node(layer.name)
        for p in parents:
            self._nx.add_edge(p, layer.name)
        return layer

    def build(self, rngs: RngFactory) -> None:
        """Infer shapes and initialize weights in topological order."""
        if self._order is not None:
            raise GraphError("graph already built")
        if not nx.is_directed_acyclic_graph(self._nx):
            cycle = nx.find_cycle(self._nx)
            raise GraphError(f"layer graph contains a cycle: {cycle}")
        # Deterministic topological order: lexicographic tie-breaking keeps
        # builds (and hence weight init draws) independent of dict order.
        self._order = list(nx.lexicographical_topological_sort(self._nx))
        self._sinks = [n for n in self._order if self._nx.out_degree(n) == 0]
        for name in self._order:
            layer = self._layers[name]
            parent_shapes = [self._layers[p].output_shape for p in self._parents[name]]
            layer.build(parent_shapes, rngs.generator(name))

    # -- introspection ---------------------------------------------------------

    @property
    def layers(self) -> dict[str, Layer]:
        return dict(self._layers)

    @property
    def input_names(self) -> list[str]:
        return list(self._inputs)

    def topological_order(self) -> list[str]:
        if self._order is None:
            raise GraphError("graph not built")
        return list(self._order)

    def all_weights(self) -> list:
        """All weights, in deterministic topological-layer order."""
        out = []
        for name in self.topological_order():
            out.extend(self._layers[name].weights)
        return out

    def flops_per_sample(self) -> int:
        """Total forward FLOPs per sample across all layers."""
        return sum(l.flops_per_sample() for l in self._layers.values() if l.built)

    # -- execution ---------------------------------------------------------------

    def forward(
        self,
        feeds: Mapping[str, np.ndarray],
        outputs: Iterable[str] | None = None,
        training: bool = False,
    ) -> tuple[dict[str, np.ndarray], Tape]:
        """Run a forward pass; returns ``(activations, tape for backward)``.

        Parameters
        ----------
        feeds:
            Batch arrays keyed by ``Input`` layer name.  All inputs must be
            fed and all batches must agree on the leading dimensions (the
            batch, or population and batch, before the sample shape).
        outputs:
            Names of layers whose activations to return (default: all sink
            layers).
        training:
            Enables dropout masks and batch-statistics updates.
        """
        order = self.topological_order()
        inputs = self._inputs
        missing = inputs.keys() - feeds.keys()
        if missing:
            raise GraphError(f"missing feeds for inputs: {sorted(missing)}")
        unknown = feeds.keys() - inputs.keys()
        if unknown:
            raise GraphError(f"feeds for non-input layers: {sorted(unknown)}")
        batch_sizes = {
            np.shape(v)[: np.ndim(v) - len(inputs[n].declared_shape)]
            for n, v in feeds.items()
        }
        if len(batch_sizes) > 1:
            raise GraphError(f"inconsistent batch sizes in feeds: {batch_sizes}")

        tape = Tape(self)
        acts: dict[str, np.ndarray] = {}
        for name in order:
            layer = self._layers[name]
            if name in inputs:
                acts[name] = layer.feed(feeds[name])
            else:
                parent_acts = [acts[p] for p in self._parents[name]]
                acts[name], tape.caches[name] = layer.forward(parent_acts, training)
            tape.shapes[name] = acts[name].shape

        if outputs is None:
            outputs = self._sinks
        try:
            return {n: acts[n] for n in outputs}, tape
        except KeyError as e:
            raise GraphError(f"unknown output layer {e.args[0]!r}") from None

    def backward(
        self, output_grads: Mapping[str, np.ndarray], tape: Tape, through: bool = False
    ) -> dict[str, np.ndarray]:
        """Back-propagate the output gradients through ``tape``'s pass (once).

        Accumulates weight gradients in every traversed layer and returns
        the gradients that reach each ``Input`` layer (useful when chaining
        models, e.g. pushing the adversarial gradient from a discriminator
        into a generator).  ``through=True`` is the pass for a frozen
        graph: the same input gradients, no weight gradient computed or
        touched.
        """
        if tape.graph is not self:
            raise GraphError("backward() with a tape from another graph's forward()")
        if tape.consumed:
            raise GraphError("backward() with a tape a backward() already consumed")
        order = self.topological_order()
        grads: dict[str, np.ndarray] = {}
        for name, g in output_grads.items():
            if name not in tape.shapes:
                raise GraphError(f"gradient for layer {name!r} the tape did not run")
            g = np.asarray(g, dtype=np.float32)
            if g.shape != tape.shapes[name]:
                raise GraphError(
                    f"gradient shape {g.shape} != activation shape "
                    f"{tape.shapes[name]} for layer {name!r}"
                )
            grads[name] = g.copy()

        tape.consumed = True
        for name in reversed(order):
            if name in self._inputs or name not in grads:
                continue
            layer = self._layers[name]
            parent_grads = layer.backward(grads.pop(name), tape.caches.pop(name), through)
            for p, pg in zip(self._parents[name], parent_grads):
                grads[p] = grads[p] + pg if p in grads else pg

        return {n: grads[n] for n in self._inputs if n in grads}
