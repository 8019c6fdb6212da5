"""Where the layer boundaries are: which public functions get a proxy.

A layer is a package under ``src/repro``; a span is named
``<layer>.<what>`` and its self time is charged to that layer.  The table
below is the whole instrumentation of a traced run -- class-level patches
of public methods, installed before the workload is built (so forked
execution workers inherit them, though only the driver process's spans
are read) and removed afterwards.  Per-instance proxies (the driver's
round, topology and backend, the observability callbacks) are added by
the workload once those objects exist.
"""

from __future__ import annotations

import importlib

from spans import Recorder

__all__ = ["CLASS_PROXIES", "install", "proxy_instances", "layer_of", "LAYERS"]

#: Layers that carry per-layer metrics, in budget-table order.
LAYERS = (
    "tensorlib", "models", "datastore", "core", "exec", "jag", "workflow",
    "ingest", "telemetry", "eval", "serve", "loadgen",
)

#: (module, owner or None for a module attribute, attribute, span name,
#: fold_under)
CLASS_PROXIES = (
    ("repro.tensorlib.model", "Model", "predict", "tensorlib.predict", None),
    # An inference forward belongs to the predict span that made it.
    ("repro.tensorlib.model", "Model", "forward", "tensorlib.forward", "tensorlib.predict"),
    ("repro.tensorlib.model", "Model", "backward", "tensorlib.backward", None),
    ("repro.tensorlib.optimizers", "Optimizer", "step", "tensorlib.optimizer", None),
    ("repro.models.autoencoder", "MultimodalAutoencoder", "encode", "models.encode", None),
    ("repro.models.autoencoder", "MultimodalAutoencoder", "decode", "models.decode", None),
    ("repro.models.cyclegan", "ICFSurrogate", "train_step", "models.train_step", None),
    ("repro.models.cyclegan", "ICFSurrogate", "evaluate", "models.evaluate", None),
    ("repro.datastore.reader", "Reader", "plan_epoch", "datastore.plan", None),
    ("repro.datastore.reader", "Reader", "materialize", "datastore.materialize", None),
    ("repro.datastore.store", "DistributedDataStore", "fetch_batch", "datastore.store_fetch", None),
    ("repro.datastore.store", "DistributedDataStore", "admit", "datastore.store_admit", None),
    ("repro.core.trainer", "Trainer", "train_steps", "core.train_interval", None),
    ("repro.core.trainer", "Trainer", "evaluate", "core.eval_phase", None),
    ("repro.core.trainer", "Trainer", "exchange_package", "core.exchange", None),
    ("repro.core.trainer", "Trainer", "adopt_package", "core.exchange", None),
    ("repro.core.checkpoint", "CheckpointStore", "save_population", "core.checkpoint_save", None),
    ("repro.core.checkpoint", "CheckpointStore", "load_ensemble", "core.checkpoint_load", None),
    # The process backend imports these two at call time, so the module
    # attribute is what it sees; no other backend calls them.
    ("repro.core.checkpoint", None, "capture_exec_state", "exec.state", None),
    ("repro.core.checkpoint", None, "apply_exec_state", "exec.state", None),
    ("repro.ingest.source", "StreamingSource", "poll", "ingest.poll", None),
    ("repro.ingest.producer", "StreamingCampaign", "pump", "ingest.pump", None),
    ("repro.ingest.producer", "StreamingCampaign", "task_sample", "jag.simulate", None),
    ("repro.ingest.universe", "SampleUniverse", "admit", "ingest.universe_admit", None),
    ("repro.ingest.universe", "StreamReader", "ingest_admit", "ingest.reader_admit", None),
    ("repro.telemetry.events", "TelemetryHub", "emit", "telemetry.emit", None),
    ("repro.serve.server", "SurrogateServer", "submit", "serve.submit", None),
    # The response cache is not proxied: three more spans per request
    # halve closed-loop capacity (both threads contend for the interpreter
    # lock); its hit ratio comes from the server's own counters.
    ("repro.serve.runtime", "GeneratorRuntime", "predict", "serve.forward", None),
    ("repro.serve.registry", "ModelRegistry", "refresh", "serve.reload", None),
    ("repro.serve.registry", "ModelRegistry", "load", "serve.registry_load", None),
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _proxy_iter_results(recorder: Recorder) -> None:
    """``EnsembleWorkflow.iter_results`` is a generator: the work happens
    in ``next()``, so the proxy spans each resumption, not the call."""
    from repro.workflow.engine import EnsembleWorkflow

    original = EnsembleWorkflow.iter_results

    def iter_results(self, task_times):
        inner = original(self, task_times)
        while True:
            recorder.begin("workflow.iter_results")
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                recorder.end()
            yield item

    recorder.replace(EnsembleWorkflow, "iter_results", iter_results)


def _count_state_bytes(recorder: Recorder) -> None:
    """Bytes of exec state the driver process captures (dirty re-sync) and
    applies (worker snapshots after every train command)."""
    from repro.core import checkpoint

    capture, apply = checkpoint.capture_exec_state, checkpoint.apply_exec_state

    def capture_exec_state(trainer, include_reader=True):
        payload = capture(trainer, include_reader)
        recorder.counters["exec.state_bytes"] += len(payload)
        return payload

    def apply_exec_state(trainer, payload):
        recorder.counters["exec.state_bytes"] += len(payload)
        return apply(trainer, payload)

    recorder.replace(checkpoint, "capture_exec_state", capture_exec_state)
    recorder.replace(checkpoint, "apply_exec_state", apply_exec_state)


def install(recorder: Recorder) -> None:
    """Patch every class-level layer boundary; ``recorder.restore()`` undoes it."""
    for module, owner, attr, name, fold_under in CLASS_PROXIES:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        recorder.patch(target, attr, name, fold_under)
    _proxy_iter_results(recorder)
    _count_state_bytes(recorder)


def proxy_instances(recorder: Recorder, driver, callbacks=()) -> None:
    """Per-object proxies of one training run: the round, the tournament,
    the train phase (named for the layer that executes it) and the
    observability callbacks handed to ``driver.run``."""
    recorder.patch(driver, "run_round", "core.run_round")
    recorder.patch(driver.topology, "exchange", "core.tournament")
    if driver.backend.name == "process":
        recorder.patch(driver.backend, "bind", "exec.bind")
        recorder.patch(driver.backend, "train_round", "exec.train_round")
    else:
        recorder.patch(driver.backend, "train_round", "core.train_phase")
    for name, callback in callbacks:
        recorder.patch(callback, "handle", name)
