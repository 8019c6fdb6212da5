"""Execution backends: *where* population trainer work runs.

The population drivers (:mod:`repro.core.driver`) describe *what* a round
computes — train every trainer for an interval, hold the tournament,
evaluate — while this subsystem decides *where/how* the per-trainer work
executes.  The paper's core scaling claim (Jacobs et al., CLUSTER 2019)
is that LTFB populations scale because trainers are independent between
tournaments; the backends exploit exactly that independence:

- :class:`SerialBackend` — one trainer after another in the driver
  process (the reference behaviour, and the default);
- :class:`ThreadBackend` — a thread pool; NumPy/BLAS kernels release the
  GIL, so train intervals of different trainers overlap;
- :class:`ProcessBackend` — a persistent ``multiprocessing`` worker pool
  holding trainer replicas, fed one ``train`` command per trainer per
  round, with state shipped via the checkpoint flat-buffer codec and
  telemetry relayed back into the driver's hub.

Each backend implements only the train phase, as a stream of trainers in
completion order; :meth:`ExecutionBackend.train_round` is the one round
built on it, with a barrier (telemetry replayed in population order) or
without one (each trainer reported to the driver's ``on_ready`` as it
finishes).  All three produce bit-identical results at round boundaries:
within a round trainers share no mutable state (each has its own model,
optimizers and RNG streams), so execution order/placement cannot change
the math.
``resolve_backend`` coerces the driver-facing spec (``None``, a name, or
an instance) into a backend.
"""

from repro.exec.base import (
    BACKEND_NAMES,
    EventRecorder,
    ExecutionBackend,
    resolve_backend,
)
from repro.exec.serial import SerialBackend
from repro.exec.thread import ThreadBackend
from repro.exec.process import ProcessBackend

__all__ = [
    "ExecutionBackend",
    "EventRecorder",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
    "BACKEND_NAMES",
]
