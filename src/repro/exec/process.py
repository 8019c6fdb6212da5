"""ProcessBackend: a persistent multiprocessing pool of trainer replicas.

Layout: the population is split round-robin over N worker processes; each
worker holds live replicas of its trainers (shipped once, at bind time)
and services commands over a pipe, one at a time, in arrival order:

- ``train <name>`` — run the round's train interval on one named replica
  and reply with its losses, the buffered telemetry events, a state
  snapshot (:func:`~repro.core.checkpoint.capture_exec_state`, reader
  included) and the worker tracer's wall-clock origin.  The command
  carries a *tracing* flag: when the driver's hub has a span tracer,
  workers produce spans too (each replica's recorder gets a child of one
  persistent worker tracer).  Worker monotonic clocks are unrelated to
  the driver's, so the driver shifts every span's ``t0_s`` by the
  wall-clock offset between the worker's origin and the hub's — aligning
  all worker timelines onto the hub's axis (clock-offset alignment);
- ``sample`` — reply with one ``resource_sample`` payload of the *worker
  process itself* (peak RSS / CPU; see :mod:`repro.telemetry.resources`);
- ``apply`` — load driver-pushed state deltas (tournament adoptions) into
  named replicas, leaving their in-flight data pipelines untouched;
- ``admit`` — grow the worker-side sample universe: admit driver-streamed
  samples into every replica reader that has an ``ingest_admit`` hook and
  suspend its data pipeline, mirroring what the driver-side
  :class:`~repro.ingest.StreamingSource` poll just did;
- ``stop`` — exit.

A round queues one ``train`` per trainer (so each worker trains its
trainers in local population order) and one trailing ``sample`` per
worker, then multiplexes the replies across all worker pipes as they
arrive: each trainer is reported in true completion order, and the
samples are emitted after the round's trainer events, in worker order.

Mid-epoch trainers ship cleanly: pickling a trainer folds its live data
pipeline into a serializable plan cursor (see ``Trainer.__getstate__``),
and the worker replica rebuilds the pipeline — at the trainer's prefetch
depth — on its first batch.

The driver-side trainers stay authoritative for everything the driver
computes (tournaments, evaluation, checkpoints): as each ``train`` reply
lands, the trainer's model/optimizer/counter/reader-RNG state is
overwritten with the worker snapshot, so the two copies agree at round
boundaries and the run is bit-identical to serial.

Trainers within one worker share one pickled object graph, so replicas of
the frozen autoencoder stay shared per worker exactly as in the serial
process (and are mutated only by one trainer at a time, since a worker is
sequential).
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
from multiprocessing.connection import wait

from repro.exec.base import EventRecorder, ExecutionBackend
from repro.telemetry.events import RESOURCE_SAMPLE, SPAN

__all__ = ["ProcessBackend"]

_JOIN_TIMEOUT_S = 10.0


def _worker_main(conn, worker_index: int, trainers_payload: bytes) -> None:
    """Entry point of one worker process: replicas + command loop."""
    from repro.core.checkpoint import apply_exec_state, capture_exec_state
    from repro.telemetry.resources import sample_resources
    from repro.telemetry.spans import Tracer

    trainers = pickle.loads(trainers_payload)
    by_name = {t.name: t for t in trainers}
    for t in trainers:
        t.backend_name = "process"
        t.worker_index = worker_index
    # One persistent tracer per worker (lazily created on the first traced
    # train command) so every span this process ever produces shares one
    # epoch/wall-origin pair — the driver aligns them all with a single
    # per-worker offset.
    base_tracer = None
    try:
        while True:
            msg = conn.recv()
            cmd = msg[0]
            try:
                if cmd == "train":
                    _, name, n_steps, tracing = msg
                    if tracing and base_tracer is None:
                        base_tracer = Tracer(None)
                    t = by_name[name]
                    recorder = EventRecorder()
                    if tracing:
                        recorder.tracer = base_tracer.child(recorder)
                    t.telemetry = recorder
                    try:
                        losses = t.train_steps(n_steps)
                    finally:
                        t.telemetry = None
                    reply = (
                        name,
                        losses,
                        # Snapshot: a live prefetch thread may still be
                        # appending to the recorder.
                        list(recorder.events),
                        capture_exec_state(t, include_reader=True),
                        base_tracer.wall_origin if tracing else None,
                    )
                elif cmd == "sample":
                    reply = {
                        "source": f"worker{worker_index}",
                        "backend": "process",
                        "worker": worker_index,
                        **sample_resources(),
                    }
                elif cmd == "apply":
                    for name, payload in msg[1]:
                        apply_exec_state(by_name[name], payload)
                    reply = None
                elif cmd == "admit":
                    samples, version = msg[1], msg[2]
                    # Replicas in this worker share one pickled object
                    # graph, so readers sharing a universe admit once and
                    # the version cross-check passes idempotently.
                    for t in trainers:
                        reader = getattr(t, "reader", None)
                        admit = getattr(reader, "ingest_admit", None)
                        if admit is None:
                            continue
                        admit(samples, version=version)
                        t.suspend_data_pipeline()
                    reply = None
                elif cmd == "stop":
                    conn.send(("ok", None))
                    return
                else:  # pragma: no cover - protocol misuse
                    raise ValueError(f"unknown command {cmd!r}")
                conn.send(("ok", reply))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # driver went away
        return
    finally:
        conn.close()


class ProcessBackend(ExecutionBackend):
    """Train trainers on a persistent pool of worker processes, one per
    execution slot (:attr:`num_workers`).  Replicas are shipped as
    explicit pickle payloads, so behaviour does not depend on the
    platform's start method."""

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        prefetch_depth: int | None = None,
    ) -> None:
        super().__init__(max_workers=max_workers, prefetch_depth=prefetch_depth)
        self._procs: list = []
        self._conns: list = []
        self._owner: dict[str, int] = {}  # trainer name -> worker index
        self._dirty: set[str] = set()
        self._worker_samples: list[dict] = []

    # -- lifecycle -----------------------------------------------------------

    def _on_bind(self) -> None:
        n = self.num_workers
        groups: list[list] = [[] for _ in range(n)]
        for i, t in enumerate(self._trainers):
            wid = self.worker_of(i, n)
            groups[wid].append(t)
            self._owner[t.name] = wid
            t.backend_name = self.name
            t.worker_index = wid
        self._procs, self._conns = [], []
        for wid, group in enumerate(groups):
            # Strip driver-side telemetry before pickling (hubs may hold
            # open files); one payload per worker keeps objects shared by
            # its trainers (the frozen autoencoder) shared in the replica.
            saved = [t.telemetry for t in group]
            try:
                for t in group:
                    t.telemetry = None
                payload = pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL)
            finally:
                for t, hub in zip(group, saved):
                    t.telemetry = hub
            parent_conn, child_conn = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_worker_main,
                args=(child_conn, wid, payload),
                daemon=True,
                name=f"repro-exec-{wid}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        self._dirty = set()

    def _on_release(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(_JOIN_TIMEOUT_S):
                    conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=_JOIN_TIMEOUT_S)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join()
        self._procs, self._conns = [], []
        self._owner, self._dirty = {}, set()

    # -- protocol ---------------------------------------------------------------

    def _send(self, worker_index: int, msg) -> None:
        try:
            self._conns[worker_index].send(msg)
        except (BrokenPipeError, OSError):
            raise RuntimeError(
                f"execution worker {worker_index} died unexpectedly"
            ) from None

    def _recv(self, worker_index: int):
        try:
            tag, data = self._conns[worker_index].recv()
        except EOFError:
            raise RuntimeError(
                f"execution worker {worker_index} died unexpectedly"
            ) from None
        if tag == "error":
            raise RuntimeError(
                f"execution worker {worker_index} failed:\n{data}"
            )
        return data

    def _flush_dirty(self) -> None:
        if not self._dirty:
            return
        from repro.core.checkpoint import capture_exec_state

        by_name = {t.name: t for t in self._trainers}
        per_worker: dict[int, list] = {}
        for name in sorted(self._dirty):
            payload = capture_exec_state(by_name[name], include_reader=False)
            per_worker.setdefault(self._owner[name], []).append((name, payload))
        for wid, updates in per_worker.items():
            self._send(wid, ("apply", updates))
        for wid in per_worker:
            self._recv(wid)
        self._dirty.clear()

    def mark_dirty(self, trainer_name: str) -> None:
        if trainer_name not in self._owner:
            raise ValueError(f"unknown trainer {trainer_name!r}")
        self._dirty.add(trainer_name)

    def ingest_admit(self, samples, version: int) -> None:
        """Broadcast freshly admitted streamed samples to every worker.

        Each worker grows its replica readers' (shared) universe to the
        same ``version`` the driver just reached and suspends replica
        pipelines, so the next worker-side epoch plan freezes the same
        snapshot the driver's plan cursor records.  Samples travel as
        plain :class:`~repro.ingest.StreamedSample` payloads over the
        pipe; admission is idempotent on sample id.
        """
        payload = list(samples)
        for wid in range(len(self._conns)):
            self._send(wid, ("admit", payload, version))
        for wid in range(len(self._conns)):
            self._recv(wid)

    # -- per-round work -------------------------------------------------------

    def _train_intervals(self, n_steps: int):
        """Queue one ``train`` per trainer and one ``sample`` per worker,
        then multiplex the replies across worker pipes in arrival order.

        Each trainer's snapshot is applied the moment its reply lands,
        before it is yielded; tournament adoptions made while the round
        is still running are pushed with the next round's dirty flush.
        """
        assert self._telemetry is not None
        # Imported per call, not per module, so instrumentation that
        # replaces the checkpoint module's functions sees these calls.
        from repro.core.checkpoint import apply_exec_state

        self._flush_dirty()
        tracing = self._telemetry.tracer is not None
        outstanding = [0] * len(self._conns)
        for t in self._trainers:
            wid = self._owner[t.name]
            self._send(wid, ("train", t.name, n_steps, tracing))
            outstanding[wid] += 1
        for wid in range(len(self._conns)):
            self._send(wid, ("sample",))
            outstanding[wid] += 1
        by_name = {t.name: t for t in self._trainers}
        wid_of = {conn: wid for wid, conn in enumerate(self._conns)}
        self._worker_samples = [{}] * len(self._conns)
        while any(outstanding):
            busy = [c for c, n in zip(self._conns, outstanding) if n]
            for conn in wait(busy):
                wid = wid_of[conn]
                reply = self._recv(wid)
                outstanding[wid] -= 1
                if not outstanding[wid]:  # a worker's last reply: its sample
                    self._worker_samples[wid] = reply
                    continue
                name, losses, events, state, worker_wall = reply
                apply_exec_state(by_name[name], state)
                # Clock-offset alignment: worker span timestamps are
                # offsets from the *worker* tracer's epoch; shifting by the
                # wall-clock delta between the worker's and the hub's
                # origins places them on the hub's time axis (good to
                # NTP-ish precision, which is plenty within one host).
                offset = 0.0
                if worker_wall is not None:
                    offset = worker_wall - self._telemetry.wall_origin
                recorder = EventRecorder()
                recorder.events = [
                    (etype, {**payload, "t0_s": payload["t0_s"] + offset})
                    if etype == SPAN and offset
                    else (etype, payload)
                    for etype, payload in events
                ]
                yield name, losses, recorder

    def _emit_resource_samples(self) -> None:
        # One resource series entry per worker process, worker order.
        if self._telemetry.active:
            for payload in self._worker_samples:
                self._telemetry.emit(RESOURCE_SAMPLE, **payload)
