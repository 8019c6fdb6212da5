"""ProcessBackend: a persistent multiprocessing pool of trainer replicas.

Layout: the population is split round-robin over N worker processes; each
worker holds live replicas of its trainers (shipped once, at bind time)
and services per-round commands over a pipe:

- ``train`` — run the round's train interval on every local replica, in
  local population order, and reply with per-trainer losses, the buffered
  telemetry events, a state snapshot
  (:func:`~repro.core.checkpoint.capture_exec_state`, reader included),
  and one ``resource_sample`` payload of the *worker process itself*
  (peak RSS / CPU; see :mod:`repro.telemetry.resources`) which the driver
  re-emits into its hub after the trainer events.
  The command carries a *tracing* flag: when the driver's hub has a span
  tracer, workers produce spans too (each replica's recorder gets a child
  of one persistent worker tracer) and the reply includes the worker
  tracer's wall-clock origin.  Worker monotonic clocks are unrelated to
  the driver's, so at relay time the driver shifts every span's ``t0_s``
  by the wall-clock offset between the two origins — aligning all worker
  timelines onto the hub's axis (clock-offset alignment);
- ``train_one`` — the barrier-free variant: run the interval on *one*
  named replica and reply immediately with that trainer's losses, events,
  state snapshot, and the worker tracer's wall origin.  The driver queues
  one ``train_one`` per local trainer and multiplexes replies across all
  worker pipes as they arrive, reporting readiness in true completion
  order (see :meth:`ProcessBackend.train_round_async`);
- ``sample`` — reply with one ``resource_sample`` payload of the worker
  process (queued after a round of ``train_one`` commands, where the
  ``train`` command would have included it);
- ``apply`` — load driver-pushed state deltas (tournament adoptions) into
  named replicas, leaving their in-flight data pipelines untouched;
- ``admit`` — grow the worker-side sample universe: admit driver-streamed
  samples into every replica reader that has an ``ingest_admit`` hook and
  suspend its data pipeline, mirroring what the driver-side
  :class:`~repro.ingest.StreamingSource` poll just did;
- ``stop`` — exit.

Mid-epoch trainers ship cleanly: pickling a trainer folds its live data
pipeline into a serializable plan cursor (see ``Trainer.__getstate__``),
and the worker replica rebuilds the pipeline — at the trainer's prefetch
depth — on its first batch.

The driver-side trainers stay authoritative for everything the driver
computes (tournaments, evaluation, checkpoints): after every train
command their model/optimizer/counter/reader-RNG state is overwritten
with the worker snapshot, so the two copies agree at round boundaries and
the run is bit-identical to serial.  Telemetry events cross back over the
reply and are re-emitted into the driver's hub in population order.

Trainers within one worker share one pickled object graph, so replicas of
the frozen autoencoder stay shared per worker exactly as in the serial
process (and are mutated only by one trainer at a time, since a worker is
sequential).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback

from repro.exec.base import EventRecorder, ExecutionBackend

__all__ = ["ProcessBackend"]

_JOIN_TIMEOUT_S = 10.0


def _worker_main(conn, worker_index: int, trainers_payload: bytes) -> None:
    """Entry point of one worker process: replicas + command loop."""
    from repro.core.checkpoint import apply_exec_state, capture_exec_state
    from repro.telemetry.resources import sample_resources

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
                    n_steps = msg[1]
                    tracing = bool(msg[2]) if len(msg) > 2 else False
                    if tracing and base_tracer is None:
                        from repro.telemetry.spans import Tracer

                        base_tracer = Tracer(None)
                    results = []
                    for t in trainers:
                        recorder = EventRecorder()
                        if tracing:
                            recorder.tracer = base_tracer.child(recorder)
                        t.telemetry = recorder
                        try:
                            losses = t.train_steps(n_steps)
                        finally:
                            t.telemetry = None
                        results.append(
                            (
                                t.name,
                                losses,
                                # Snapshot: a live prefetch thread may still
                                # be appending to the recorder.
                                list(recorder.events),
                                capture_exec_state(t, include_reader=True),
                            )
                        )
                    wall_origin = base_tracer.wall_origin if tracing else None
                    # Sample *this* worker process after the interval; the
                    # driver re-emits it like it replays trainer events.
                    resource_payload = {
                        "source": f"worker{worker_index}",
                        "backend": "process",
                        "worker": worker_index,
                        **sample_resources(),
                    }
                    conn.send(("ok", (results, wall_origin, resource_payload)))
                elif cmd == "train_one":
                    name, n_steps = msg[1], msg[2]
                    tracing = bool(msg[3]) if len(msg) > 3 else False
                    if tracing and base_tracer is None:
                        from repro.telemetry.spans import Tracer

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
                    wall_origin = base_tracer.wall_origin if tracing else None
                    conn.send(
                        (
                            "ok",
                            (
                                name,
                                losses,
                                list(recorder.events),
                                capture_exec_state(t, include_reader=True),
                                wall_origin,
                            ),
                        )
                    )
                elif cmd == "sample":
                    conn.send(
                        (
                            "ok",
                            {
                                "source": f"worker{worker_index}",
                                "backend": "process",
                                "worker": worker_index,
                                **sample_resources(),
                            },
                        )
                    )
                elif cmd == "apply":
                    for name, payload in msg[1]:
                        apply_exec_state(by_name[name], payload)
                    conn.send(("ok", None))
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
                    conn.send(("ok", None))
                elif cmd == "stop":
                    conn.send(("ok", None))
                    return
                else:  # pragma: no cover - protocol misuse
                    conn.send(("error", f"unknown command {cmd!r}"))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # driver went away
        return
    finally:
        conn.close()


class ProcessBackend(ExecutionBackend):
    """Train trainers on a persistent pool of worker processes.

    Parameters
    ----------
    max_workers:
        Worker process count; defaults to ``min(cpu_count, len(trainers))``.
    mp_context:
        ``multiprocessing`` start-method name (``"fork"``/``"spawn"``/
        ``"forkserver"``); ``None`` uses the platform default.  Replicas
        are shipped as explicit pickle payloads either way, so behaviour
        is start-method independent.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        mp_context: str | None = None,
        prefetch_depth: int | None = None,
    ) -> None:
        super().__init__(prefetch_depth=prefetch_depth)
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self._max_workers = max_workers
        self._mp_context = mp_context
        self._procs: list = []
        self._conns: list = []
        self._owner: dict[str, int] = {}  # trainer name -> worker index
        self._dirty: set[str] = set()

    @property
    def num_workers(self) -> int:
        if not self._trainers:
            return self._max_workers or (os.cpu_count() or 1)
        return min(
            self._max_workers or (os.cpu_count() or 1), len(self._trainers)
        )

    # -- lifecycle -----------------------------------------------------------

    def _on_bind(self) -> None:
        ctx = multiprocessing.get_context(self._mp_context)
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
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
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

    def train_round(
        self, round_index: int, n_steps: int
    ) -> dict[str, dict[str, float]]:
        assert self._telemetry is not None
        from repro.core.checkpoint import apply_exec_state
        from repro.telemetry.events import RESOURCE_SAMPLE, SPAN

        self._flush_dirty()
        tracing = self._telemetry.tracer is not None
        for wid in range(len(self._conns)):
            self._send(wid, ("train", n_steps, tracing))
        losses_by_name: dict[str, dict[str, float]] = {}
        events_by_name: dict[str, list] = {}
        worker_samples: list[dict] = []
        for wid in range(len(self._conns)):
            results, worker_wall, resource_payload = self._recv(wid)
            worker_samples.append(resource_payload)
            # Clock-offset alignment: worker span timestamps are offsets
            # from the *worker* tracer's epoch; shifting by the wall-clock
            # delta between the worker's and the hub's origins places them
            # on the hub's time axis (good to NTP-ish precision, which is
            # plenty within one host).
            offset = 0.0
            if worker_wall is not None:
                offset = worker_wall - self._telemetry.wall_origin
            for name, losses, events, state in results:
                trainer = next(t for t in self._trainers if t.name == name)
                apply_exec_state(trainer, state)
                losses_by_name[name] = losses
                if offset:
                    events = [
                        (etype, {**payload, "t0_s": payload["t0_s"] + offset})
                        if etype == SPAN
                        else (etype, payload)
                        for etype, payload in events
                    ]
                events_by_name[name] = events
        # Replay worker telemetry in population order, matching serial.
        for t in self._trainers:
            for event_type, payload in events_by_name.get(t.name, ()):
                self._telemetry.emit(event_type, **payload)
        # Then one resource series entry per worker process, worker order.
        if self._telemetry.active:
            for payload in worker_samples:
                self._telemetry.emit(RESOURCE_SAMPLE, **payload)
        return {t.name: losses_by_name[t.name] for t in self._trainers}

    def train_round_async(
        self, round_index: int, n_steps: int, on_ready
    ) -> dict[str, dict[str, float]]:
        """Barrier-free: one ``train_one`` command per trainer, replies
        multiplexed across worker pipes in arrival order.

        Workers service their queued commands sequentially, so a worker's
        trainers complete one at a time while other workers' trainers
        complete concurrently — the driver learns about each the moment
        its reply lands, applies the state snapshot, replays that
        trainer's telemetry, and only then calls ``on_ready`` (tournament
        adoptions from the callback are pushed with the next round's
        dirty flush).  A trailing ``sample`` command per worker replaces
        the resource payload the barrier protocol piggybacks on ``train``.
        """
        assert self._telemetry is not None
        from multiprocessing.connection import wait as conn_wait

        from repro.core.checkpoint import apply_exec_state
        from repro.telemetry.events import RESOURCE_SAMPLE, SPAN

        self._flush_dirty()
        tracing = self._telemetry.tracer is not None
        by_name = {t.name: t for t in self._trainers}
        pending: dict = {}  # conn -> number of outstanding replies
        for t in self._trainers:
            wid = self._owner[t.name]
            self._send(wid, ("train_one", t.name, n_steps, tracing))
            conn = self._conns[wid]
            pending[conn] = pending.get(conn, 0) + 1
        for wid in range(len(self._conns)):
            self._send(wid, ("sample",))
            conn = self._conns[wid]
            pending[conn] = pending.get(conn, 0) + 1
        conn_to_wid = {conn: wid for wid, conn in enumerate(self._conns)}
        losses_by_name: dict[str, dict[str, float]] = {}
        worker_samples: list[tuple[int, dict]] = []
        while pending:
            for conn in conn_wait(list(pending)):
                wid = conn_to_wid[conn]
                data = self._recv(wid)
                pending[conn] -= 1
                if pending[conn] == 0:
                    del pending[conn]
                if isinstance(data, dict):  # the trailing resource sample
                    worker_samples.append((wid, data))
                    continue
                name, losses, events, state, worker_wall = data
                apply_exec_state(by_name[name], state)
                losses_by_name[name] = losses
                offset = 0.0
                if worker_wall is not None:
                    offset = worker_wall - self._telemetry.wall_origin
                for event_type, payload in events:
                    if event_type == SPAN and offset:
                        payload = {**payload, "t0_s": payload["t0_s"] + offset}
                    self._telemetry.emit(event_type, **payload)
                on_ready(name)
        if self._telemetry.active:
            for _, payload in sorted(worker_samples, key=lambda ws: ws[0]):
                self._telemetry.emit(RESOURCE_SAMPLE, **payload)
        return {t.name: losses_by_name[t.name] for t in self._trainers}
