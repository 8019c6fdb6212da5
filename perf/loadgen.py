"""The benchmark's load generator: open loop from *due* times, closed loop.

``repro.serve.loadgen.open_loop`` times a request from the moment it was
actually submitted, so a generator that runs late hides exactly the
queueing delay an open loop exists to expose.  Here every request has a
due time fixed by the schedule before the phase starts; latency runs from
that due time to completion, how late the generator submitted is recorded
per request, and percentiles are taken per window of 1000 requests (by
due time) and then medianed over windows (a scheduling hiccup of the shared host
lands in one window instead of moving the whole-run tail).

The open loop submits from the calling thread only; the closed loop
re-submits from the completion callback.  Completion is observed through
``Future.add_done_callback`` (it runs on the server's batcher thread, or
inline for cache hits); the callback keeps a timestamp, the
version stamp, a shape verdict and -- for the sampled 1% -- a copy of the
payload, never the response itself: a response row is a view into its
whole padded batch output.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve import DeadlineExceededError, ServerOverloadedError

__all__ = ["PhaseResult", "open_loop", "closed_loop", "window_percentile"]

#: A latency window holds this many requests of the schedule (one second
#: at 1000 req/s, a quarter at 4000): a window's p99 then has ten samples
#: beyond it at either rate, and the heavier phase has four times the
#: windows for its median to ride out the shared host's stalls.
WINDOW_REQUESTS = 1000
#: How far past its due time the open loop keeps re-asking a refused request.
GIVE_UP_S = 1.0


@dataclass
class PhaseResult:
    """Per-request arrays of one load phase (index = request order)."""

    name: str
    due: np.ndarray  # perf_counter instants; closed loop: submit instants
    sent: np.ndarray
    done: np.ndarray  # nan where the request never completed
    version: np.ndarray  # 0 where it did not complete
    cached: np.ndarray
    refused: int = 0  # given up on: still refused GIVE_UP_S past the due time
    retried: int = 0  # refusals that were asked again
    deadline_missed: int = 0
    failed: int = 0
    bad_shape: int = 0
    wall_s: float = 0.0
    #: request index -> (params row, scalars, images, version) for the
    #: sampled requests the exactness check replays.
    samples: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return int(self.due.size)

    @property
    def ok(self) -> int:
        return int(np.isfinite(self.done).sum())

    def latency_ms(self) -> np.ndarray:
        """Due-to-done latency; a request that was refused, shed or failed
        has missed every latency limit and counts as +inf."""
        lat = (self.done - self.due) * 1e3
        return np.where(np.isfinite(lat), lat, np.inf)

    def late_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3


class _Collector:
    """Done-callback state shared by both loops."""

    def __init__(self, n: int, rows: np.ndarray, shapes, sample_every: int) -> None:
        self.done = np.full(n, np.nan)
        self.version = np.zeros(n, dtype=np.int64)
        self.cached = np.zeros(n, dtype=bool)
        self.rows = rows
        self.shapes = shapes
        self.sample_every = sample_every
        self.samples: dict = {}
        self.deadline_missed = self.failed = self.bad_shape = 0

    def callback(self, i: int):
        def on_done(future) -> None:
            now = time.perf_counter()
            exc = future.exception()
            if exc is not None:
                if isinstance(exc, DeadlineExceededError):
                    self.deadline_missed += 1
                else:
                    self.failed += 1
                return
            r = future.result()
            self.done[i] = now
            self.version[i] = r.version
            self.cached[i] = r.cached
            if (r.scalars.shape, r.images.shape) != self.shapes:
                self.bad_shape += 1
            if i % self.sample_every == 0:
                self.samples[i] = (
                    self.rows[i], r.scalars.copy(), r.images.copy(), r.version
                )

        return on_done


def open_loop(
    server, name: str, rows: np.ndarray, due_offsets: np.ndarray, shapes,
    sample_every: int = 100, recorder=None,
) -> PhaseResult:
    """Submit ``rows[i]`` at ``start + due_offsets[i]`` no matter how the
    server is doing (a refused request is asked again until it is
    ``GIVE_UP_S`` overdue).  ``recorder`` (traced runs) gets a ``loadgen.wait``
    span around every sleep so the generator thread's budget closes."""
    n = len(rows)
    col = _Collector(n, rows, shapes, sample_every)
    sent = np.empty(n)
    refused = retried = 0
    start = time.perf_counter() + 0.005
    due = start + due_offsets
    clock, sleep = time.perf_counter, time.sleep
    for i in range(n):
        ahead = due[i] - clock()
        if ahead > 0:
            if recorder is not None:
                recorder.begin("loadgen.wait")
                sleep(ahead)
                recorder.end()
            else:
                sleep(ahead)
        sent[i] = clock()
        while True:
            try:
                server.submit(rows[i]).add_done_callback(col.callback(i))
                break
            except ServerOverloadedError:
                # Generator and server share the host, so a stall freezes
                # both and the backlog then arrives at once: 64 ms of it
                # fills the default queue at 4000 req/s (one run in ten
                # here).  Ask again, as a client told to back off would --
                # the wait is in the latency, which runs from the due time
                # -- and give up when that is overload, not a hiccup.
                if clock() - due[i] > GIVE_UP_S:
                    refused += 1
                    break
                retried += 1
                sleep(0.001)
    _settle(col, n - refused)
    return PhaseResult(
        name=name, due=due, sent=sent, done=col.done, version=col.version,
        cached=col.cached, refused=refused, retried=retried,
        deadline_missed=col.deadline_missed, failed=col.failed,
        bad_shape=col.bad_shape, wall_s=clock() - start, samples=col.samples,
    )


def closed_loop(
    server, name: str, rows: np.ndarray, seconds: float, outstanding: int,
    shapes, sample_every: int = 100, recorder=None,
) -> PhaseResult:
    """Keep ``outstanding`` requests in flight for ``seconds`` (capacity
    probe): 64 callers that each re-ask the moment they are answered.

    The next request is submitted from the completion callback itself, so
    the probe adds no second busy thread: with a generator thread woken per
    response, capacity on a two-core host swung +-15% with how the two
    threads happened to share the interpreter lock.  The calling thread
    fills the window, sleeps to the deadline and waits for the drain.
    ``rows`` bounds what can be sent."""
    n = len(rows)
    col = _Collector(n, rows, shapes, sample_every)
    sent = np.full(n, np.nan)
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    lock = threading.Lock()
    state = {"next": 0, "inflight": 0, "pumping": False}

    def pump() -> None:
        # Re-entrant through cache hits, which complete inside submit():
        # the outermost call keeps the loop, inner ones just return.
        with lock:
            if state["pumping"]:
                return
            state["pumping"] = True
        try:
            while True:
                with lock:
                    i = state["next"]
                    if state["inflight"] >= outstanding or i >= n or clock() >= deadline:
                        state["pumping"] = False
                        return
                    state["next"] = i + 1
                    state["inflight"] += 1
                sent[i] = clock()
                server.submit(rows[i]).add_done_callback(finish(col.callback(i)))
        except BaseException:
            state["pumping"] = False
            raise

    def finish(on_done):
        def done(future) -> None:
            on_done(future)
            with lock:
                state["inflight"] -= 1
            pump()

        return done

    pump()
    if recorder is not None:
        recorder.begin("loadgen.wait")
    while clock() < deadline and (state["next"] < n or state["inflight"]):
        time.sleep(min(0.01, max(0.0, deadline - clock())))
    while state["inflight"] > 0:
        time.sleep(0.001)
    if recorder is not None:
        recorder.end()
    sent_n = state["next"]
    # Capacity counts responses that arrived inside the phase window; the
    # drain of the last `outstanding` requests does not extend it.
    col.done[col.done > deadline] = np.nan
    return PhaseResult(
        name=name, due=sent[:sent_n], sent=sent[:sent_n], done=col.done[:sent_n],
        version=col.version[:sent_n], cached=col.cached[:sent_n],
        deadline_missed=col.deadline_missed, failed=col.failed,
        bad_shape=col.bad_shape, wall_s=min(clock() - start, seconds),
        samples={k: v for k, v in col.samples.items() if k < sent_n},
    )


def _settle(col: _Collector, expected: int, timeout_s: float = 10.0) -> None:
    """Wait for the tail of an open-loop phase to complete."""
    end = time.perf_counter() + timeout_s
    while time.perf_counter() < end:
        finished = (
            int(np.isfinite(col.done).sum()) + col.deadline_missed + col.failed
        )
        if finished >= expected:
            return
        time.sleep(0.002)


def window_percentile(
    due: np.ndarray, values: np.ndarray, q: float, window_s: float
) -> tuple[float, int]:
    """The median over ``window_s`` windows (by due time) of each window's
    ``q``-th percentile; returns ``(value, windows)``.  The schedule's tail
    past the last whole window joins that window.  A percentile is an
    observed latency (no interpolation), so unanswered requests (+inf) move
    it only once they reach it."""
    if due.size == 0:
        return float("nan"), 0
    t = due - due[0]
    n_windows = max(1, round(float(t[-1]) / window_s))
    index = np.minimum((t // window_s).astype(int), n_windows - 1)
    per_window = [
        float(np.percentile(values[index == w], q, method="higher"))
        for w in range(n_windows)
    ]
    return float(np.median(per_window)), n_windows
