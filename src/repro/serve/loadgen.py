"""Load generators for the serving plane.

Two canonical drivers:

- **closed loop** — ``clients`` threads, each issuing its next request
  only after the previous response arrives.  Throughput self-limits to
  the service rate; this measures best-case latency under a fixed
  concurrency.
- **open loop** — requests arrive on a fixed schedule (``qps``) whether
  or not earlier ones finished, like real exploration traffic.  This is
  the honest regime for tail latency: queueing delay accumulates when
  offered load exceeds capacity instead of silently throttling the
  generator (the coordinated-omission trap).  Each request's latency
  runs from its *due* time on the schedule, so a generator that falls
  behind (a blocked ``submit``, a late wake-up) charges its lag to the
  requests it delayed instead of hiding it.

Both return a :class:`LoadReport` with outcome counts and latency
percentiles; :func:`stepped_open_loop` steps ``qps`` upward and the
``load-test`` CLI prints p50/p95/p99 per step.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Sequence

import numpy as np

from repro.serve.errors import DeadlineExceededError, ServerOverloadedError
from repro.serve.server import SurrogateServer

__all__ = ["LoadReport", "closed_loop", "open_loop", "stepped_open_loop"]


@dataclasses.dataclass
class LoadReport:
    """Outcome of one load run."""

    mode: str
    duration_s: float
    offered_qps: float | None
    n_requests: int
    n_ok: int
    n_deadline_miss: int
    n_rejected: int
    n_failed: int
    latencies_s: list[float]

    @property
    def achieved_qps(self) -> float:
        return self.n_ok / self.duration_s if self.duration_s > 0 else 0.0

    def percentiles(self) -> dict[str, float]:
        if not self.latencies_s:
            return {"p50": float("nan"), "p95": float("nan"),
                    "p99": float("nan")}
        p50, p95, p99 = np.percentile(self.latencies_s, [50, 95, 99])
        return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "duration_s": self.duration_s,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "n_requests": self.n_requests,
            "n_ok": self.n_ok,
            "n_deadline_miss": self.n_deadline_miss,
            "n_rejected": self.n_rejected,
            "n_failed": self.n_failed,
            **self.percentiles(),
        }


class _Outcomes:
    """Thread-safe accumulator shared by the generator threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ok = 0
        self.deadline_miss = 0
        self.rejected = 0
        self.failed = 0
        self.latencies: list[float] = []

    def record(self, kind: str, latency_s: float | None = None) -> None:
        with self.lock:
            setattr(self, kind, getattr(self, kind) + 1)
            if latency_s is not None:
                self.latencies.append(latency_s)


def closed_loop(
    server: SurrogateServer,
    params: np.ndarray,
    clients: int = 4,
    requests_per_client: int = 32,
    deadline_s: float | None = None,
) -> LoadReport:
    """``clients`` synchronous callers cycling through ``params`` rows."""
    params = np.asarray(params, dtype=np.float32)
    outcomes = _Outcomes()

    def client(index: int) -> None:
        for j in range(requests_per_client):
            row = params[(index * requests_per_client + j) % len(params)]
            t0 = time.perf_counter()
            try:
                server.predict(row, deadline_s=deadline_s)
            except DeadlineExceededError:
                outcomes.record("deadline_miss")
            except ServerOverloadedError:
                outcomes.record("rejected")
            except Exception:
                outcomes.record("failed")
            else:
                outcomes.record("ok", time.perf_counter() - t0)

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    duration = time.perf_counter() - t0
    total = clients * requests_per_client
    return LoadReport(
        mode="closed",
        duration_s=duration,
        offered_qps=None,
        n_requests=total,
        n_ok=outcomes.ok,
        n_deadline_miss=outcomes.deadline_miss,
        n_rejected=outcomes.rejected,
        n_failed=outcomes.failed,
        latencies_s=outcomes.latencies,
    )


def open_loop(
    server: SurrogateServer,
    params: np.ndarray,
    qps: float,
    n_requests: int = 128,
    deadline_s: float | None = None,
) -> LoadReport:
    """Fixed-rate arrivals: one request every ``1/qps`` seconds, each
    timed from its due time ``start + i / qps``."""
    if qps <= 0:
        raise ValueError("qps must be positive")
    params = np.asarray(params, dtype=np.float32)
    outcomes = _Outcomes()
    pending: list[threading.Event] = []
    interval = 1.0 / qps
    start = time.perf_counter()
    for i in range(n_requests):
        due = start + i * interval
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        row = params[i % len(params)]
        done = threading.Event()
        pending.append(done)
        try:
            future = server.submit(row, deadline_s=deadline_s)
        except ServerOverloadedError:
            outcomes.record("rejected")
            done.set()
            continue

        def on_done(f, due=due, done=done) -> None:
            try:
                f.result()
            except DeadlineExceededError:
                outcomes.record("deadline_miss")
            except Exception:
                outcomes.record("failed")
            else:
                outcomes.record("ok", time.perf_counter() - due)
            done.set()

        future.add_done_callback(on_done)
    for done in pending:
        done.wait(timeout=60.0)
    duration = time.perf_counter() - start
    return LoadReport(
        mode="open",
        duration_s=duration,
        offered_qps=qps,
        n_requests=n_requests,
        n_ok=outcomes.ok,
        n_deadline_miss=outcomes.deadline_miss,
        n_rejected=outcomes.rejected,
        n_failed=outcomes.failed,
        latencies_s=outcomes.latencies,
    )


def stepped_open_loop(
    server: SurrogateServer,
    params: np.ndarray,
    qps_steps: Sequence[float],
    requests_per_step: int = 128,
    deadline_s: float | None = None,
) -> list[LoadReport]:
    """One open-loop run per offered rate, lowest to highest."""
    return [
        open_loop(
            server,
            params,
            qps=qps,
            n_requests=requests_per_step,
            deadline_s=deadline_s,
        )
        for qps in sorted(qps_steps)
    ]
