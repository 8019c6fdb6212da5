"""Process-resource sampling: peak RSS and CPU time as telemetry.

The paper's throughput claims are only credible next to a resource
account — the data store's whole premise is trading node memory for
file-system pressure, so a throughput number without memory/CPU
numbers can "improve" by silently ballooning its footprint.
This module closes that gap with one cheap primitive and one callback:

- :func:`sample_resources` — a point-in-time reading of the calling
  process: current RSS (``/proc/self/statm`` where available), lifetime
  peak RSS (``getrusage``), and split user/system CPU seconds.  Costs two
  syscalls; safe to call per round.
- :class:`ResourceSampler` — a :class:`~repro.telemetry.callbacks.
  Callback` that emits a :data:`~repro.telemetry.events.RESOURCE_SAMPLE`
  event at run begin, after every ``every_rounds``-th round, and at run
  end.  Attach it alongside a :class:`~repro.telemetry.metrics.
  MetricsCollector` and the samples land as gauges in the registry; a
  :class:`~repro.telemetry.live.LiveAggregator` keeps per-source rows
  (``trace-report``'s resources); ``trace-export`` draws counter tracks.

Execution backends emit the same event from wherever trainer work runs:
the serial and thread backends sample the driver process once per train
phase, and each process-backend worker samples *itself* once per train
phase — relayed to the driver's hub after the round's trainer events, so
a multi-process run reports one resource series per worker process.

On platforms without the ``resource`` module (Windows) sampling degrades
to CPU-only via ``os.times``; all byte fields read zero.
"""

from __future__ import annotations

import os
import sys

from repro.telemetry.callbacks import Callback
from repro.telemetry.events import RESOURCE_SAMPLE

try:  # unix only; gate rather than require
    import resource as _resource
except ImportError:  # pragma: no cover - windows
    _resource = None

__all__ = [
    "sample_resources",
    "emit_resource_sample",
    "ResourceSampler",
]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _current_rss_bytes() -> int:
    """Resident set size right now, 0 when the platform hides it."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        return 0


def sample_resources() -> dict:
    """One point-in-time resource reading of the calling process.

    Returns ``rss_bytes`` (current resident set; 0 where unreadable),
    ``peak_rss_bytes`` (lifetime high-water mark), and ``cpu_user_s`` /
    ``cpu_system_s`` (cumulative CPU seconds).
    """
    if _resource is not None:
        ru = _resource.getrusage(_resource.RUSAGE_SELF)
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        peak = int(ru.ru_maxrss) if sys.platform == "darwin" else int(ru.ru_maxrss) * 1024
        user_s, system_s = float(ru.ru_utime), float(ru.ru_stime)
    else:  # pragma: no cover - windows
        times = os.times()
        peak, user_s, system_s = 0, float(times.user), float(times.system)
    rss = _current_rss_bytes() or peak
    return {
        "rss_bytes": rss,
        "peak_rss_bytes": peak,
        "cpu_user_s": user_s,
        "cpu_system_s": system_s,
    }


def emit_resource_sample(sink, *, source: str, **context) -> None:
    """Sample this process and emit one ``resource_sample`` into ``sink``.

    ``sink`` is anything with ``emit(type, /, **payload)`` — a
    :class:`~repro.telemetry.events.TelemetryHub` or an
    :class:`~repro.exec.base.EventRecorder`; ``None`` (and a hub with no
    subscribers) costs nothing.  ``source`` names the sampled process's
    role (``"driver"``, ``"worker0"``, ...); extra ``context`` (backend,
    worker index) rides in the payload.
    """
    if sink is None:
        return
    if getattr(sink, "active", True) is False:
        return  # hub with no subscribers: skip the syscalls too
    sink.emit(RESOURCE_SAMPLE, source=source, **context, **sample_resources())


class ResourceSampler(Callback):
    """Periodically samples the driver process during a run.

    Emits one ``resource_sample`` event (source ``"driver"``) at run
    begin, after every ``every_rounds``-th ``round_end``, and at run end.
    Worker-process samples are the execution backend's job (see module
    docstring); this callback only covers the process the driver loop
    runs in.
    """

    def __init__(self, every_rounds: int = 1) -> None:
        if every_rounds < 1:
            raise ValueError(f"every_rounds must be >= 1, got {every_rounds}")
        self.every_rounds = int(every_rounds)
        self._hub = None
        self._rounds_seen = 0

    def _sample(self) -> None:
        # Re-entrant emit: the hub's dispatch lock is an RLock precisely
        # so callbacks may emit (the new event dispatches immediately,
        # nested inside the triggering one).
        emit_resource_sample(self._hub, source="driver")

    def on_run_begin(self, driver) -> None:
        self._hub = driver.telemetry
        self._rounds_seen = 0
        self._sample()

    def on_round_end(self, event) -> None:
        self._rounds_seen += 1
        if self._rounds_seen % self.every_rounds == 0:
            self._sample()

    def on_run_end(self, driver, history) -> None:
        self._sample()
        self._hub = None
