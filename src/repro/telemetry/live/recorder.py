"""The flight recorder: a bounded ring of recent events per subsystem.

Full JSONL tracing of a long streamed campaign is expensive and mostly
archives healthy rounds nobody will read.  The flight recorder keeps only
the *recent past* — the last N events of every subsystem, jsonified, in
memory — and writes a post-mortem bundle when something actually goes
wrong: a crash escaping the driver's round loop (``on_run_error``), a
critical alert, or a SIGTERM from the scheduler.  The
bundle is one JSON file, published atomically (tmp + rename, like
checkpoints), so a half-written dump can never masquerade as evidence.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from collections import deque
from pathlib import Path

from repro.telemetry.callbacks import Callback, _event_record, _run_metadata
from repro.telemetry.events import TelemetryEvent

__all__ = ["FlightRecorder", "SUBSYSTEM_OF", "load_bundle"]

#: Event type -> the subsystem ring it lands in.
SUBSYSTEM_OF = {
    "step_end": "train",
    "round_end": "train",
    "eval": "train",
    "pairing": "exchange",
    "tournament": "exchange",
    "exchange": "exchange",
    "datastore_fetch": "data",
    "fetch_stall": "data",
    "prefetch_fill": "data",
    "ingest": "ingest",
    "serve": "serve",
    "checkpoint": "checkpoint",
    "alert": "health",
    "resource_sample": "resource",
    "span": "span",
}

#: Bundle schema version (bumped on incompatible shape changes).
BUNDLE_VERSION = 1


class FlightRecorder(Callback):
    """Ring-buffer event recorder with post-mortem bundle dumps.

    Parameters
    ----------
    out_dir:
        Where bundles are written (created on demand).
    capacity:
        Ring length per subsystem.
    dump_on:
        Which triggers write a bundle automatically: any subset of
        ``{"crash", "critical", "sigterm"}``.  Manual :meth:`dump` always
        works.
    max_auto_dumps:
        Bound on trigger-driven dumps per recorder, so a flapping alert
        cannot fill the disk.
    record_spans:
        Spans are high-volume; keep them out of the rings unless asked.
    """

    def __init__(
        self,
        out_dir="flightrec",
        capacity: int = 64,
        dump_on: tuple = ("crash", "critical", "sigterm"),
        max_auto_dumps: int = 4,
        record_spans: bool = False,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.out_dir = Path(out_dir)
        self.capacity = int(capacity)
        self.dump_on = frozenset(dump_on)
        self.max_auto_dumps = int(max_auto_dumps)
        self.record_spans = bool(record_spans)
        self.rings: dict[str, deque] = {}
        self.events_seen = 0
        self.dumps_written: list[Path] = []
        self._auto_dumps = 0
        self._dump_seq = 0
        self._run_meta: dict = {}
        self._lock = threading.Lock()
        self._prev_sigterm = None

    # -- recording -----------------------------------------------------------

    def on_event(self, event: TelemetryEvent) -> None:
        if event.type == "span" and not self.record_spans:
            return
        subsystem = SUBSYSTEM_OF.get(event.type, "other")
        record = _event_record(event)
        with self._lock:
            ring = self.rings.get(subsystem)
            if ring is None:
                ring = self.rings[subsystem] = deque(maxlen=self.capacity)
            ring.append(record)
            self.events_seen += 1
        if (
            event.type == "alert"
            and "critical" in self.dump_on
            and event.payload.get("severity") == "critical"
        ):
            self._auto_dump(f"critical-{event.payload.get('kind', '?')}")

    # -- lifecycle + triggers ------------------------------------------------

    def on_run_begin(self, driver) -> None:
        self._run_meta = _run_metadata(driver)
        if (
            "sigterm" in self.dump_on
            and threading.current_thread() is threading.main_thread()
        ):
            self._prev_sigterm = signal.getsignal(signal.SIGTERM)
            signal.signal(signal.SIGTERM, self._on_sigterm)

    def on_run_end(self, driver, history) -> None:
        self._restore_sigterm()

    def on_run_error(self, driver, exc: BaseException) -> None:
        """Driver hook: the round loop raised.  Dump before unwinding."""
        if "crash" in self.dump_on:
            self._auto_dump(f"crash-{type(exc).__name__}", error=repr(exc))

    def _on_sigterm(self, signum, frame) -> None:
        self._auto_dump("sigterm")
        self._restore_sigterm()
        # Chain to whatever was installed before us (default: terminate).
        prev = self._prev_sigterm
        if callable(prev):
            prev(signum, frame)
        elif prev == signal.SIG_DFL:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.raise_signal(signal.SIGTERM)

    def _restore_sigterm(self) -> None:
        if self._prev_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, self._prev_sigterm)
            except ValueError:  # not the main thread anymore
                pass
            self._prev_sigterm = None

    def _auto_dump(self, reason: str, **extra) -> None:
        if self._auto_dumps >= self.max_auto_dumps:
            return
        self._auto_dumps += 1
        self.dump(reason, **extra)

    # -- the bundle ----------------------------------------------------------

    def bundle(self, reason: str, **extra) -> dict:
        """The post-mortem payload: every ring, newest-last, plus
        provenance."""
        with self._lock:
            rings = {name: list(ring) for name, ring in self.rings.items()}
        return {
            "bundle": "flight_recorder",
            "version": BUNDLE_VERSION,
            "reason": reason,
            "created_unix": time.time(),
            "capacity": self.capacity,
            "events_seen": self.events_seen,
            "run": dict(self._run_meta),
            "events": rings,
            **extra,
        }

    def dump(self, reason: str = "manual", path=None, **extra) -> Path:
        """Write one bundle; returns the published path.

        Publication is atomic (tmp + ``os.replace``): a reader polling
        the directory sees either nothing or a complete bundle.
        """
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if path is None:
            self._dump_seq += 1
            safe = "".join(
                c if c.isalnum() or c in "._-" else "-" for c in reason
            )
            path = self.out_dir / f"flightrec-{self._dump_seq:03d}-{safe}.json"
        path = Path(path)
        payload = json.dumps(self.bundle(reason, **extra), indent=2)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        tmp.write_text(payload + "\n", encoding="utf-8")
        os.replace(tmp, path)
        self.dumps_written.append(path)
        return path


def load_bundle(path) -> dict:
    """Read and validate a flight-recorder bundle (raises ``ValueError``
    on anything that is not one)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("bundle") != "flight_recorder":
        raise ValueError(f"{path}: not a flight-recorder bundle")
    version = data.get("version")
    if version != BUNDLE_VERSION:
        raise ValueError(
            f"{path}: unsupported bundle version {version!r} "
            f"(supported: {BUNDLE_VERSION})"
        )
    for key in ("reason", "events", "run"):
        if key not in data:
            raise ValueError(f"{path}: bundle missing {key!r}")
    if not isinstance(data["events"], dict):
        raise ValueError(f"{path}: bundle events must map subsystem -> list")
    return data
