"""Convert span traces to Chrome/Perfetto ``trace_event`` JSON.

The JSONL traces :class:`~repro.telemetry.callbacks.JsonlTraceWriter`
produces are the subsystem's interchange format; this module converts
their ``span`` records into the Trace Event Format that
``chrome://tracing`` and https://ui.perfetto.dev render — one horizontal
lane per span *track* (the driver, each ``backend:worker/trainer`` lane,
each prefetch producer), so PR 3's overlap of prefetch fills with trainer
steps is visually inspectable instead of inferred from counters.

Mapping:

- every span becomes one complete event (``"ph": "X"``) with
  microsecond ``ts``/``dur`` on the shared hub timeline; span ids and
  parent ids ride in ``args``;
- every ``alert`` event becomes a global instant event (``"ph": "i"``)
  so failures are visible at the moment they were detected;
- every ``resource_sample`` event becomes counter events (``"ph": "C"``)
  — one RSS track and one CPU track per sampled process — so memory
  growth and CPU accumulation render as graphs alongside the span lanes;
- tracks map to thread ids under one synthetic process, named via
  ``thread_name`` metadata and ordered driver-first via
  ``thread_sort_index``.

Exposed on the command line as::

    python -m repro.experiments trace-export trace.jsonl -o trace.json
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.telemetry.events import ALERT, RESOURCE_SAMPLE, SPAN, TelemetryEvent
from repro.telemetry.report import read_trace

__all__ = ["chrome_trace", "export_chrome_trace"]

_PID = 1


def _track_order(tracks: Iterable[str]) -> dict[str, int]:
    """Track name -> tid, driver lanes first, then lexicographic (which
    groups each trainer lane right next to its ``/prefetch`` sibling)."""
    ordered = sorted(set(tracks), key=lambda t: (t != "driver", t))
    return {track: tid for tid, track in enumerate(ordered, start=1)}


def chrome_trace(
    events: Iterable[TelemetryEvent], header: dict | None = None
) -> dict:
    """Build the ``trace_event`` JSON document from loaded trace events.

    ``header`` is the optional ``trace_header`` record of the source
    trace (see :func:`~repro.telemetry.report.read_trace`); it is
    carried through under ``otherData`` for provenance.
    """
    spans = [e for e in events if e.type == SPAN]
    health = [e for e in events if e.type == ALERT]
    samples = [e for e in events if e.type == RESOURCE_SAMPLE]
    tids = _track_order(
        [str(e.payload.get("track", "main")) for e in spans]
        or ["driver"]
    )
    trace_events: list[dict] = [
        {
            "ph": "M",
            "pid": _PID,
            "name": "process_name",
            "args": {"name": "repro population run"},
        }
    ]
    for track, tid in tids.items():
        trace_events.append(
            {
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
        )
        trace_events.append(
            {
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "name": "thread_sort_index",
                "args": {"sort_index": tid},
            }
        )
    for e in spans:
        p = e.payload
        args = dict(p.get("attrs") or {})
        args["span_id"] = p.get("id")
        if p.get("parent") is not None:
            args["parent_span_id"] = p["parent"]
        trace_events.append(
            {
                "name": str(p.get("name", "span")),
                "cat": str(p.get("cat") or "span"),
                "ph": "X",
                "ts": round(float(p.get("t0_s", 0.0)) * 1e6, 3),
                "dur": round(float(p.get("dur_s", 0.0)) * 1e6, 3),
                "pid": _PID,
                "tid": tids[str(p.get("track", "main"))],
                "args": args,
            }
        )
    for e in health:
        p = e.payload
        trace_events.append(
            {
                "name": f"health:{p.get('kind', 'warning')}",
                "cat": "health",
                "ph": "i",
                "s": "g",  # global instant: draw across every lane
                "ts": round(float(e.time_s) * 1e6, 3),
                "pid": _PID,
                "args": {
                    "message": p.get("message"),
                    "severity": p.get("severity"),
                    "trainer": p.get("trainer"),
                },
            }
        )
    for e in samples:
        p = e.payload
        source = str(p.get("source", "process"))
        ts = round(float(e.time_s) * 1e6, 3)
        trace_events.append(
            {
                "name": f"rss[{source}]",
                "cat": "resources",
                "ph": "C",
                "ts": ts,
                "pid": _PID,
                "args": {
                    "rss_mb": round(float(p.get("rss_bytes", 0)) / 1e6, 3),
                    "peak_mb": round(
                        float(p.get("peak_rss_bytes", 0)) / 1e6, 3
                    ),
                },
            }
        )
        trace_events.append(
            {
                "name": f"cpu[{source}]",
                "cat": "resources",
                "ph": "C",
                "ts": ts,
                "pid": _PID,
                "args": {
                    "user_s": round(float(p.get("cpu_user_s", 0.0)), 3),
                    "system_s": round(float(p.get("cpu_system_s", 0.0)), 3),
                },
            }
        )
    doc: dict = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    }
    if header:
        doc["otherData"] = {
            k: v for k, v in header.items() if k != "type"
        }
    return doc


def export_chrome_trace(trace_path, out_path) -> dict:
    """Load a JSONL trace, convert, and write Chrome trace JSON.

    Returns the document (so callers can report span/track counts).
    Raises ``ValueError`` when the trace contains no spans — the source
    run was not traced (pass a spans-enabled ``JsonlTraceWriter`` /
    ``--trace-out``).
    """
    header, events = read_trace(trace_path)
    if not any(e.type == SPAN for e in events):
        raise ValueError(
            f"{trace_path}: no span records; the run was not traced "
            "(enable spans on the JsonlTraceWriter or use --trace-out)"
        )
    doc = chrome_trace(events, header)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return doc
