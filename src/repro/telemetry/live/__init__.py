"""The live observability plane: rollups, alerts, flight recording.

Everything in :mod:`repro.telemetry` up to here is post-mortem — JSONL
written during the run, ``trace-report`` afterwards.  This package is the
"is the run healthy *right now*" layer the streamed/serving deployments
need:

- :class:`RollingWindow` — bounded ring-buffer time series;
- :class:`Alert` / :class:`AlertEngine` — typed alerts with severity,
  dedup keys, and round-based cooldown;
- :class:`LiveAggregator` — the one run-health callback: folds the hub's
  event stream into windows, runs the six health rules, routes admitted
  alerts into ``History.health_warnings`` *during* the run and emits
  them as ``alert`` telemetry events;
- :class:`FlightRecorder` — a bounded per-subsystem ring of recent
  events, dumped as an atomic JSON post-mortem bundle on crash, critical
  alert, or SIGTERM;
- ``python -m repro.telemetry watch <trace.jsonl>`` — a terminal status
  surface rendered from a running (``--follow``) or finished trace.

Typical wiring (the experiments CLI attaches the aggregator to every
training run, the recorder under ``--flight-recorder``)::

    from repro.telemetry.live import FlightRecorder, LiveAggregator

    live = LiveAggregator()
    history = driver.run(callbacks=[live, FlightRecorder("out/flightrec")])
    print(live.snapshot()["alerts"])
"""

from repro.telemetry.live.aggregator import WINDOW_SERIES, LiveAggregator
from repro.telemetry.live.alerts import Alert, AlertEngine
from repro.telemetry.live.recorder import (
    SUBSYSTEM_OF,
    FlightRecorder,
    load_bundle,
)
from repro.telemetry.live.windows import RollingWindow

__all__ = [
    "RollingWindow",
    "Alert",
    "AlertEngine",
    "LiveAggregator",
    "WINDOW_SERIES",
    "FlightRecorder",
    "SUBSYSTEM_OF",
    "load_bundle",
]
