"""The live-observability acceptance demo: catch a run going bad, live.

A short streamed LTFB campaign runs with the full live plane attached —
:class:`~repro.telemetry.LiveAggregator` (windowed rollups + the
run-health rules), :class:`~repro.telemetry.FlightRecorder` (post-mortem
ring bundles), and a JSONL trace.  Two faults are injected deliberately:

1. a **fetch-stall regression** — synthetic ``fetch_stall`` events flood
   round 2, far past the stall/train-phase threshold;
2. a **trainer NaN** — one generator's weights are poisoned after round
   2's exchange, so its losses go non-finite in round 3.

The demo then proves the acceptance contract:

- both alerts landed in ``History.health_warnings`` *during* the run
  (a probe callback snapshots the warning count at every round end);
- the flight recorder auto-dumped a bundle at the critical alert, and
  the bundle validates and holds the events around the fault;
- the ``python -m repro.telemetry watch`` rendering of the trace shows
  the alerts.

Run it::

    python examples/live_demo.py [out-dir]
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from repro.core import LtfbConfig, LtfbDriver
from repro.exec import resolve_backend
from repro.experiments.streaming import StreamingSpec, build_streaming_run
from repro.telemetry import Callback, FlightRecorder, JsonlTraceWriter, LiveAggregator
from repro.telemetry.live import load_bundle


class StallInjector(Callback):
    """Floods one round with synthetic fetch stalls (a 'slow filesystem'
    regression): every step of ``target_round`` also reports a 2 s stall."""

    def __init__(self, target_round: int) -> None:
        self.target_round = target_round
        self.rounds_done = 0
        self._hub = None

    def on_run_begin(self, driver) -> None:
        self._hub = driver.telemetry

    def on_step_end(self, event) -> None:
        if self.rounds_done == self.target_round and self._hub is not None:
            self._hub.emit(
                "fetch_stall",
                trainer=event.payload.get("trainer"),
                stall_s=2.0,
                overlap_s=0.0,
                worker=event.payload.get("worker", 0),
            )

    def on_round_end(self, event) -> None:
        self.rounds_done = event.payload.get("round", self.rounds_done) + 1


class NaNSaboteur(Callback):
    """Poisons the first trainer's generator after ``target_round`` ends,
    so the next round's losses are non-finite."""

    def __init__(self, trainers, target_round: int) -> None:
        self.trainers = trainers
        self.target_round = target_round

    def on_round_end(self, event) -> None:
        if event.payload.get("round") == self.target_round:
            victim = self.trainers[0]
            state = victim.surrogate.get_generator_state()
            victim.surrogate.set_generator_state(
                {k: v * math.nan for k, v in state.items()}
            )


class WarningProbe(Callback):
    """Snapshots ``History.health_warnings`` growth per round — the proof
    that alerts arrive *during* the run, not at ``on_run_end``."""

    def __init__(self) -> None:
        self.per_round: list[int] = []
        self._history = None

    def on_run_begin(self, driver) -> None:
        self._history = driver.history

    def on_round_end(self, event) -> None:
        self.per_round.append(len(self._history.health_warnings))


def main(out_dir: str = "live-demo") -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.jsonl"
    rec_dir = out / "flightrec"

    setup = build_streaming_run(
        StreamingSpec(seed=7, k=2, n_design=256, prime_samples=64)
    )
    # Default thresholds: the injected faults are unmistakable (seconds of
    # stall against a ~20 ms train phase), and nothing else fires.
    aggregator = LiveAggregator()
    recorder = FlightRecorder(out_dir=rec_dir, capacity=64)
    stall_round, nan_round = 2, 2  # stall floods round 2; NaN lands round 3
    probe = WarningProbe()

    driver = LtfbDriver(
        setup.trainers,
        setup.rngs.generator("pairing"),
        LtfbConfig(steps_per_round=2, rounds=4),
        eval_batch=setup.eval_batch,
        backend=resolve_backend("serial"),
        source=setup.source,
    )
    history = driver.run(
        callbacks=[
            JsonlTraceWriter(trace_path),
            aggregator,
            recorder,
            StallInjector(stall_round),
            NaNSaboteur(setup.trainers, nan_round),
            probe,
        ]
    )

    # -- acceptance: alerts visible in History DURING the run ---------------
    kinds = {w.kind for w in history.health_warnings}
    assert "stall_regression" in kinds, kinds
    assert "nan_loss" in kinds, kinds
    nan_warnings = [w for w in history.health_warnings if w.kind == "nan_loss"]
    assert all(w.severity == "critical" for w in nan_warnings)
    # The probe saw warnings before the final round ended: the stall alert
    # fired at round 2's end, one round before the run finished.
    assert probe.per_round[stall_round] >= 1, probe.per_round
    assert probe.per_round[-1] > probe.per_round[stall_round - 1], probe.per_round

    # -- acceptance: flight-recorder bundle around the fault ----------------
    assert recorder.dumps_written, "critical alert should have auto-dumped"
    bundle = load_bundle(recorder.dumps_written[0])
    assert bundle["reason"].startswith("critical-"), bundle["reason"]
    alerts = [
        r for r in bundle["events"].get("health", [])
        if r["type"] == "alert"
    ]
    assert alerts, "bundle must hold the alert events around the fault"
    assert bundle["events"].get("train"), "bundle must hold recent steps"

    # -- the watch CLI rendering of the same trace --------------------------
    from repro.telemetry.__main__ import render_watch, watch_snapshot

    snap = watch_snapshot(trace_path)
    rendering = render_watch(snap, path=trace_path)
    assert "nan_loss" in rendering
    print(rendering)
    print()

    report = {
        "rounds_completed": history.rounds_completed,
        "healthy": history.healthy,
        "warnings": [w.render() for w in history.health_warnings],
        "warnings_per_round": probe.per_round,
        "alert_snapshot": snap["alerts"],
        "bundles": [str(p) for p in recorder.dumps_written],
        "bundle_reason": bundle["reason"],
        "bundle_subsystems": {
            k: len(v) for k, v in bundle["events"].items()
        },
    }
    (out / "report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"ok: {history.rounds_completed} rounds, "
        f"{len(history.health_warnings)} live warnings "
        f"(first at round {next(i for i, n in enumerate(probe.per_round) if n)}), "
        f"bundle {recorder.dumps_written[0].name} validated"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
