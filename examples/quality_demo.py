"""The quality-observability acceptance demo: catch mode collapse live,
then watch the serve gate refuse the collapsed winner.

A short streamed LTFB campaign runs with the quality plane attached — a
:class:`~repro.eval.QualityProbe` scoring every generator against the
ground-truth reservoir each round, and the
:class:`~repro.telemetry.LiveAggregator` folding those divergence
readings against each trainer's best.  One fault is injected deliberately: after
round ``collapse_round`` ends, trainer 0's generator weights are zeroed
— its outputs collapse to a constant, the exact failure mode whose
losses stay unremarkable while the output *distribution* dies.

The demo then proves the acceptance contract:

- a ``quality_collapse`` alert landed in ``History.health_warnings``
  *during* the run (a probe callback snapshots the warning count per
  round);
- the checkpoint published with the collapsed trainer as winner is
  **refused** by :meth:`~repro.serve.ModelRegistry.refresh` — the
  healthy incumbent keeps serving and the refusal shows up in the
  server's ``quality_gate`` stats;
- the ``python -m repro.telemetry watch`` rendering of the trace shows
  the per-trainer divergence readings.

Run it::

    python examples/quality_demo.py [out-dir]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core import LtfbConfig, LtfbDriver
from repro.core.checkpoint import CheckpointStore
from repro.eval import QualityProbe
from repro.exec import resolve_backend
from repro.experiments.streaming import StreamingSpec, build_streaming_run
from repro.serve import ModelRegistry, ServeConfig, SurrogateServer
from repro.telemetry import Callback, JsonlTraceWriter, LiveAggregator


class CollapseInjector(Callback):
    """Zeroes one generator after ``target_round`` ends: its outputs
    degenerate to a constant while training marches on."""

    def __init__(self, trainers, target_round: int) -> None:
        self.trainers = trainers
        self.target_round = target_round

    def on_round_end(self, event) -> None:
        if event.payload.get("round") == self.target_round:
            victim = self.trainers[0]
            state = victim.surrogate.get_generator_state()
            victim.surrogate.set_generator_state(
                {k: v * 0.0 for k, v in state.items()}
            )


class SummaryCapture(Callback):
    """Snapshots the probe's eval summary the round the collapse lands —
    LTFB adopts healthy weights back into the victim a round later, so
    the end-of-run summary would no longer show the damage."""

    def __init__(self, probe: QualityProbe, winner: str, target_round: int) -> None:
        self.probe = probe
        self.winner = winner
        self.target_round = target_round
        self.summary: dict | None = None

    def on_round_end(self, event) -> None:
        if event.payload.get("round") == self.target_round:
            self.summary = self.probe.summary(winner=self.winner)


class WarningProbe(Callback):
    """Snapshots ``History.health_warnings`` growth per round — the proof
    that the collapse alert arrives *during* the run."""

    def __init__(self) -> None:
        self.per_round: list[int] = []
        self._history = None

    def on_run_begin(self, driver) -> None:
        self._history = driver.history

    def on_round_end(self, event) -> None:
        self.per_round.append(len(self._history.health_warnings))


def main(out_dir: str = "quality-demo") -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.jsonl"

    setup = build_streaming_run(
        StreamingSpec(seed=7, k=2, n_design=256, prime_samples=64)
    )
    rounds, collapse_round = 6, 4
    # KL for the ranking metric: unbounded above (unlike JS), so the
    # injected collapse rises clearly above the healthy trend even at
    # demo scale, where the tiny surrogate saturates the estimator.
    probe = QualityProbe(capacity=256, metric="kl", seed=11)
    # Demo-scale estimates sit near the estimator's ceiling, so the
    # healthy-floor multiple is tight: any post-floor rise above 5% is
    # the injected collapse, not wobble (real campaigns keep the default
    # generous factor).
    aggregator = LiveAggregator(quality_factor=1.05)
    warnings_probe = WarningProbe()
    victim = setup.trainers[0].name
    capture = SummaryCapture(probe, victim, collapse_round)

    driver = LtfbDriver(
        setup.trainers,
        setup.rngs.generator("pairing"),
        LtfbConfig(steps_per_round=10, rounds=rounds),
        eval_batch=setup.eval_batch,
        backend=resolve_backend("serial"),
        source=setup.source,
    )
    # Callback order matters: the injector poisons at round end *before*
    # the probe measures, so the collapse is visible the round it lands.
    history = driver.run(
        callbacks=[
            JsonlTraceWriter(trace_path),
            CollapseInjector(setup.trainers, collapse_round),
            probe,
            capture,
            aggregator,
            warnings_probe,
        ]
    )

    # -- acceptance: quality_collapse visible in History DURING the run -----
    collapse_warnings = [
        w for w in history.health_warnings if w.kind == "quality_collapse"
    ]
    assert collapse_warnings, [w.kind for w in history.health_warnings]
    assert any(w.trainer == victim for w in collapse_warnings)
    # The warning count grew at the collapse round, before the run ended.
    assert warnings_probe.per_round[collapse_round] >= 1, (
        warnings_probe.per_round
    )
    # The probe trajectory shows the blowup: the victim's divergence
    # after the collapse dwarfs its healthy floor.
    victim_series = {r: m["kl"] for r, m in probe.trajectory[victim]}
    floor = min(victim_series[r] for r in range(collapse_round))
    spike = victim_series[collapse_round]
    assert spike > 1.05 * floor, (floor, spike)

    # -- acceptance: the serve gate refuses the collapsed winner ------------
    store = CheckpointStore(out / "ckpts")
    store.save_autoencoder(setup.autoencoder)
    healthy = setup.trainers[1]
    store.save_population(
        setup.trainers,
        "healthy-winner",
        winner=healthy.name,
        eval_summary=probe.summary(winner=healthy.name),
    )
    registry = ModelRegistry(store, max_batch=8, quality_tolerance=0.02)
    server = SurrogateServer(
        registry, ServeConfig(max_batch=8, max_delay_s=0.002)
    )
    registry.load("healthy-winner")

    time.sleep(0.01)  # keep the manifest mtimes strictly ordered
    assert capture.summary is not None
    store.save_population(
        setup.trainers,
        "collapsed-winner",
        winner=victim,
        eval_summary=capture.summary,
    )
    assert registry.refresh() is None, "gate must refuse the collapsed winner"
    assert registry.current().tag == "healthy-winner"
    decision = registry.last_gate
    assert decision is not None and decision.reason == "regressed"
    gate_stats = server.stats()["quality_gate"]
    assert gate_stats["refusals"] == 1, gate_stats
    # The refused tag is remembered: polling again is silent.
    assert registry.refresh() is None
    assert server.stats()["quality_gate"]["checks"] == 1

    # -- the watch CLI rendering of the same trace --------------------------
    from repro.telemetry.__main__ import render_watch, watch_snapshot

    snap = watch_snapshot(trace_path)
    rendering = render_watch(snap, path=trace_path)
    assert "quality[kl]" in rendering, rendering
    print(rendering)
    print()

    report = {
        "rounds_completed": history.rounds_completed,
        "collapse_round": collapse_round,
        "victim": victim,
        "victim_divergence": {str(r): v for r, v in victim_series.items()},
        "warnings": [w.render() for w in history.health_warnings],
        "warnings_per_round": warnings_probe.per_round,
        "quality_collapse_fired": bool(collapse_warnings),
        "quality_snapshot": snap["quality"],
        "gate": {
            "tag": decision.tag,
            "allowed": decision.allowed,
            "reason": decision.reason,
            "candidate": decision.candidate,
            "incumbent": decision.incumbent,
            "metric": decision.metric,
        },
        "serving_tag": registry.current().tag,
        "quality_gate_stats": gate_stats,
    }
    (out / "report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"ok: {history.rounds_completed} rounds, collapse flagged at round "
        f"{collapse_round} (divergence {floor:.3f} -> {spike:.3f}), gate "
        f"refused {decision.tag!r}, still serving "
        f"{registry.current().tag!r}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
