"""``python -m repro.telemetry`` — the live terminal status surface.

``watch`` reads a JSONL telemetry trace (being written by a running
campaign, or already finished) through ``trace-report``'s validating
:class:`~repro.telemetry.report.TraceReader`, folds every event through
the same :class:`~repro.telemetry.live.LiveAggregator` the in-process
live plane uses, and renders a refreshing snapshot: per-trainer round
progress, the last topology pairing, ingest watermarks, serve SLO burn,
the last quality-probe divergence readings, and the alert feed.  It needs
no connection to the run — ``--follow`` polls the file for new lines, a
plain invocation renders the final state once.  A trace the reader
refuses exits 1 with ``watch: <path>:<line>: ...`` on stderr.

::

    python -m repro.telemetry watch out/trace.jsonl            # snapshot
    python -m repro.telemetry watch out/trace.jsonl --follow   # live tail
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.telemetry.live import LiveAggregator
from repro.telemetry.report import TraceReader, run_bits
from repro.utils.units import format_bytes

__all__ = ["watch_snapshot", "render_watch", "main"]


def _fold(reader: TraceReader, aggregator: LiveAggregator) -> dict:
    """Fold the newly appended events (none while the trace does not
    exist yet) and return the snapshot."""
    try:
        events = reader.read()
    except FileNotFoundError:
        events = []
    for event in events:
        aggregator.handle(event)
    snap = aggregator.snapshot()
    snap["header"] = reader.header
    return snap


def watch_snapshot(path, aggregator: LiveAggregator | None = None) -> dict:
    """Fold a whole trace into a live snapshot (the one-shot path)."""
    aggregator = aggregator if aggregator is not None else LiveAggregator()
    return _fold(TraceReader(path), aggregator)


def _bar(fraction: float, width: int = 24) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


def render_watch(snap: dict, path=None) -> str:
    """The terminal rendering of one live snapshot."""
    out: list[str] = []
    title = f"== live status{f': {path}' if path else ''} =="
    out.append(title)
    header = snap.get("header") or {}
    run = header.get("run") or {}
    if run:
        out.append("run: " + ", ".join(run_bits(run)))
    rounds_total = snap.get("rounds_total") or run.get("rounds")
    round_index = snap.get("round")
    if round_index is not None:
        done = round_index + 1
        if rounds_total:
            out.append(
                f"round: {done}/{rounds_total}  "
                f"[{_bar(done / rounds_total)}]"
            )
        else:
            out.append(f"round: {done}")
    trainers = snap.get("trainers") or {}
    if trainers:
        out.append("trainers:")
        for name in sorted(trainers):
            state = trainers[name]
            loss_bits = ", ".join(
                f"{k} {v:.4g}" for k, v in (state.get("losses") or {}).items()
            )
            step = state.get("last_step_s")
            out.append(
                f"  {name}: {state.get('steps_done', 0)} steps"
                + (f", {step * 1e3:.1f}ms/step" if step is not None else "")
                + (f"  ({loss_bits})" if loss_bits else "")
            )
    pairing = snap.get("pairing")
    if pairing:
        pairs = " ".join(
            f"{a}<->{b}" for a, b in (pairing.get("pairs") or [])
        )
        bye = pairing.get("bye") or []
        out.append(
            f"pairing[{pairing.get('topology')}] round "
            f"{pairing.get('round')}: {pairs or '(none)'}"
            + (f"  bye: {', '.join(bye)}" if bye else "")
        )
    ingest = snap.get("ingest")
    if ingest:
        rates = snap.get("rates") or {}
        occupancy = ingest.get("channel_occupancy")
        out.append(
            f"ingest: universe {ingest.get('universe_size')} "
            f"(v{ingest.get('universe_version')}), "
            f"admit {rates.get('ingest_admitted_per_s', 0.0):.1f}/s, "
            f"evict {rates.get('ingest_evicted_per_s', 0.0):.1f}/s, "
            f"lag {ingest.get('producer_lag')}"
        )
        if occupancy is not None:
            out.append(
                f"  channel: [{_bar(float(occupancy))}] "
                f"{float(occupancy):.0%}"
                + ("  PAUSED (high watermark)" if ingest.get("paused") else "")
            )
    serve = snap.get("serve")
    if serve:
        latency = serve.get("latency") or {}
        line = f"serve: queue depth {serve.get('queue_depth')}"
        if latency:
            line += (
                f", latency p50 {latency['p50'] * 1e3:.2f}ms "
                f"p95 {latency['p95'] * 1e3:.2f}ms "
                f"p99 {latency['p99'] * 1e3:.2f}ms"
            )
        out.append(line)
        if serve.get("slo_s") is not None and serve.get("slo_burn") is not None:
            out.append(
                f"  SLO {serve['slo_s'] * 1e3:.1f}ms: burn "
                f"[{_bar(serve['slo_burn'])}] {serve['slo_burn']:.0%}"
            )
    quality = snap.get("quality")
    if quality:
        metric = quality.get("metric", "js")
        divergence = quality.get("divergence") or {}
        bits = []
        for name in sorted(divergence):
            value = (divergence[name] or {}).get(metric)
            if value is not None:
                bits.append(f"{name} {float(value):.3g}")
        out.append(
            f"quality[{metric}] round {quality.get('round')}: "
            + (", ".join(bits) if bits else "(no readings)")
        )
    windows = snap.get("windows") or {}
    rows = [
        ("step time", "step_time_s", 1e3, "ms"),
        ("fetch stall", "fetch_stall_s", 1e3, "ms"),
        ("round train", "round_train_s", 1.0, "s"),
        ("divergence", "eval_divergence", 1.0, ""),
    ]
    window_lines = []
    for label, key, scale, unit in rows:
        w = windows.get(key)
        if not w or not w.get("count"):
            continue
        window_lines.append(
            f"  {label}: n={w['count']} mean={w['mean'] * scale:.3g}{unit} "
            f"p95={w['p95'] * scale:.3g}{unit} last={w['last'] * scale:.3g}{unit}"
        )
    w = windows.get("exchange_bytes")
    if w and w.get("count"):
        window_lines.append(
            f"  exchange: n={w['count']} mean={format_bytes(int(w['mean']))}"
        )
    if window_lines:
        out.append("windows:")
        out.extend(window_lines)
    alerts = snap.get("alerts") or {}
    recent = alerts.get("recent") or []
    if recent:
        out.append(
            f"alerts: {alerts.get('count', 0)} "
            f"({alerts.get('critical', 0)} critical)"
        )
        for a in recent[-8:]:
            where = f" {a.get('trainer')}" if a.get("trainer") else ""
            out.append(
                f"  [{a.get('severity')}] {a.get('source')}/{a.get('kind')}"
                f"{where}: {a.get('message')}"
            )
    else:
        out.append("alerts: none")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="live telemetry tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    watch = sub.add_parser(
        "watch", help="render a live status snapshot from a JSONL trace"
    )
    watch.add_argument("trace", help="trace path (may still be growing)")
    watch.add_argument(
        "--follow",
        action="store_true",
        help="keep polling the trace and re-rendering until interrupted",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh period in seconds under --follow",
    )
    watch.add_argument(
        "--max-refreshes",
        type=int,
        default=None,
        help="stop --follow after N renders (default: until Ctrl-C)",
    )
    watch.add_argument(
        "--json",
        action="store_true",
        help="print the snapshot as JSON instead of the terminal rendering",
    )
    args = parser.parse_args(argv)

    aggregator = LiveAggregator()
    reader = TraceReader(args.trace)
    refreshes = 0
    try:
        while True:
            if args.follow:
                # ANSI clear + home keeps the snapshot in place like top(1).
                sys.stdout.write("\x1b[2J\x1b[H")
            snap = _fold(reader, aggregator)
            print(
                json.dumps(snap, indent=2)
                if args.json
                else render_watch(snap, path=args.trace)
            )
            sys.stdout.flush()
            refreshes += 1
            if not args.follow or (
                args.max_refreshes is not None
                and refreshes >= args.max_refreshes
            ):
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    except (OSError, ValueError) as exc:
        print(f"watch: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
