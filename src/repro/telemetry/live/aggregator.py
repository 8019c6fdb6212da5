"""The run-health callback: windowed rollups, six rules, one alert path.

Population training at the paper's scale fails in characteristic ways —
a trainer's adversarial loss goes non-finite, one generator sweeps every
tournament (the diversity LTFB exists to keep), the data path dominates
the step, a generator mode-collapses while its losses still improve, the
ingest channel backs up, the serving SLO burns.  :class:`LiveAggregator`
subscribes to a :class:`~repro.telemetry.events.TelemetryHub` like any
other callback, folds the event stream into bounded
:class:`~repro.telemetry.live.windows.RollingWindow` rollups (step time,
fetch stall, exchange bytes, ingest admit/evict rates, channel occupancy,
serve queue depth and latency, probed divergence) for the status
surface, and runs one rule per failure mode over it:

================== ======== ======== ==================================
kind               source   severity fires when
================== ======== ======== ==================================
nan_loss           train    critical a ``step_end`` loss term is
                                     non-finite
stall_regression   data     warning  a post-warmup round's summed fetch
                                     stall exceeds a fraction of its
                                     summed train-interval time
winrate_collapse   exchange warning  one trainer won nearly every
                                     adoption in the recent rounds, in
                                     the population or in one topology
                                     neighborhood
quality_collapse   eval     warning/ a trainer's probed divergence blew
                            critical past a multiple of its best value
                                     (critical when its loss held or
                                     improved meanwhile)
ingest_backpressure ingest  warning  the channel's high-watermark pause
                                     held an ingest poll's pump back
serve_slo_burn     serve    critical too many windowed micro-batches
                                     exceeded the latency SLO
================== ======== ======== ==================================

Every rule is a function of *what happened* (a value, a count, a ratio
of two phases of the same round), never of how one host-timed reading
compares with its neighbours, so a clean run ends with zero warnings.
Step time and fetch stall stay visible as readings — the windows'
p50/p95/p99, per-trainer ``last_step_s`` — not as verdicts.

Detections route through one
:class:`~repro.telemetry.live.alerts.AlertEngine` (dedup + cooldown);
admitted alerts are

- appended to ``History.health_warnings`` *at fire time* — a failing run
  is flagged while it is still running, not at ``on_run_end``;
- emitted as ``alert`` telemetry events, which is what every other
  consumer reads (progress lines, metrics, traces and their reports,
  Perfetto instants, the flight recorder, the watch CLI).

``alert`` events from other producers (the surrogate server's admission
warnings) are admitted through the same engine when they share the hub.
It is also the run's one state fold: per-trainer probe quality, the
pairing census and per-source resource rows, which ``trace-report``
reads too.  Memory is bounded by the window and the population, never by
run length, which is what lets it sit on a streamed campaign that never
ends.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter, deque

from repro.telemetry.callbacks import Callback
from repro.telemetry.events import ALERT, TelemetryEvent
from repro.telemetry.live.alerts import Alert, AlertEngine
from repro.telemetry.live.windows import RollingWindow

__all__ = ["LiveAggregator"]

#: The windowed series the aggregator maintains (name -> what it holds).
WINDOW_SERIES = (
    "step_time_s",        # per-interval mean step seconds
    "fetch_stall_s",      # consumer wait per delivered batch
    "exchange_bytes",     # bytes per pairwise model exchange
    "ingest_admitted",    # samples admitted per poll
    "ingest_evicted",     # samples evicted per poll
    "channel_occupancy",  # ingest channel depth / capacity
    "serve_queue_depth",  # request queue depth per micro-batch
    "serve_latency_s",    # mean queue wait + forward per micro-batch
    "round_train_s",      # train-phase seconds per round
    "eval_divergence",    # probed divergence per (round, trainer)
)


def _mean_loss(losses: dict | None) -> float | None:
    """Mean of a trainer's finite loss terms, or ``None``."""
    if not losses:
        return None
    finite = [float(v) for v in losses.values() if math.isfinite(float(v))]
    if not finite:
        return None
    return sum(finite) / len(finite)


class LiveAggregator(Callback):
    """Streaming rollups and run-health alerts over a live event stream.

    Parameters
    ----------
    window:
        Ring-buffer length of every rollup series.
    collapse_window / collapse_share / collapse_min_adoptions:
        Win-rate collapse: flag when a single trainer won at least
        ``collapse_share`` of all adoptions over the last
        ``collapse_window`` rounds, once at least
        ``collapse_min_adoptions`` happened in them.
    neighborhood_min_adoptions:
        Like ``collapse_min_adoptions``, but for the per-neighborhood
        check: tournament events from spatial topologies (cellular grids)
        carry a ``neighborhood`` label, and a neighborhood adopts at most
        once per round, so its threshold must be reachable within the
        window.  One trainer sweeping a single grid cell is an early,
        local signal of the population-wide collapse.
    stall_fraction_threshold / warmup_rounds:
        Flag a round whose summed fetch stall exceeds this fraction of
        its trainers' summed ``step_end`` ``elapsed_s`` (or ``train_s``
        without those), serial or concurrent alike, exempting the
        first ``warmup_rounds`` (first-epoch ingest is expected to stall
        — that is the paper's Fig. 10 initial epoch).
    quality_factor / quality_min_points:
        Flag ``quality_collapse`` when a trainer's probed divergence
        exceeds ``quality_factor`` times the best (lowest) value it has
        reached, once more than ``quality_min_points`` probe readings
        have landed (the first readings define the floor).  Generous by
        design: early divergence estimates wobble while the generator
        finds the support.
    serve_slo_s / slo_burn_threshold / slo_min_samples:
        Serving SLO: alert when more than ``slo_burn_threshold`` of the
        windowed micro-batch latencies exceed ``serve_slo_s`` (once at
        least ``slo_min_samples`` batches are in the window).
    cooldown_rounds:
        Alert-engine cooldown (see :class:`~repro.telemetry.live.alerts.
        AlertEngine`): a standing problem re-alerts at most this often.
    """

    def __init__(
        self,
        window: int = 256,
        collapse_window: int = 5,
        collapse_share: float = 0.9,
        collapse_min_adoptions: int = 6,
        neighborhood_min_adoptions: int = 4,
        stall_fraction_threshold: float = 0.5,
        warmup_rounds: int = 1,
        quality_factor: float = 3.0,
        quality_min_points: int = 2,
        serve_slo_s: float | None = None,
        slo_burn_threshold: float = 0.5,
        slo_min_samples: int = 8,
        cooldown_rounds: int = 5,
    ) -> None:
        self.windows: dict[str, RollingWindow] = {
            name: RollingWindow(window) for name in WINDOW_SERIES
        }
        self.collapse_share = float(collapse_share)
        self.collapse_min_adoptions = int(collapse_min_adoptions)
        self.neighborhood_min_adoptions = int(neighborhood_min_adoptions)
        self.stall_fraction_threshold = float(stall_fraction_threshold)
        self.warmup_rounds = int(warmup_rounds)
        self.quality_factor = float(quality_factor)
        self.quality_min_points = int(quality_min_points)
        self.serve_slo_s = serve_slo_s
        self.slo_burn_threshold = float(slo_burn_threshold)
        self.slo_min_samples = int(slo_min_samples)
        self.engine = AlertEngine(cooldown_rounds=cooldown_rounds)
        # Live state the snapshot renders.
        self.round_index: int | None = None
        self.rounds_total: int | None = None
        self.trainers: dict[str, dict] = {}
        self.last_pairing: dict | None = None
        self.last_ingest: dict | None = None
        self.last_serve: dict | None = None
        self.last_quality: dict | None = None
        self.adoptions = 0
        self.tournaments = 0
        self._round_stall_s = 0.0
        self._round_step_s = 0.0
        # Win-rate window: per-round {group: {winner: adoptions}} maps,
        # where group None is the whole population and named groups are
        # topology neighborhoods (every adoption counts toward both).
        self._win_rounds: deque[dict[str | None, dict[str, int]]] = deque(
            maxlen=int(collapse_window)
        )
        self._round_wins: dict[str | None, dict[str, int]] = {}
        # Probe quality: per trainer the ``last`` and ``best`` (lowest)
        # finite primary-metric reading and its ``points``, plus the mean
        # loss when the best was set (did the loss still look healthy?).
        self.probes = 0
        self.quality: dict[str, dict] = {}
        self._loss_at_floor: dict[str, float] = {}
        # Pairing census: events per topology, pairings, distinct pairs,
        # byes per trainer, each trainer's distinct partners.
        self._topologies: Counter = Counter()
        self._pairs = 0
        self._unique_pairs: set[frozenset] = set()
        self._bye_counts: Counter = Counter()
        self._partners: dict[str, set[str]] = {}
        # Per-source rows: byte fields are maxima, CPU the last reading.
        self.resources: dict[str, dict] = {}
        self._hub = None
        self._history = None
        self._emitting = False

    # -- lifecycle -----------------------------------------------------------

    def on_run_begin(self, driver) -> None:
        self._hub = driver.telemetry
        self._history = driver.history
        self.rounds_total = getattr(driver.config, "rounds", None)
        for t in driver.trainers:
            self.trainers.setdefault(t.name, {"steps_done": t.steps_done})

    def on_run_end(self, driver, history) -> None:
        self._hub = None
        self._history = None

    def attach(self, hub, history=None) -> "LiveAggregator":
        """Wire the emit/warning sinks outside a driver run (the serve
        path has no driver, so nothing calls ``on_run_begin``)."""
        self._hub = hub
        self._history = history
        return self

    # -- alert plumbing ------------------------------------------------------

    def _fire(self, alert: Alert, emit: bool = True) -> bool:
        """Route one detection: engine admission, then the live sinks."""
        if not self.engine.fire(alert):
            return False
        if self._history is not None and hasattr(
            self._history, "health_warnings"
        ):
            self._history.health_warnings.append(alert)
        if emit and self._hub is not None:
            self._emitting = True
            try:
                self._hub.emit(ALERT, **alert.to_payload())
            finally:
                self._emitting = False
        return True

    def on_alert(self, event: TelemetryEvent) -> None:
        # Our own emissions were processed at fire time; alerts from
        # other producers on the hub (the surrogate server's admission
        # warnings) and alerts replayed from a trace are admitted through
        # the same engine, so they land in history/snapshot exactly once.
        if self._emitting:
            return
        alert = Alert.from_payload(event.payload)
        if alert.round_index is None and self.round_index is not None:
            alert = dataclasses.replace(alert, round_index=self.round_index)
        self._fire(alert, emit=False)

    # -- event folds ---------------------------------------------------------

    def on_step_end(self, event: TelemetryEvent) -> None:
        p = event.payload
        trainer = p.get("trainer")
        steps = int(p.get("steps", 1)) or 1
        elapsed = float(p.get("elapsed_s", 0.0))
        self._round_step_s += elapsed
        per_step = elapsed / steps
        self.windows["step_time_s"].push(event.time_s, per_step)
        state = self.trainers.setdefault(str(trainer), {})
        state["steps_done"] = int(p.get("steps_done", 0))
        state["last_step_s"] = per_step
        state["losses"] = {
            k: float(v) for k, v in (p.get("losses") or {}).items()
        }
        state["worker"] = p.get("worker")
        for term, value in state["losses"].items():
            if not math.isfinite(value):
                # One alert per interval names the first bad term; the
                # rest share its dedup key and would only be suppressed.
                self._fire(
                    Alert(
                        kind="nan_loss",
                        severity="critical",
                        source="train",
                        round_index=self.round_index,
                        trainer=str(trainer),
                        message=(
                            f"trainer {trainer}: loss term {term!r} "
                            f"is {value}"
                        ),
                    )
                )
                break

    def on_fetch_stall(self, event: TelemetryEvent) -> None:
        stall = float(event.payload.get("stall_s", 0.0))
        self.windows["fetch_stall_s"].push(event.time_s, stall)
        self._round_stall_s += stall

    def on_exchange(self, event: TelemetryEvent) -> None:
        self.windows["exchange_bytes"].push(
            event.time_s, float(event.payload.get("nbytes", 0))
        )

    def on_tournament(self, event: TelemetryEvent) -> None:
        self.tournaments += 1
        if not event.payload.get("adopted"):
            return
        self.adoptions += 1
        winner = str(event.payload.get("partner"))
        groups: list[str | None] = [None]
        neighborhood = event.payload.get("neighborhood")
        if neighborhood is not None:
            groups.append(str(neighborhood))
        for group in groups:
            wins = self._round_wins.setdefault(group, {})
            wins[winner] = wins.get(winner, 0) + 1

    def on_pairing(self, event: TelemetryEvent) -> None:
        p = event.payload
        self.last_pairing = {
            "round": p.get("round"),
            "topology": p.get("topology"),
            "pairs": [list(pair) for pair in (p.get("pairs") or [])],
            "bye": list(p.get("bye") or []),
        }
        self._topologies[str(p.get("topology", "?"))] += 1
        for pair in p.get("pairs") or []:
            a, b = str(pair[0]), str(pair[1])
            self._pairs += 1
            self._unique_pairs.add(frozenset((a, b)))
            self._partners.setdefault(a, set()).add(b)
            self._partners.setdefault(b, set()).add(a)
        for name in p.get("bye") or []:
            self._bye_counts[str(name)] += 1

    def on_resource_sample(self, event: TelemetryEvent) -> None:
        p = event.payload
        row = self.resources.setdefault(str(p.get("source", "process")), {
            "samples": 0, "rss_bytes": 0, "peak_rss_bytes": 0,
            "cpu_user_s": 0.0, "cpu_system_s": 0.0,
        })
        row["samples"] += 1
        for key in ("rss_bytes", "peak_rss_bytes"):
            row[key] = max(row[key], int(p.get(key, 0)))
        for key in ("cpu_user_s", "cpu_system_s"):
            row[key] = float(p.get(key, row[key]))

    def on_ingest(self, event: TelemetryEvent) -> None:
        p = event.payload
        self.windows["ingest_admitted"].push(
            event.time_s, float(p.get("admitted", 0))
        )
        self.windows["ingest_evicted"].push(
            event.time_s, float(p.get("evicted", 0))
        )
        occupancy = p.get("channel_occupancy")
        if occupancy is not None:
            self.windows["channel_occupancy"].push(
                event.time_s, float(occupancy)
            )
        self.last_ingest = {
            k: p.get(k)
            for k in (
                "round", "admitted", "evicted", "stale", "depth", "cursor",
                "universe_version", "universe_size", "producer_lag",
                "store_occupancy", "paused", "channel_occupancy",
            )
        }
        if p.get("paused"):
            self._fire(
                Alert(
                    kind="ingest_backpressure",
                    severity="warning",
                    source="ingest",
                    round_index=self.round_index,
                    value=float(p.get("producer_lag", 0)),
                    message=(
                        f"ingest channel paused at high watermark "
                        f"(depth {p.get('depth')}, producer lag "
                        f"{p.get('producer_lag')})"
                    ),
                )
            )

    def on_serve(self, event: TelemetryEvent) -> None:
        p = event.payload
        self.windows["serve_queue_depth"].push(
            event.time_s, float(p.get("queue_depth", 0))
        )
        latency = float(p.get("wait_s", 0.0)) + float(p.get("forward_s", 0.0))
        window = self.windows["serve_latency_s"]
        window.push(event.time_s, latency)
        self.last_serve = {
            "size": p.get("size"),
            "queue_depth": p.get("queue_depth"),
            "forward_s": p.get("forward_s"),
            "wait_s": p.get("wait_s"),
            "version": p.get("version"),
        }
        if len(window) >= self.slo_min_samples:
            burn = self._slo_burn()
            if burn is not None and burn > self.slo_burn_threshold:
                self._fire(
                    Alert(
                        kind="serve_slo_burn",
                        severity="critical",
                        source="serve",
                        value=burn,
                        threshold=self.slo_burn_threshold,
                        message=(
                            f"{burn:.0%} of the last {len(window)} "
                            f"micro-batches exceeded the "
                            f"{self.serve_slo_s * 1e3:.1f}ms SLO"
                        ),
                    )
                )

    def on_eval(self, event: TelemetryEvent) -> None:
        # Two producers share the EVAL type: the driver's eval phase
        # (payload key ``metrics``) and the quality probe (``divergence``).
        # Only the probe feeds the quality fold.
        p = event.payload
        divergence = p.get("divergence")
        if not divergence:
            return
        metric = str(p.get("metric", "js"))
        round_index = (
            int(p["round"]) if p.get("round") is not None else self.round_index
        )
        rendered: dict[str, dict] = {}
        for trainer, values in divergence.items():
            name = str(trainer)
            rendered[name] = {
                k: float(v)
                for k, v in (values or {}).items()
                if isinstance(v, (int, float))
            }
            value = (values or {}).get(metric)
            if value is None or not math.isfinite(float(value)):
                continue
            value = float(value)
            self.windows["eval_divergence"].push(event.time_s, value)
            self._check_quality(name, metric, value, round_index)
        self.probes += 1
        self.last_quality = {
            "round": round_index,
            "metric": metric,
            "divergence": rendered,
        }

    def _check_quality(
        self, name: str, metric: str, value: float, round_index: int | None
    ) -> None:
        loss_now = _mean_loss(self.trainers.setdefault(name, {}).get("losses"))
        row = self.quality.setdefault(
            name, {"last": value, "best": math.inf, "points": 0}
        )
        row["last"] = value
        row["points"] += 1
        floor = row["best"]
        if value < floor:
            row["best"] = value
            if loss_now is not None:
                self._loss_at_floor[name] = loss_now
            return
        limit = self.quality_factor * floor
        if (
            row["points"] <= self.quality_min_points
            or floor <= 0
            or value <= limit
        ):
            return
        # Critical when the loss got better (or held) while the
        # distribution walked away — losses cannot see this failure.
        loss_then = self._loss_at_floor.get(name)
        improving = (
            loss_now is not None
            and loss_then is not None
            and loss_now <= loss_then
        )
        self._fire(
            Alert(
                kind="quality_collapse",
                severity="critical" if improving else "warning",
                source="eval",
                round_index=round_index,
                trainer=name,
                value=value,
                threshold=limit,
                message=(
                    f"trainer {name}: {metric} divergence at {value:.4g}, "
                    f"{value / floor:.1f}x its best {floor:.4g}"
                    + (
                        " while its training loss still improves"
                        if improving
                        else ""
                    )
                ),
            )
        )

    def on_round_end(self, event: TelemetryEvent) -> None:
        p = event.payload
        round_index = int(p.get("round", -1))
        self.round_index = round_index
        self._win_rounds.append(self._round_wins)
        self._round_wins = {}
        self._check_collapse(round_index)
        train_s = float(p.get("train_s", 0.0))
        self.windows["round_train_s"].push(event.time_s, train_s)
        step_s = self._round_step_s or train_s
        if round_index >= self.warmup_rounds and step_s > 0:
            fraction = self._round_stall_s / step_s
            if fraction > self.stall_fraction_threshold:
                self._fire(
                    Alert(
                        kind="stall_regression",
                        severity="warning",
                        source="data",
                        round_index=round_index,
                        value=fraction,
                        threshold=self.stall_fraction_threshold,
                        message=(
                            f"round {round_index}: fetch stall "
                            f"{self._round_stall_s:.3f}s is {fraction:.0%} "
                            f"of the {step_s:.3f}s its trainers trained"
                        ),
                    )
                )
        self._round_stall_s = 0.0
        self._round_step_s = 0.0

    def _check_collapse(self, round_index: int) -> None:
        totals: dict[str | None, dict[str, int]] = {}
        for round_groups in self._win_rounds:
            for group, wins in round_groups.items():
                group_totals = totals.setdefault(group, {})
                for name, n in wins.items():
                    group_totals[name] = group_totals.get(name, 0) + n
        for group, group_totals in totals.items():
            adoptions = sum(group_totals.values())
            floor = (
                self.collapse_min_adoptions
                if group is None
                else self.neighborhood_min_adoptions
            )
            if adoptions < floor:
                continue
            top, top_wins = max(group_totals.items(), key=lambda kv: kv[1])
            share = top_wins / adoptions
            if share < self.collapse_share:
                continue
            where, what = (
                ("", "population")
                if group is None
                else (f" in neighborhood {group}", "neighborhood")
            )
            self._fire(
                Alert(
                    kind="winrate_collapse",
                    severity="warning",
                    source="exchange",
                    round_index=round_index,
                    trainer=top,
                    neighborhood=group,
                    value=share,
                    threshold=self.collapse_share,
                    message=(
                        f"trainer {top} won {top_wins}/{adoptions} adoptions "
                        f"({share:.0%}){where} over the last "
                        f"{len(self._win_rounds)} round(s); the {what} is "
                        f"collapsing onto one model"
                    ),
                )
            )

    # -- the status surface --------------------------------------------------

    @property
    def alerts(self) -> list[Alert]:
        return self.engine.alerts

    def snapshot(self) -> dict:
        """One JSON-encodable view of run health *right now* — what the
        watch CLI renders and the serve status endpoint returns; its
        ``pairings``/``eval``/``resources`` are ``trace-report``'s."""
        trainers = {name: dict(state) for name, state in self.trainers.items()}
        for name, row in self.quality.items():
            trainers.setdefault(name, {})["divergence"] = row["last"]
        return {
            "round": self.round_index,
            "rounds_total": self.rounds_total,
            "trainers": trainers,
            "windows": {
                name: window.snapshot()
                for name, window in self.windows.items()
                if len(window)
            },
            "rates": {
                "ingest_admitted_per_s": self.windows[
                    "ingest_admitted"
                ].rate_per_s(),
                "ingest_evicted_per_s": self.windows[
                    "ingest_evicted"
                ].rate_per_s(),
            },
            "pairing": self.last_pairing,
            "ingest": self.last_ingest,
            "serve": self._serve_snapshot(),
            "quality": self.last_quality,
            "tournaments": {
                "judged": self.tournaments,
                "adoptions": self.adoptions,
            },
            "alerts": self.engine.snapshot(),
            "pairings": self._pairings_snapshot(),
            "eval": self._eval_snapshot(),
            "resources": {
                source: dict(row) for source, row in self.resources.items()
            },
        }

    def _pairings_snapshot(self) -> dict | None:
        # ``partners`` is the mixing diagnostic: 2 per trainer under a
        # ring, climbing toward k-1 under random pairing.
        if not self._topologies:
            return None
        return {
            "rounds": sum(self._topologies.values()),
            "topologies": dict(self._topologies),
            "pairs": self._pairs,
            "unique_pairs": len(self._unique_pairs),
            "byes": sum(self._bye_counts.values()),
            "bye_counts": dict(self._bye_counts),
            "partners": {
                name: len(met) for name, met in sorted(self._partners.items())
            },
        }

    def _eval_snapshot(self) -> dict | None:
        if not self.probes:
            return None
        return {
            "probes": self.probes,
            "metric": self.last_quality["metric"],
            "last_round": self.last_quality["round"],
            "trainers": {name: dict(row) for name, row in self.quality.items()},
        }

    def _serve_snapshot(self) -> dict | None:
        window = self.windows["serve_latency_s"]
        if not window and self.last_serve is None:
            return None
        return {
            "last": self.last_serve,
            "latency": window.snapshot() if len(window) else None,
            "queue_depth": self.windows["serve_queue_depth"].last,
            "slo_s": self.serve_slo_s,
            "slo_burn": self._slo_burn(),
        }

    def _slo_burn(self) -> float | None:
        """Share of the windowed micro-batch latencies over the SLO."""
        window = self.windows["serve_latency_s"]
        if self.serve_slo_s is None or not len(window):
            return None
        return sum(1 for v in window.values if v > self.serve_slo_s) / len(window)
