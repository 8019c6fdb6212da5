"""Typed alerts and the dedup/cooldown engine that admits them.

A health rule re-detects a standing problem on every event that shows it
(a NaN trainer reports NaN every step); the :class:`AlertEngine` is the
layer that turns raw detections into an operator-grade signal: one
:class:`Alert` per distinct problem, repeated at most once per cooldown
period, never an unbounded flood.  Cooldown is measured in *rounds*, not
wall seconds, so admission decisions replay deterministically from a
trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Alert", "AlertEngine"]


@dataclass(frozen=True)
class Alert:
    """One run-health warning — the row type of
    ``History.health_warnings`` and the payload of ``alert`` events."""

    kind: str
    severity: str  # "warning" | "critical"
    message: str
    source: str = "train"  # train | data | exchange | eval | ingest | serve
    round_index: int | None = None
    trainer: str | None = None
    #: The topology neighborhood a ``winrate_collapse`` is confined to
    #: (``None`` = the whole population, and every other kind).
    neighborhood: str | None = None
    #: The observed reading and the limit it crossed, when the alert has
    #: a scalar form.
    value: float | None = None
    threshold: float | None = None

    @property
    def dedup_key(self) -> tuple[str, str, str | None, str | None]:
        """What "the same problem" means for cooldown purposes: the
        kind, the subsystem, the trainer (``None`` = population) and the
        neighborhood — a local collapse must not suppress the
        population-wide one."""
        return (self.kind, self.source, self.trainer, self.neighborhood)

    def render(self) -> str:
        return f"[{self.severity}] {self.kind}: {self.message}"

    def to_payload(self) -> dict:
        """The ``alert`` telemetry-event payload shape."""
        return {
            "kind": self.kind,
            "severity": self.severity,
            "source": self.source,
            "round": self.round_index,
            "trainer": self.trainer,
            "neighborhood": self.neighborhood,
            "message": self.message,
            "value": self.value,
            "threshold": self.threshold,
        }

    @classmethod
    def from_payload(cls, payload) -> "Alert":
        """Rebuild an alert from an ``alert`` event payload (serve-side
        emissions and trace replay)."""
        return cls(
            kind=str(payload.get("kind", "unknown")),
            severity=str(payload.get("severity", "warning")),
            message=str(payload.get("message", "")),
            source=str(payload.get("source", "train")),
            round_index=payload.get("round"),
            trainer=payload.get("trainer"),
            neighborhood=payload.get("neighborhood"),
            value=payload.get("value"),
            threshold=payload.get("threshold"),
        )


@dataclass
class AlertEngine:
    """Admission control between detectors and the rest of the system.

    ``fire`` admits an alert unless the same :attr:`Alert.dedup_key`
    already fired within the last ``cooldown_rounds`` rounds (critical
    alerts ignore cooldown once — an escalation from warning to critical
    must never be suppressed by its own warning).  Admitted alerts
    accumulate on :attr:`alerts`, bounded by ``max_alerts`` (oldest
    dropped), so a pathological run cannot grow memory without bound.
    """

    cooldown_rounds: int = 5
    max_alerts: int = 256
    alerts: list[Alert] = field(default_factory=list)
    _last_fired: dict = field(default_factory=dict)
    _escalated: set = field(default_factory=set)
    dropped: int = 0

    def fire(self, alert: Alert) -> bool:
        """Admit or suppress one detection; True when admitted."""
        key = alert.dedup_key
        last = self._last_fired.get(key)
        round_index = alert.round_index if alert.round_index is not None else 0
        if last is not None:
            last_round, last_severity = last
            in_cooldown = round_index < last_round + self.cooldown_rounds
            escalating = (
                alert.severity == "critical"
                and last_severity != "critical"
                and key not in self._escalated
            )
            if in_cooldown and not escalating:
                return False
            if escalating:
                self._escalated.add(key)
        self._last_fired[key] = (round_index, alert.severity)
        self.alerts.append(alert)
        if len(self.alerts) > self.max_alerts:
            overflow = len(self.alerts) - self.max_alerts
            del self.alerts[:overflow]
            self.dropped += overflow
        return True

    @property
    def critical(self) -> list[Alert]:
        return [a for a in self.alerts if a.severity == "critical"]

    def snapshot(self) -> dict:
        """JSON-encodable view for the status surface."""
        return {
            "count": len(self.alerts),
            "dropped": self.dropped,
            "critical": len(self.critical),
            "recent": [a.to_payload() for a in self.alerts[-20:]],
        }
