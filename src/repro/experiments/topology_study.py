"""Topology study: convergence under the pluggable population topologies.

The paper's LTFB uses random pairwise tournaments; the topology refactor
makes the pairing structure a strategy (:mod:`repro.core.topology`), so
the natural follow-on question is Fig.-13-style: *does the exchange
structure matter at equal budget?*  This study trains identical
populations (same initial weights, same silos, same round schedule)
under each topology and reports the population-best global validation
loss per round:

- ``isolated`` — no exchange at all: the K-independent lower bar;
- ``random_pairwise`` — the paper's LTFB tournament;
- ``cellular_grid`` — nearest-neighbour exchange on a wraparound grid
  (slower mixing, more diversity retained);
- ``multi_discriminator`` — MD-GAN-style consensus adoption with
  discriminator rotation among data shards;
- ``async_pairwise`` — barrier-free completion-order pairing (on the
  serial backend this is a deterministic reordering of LTFB's work, so
  any quality difference is pure pairing-structure effect).

Every run's health verdict (``History.health_warnings``) is folded
into the report, so a topology that collapses the population (one model
sweeping every tournament or grid cell) is visible next to its loss
curve.
"""

from __future__ import annotations

from repro.core.ltfb import LtfbConfig, LtfbDriver
from repro.experiments.common import (
    ExperimentReport,
    QualityWorkbench,
    note_health,
)

__all__ = ["run", "STUDY_TOPOLOGIES"]

#: Topologies the study compares, in report-column order.
STUDY_TOPOLOGIES = (
    "isolated",
    "random_pairwise",
    "cellular_grid",
    "multi_discriminator",
    "async_pairwise",
)


def run(
    bench: QualityWorkbench,
    k: int = 4,
    rounds: int = 10,
    steps_per_round: int = 10,
    topologies: tuple[str, ...] = STUDY_TOPOLOGIES,
    hyperparam_jitter: float = 0.0,
) -> ExperimentReport:
    """Train the same population under each topology, compare convergence.

    Every run rebuilds the population from the same tag, so initial
    weights, silo assignments, and training streams are identical across
    topologies — the only varying factor is who exchanges with whom.
    ``hyperparam_jitter`` defaults to 0 for the same reason as the
    Fig.-13 study: jitter hands best-of-k selection a larger share of
    the variance, diluting the structural effect under test.
    """
    config = LtfbConfig(steps_per_round=steps_per_round, rounds=rounds)
    series: dict[str, list[float]] = {}
    histories: dict[str, object] = {}
    for topology in topologies:
        driver = LtfbDriver(
            bench.population(
                k, tag="topology_study", hyperparam_jitter=hyperparam_jitter
            ),
            bench.pairing_rng(f"topology_study/{topology}"),
            config,
            eval_batch=bench.val_batch,
            topology=topology,
        )
        history = driver.run(
            callbacks=bench.run_callbacks(f"topology_study/{topology}")
        )
        series[topology] = history.best_val_series()
        histories[topology] = history

    report = ExperimentReport(
        experiment="Topology study",
        description=(
            "population-best validation loss per round under each "
            f"population topology (k={k}, {steps_per_round} steps/round, "
            f"{rounds} rounds, identical initial populations)"
        ),
        columns=["per_trainer_steps", *topologies],
    )
    for r in range(rounds):
        row: dict[str, object] = {
            "per_trainer_steps": (r + 1) * steps_per_round
        }
        for topology in topologies:
            row[topology] = series[topology][r]
        report.add_row(**row)

    finals = {t: series[t][-1] for t in topologies}
    if "isolated" in finals:
        for topology in topologies:
            if topology == "isolated":
                continue
            report.add_check(
                f"{topology} vs isolated (final loss ratio; exchange "
                f"helps: >1)",
                1.1,
                finals["isolated"] / finals[topology],
                0.9,
                note="Fig.-13 analogue: any exchange structure should "
                "beat no exchange; seed-noise-dominated at laptop scale",
            )
    for topology in topologies:
        report.add_check(
            f"{topology} run completed all rounds",
            float(rounds),
            float(histories[topology].rounds_completed),
            0.0,
        )
    report.notes.append(
        "final population-best val loss: "
        + ", ".join(f"{t}: {finals[t]:.4f}" for t in topologies)
    )
    for topology in topologies:
        pairings = histories[topology].pairings
        byes = histories[topology].byes
        report.notes.append(
            f"{topology}: {sum(len(p) for p in pairings)} pairings, "
            f"{sum(len(b) for b in byes)} byes over {rounds} rounds"
        )
    for history in histories.values():
        note_health(report, history)
    return report
