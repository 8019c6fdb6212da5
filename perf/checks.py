"""Output checks: a run whose outputs are wrong reports ``correct: false``.

Each check returns ``(name, passed, detail)``.  Checks that compare two
separate runs of one seed (traced against untraced ``History``) live in
``repeat.py``, which has both runs in hand; everything a single run can
verify about itself is here.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "history_complete", "published_population_loads",
    "matches_reference", "streaming_end_state", "serving_outputs",
]

Verdict = tuple[str, bool, str]


def history_complete(history, rounds: int, k: int) -> Verdict:
    ok = (
        history.rounds_completed == rounds
        and len(history.train_losses) == rounds
        and len(history.eval_series) == rounds
        and all(len(row) == k for row in history.train_losses)
        and all(
            np.isfinite(v) for row in history.train_losses + history.eval_series
            for per in row.values() for v in per.values()
        )
    )
    return ("history_complete", ok, f"{history.rounds_completed}/{rounds} rounds, finite losses")


def published_population_loads(store, trainers) -> Verdict:
    """The last published tag loads back as a full ensemble whose winner's
    forward weights are the weights that trainer held when it was saved
    (or holds now, if it was the final round's publish)."""
    tag = store.latest()
    ensemble = store.load_ensemble(tag)
    names = [t.name for t in trainers]
    ok = [m.trainer_name for m in ensemble.members] == names and (
        ensemble.winner_member.trainer_name in names
    )
    return ("published_population_loads", ok, f"tag {tag}, {len(ensemble.members)} members")


def _rows_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        set(ra) == set(rb)
        and all(ra[n].keys() == rb[n].keys() for n in ra)
        and all(ra[n][key] == rb[n][key] for n in ra for key in ra[n])
        for ra, rb in zip(a, b)
    )


def matches_reference(history, reference, rounds: int) -> Verdict:
    """The first ``rounds`` rounds equal a serial run of the same seed bit
    for bit: losses, eval series, pairings and tournament verdicts."""
    tournaments = lambda h: [  # noqa: E731
        (t.round_index, t.trainer, t.partner, t.own_score, t.partner_score, t.adopted_partner)
        for t in h.tournaments if t.round_index < rounds
    ]
    ok = (
        _rows_equal(history.train_losses[:rounds], reference.train_losses)
        and _rows_equal(history.eval_series[:rounds], reference.eval_series)
        and history.pairings[:rounds] == reference.pairings
        and tournaments(history) == tournaments(reference)
    )
    return ("process_equals_serial_reference", ok, f"first {rounds} rounds")


def streaming_end_state(built, z, total_rounds: int, trainers, history) -> list[Verdict]:
    """The ingestion history is a pure function of seed and poll count:
    every poll admits exactly ``tasks_per_poll`` fresh samples, nothing
    ages out or is displaced, and the drain cursor ends where the universe
    does."""
    expected = built.primed_size + z.tasks_per_poll * total_rounds
    stats = built.channel.stats
    steps = total_rounds * z.steps_per_round
    nan_alerts = [w for w in history.health_warnings if w.kind == "nan_loss"]
    return [
        ("universe_size", built.universe.size == expected,
         f"{built.universe.size} vs {expected} implied by the seed"),
        ("drain_cursor", built.channel.cursor == expected == stats.drained,
         f"cursor {built.channel.cursor}, drained {stats.drained}"),
        ("nothing_dropped", stats.stale_evictions == 0 and stats.retention_drops == 0,
         f"stale {stats.stale_evictions}, displaced {stats.retention_drops}"),
        ("no_trainer_starved", all(t.steps_done == steps for t in trainers),
         f"steps {[t.steps_done for t in trainers]} vs {steps}"),
        # The default LiveAggregator fires timing-noise warnings (stall and
        # step-time z-scores) on a shared host and quality_collapse on
        # ordinary GAN oscillation; they are counted (telemetry.alerts),
        # and only the data-integrity alert fails the run.
        ("no_nan_alert", not nan_alerts,
         f"{len(nan_alerts)} nan_loss of {len(history.health_warnings)} warnings"),
    ]


def serving_outputs(phases, models, publishes, expected_publishes: int) -> list[Verdict]:
    bad_shape = sum(p.bad_shape for p in phases)
    backwards = stale_cached = 0
    for p in phases:
        answered = np.isfinite(p.done)
        order = np.argsort(p.done[answered], kind="stable")
        version = p.version[answered][order]
        cached = p.cached[answered][order]
        # Batches execute one after another, so computed responses must
        # carry non-decreasing versions in completion order.  A cached
        # response carries the version that computed it.
        backwards += int((np.diff(version[~cached]) < 0).sum())
        running = np.maximum.accumulate(version)
        stale_cached += int((cached & (version < running)).sum())
    inexact = checked = 0
    for p in phases:
        for row, scalars, images, version in p.samples.values():
            want_s, want_i = models[version].runtime.winner.predict(row[None])
            checked += 1
            if not (np.array_equal(want_s[0], scalars) and np.array_equal(want_i[0], images)):
                inexact += 1
    versions = [v for _, v, _ in publishes]
    return [
        ("response_shapes", bad_shape == 0, f"{bad_shape} malformed"),
        ("version_never_backwards", backwards == 0,
         f"{backwards} computed responses behind; {stale_cached} stale cache hits"),
        ("sampled_rows_exact", inexact == 0 and checked > 0,
         f"{checked - inexact}/{checked} equal a direct GeneratorRuntime.predict"),
        ("every_publish_served", len(publishes) == expected_publishes
         and versions == sorted(set(versions)),
         f"{len(publishes)}/{expected_publishes} reloads, versions {versions[:1]}..{versions[-1:]}"),
    ]
