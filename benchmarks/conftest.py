"""Benchmark fixtures.

The quality experiments (Figs. 7, 8, 12, 13) share one expensive setup —
dataset generation plus autoencoder pre-training — built once per session
here.  Reports are printed and archived under ``results/``.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest

from repro.core.ensemble import EnsembleSpec
from repro.core.trainer import TrainerConfig
from repro.experiments.common import ExperimentReport, QualityWorkbench
from repro.models.cyclegan import small_config

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

# Quality-experiment scale.  These sizes keep the full benchmark suite in
# the tens of minutes on a laptop while leaving every paper effect
# measurable; scale n_samples / rounds up for tighter curves.
QUALITY_SEED = 2019
QUALITY_SAMPLES = 12_288
QUALITY_BATCH = 64


def pytest_benchmark_update_machine_info(config, machine_info):
    """Add what pytest-benchmark's host record lacks: NumPy and BLAS threads."""
    machine_info["numpy"] = np.__version__
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        machine_info[var] = os.environ.get(var)


def _quality_spec() -> EnsembleSpec:
    return EnsembleSpec(
        surrogate=small_config(batch_size=QUALITY_BATCH),
        trainer=TrainerConfig(batch_size=QUALITY_BATCH, adopt_optimizer="exchange"),
        ae_epochs=10,
        tournament_fraction=0.05,  # keeps per-round tournament evals cheap
    )


@pytest.fixture(scope="session")
def quality_bench() -> QualityWorkbench:
    """Quasi-random ("design") campaign order: unbiased silos.  Used by
    Figures 7, 8 and 12 (population-exploration effects)."""
    return QualityWorkbench(
        seed=QUALITY_SEED,
        n_samples=QUALITY_SAMPLES,
        spec=_quality_spec(),
        dataset_order="design",
        max_val_samples=1024,
    )


@pytest.fixture(scope="session")
def sweep_quality_bench() -> QualityWorkbench:
    """Sweep-ordered campaign at *saturated* silo scale: strongly non-IID
    silos small enough that independent trainers converge onto (and
    overfit) their drive band within the schedule.  Used by Figure 13,
    where the silo handicap is the mechanism under test (see
    EXPERIMENTS.md on campaign ordering and data regime)."""
    spec = _quality_spec()
    import dataclasses

    from repro.core.trainer import TrainerConfig
    from repro.models.cyclegan import small_config

    spec = dataclasses.replace(
        spec,
        surrogate=small_config(batch_size=128),
        trainer=TrainerConfig(batch_size=128, adopt_optimizer="keep"),
    )
    return QualityWorkbench(
        seed=QUALITY_SEED + 1,
        n_samples=4096,
        spec=spec,
        dataset_order="sweep",
        max_val_samples=1024,
    )


def archive_report(report: ExperimentReport, name: str) -> None:
    """Print the report and save it under results/ for EXPERIMENTS.md."""
    text = report.render()
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture()
def archive():
    return archive_report


# One schedule shared by the Figure 7/8 benchmarks so they reuse a single
# trained surrogate from the workbench cache.
FIG0708_SCHEDULE = dict(k=4, rounds=40, steps_per_round=10)


@pytest.fixture(scope="session")
def fig0708_schedule() -> dict:
    return dict(FIG0708_SCHEDULE)
