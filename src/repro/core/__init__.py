"""The paper's contribution: trainers, LTFB tournament training, baselines,
and the Lassen-scale performance models.

Functional side (real NumPy training at laptop scale):

- :mod:`repro.core.trainer` — a *trainer*: compute resources + a surrogate
  model + data readers + optimizers, trained with Adam.
- :mod:`repro.core.ltfb` — the "Let a Thousand Flowers Bloom" tournament:
  partitioned data silos, independent training, periodic random pairing,
  generator exchange, local-tournament winner selection.
- :mod:`repro.core.kindependent` — the K-independent baseline of Fig. 13.
- :mod:`repro.core.ensemble` — shared autoencoder pre-training and
  construction of trainer populations over dataset partitions.

Performance side (analytic, paper scale):

- :mod:`repro.core.perfmodel` — epoch/step/preload time models for a
  single trainer under the three ingestion modes (Figs. 9-10) and for
  multi-trainer LTFB (Fig. 11), built from the compute, collective, and
  file-system cost models.
"""

from repro.core.trainer import Trainer, TrainerConfig
from repro.core.enums import AdoptOptimizer, ExchangeScope
from repro.core.driver import History, PopulationDriver
from repro.core.ltfb import LtfbConfig, LtfbDriver, LtfbHistory, TournamentRecord
from repro.core.kindependent import KIndependentDriver
from repro.core.topology import (
    TOPOLOGY_NAMES,
    AsyncPairwise,
    CellularGrid,
    Isolated,
    MultiDiscriminator,
    Pairing,
    RandomPairwise,
    RoundPlan,
    Topology,
    resolve_topology,
)
from repro.core.ensemble import EnsembleSpec, build_population, pretrain_autoencoder
from repro.core.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointNotFoundError,
    CheckpointStore,
    CheckpointVersionError,
    EnsembleSnapshot,
    GeneratorSnapshot,
    apply_exec_state,
    capture_exec_state,
    generator_snapshot,
    population_checkpoint,
    restore_population,
    restore_trainer,
    trainer_checkpoint,
)
from repro.core.perfmodel import (
    IngestionMode,
    LtfbPerfModel,
    LtfbScalePoint,
    PerfDataset,
    TrainerPerfModel,
    TrainerResources,
)

__all__ = [
    "Trainer",
    "TrainerConfig",
    "ExchangeScope",
    "AdoptOptimizer",
    "History",
    "PopulationDriver",
    "LtfbConfig",
    "LtfbDriver",
    "LtfbHistory",
    "TournamentRecord",
    "KIndependentDriver",
    "Topology",
    "TOPOLOGY_NAMES",
    "RandomPairwise",
    "CellularGrid",
    "MultiDiscriminator",
    "AsyncPairwise",
    "Isolated",
    "Pairing",
    "RoundPlan",
    "resolve_topology",
    "EnsembleSpec",
    "build_population",
    "pretrain_autoencoder",
    "IngestionMode",
    "PerfDataset",
    "TrainerResources",
    "TrainerPerfModel",
    "LtfbPerfModel",
    "LtfbScalePoint",
    "trainer_checkpoint",
    "restore_trainer",
    "population_checkpoint",
    "restore_population",
    "capture_exec_state",
    "apply_exec_state",
    "CheckpointError",
    "CheckpointNotFoundError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "CheckpointMismatchError",
    "CheckpointStore",
    "GeneratorSnapshot",
    "EnsembleSnapshot",
    "generator_snapshot",
]
