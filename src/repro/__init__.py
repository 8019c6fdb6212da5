"""repro: reproduction of "Parallelizing Training of Deep Generative
Models on Massive Scientific Datasets" (Jacobs et al., CLUSTER 2019).

Subpackages (see README.md for the architecture overview):

- :mod:`repro.tensorlib` — NumPy neural-network substrate (LBANN analog);
- :mod:`repro.comm` — SPMD communicator and collective cost models
  (Aluminum analog);
- :mod:`repro.cluster` — simulated Lassen-class machine: compute and
  parallel-file-system models;
- :mod:`repro.datastore` — the distributed in-memory data store;
- :mod:`repro.jag` — synthetic JAG ICF data generator;
- :mod:`repro.workflow` — ensemble workflow engine (Merlin analog);
- :mod:`repro.models` — multimodal autoencoder + CycleGAN surrogate;
- :mod:`repro.core` — trainers, the LTFB tournament algorithm, baselines,
  checkpointing, and the paper-scale performance models;
- :mod:`repro.telemetry` — event-bus + callback observability layer
  (LBANN-callback analog): trace writing, progress, metrics;
- :mod:`repro.exec` — pluggable execution backends (serial/thread/
  process) deciding where population trainer work runs;
- :mod:`repro.experiments` — one harness per paper figure, plus ablations.

The most common entry points are re-exported here.
"""

from repro.core import (
    AdoptOptimizer,
    EnsembleSpec,
    ExchangeScope,
    History,
    KIndependentDriver,
    LtfbConfig,
    LtfbDriver,
    PopulationDriver,
    Trainer,
    TrainerConfig,
    build_population,
    pretrain_autoencoder,
)
from repro.exec import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.jag import JagDatasetConfig, JagSchema, generate_dataset
from repro.models import ICFSurrogate, MultimodalAutoencoder, SurrogateConfig
from repro.telemetry import (
    Callback,
    JsonlTraceWriter,
    MetricsCollector,
    ProgressLogger,
    TelemetryHub,
)
from repro.utils.rng import RngFactory

__version__ = "1.0.0"

__all__ = [
    "RngFactory",
    "JagDatasetConfig",
    "JagSchema",
    "generate_dataset",
    "MultimodalAutoencoder",
    "ICFSurrogate",
    "SurrogateConfig",
    "EnsembleSpec",
    "TrainerConfig",
    "Trainer",
    "ExchangeScope",
    "AdoptOptimizer",
    "LtfbConfig",
    "LtfbDriver",
    "KIndependentDriver",
    "PopulationDriver",
    "History",
    "build_population",
    "pretrain_autoencoder",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
    "TelemetryHub",
    "Callback",
    "JsonlTraceWriter",
    "MetricsCollector",
    "ProgressLogger",
    "__version__",
]
