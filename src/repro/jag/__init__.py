"""Synthetic JAG: a semi-analytic ICF implosion data generator.

The paper trains on outputs of the JAG model — a semi-analytic simulator
of the final stages of an inertial-confinement-fusion implosion that maps
a 5-D input (laser drive strength + 3-D shell shape) to a multimodal
output bundle: X-ray camera images on three lines of sight with 4-channel
hyperspectral resolution, plus 15 scalar observables.  JAG itself and the
2 TB campaign dataset are not available, so this package implements the
closest synthetic equivalent (see DESIGN.md, "Substitutions"):

- :mod:`repro.jag.params` — the 5-D input space;
- :mod:`repro.jag.simulator` — a vectorized semi-analytic implosion model
  (compression/temperature/yield physics sketch) that renders the
  multi-view, multi-channel hot-spot images;
- :mod:`repro.jag.postprocess` — the 15 scalar observables;
- :mod:`repro.jag.sampling` — space-filling experiment designs (uniform,
  Latin hypercube / Sobol via SciPy, and a deterministic rank-1 lattice
  standing in for the paper's spectral design);
- :mod:`repro.jag.dataset` — end-to-end dataset generation, normalization,
  and packing into bundle files.

What the substitution preserves: outputs are a smooth but strongly
nonlinear function of a low-dimensional input; scalars respond mostly to
the drive, images mostly to the shape modes; all modalities are jointly
determined by the same latent implosion state (so a joint surrogate is the
right model class); samples are produced in exploration order (so
contiguous file partitions are non-IID).

Contract: the simulator is **row-independent** — ``JagSimulator.run``,
``render_images`` and ``derive_scalars`` on a block of rows are bit-equal
to the same rows evaluated one at a time.  Chunked dataset generation and
the streaming campaign's block simulation (:mod:`repro.ingest.producer`)
rest on it; ``tests/test_jag.py`` holds it as a property.
"""

from repro.jag.params import PARAMETER_NAMES, NUM_PARAMS, ParameterSpace
from repro.jag.simulator import ImplosionState, JagSimulator
from repro.jag.postprocess import NUM_SCALARS, SCALAR_NAMES, derive_scalars
from repro.jag.sampling import design_points
from repro.jag.dataset import (
    JagDataset,
    JagDatasetConfig,
    JagSchema,
    generate_dataset,
    paper_schema,
    small_schema,
)

__all__ = [
    "ParameterSpace",
    "PARAMETER_NAMES",
    "NUM_PARAMS",
    "JagSimulator",
    "ImplosionState",
    "derive_scalars",
    "SCALAR_NAMES",
    "NUM_SCALARS",
    "design_points",
    "JagSchema",
    "JagDatasetConfig",
    "JagDataset",
    "generate_dataset",
    "paper_schema",
    "small_schema",
]
