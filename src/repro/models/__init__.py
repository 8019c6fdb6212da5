"""The paper's neural architectures (Section II-D).

The ICF surrogate is a CycleGAN over a learned latent space:

- a **multimodal autoencoder** maps output bundles (15 scalars + images)
  to a 20-D latent space and back (trained a priori);
- the **forward model** F: R^5 -> R^20 maps experiment parameters to the
  latent space (predictions = decoder(F(x)), enforcing *internal
  consistency* — all modalities predicted jointly);
- an adversarial **discriminator** D: R^20 -> {0,1} pushes F's outputs
  onto the data manifold (*physical consistency*);
- the **inverse model** G: R^20 -> R^5 enforces *self consistency*
  G(F(x)) ~= x (cycle loss) and gives scientists the inverse map.

All components are standard fully-connected networks, as in the paper.
:class:`~repro.models.cyclegan.SurrogateArchitecture` additionally
describes the layer widths symbolically so the cluster performance model
can price paper-scale training steps without materializing paper-scale
weights.
"""

from repro.models.autoencoder import BatchLatent, LatentTable, MultimodalAutoencoder
from repro.models.cyclegan import (
    ICFSurrogate,
    MLPSpec,
    SurrogateArchitecture,
    SurrogateConfig,
    paper_architecture,
    small_config,
)

__all__ = [
    "MultimodalAutoencoder",
    "LatentTable",
    "BatchLatent",
    "ICFSurrogate",
    "SurrogateConfig",
    "small_config",
    "MLPSpec",
    "SurrogateArchitecture",
    "paper_architecture",
]
