"""Communication cost models (Aluminum analog).

- :mod:`repro.comm.topology` — which node each rank of a trainer sits on.
- :mod:`repro.comm.costmodel` — alpha-beta cost models for point-to-point
  and collective operations over that placement (NVLink intra-node vs
  InfiniBand inter-node).  The cluster performance simulator uses them to
  price the data store's shuffle, model exchange and the data-parallel
  gradient allreduce at Lassen scale.

Nothing here sends a message: every collective is priced, not run.
"""

from repro.comm.topology import RankPlacement, contiguous_placement
from repro.comm.costmodel import CollectiveCostModel, LinkParams

__all__ = [
    "RankPlacement",
    "contiguous_placement",
    "LinkParams",
    "CollectiveCostModel",
]
