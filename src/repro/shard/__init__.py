"""Multi-region (sharded) divide-and-conquer routing.

The shard layer splits one huge design into K rectangular regions (see
:mod:`repro.grid.partition`), routes region-interior nets through
independent per-region engines, and stitches congestion at the seams: nets
whose bounding box spans two or more regions are routed in a global pass
against the merged per-region congestion deltas.

* :mod:`repro.shard.coordinator` -- :class:`ShardCoordinator`, a drop-in
  replacement for :class:`repro.engine.engine.RoutingEngine` selected by
  ``GlobalRouterConfig.shards > 1``.
* :mod:`repro.shard.executor` -- :class:`RegionExecutor`, which maps one
  round's K interior passes over the engine layer's ``WorkerPool``:
  in-process, or on a process pool with
  ``GlobalRouterConfig.shard_workers > 1``, bit-identical either way.
"""

from repro.shard.coordinator import ShardCoordinator, ShardStats
from repro.shard.executor import RegionExecutor

__all__ = [
    "ShardCoordinator",
    "ShardStats",
    "RegionExecutor",
]
