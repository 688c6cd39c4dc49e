"""The batch-routing engine.

The execution layer between the resource-sharing router and the Steiner
oracles:

* :mod:`repro.engine.scheduler` -- partitions each rip-up-and-re-route round
  into batches of nets that share one congestion snapshot (cost-refresh
  windows, or conflict-free bounding-box batches).
* :mod:`repro.engine.executor` -- :class:`WorkerPool`, the one task map
  (pure tasks inline or on ``multiprocessing`` workers, results in task
  order; the shard layer's region pool).
* :mod:`repro.engine.cache` -- the incremental re-route cache that skips
  nets whose instance signature did not change since their last routing.
* :mod:`repro.engine.engine` -- the :class:`RoutingEngine` the
  :class:`repro.router.router.GlobalRouter` delegates to, configured by
  :class:`EngineConfig`; it routes each batch in-process, net by net.
* :mod:`repro.engine.rng` -- the stable per-net RNG derivation shared by
  every placement (serial, sharded, pooled regions).
"""

from repro.engine.cache import CacheStats, RerouteCache
from repro.engine.engine import EngineConfig, RoundReport, RoutingEngine
from repro.engine.executor import WorkerPool
from repro.engine.rng import (
    NET_STREAM_STRIDE,
    derive_net_rng_for_name,
    net_name_key,
    net_stream_seed_for_name,
)
from repro.engine.scheduler import BoundingBox, NetBatch, NetScheduler

__all__ = [
    "BoundingBox",
    "NetBatch",
    "NetScheduler",
    "WorkerPool",
    "CacheStats",
    "RerouteCache",
    "EngineConfig",
    "RoundReport",
    "RoutingEngine",
    "NET_STREAM_STRIDE",
    "net_name_key",
    "net_stream_seed_for_name",
    "derive_net_rng_for_name",
]
