"""Parallel batch-routing engine.

The execution layer between the resource-sharing router and the Steiner
oracles:

* :mod:`repro.engine.scheduler` -- partitions each rip-up-and-re-route round
  into batches of nets that share one congestion snapshot (cost-refresh
  windows, or conflict-free bounding-box batches).
* :mod:`repro.engine.executor` -- :class:`WorkerPool`, the one task map
  (pure tasks inline or on ``multiprocessing`` workers, results in task
  order), and :class:`BatchExecutor`, which routes a batch through it:
  ``serial`` in-process or ``process`` pooled, bit-identical trees thanks to
  per-net RNG streams.
* :mod:`repro.engine.cache` -- the incremental re-route cache that skips
  nets whose instance signature did not change since their last routing.
* :mod:`repro.engine.engine` -- the :class:`RoutingEngine` façade the
  :class:`repro.router.router.GlobalRouter` delegates to, configured by
  :class:`EngineConfig`.
* :mod:`repro.engine.rng` -- the stable per-net RNG derivation shared by all
  backends.
"""

from repro.engine.cache import CacheStats, RerouteCache
from repro.engine.engine import EngineConfig, RoundReport, RoutingEngine
from repro.engine.executor import (
    EXECUTOR_BACKENDS,
    BatchExecutor,
    NetTask,
    WorkerPool,
)
from repro.engine.rng import (
    NET_STREAM_STRIDE,
    derive_net_rng,
    derive_net_rng_for_name,
    net_name_key,
    net_stream_seed,
    net_stream_seed_for_name,
)
from repro.engine.scheduler import BoundingBox, NetBatch, NetScheduler

__all__ = [
    "BoundingBox",
    "NetBatch",
    "NetScheduler",
    "NetTask",
    "BatchExecutor",
    "WorkerPool",
    "EXECUTOR_BACKENDS",
    "CacheStats",
    "RerouteCache",
    "EngineConfig",
    "RoundReport",
    "RoutingEngine",
    "NET_STREAM_STRIDE",
    "net_stream_seed",
    "derive_net_rng",
    "net_name_key",
    "net_stream_seed_for_name",
    "derive_net_rng_for_name",
]
