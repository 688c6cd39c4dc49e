"""Cost-Distance Steiner Trees for Timing-Constrained Global Routing.

A from-scratch Python reproduction of Held & Perner (DAC 2025,
arXiv:2503.04419): the fast O(log t)-approximate cost-distance Steiner tree
algorithm with bifurcation delay penalties, the topology-first baselines it
is compared against (L1 / shallow-light / Prim-Dijkstra with optimal graph
embedding), and the timing-constrained global routing flow used for the
evaluation.

Typical usage::

    from repro import build_grid_graph, SteinerInstance, CostDistanceSolver
    from repro import BifurcationModel, evaluate_tree

    graph = build_grid_graph(16, 16, num_layers=8)
    instance = SteinerInstance(
        graph, root, sinks, weights,
        cost=graph.base_cost_array(), delay=graph.delay_array(),
        bifurcation=BifurcationModel(dbif=3.0, eta=0.25),
    )
    tree = CostDistanceSolver().build(instance)
    print(evaluate_tree(instance, tree).total)

Nets are routed through the batch-routing engine (:mod:`repro.engine`),
which schedules them into congestion-snapshot batches, routes each batch
in-process, and can skip unchanged nets in later rip-up rounds via an
incremental re-route cache::

    from repro import EngineConfig, GlobalRouterConfig

    config = GlobalRouterConfig(
        engine=EngineConfig(reroute_cache=True)
    )

See ``DESIGN.md`` (repository root) for the package and subsystem
inventory; the reproduced tables and figures live under
``benchmarks/results/``.
"""

from repro.core.bifurcation import BifurcationModel
from repro.core.cost_distance import CostDistanceConfig, CostDistanceSolver
from repro.core.instance import SteinerInstance
from repro.core.objective import ObjectiveBreakdown, evaluate_tree
from repro.core.oracle import SteinerOracle
from repro.core.tree import EmbeddedTree
from repro.grid.graph import RoutingGraph, build_grid_graph
from repro.grid.layers import LayerStack, default_layer_stack
from repro.grid.congestion import CongestionMap, ace, ace4
from repro.timing.delay import LinearDelayModel
from repro.timing.repeater import BufferParameters, RepeaterChainModel
from repro.baselines.rsmt import RectilinearSteinerOracle
from repro.baselines.shallow_light import ShallowLightOracle
from repro.baselines.prim_dijkstra import PrimDijkstraOracle
from repro.baselines.embedding import TopologyEmbedder
from repro.router.netlist import Net, Netlist, Pin
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.engine import (
    EngineConfig,
    NetScheduler,
    RerouteCache,
    RoutingEngine,
    derive_net_rng_for_name,
)
from repro.grid.partition import RegionPartition, partition_grid
from repro.shard import ShardCoordinator, ShardStats
from repro.instances.chips import CHIP_SUITE, ChipSpec, build_chip, large_chip
from repro.instances.generator import generate_netlist, generate_steiner_instances

__version__ = "1.0.0"

__all__ = [
    "BifurcationModel",
    "CostDistanceConfig",
    "CostDistanceSolver",
    "SteinerInstance",
    "ObjectiveBreakdown",
    "evaluate_tree",
    "SteinerOracle",
    "EmbeddedTree",
    "RoutingGraph",
    "build_grid_graph",
    "LayerStack",
    "default_layer_stack",
    "CongestionMap",
    "ace",
    "ace4",
    "LinearDelayModel",
    "BufferParameters",
    "RepeaterChainModel",
    "RectilinearSteinerOracle",
    "ShallowLightOracle",
    "PrimDijkstraOracle",
    "TopologyEmbedder",
    "Net",
    "Netlist",
    "Pin",
    "GlobalRouter",
    "GlobalRouterConfig",
    "EngineConfig",
    "RoutingEngine",
    "NetScheduler",
    "RerouteCache",
    "derive_net_rng_for_name",
    "RegionPartition",
    "partition_grid",
    "ShardCoordinator",
    "ShardStats",
    "CHIP_SUITE",
    "ChipSpec",
    "build_chip",
    "large_chip",
    "generate_netlist",
    "generate_steiner_instances",
    "__version__",
]
