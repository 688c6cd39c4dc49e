"""Random netlist and Steiner-instance generation.

Two generators are provided:

* :func:`generate_netlist` creates a full synthetic netlist for the global
  routing experiments (Tables IV/V): nets with a realistic sink-count
  distribution, pins clustered around their driver, and multi-stage timing
  paths constrained by a clock period chosen so that a few percent of the
  endpoints are critical.
* :func:`generate_steiner_instances` creates standalone cost-distance Steiner
  tree instances "as they appear during timing-constrained global routing":
  congestion cost vectors with hot spots and mostly-small Lagrangean delay
  weights with a few critical sinks.  These drive the apples-to-apples
  comparison of Tables I/II without having to run the full router first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bifurcation import BifurcationModel
from repro.core.instance import SteinerInstance
from repro.grid.geometry import GridPoint
from repro.grid.graph import RoutingGraph
from repro.router.netlist import Net, Netlist, Pin, Stage

__all__ = [
    "NetlistGeneratorConfig",
    "generate_netlist",
    "generate_steiner_instances",
]


#: Net-size buckets (min_sinks, max_sinks, probability); loosely modelled on
#: the mix of the paper's industrial units where most nets are small but a
#: long tail of high-fanout nets exists.
DEFAULT_SIZE_DISTRIBUTION: Tuple[Tuple[int, int, float], ...] = (
    (1, 2, 0.48),
    (3, 5, 0.27),
    (6, 14, 0.15),
    (15, 29, 0.06),
    (30, 60, 0.04),
)


@dataclass(frozen=True)
class NetlistGeneratorConfig:
    """Parameters of the synthetic netlist generator."""

    num_nets: int = 100
    size_distribution: Tuple[Tuple[int, int, float], ...] = DEFAULT_SIZE_DISTRIBUTION
    cluster_fraction: float = 0.75
    cluster_radius_small: int = 4
    cluster_radius_large: int = 10
    stage_probability: float = 0.65
    min_cell_delay: float = 4.0
    max_cell_delay: float = 14.0
    clock_period: Optional[float] = None
    period_tightness: float = 0.8

    def __post_init__(self) -> None:
        if self.num_nets < 1:
            raise ValueError("num_nets must be positive")
        total = sum(p for _, _, p in self.size_distribution)
        if abs(total - 1.0) > 1e-6:
            raise ValueError("size distribution probabilities must sum to 1")
        if not 0.0 <= self.stage_probability <= 1.0:
            raise ValueError("stage_probability must lie in [0, 1]")


def _draw_net_size(rng: random.Random, distribution) -> int:
    r = rng.random()
    acc = 0.0
    for lo, hi, p in distribution:
        acc += p
        if r <= acc:
            return rng.randint(lo, hi)
    lo, hi, _ = distribution[-1]
    return rng.randint(lo, hi)


def _clamp(value: int, low: int, high: int) -> int:
    return max(low, min(high, value))


def _place_net_pins(
    rng: random.Random,
    graph: RoutingGraph,
    num_sinks: int,
    config: NetlistGeneratorConfig,
) -> Tuple[GridPoint, List[GridPoint]]:
    """Place a driver and its sinks: clustered around the driver with outliers."""
    nx, ny = graph.nx, graph.ny
    driver = GridPoint(rng.randrange(nx), rng.randrange(ny), 0)
    radius = (
        config.cluster_radius_small
        if num_sinks <= 5
        else config.cluster_radius_large
    )
    sinks: List[GridPoint] = []
    for _ in range(num_sinks):
        if rng.random() < config.cluster_fraction:
            x = _clamp(driver.x + rng.randint(-radius, radius), 0, nx - 1)
            y = _clamp(driver.y + rng.randint(-radius, radius), 0, ny - 1)
        else:
            x = rng.randrange(nx)
            y = rng.randrange(ny)
        sinks.append(GridPoint(x, y, 0))
    return driver, sinks


def generate_netlist(
    graph: RoutingGraph,
    config: Optional[NetlistGeneratorConfig] = None,
    seed: int = 0,
    name: str = "synthetic",
) -> Netlist:
    """Generate a synthetic netlist placed on ``graph``.

    The clock period defaults to ``period_tightness`` times an estimate of
    the longest combinational path delay (HPWL-based), so that the routed
    design has a small amount of negative slack -- the regime the paper's
    Tables IV/V operate in.
    """
    config = config or NetlistGeneratorConfig()
    rng = random.Random(seed)

    nets: List[Net] = []
    for i in range(config.num_nets):
        num_sinks = _draw_net_size(rng, config.size_distribution)
        driver, sinks = _place_net_pins(rng, graph, num_sinks, config)
        nets.append(
            Net(
                name=f"n{i}",
                driver=Pin(f"n{i}:drv", driver),
                sinks=[Pin(f"n{i}:s{k}", p) for k, p in enumerate(sinks)],
            )
        )

    # Combinational stages: each net may drive a later net through a cell,
    # forming chains (a DAG because edges only go to higher indices).
    stages: List[Stage] = []
    for i in range(config.num_nets - 1):
        if rng.random() < config.stage_probability:
            target = rng.randrange(i + 1, config.num_nets)
            cell_delay = rng.uniform(config.min_cell_delay, config.max_cell_delay)
            sink_index = rng.randrange(nets[i].num_sinks)
            stages.append(Stage(i, sink_index, target, cell_delay))

    clock_period = config.clock_period
    if clock_period is None:
        clock_period = config.period_tightness * _estimate_longest_path(
            graph, nets, stages
        )

    return Netlist(name=name, nets=nets, stages=stages, clock_period=clock_period)


def _estimate_longest_path(
    graph: RoutingGraph, nets: Sequence[Net], stages: Sequence[Stage]
) -> float:
    """HPWL-based estimate of the longest combinational path delay (ps)."""
    delay_rate = graph.delay_model.fastest_delay_per_tile() * 1.3
    incoming: Dict[int, List[Stage]] = {}
    for stage in stages:
        incoming.setdefault(stage.to_net, []).append(stage)
    # Nets are already topologically ordered (stages go to higher indices).
    arrival = [0.0] * len(nets)
    longest = 0.0
    for i, net in enumerate(nets):
        start = 0.0
        for stage in incoming.get(i, []):
            upstream = arrival[stage.from_net] + stage.cell_delay
            start = max(start, upstream)
        net_delay = net.half_perimeter() * delay_rate
        arrival[i] = start + net_delay
        longest = max(longest, arrival[i])
    return max(longest, 1.0)


# --------------------------------------------------------------------------
# Standalone cost-distance Steiner instances (Tables I / II)
# --------------------------------------------------------------------------


def _congested_cost_vector(
    graph: RoutingGraph, rng: random.Random, num_hotspots: int = 3
) -> np.ndarray:
    """Base costs with a few congestion hot spots, mimicking router prices."""
    costs = graph.base_cost_array()
    rest = np.asarray(graph.edge_u, dtype=np.int64) % (graph.nx * graph.ny)
    edge_y = rest // graph.nx
    edge_x = rest % graph.nx
    for _ in range(num_hotspots):
        cx = rng.randrange(graph.nx)
        cy = rng.randrange(graph.ny)
        radius = rng.randint(2, max(3, graph.nx // 4))
        strength = rng.uniform(1.5, 5.0)
        mask = (np.abs(edge_x - cx) + np.abs(edge_y - cy)) <= radius
        costs[mask] *= strength
    return costs


def _lagrangean_weights(rng: random.Random, num_sinks: int) -> List[float]:
    """Delay weights as produced by the Lagrangean relaxation: mostly small,
    a few critical sinks with substantial weight."""
    weights = []
    for _ in range(num_sinks):
        if rng.random() < 0.2:
            weights.append(rng.uniform(0.3, 1.5))
        else:
            weights.append(rng.uniform(0.01, 0.15))
    return weights


def generate_steiner_instances(
    graph: RoutingGraph,
    num_instances: int,
    dbif: float = 0.0,
    eta: float = 0.25,
    seed: int = 0,
    size_distribution: Tuple[Tuple[int, int, float], ...] = (
        (3, 5, 0.55),
        (6, 14, 0.25),
        (15, 29, 0.12),
        (30, 60, 0.08),
    ),
    cluster_fraction: float = 0.7,
) -> List[SteinerInstance]:
    """Generate standalone cost-distance Steiner tree instances.

    The size distribution defaults to the buckets of paper Tables I/II
    (instances with at least 3 sinks).  Every instance gets its own
    congestion-priced cost vector and Lagrangean-style delay weights.
    """
    rng = random.Random(seed)
    config = NetlistGeneratorConfig(cluster_fraction=cluster_fraction)
    instances: List[SteinerInstance] = []
    delay = graph.delay_array()
    bifurcation = BifurcationModel(dbif=dbif, eta=eta)
    for index in range(num_instances):
        costs = _congested_cost_vector(graph, rng)
        num_sinks = _draw_net_size(rng, size_distribution)
        driver, sink_points = _place_net_pins(rng, graph, num_sinks, config)
        root = graph.point_index(driver)
        sinks = [graph.point_index(p) for p in sink_points]
        weights = _lagrangean_weights(rng, num_sinks)
        instances.append(
            SteinerInstance(
                graph=graph,
                root=root,
                sinks=sinks,
                weights=weights,
                cost=costs,
                delay=delay,
                bifurcation=bifurcation,
                name=f"inst{index}",
            )
        )
    return instances
