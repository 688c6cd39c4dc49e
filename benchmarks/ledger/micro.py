"""Bottom-layer micro-benchmarks.

Each one is a timed loop over public functions of one module, run on the
workload's own graph, netlist and finished router, so that a regression is
localised to a layer and not only detected end to end.  Every loop runs
for ``seconds`` (at least three calls) and reports the median call time
together with its iteration count.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import replace
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.cost_distance import CostDistanceSolver
from repro.core.costctx import OracleCostContext
from repro.core.heap import AddressableBinaryHeap, TwoLevelHeap
from repro.engine.cache import RerouteCache
from repro.grid.congestion import CongestionMap
from repro.grid.graph import build_grid_graph, extract_prism
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.serve.checkpoint import load_checkpoint, save_checkpoint

from .layers import median

#: Operations of one pass of the heap sequence.
HEAP_OPS = 20000
#: Concurrent searches the two-level heap sequence spreads its items over
#: (the solver keeps one sub-heap per active sink).
HEAP_SEARCHES = 8


def timed_loop(call: Callable[[], object], seconds: float) -> Tuple[float, int]:
    """Median seconds per ``call()`` and the number of calls made."""
    samples: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < 3 or time.perf_counter() < deadline:
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return median(samples), len(samples)


def heap_sequence(rng: random.Random) -> List[Tuple[int, int, float]]:
    """A Dijkstra-shaped op sequence: ``(search, item, key)`` pushes with
    slowly growing keys (so many are decrease-keys or no-ops), a pop (search
    ``-1``) three times in ten."""
    sequence = []
    for step in range(HEAP_OPS):
        if rng.random() < 0.3:
            sequence.append((-1, 0, 0.0))
        else:
            key = step * 0.01 + rng.random() * 50.0
            sequence.append((rng.randrange(HEAP_SEARCHES), rng.randrange(4000), key))
    return sequence


def _drive_twolevel(sequence) -> None:
    heap = TwoLevelHeap()
    for search, item, key in sequence:
        if search >= 0:
            heap.push(search, item, key)
        elif heap:
            heap.pop()


def _drive_binary(sequence) -> None:
    heap = AddressableBinaryHeap()
    for search, item, key in sequence:
        if search >= 0:
            heap.insert_or_decrease((search, item), key)
        elif heap:
            heap.pop()


def _perturbed(cost: np.ndarray, rng: random.Random) -> np.ndarray:
    """``cost`` with 1% of its entries raised, as one batch's trees do."""
    out = cost.copy()
    picks = rng.sample(range(out.size), max(1, out.size // 100))
    out[picks] *= 1.25
    return out


def _ms(seconds: float) -> float:
    return seconds * 1e3


def run_micro(
    router: GlobalRouter, seed: int, seconds: float, workdir: str
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """All micro-benchmarks on a finished ``router``'s graph, netlist and
    trees: ``({metric: value}, {metric: iterations})``."""
    graph, netlist = router.graph, router.netlist
    values: Dict[str, float] = {}
    counts: Dict[str, int] = {}

    def record(
        name: str, call: Callable[[], object], convert: Callable[[float], float] = _ms
    ) -> None:
        """``values[name] = convert(median seconds per call)``."""
        per_call, counts[name] = timed_loop(call, seconds)
        values[name] = convert(per_call)

    rng = random.Random(f"micro:{seed}")
    sequence = heap_sequence(rng)
    for name, drive in (("twolevel", _drive_twolevel), ("binary", _drive_binary)):
        record(
            f"core.heap.{name}_ops_per_s",
            lambda: drive(sequence),
            lambda per_pass: HEAP_OPS / per_pass,
        )

    cost = router.prices.edge_costs(router.congestion)
    delay = graph.delay_array()
    cost_b = _perturbed(cost, rng)

    def build_context(vector: np.ndarray = cost) -> OracleCostContext:
        context = OracleCostContext(graph, vector, delay)
        context.cost_list()
        context.cost_floor()
        return context

    record("core.costctx.build_ms", build_context)
    previous = build_context()

    def inherit_context() -> None:
        context = OracleCostContext(graph, cost_b, delay)
        context.inherit(previous)
        context.cost_list()
        context.cost_floor()

    record("core.costctx.inherit_ms", inherit_context)

    trees = [tree.edges for tree in router.trees if tree is not None]
    scratch = CongestionMap(graph)
    for edges in trees:
        scratch.add_usage(edges)

    def rip_up_and_reroute() -> None:
        for edges in trees:
            scratch.apply_tree_delta(edges, edges)

    record(
        "grid.congestion.apply_delta_us",
        rip_up_and_reroute,
        lambda per_pass: per_pass / len(trees) * 1e6,
    )
    prices = router.prices.edge_prices
    record("grid.congestion.edge_costs_ms", lambda: router.congestion.edge_costs(prices))
    record("grid.graph.build_ms", lambda: build_grid_graph(graph.nx, graph.ny, graph.num_layers))
    record(
        "grid.graph.extract_prism_ms",
        lambda: extract_prism(graph, 0, 0, graph.nx // 2 - 1, graph.ny // 2 - 1),
    )

    cache = RerouteCache(graph, [], scope="global")
    cache.global_cost_digest(cost)
    flip = [cost_b, cost]

    def digest() -> None:
        # Alternating vectors: each call sees 1% of the entries changed.
        flip.reverse()
        cache.global_cost_digest(flip[0])

    record("engine.cache.digest_ms", digest)

    def construct(config: GlobalRouterConfig) -> None:
        GlobalRouter(graph, netlist, CostDistanceSolver(), config).engine.close()

    base = GlobalRouterConfig(num_rounds=router.config.num_rounds, dbif=router.config.dbif)
    record("router.construct_ms", lambda: construct(base))
    if router.config.shards > 1:
        sharded = replace(base, shards=router.config.shards)
        record("shard.construct_ms", lambda: construct(sharded))
    else:
        values["shard.construct_ms"], counts["shard.construct_ms"] = 0.0, 0

    path = os.path.join(workdir, "micro.ckpt")
    record("serve.checkpoint.save_ms", lambda: save_checkpoint(router, path))
    record("serve.checkpoint.load_ms", lambda: load_checkpoint(path))
    values["serve.checkpoint.bytes"] = float(os.path.getsize(path))
    counts["serve.checkpoint.bytes"] = 1
    return values, counts
