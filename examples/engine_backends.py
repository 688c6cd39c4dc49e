"""Where the batch-routing engine runs its batches: inline vs. pooled vs. auto.

Routes one chip of the synthetic suite four times through the engine --
every batch in-process (``num_workers=1``), every multi-net batch on a
2-worker pool (``POOL_BREAK_EVEN`` lowered to zero for the demo), the
default per-batch placement (a batch goes to the pool when its predicted
work reaches ``POOL_BREAK_EVEN``), and in-process with the incremental
re-route cache -- and shows that all four reproduce identical metrics while
their walltimes differ.

Run with::

    python examples/engine_backends.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import (
    CostDistanceSolver,
    EngineConfig,
    GlobalRouter,
    GlobalRouterConfig,
)
from repro.engine import executor
from repro.instances.chips import CHIP_SUITE, build_chip
from repro.router.metrics import format_result_row


def main() -> None:
    spec = CHIP_SUITE[0].scaled(0.6)
    shipped_break_even = executor.POOL_BREAK_EVEN
    # (mode, engine config, pool break-even): "pooled" lowers the break-even
    # to zero so that even this small chip's batches go to the pool.
    modes = (
        ("inline", EngineConfig(num_workers=1), shipped_break_even),
        ("pooled", EngineConfig(num_workers=2), 0),
        ("auto", EngineConfig(), shipped_break_even),
        # Default "bbox" cache scope: signatures digest costs over each
        # net's bounding region, so nets far from any price change still
        # hit.  (cache_scope="global" instead *guarantees* serial parity,
        # at the price of invalidating every net on any cost change.)
        ("cached", EngineConfig(num_workers=1, reroute_cache=True), shipped_break_even),
    )

    print(f"chip {spec.name} ({spec.num_nets} nets), 3 resource-sharing rounds\n")
    for mode, engine, break_even in modes:
        executor.POOL_BREAK_EVEN = break_even
        graph, netlist = build_chip(spec)
        router = GlobalRouter(
            graph,
            netlist,
            CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=3, engine=engine),
        )
        result = router.run()
        print(f"{mode:>8}: {format_result_row(result)}")
        if router.engine.cache is not None:
            stats = router.engine.cache.stats
            print(f"{'':>8}  cache hits {stats.hits}/{stats.lookups} "
                  f"({100.0 * stats.hit_rate:.1f}%)")
        reports = router.engine.round_reports
        pooled = sum(report.batches_pooled for report in reports)
        print(f"{'':>8}  {reports[0].num_batches} batches/round via "
              f"{router.engine.config.scheduling!r} scheduling, "
              f"{pooled}/{sum(report.num_batches for report in reports)} pooled")
    executor.POOL_BREAK_EVEN = shipped_break_even
    print("\nInline and pooled batches are bit-identical by construction:")
    print("a net's tree depends only on its instance and its private RNG stream.")
    print("The bbox-scope cache is a heuristic that matches them in practice;")
    print("cache_scope='global' (see benchmarks/test_engine_scaling.py) makes")
    print("the match a guarantee.")


if __name__ == "__main__":
    main()
