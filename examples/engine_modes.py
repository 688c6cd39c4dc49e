"""The batch-routing engine's modes: plain vs. re-route cache (two scopes).

Routes one chip of the synthetic suite three times through the engine --
plain, with the incremental re-route cache under its default ``bbox``
scope, and under the exact ``global`` scope -- and shows the cache's hits
and that the ``global`` scope reproduces the plain metrics.

Run with::

    python examples/engine_modes.py
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
from repro.instances.chips import CHIP_SUITE, build_chip
from repro.router.metrics import format_result_row


def main() -> None:
    spec = CHIP_SUITE[0].scaled(0.6)
    modes = (
        ("plain", EngineConfig()),
        # Default "bbox" cache scope: signatures digest costs over each
        # net's bounding region, so nets far from any price change still
        # hit.
        ("bbox", EngineConfig(reroute_cache=True)),
        # "global" digests the full cost vector: parity with the plain run
        # is guaranteed, at the price of invalidating every net on any
        # cost change.
        ("global", EngineConfig(reroute_cache=True, cache_scope="global")),
    )

    print(f"chip {spec.name} ({spec.num_nets} nets), 3 resource-sharing rounds\n")
    for mode, engine in modes:
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
        print(f"{'':>8}  {reports[0].num_batches} batches/round via "
              f"{router.engine.config.scheduling!r} scheduling")
    print("\nA net's tree depends only on its instance and its private RNG")
    print("stream, so an unchanged instance may reuse its tree. The bbox-scope")
    print("cache is a heuristic that matches the plain run in practice;")
    print("cache_scope='global' makes the match a guarantee.")


if __name__ == "__main__":
    main()
