"""Engine scaling: plain vs. cached batch routing.

Routes the smoke chip (``c1``) of the synthetic suite through the
:class:`repro.engine.engine.RoutingEngine` in two modes -- plain, and with
the incremental re-route cache -- and records the walltime of each.
Walltimes are reported for inspection only (no regression gating); what
*is* asserted is the engine's determinism contract: both modes must
reproduce identical ``RoutingResult`` metrics bit for bit at ``seed=0``.
"""

import pytest

from repro.core.cost_distance import CostDistanceSolver
from repro.engine.engine import EngineConfig
from repro.instances.chips import CHIP_SUITE, build_chip, smoke_chip
from repro.router.metrics import format_result_row
from repro.router.router import GlobalRouter, GlobalRouterConfig

from benchmarks.conftest import bench_scale, write_result

#: Engine modes recorded by the scaling benchmark.  The cached mode uses the
#: exact (full-cost-digest) cache scope: parity with the serial baseline is
#: *guaranteed* under it, whereas the default ``bbox`` scope is a (very good)
#: heuristic that is not contractually bit-exact.
ENGINE_MODES = (
    ("serial", EngineConfig()),
    ("cached", EngineConfig(reroute_cache=True, cache_scope="global")),
)

#: Metric fields that must agree bit for bit across engine modes.
PARITY_FIELDS = (
    "worst_slack",
    "total_negative_slack",
    "ace4",
    "wire_length",
    "via_count",
    "overflow",
    "objective",
)


def route_smoke_chip(engine_config, num_rounds=3, seed=0):
    spec = smoke_chip(bench_scale())
    graph, netlist = build_chip(spec)
    router = GlobalRouter(
        graph,
        netlist,
        CostDistanceSolver(),
        GlobalRouterConfig(num_rounds=num_rounds, seed=seed, engine=engine_config),
    )
    return router, router.run()


@pytest.mark.benchmark(group="engine_scaling")
def test_engine_scaling_and_parity(benchmark):
    def run_all():
        return {mode: route_smoke_chip(engine_config) for mode, engine_config in ENGINE_MODES}

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        f"Engine scaling on {CHIP_SUITE[0].name} "
        f"(net scale {bench_scale()}, 3 rounds, seed 0)",
        "",
    ]
    for mode, (router, result) in rows.items():
        lines.append(f"{mode:>9}: {format_result_row(result)}")
        benchmark.extra_info[f"{mode}_walltime"] = round(result.walltime_seconds, 4)
        if router.engine.cache is not None:
            stats = router.engine.cache.stats
            lines.append(
                f"{'':>9}  re-route cache: {stats.hits}/{stats.lookups} hits "
                f"({100.0 * stats.hit_rate:.1f}%)"
            )
            benchmark.extra_info["cache_hits"] = stats.hits
            benchmark.extra_info["cache_lookups"] = stats.lookups
    write_result("engine_scaling", "\n".join(lines))

    # Determinism contract: the cached mode reproduces the serial metrics exactly.
    _, serial = rows["serial"]
    _, cached = rows["cached"]
    for field in PARITY_FIELDS:
        assert getattr(cached, field) == getattr(serial, field), (
            f"cached mode diverged from serial on {field}"
        )

    # The cache must actually fire in later rip-up rounds.
    cached_router, _ = rows["cached"][0], rows["cached"][1]
    assert cached_router.engine.cache.stats.hits > 0
