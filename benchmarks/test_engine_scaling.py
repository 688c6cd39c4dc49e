"""Engine scaling: inline vs. pooled vs. auto-placed vs. cached batch routing.

Routes the smoke chip (``c1``) of the synthetic suite through the
:class:`repro.engine.engine.RoutingEngine` in four modes -- every batch
inline (``num_workers=1``), every multi-net batch on a 2-worker pool (the
pool's break-even lowered to zero), the default per-batch placement, and
inline with the incremental re-route cache
-- and records the walltime of each.  Walltimes are reported for inspection
only (no regression gating: pure-Python multiprocessing break-even depends
on the machine and on net count); what *is* asserted is the engine's
determinism contract: every mode must reproduce identical ``RoutingResult``
metrics bit for bit at ``seed=0``.
"""

import pytest

from repro.core.cost_distance import CostDistanceSolver
from repro.engine import executor
from repro.engine.engine import EngineConfig
from repro.instances.chips import CHIP_SUITE, build_chip, smoke_chip
from repro.router.metrics import format_result_row
from repro.router.router import GlobalRouter, GlobalRouterConfig

from benchmarks.conftest import bench_scale, write_result

#: Engine modes recorded by the scaling benchmark, each with the pool
#: break-even it runs under (``None``: the shipped one).  The cached mode uses the
#: exact (full-cost-digest) cache scope: parity with the serial baseline is
#: *guaranteed* under it, whereas the default ``bbox`` scope is a (very good)
#: heuristic that is not contractually bit-exact.
ENGINE_MODES = (
    ("serial", EngineConfig(num_workers=1), None),
    ("parallel", EngineConfig(num_workers=2), 0),
    ("auto", EngineConfig(), None),
    ("cached", EngineConfig(num_workers=1, reroute_cache=True, cache_scope="global"), None),
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
def test_engine_scaling_and_parity(benchmark, monkeypatch):
    def run_all():
        rows = {}
        for mode, engine_config, break_even in ENGINE_MODES:
            with monkeypatch.context() as patch:
                if break_even is not None:
                    patch.setattr(executor, "POOL_BREAK_EVEN", break_even)
                rows[mode] = route_smoke_chip(engine_config)
        return rows

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

    # Determinism contract: every mode reproduces the serial metrics exactly.
    _, serial = rows["serial"]
    for mode in ("parallel", "auto", "cached"):
        _, other = rows[mode]
        for field in PARITY_FIELDS:
            assert getattr(other, field) == getattr(serial, field), (
                f"{mode} mode diverged from serial on {field}"
            )

    # The cache must actually fire in later rip-up rounds.
    cached_router, _ = rows["cached"][0], rows["cached"][1]
    assert cached_router.engine.cache.stats.hits > 0
