"""Benchmark trajectory: machine-readable metrics for the CI pipeline.

Runs a fixed set of benchmark scenarios and emits one JSON document
(``BENCH_pr.json``) holding, per scenario, two metric groups:

* ``metrics`` -- everything measured, including wall-clock numbers and
  throughput.  Informational: CI machines differ, so time is recorded but
  never gated.
* ``tracked`` -- the deterministic quality metrics the tier-1 suite also
  guards (wire length, overflow, ACE4, via count).  These are pure
  functions of the code, so any drift is a real behaviour change; the CI
  ``bench-trajectory`` job fails when a tracked metric regresses by more
  than 20% against the committed baseline
  (``benchmarks/results/BENCH_baseline.json``).

Usage::

    python benchmarks/trajectory.py --output BENCH_pr.json
    python benchmarks/trajectory.py --output BENCH_pr.json \
        --baseline benchmarks/results/BENCH_baseline.json --check
    python benchmarks/trajectory.py --update-baseline   # refresh the baseline

``REPRO_BENCH_SCALE`` scales the workloads exactly like the pytest
benchmark suite (the committed baseline is recorded at the CI scale 0.3).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from benchmarks.conftest import bench_scale  # noqa: E402

SCHEMA_VERSION = 1
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_baseline.json"
)
#: Allowed relative regression of a tracked metric before CI fails.
TOLERANCE = 0.20
#: Tracked metrics are lower-is-better; values this close to zero are
#: compared absolutely instead of relatively.
EPSILON = 1e-9


def _result_metrics(result) -> Dict[str, float]:
    return {
        "wire_length": result.wire_length,
        "via_count": float(result.via_count),
        "overflow": result.overflow,
        "ace4": result.ace4,
    }


def scenario_engine_modes() -> List[Dict[str, object]]:
    """Serial vs cached routing of the smoke chip (determinism tripwire)."""
    from repro.core.cost_distance import CostDistanceSolver
    from repro.engine.engine import EngineConfig
    from repro.instances.chips import build_chip, smoke_chip
    from repro.router.router import GlobalRouter, GlobalRouterConfig

    graph, netlist = build_chip(smoke_chip(bench_scale()))
    records = []
    for name, engine in (
        ("engine_serial", EngineConfig()),
        ("engine_cached", EngineConfig(reroute_cache=True, cache_scope="global")),
    ):
        started = time.perf_counter()
        router = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=3, engine=engine),
        )
        result = router.run()
        walltime = time.perf_counter() - started
        metrics: Dict[str, float] = {"walltime_seconds": round(walltime, 4)}
        if router.engine.cache is not None:
            metrics["cache_hit_rate"] = round(router.engine.cache.stats.hit_rate, 4)
        records.append(
            {"name": name, "metrics": metrics, "tracked": _result_metrics(result)}
        )
    return records


def scenario_serve_throughput() -> List[Dict[str, object]]:
    """Jobs/second through an in-process daemon (informational only)."""
    from repro.serve.client import ServeClient
    from repro.serve.daemon import ServeDaemon

    num_jobs = 4
    daemon = ServeDaemon(port=0, job_workers=2)
    host, port = daemon.start()
    try:
        client = ServeClient(host, port)
        client.wait_until_up()
        started = time.perf_counter()
        job_ids = [
            client.submit_route(chip="c1", net_scale=0.2, rounds=1, seed=seed)
            for seed in range(num_jobs)
        ]
        for job_id in job_ids:
            record = client.wait(job_id, timeout=600)
            if record["status"] != "done":
                raise RuntimeError(f"serve job failed: {record}")
        elapsed = time.perf_counter() - started
    finally:
        daemon.shutdown()
    return [
        {
            "name": "serve_throughput",
            "metrics": {
                "jobs": num_jobs,
                "jobs_per_second": round(num_jobs / elapsed, 3),
                "walltime_seconds": round(elapsed, 4),
            },
            "tracked": {},
        }
    ]


def scenario_shard_scaling() -> List[Dict[str, object]]:
    """1-shard vs 4-shard vs region-pooled routing of the large chip.

    The pooled mode (4 regions on a 2-worker process pool) is bit-identical
    to the serial shard loop, so its tracked metrics duplicate the shard
    ones by construction -- recording them keeps that invariant gated.  Its
    wall-clock speedup over serial shards is informational like every other
    time: it depends on the host's core count (>= 1.3x is the target at 2+
    cores; a single-core runner records ~1.0 or below).
    """
    import os

    from repro.core.cost_distance import CostDistanceSolver
    from repro.instances.chips import large_chip
    from repro.router.router import GlobalRouter, GlobalRouterConfig

    # Sharding is a large-design feature; the scale is floored like in
    # benchmarks/test_shard_scaling.py.
    graph, netlist = large_chip(max(0.8, bench_scale()))

    def best_run(**config):
        best = None
        for _ in range(2):
            started = time.perf_counter()
            router = GlobalRouter(
                graph, netlist, CostDistanceSolver(),
                GlobalRouterConfig(num_rounds=3, **config),
            )
            result = router.run()
            walltime = time.perf_counter() - started
            if best is None or walltime < best[1]:
                best = (result, walltime)
        return best

    base, base_time = best_run()
    sharded, shard_time = best_run(shards=4)
    pooled, pool_time = best_run(shards=4, shard_workers=2)
    speedup = base_time / shard_time
    tracked = {f"base_{k}": v for k, v in _result_metrics(base).items()}
    tracked.update({f"shard_{k}": v for k, v in _result_metrics(sharded).items()})
    tracked.update({f"pool_{k}": v for k, v in _result_metrics(pooled).items()})
    return [
        {
            "name": "shard_scaling",
            "metrics": {
                "shards": 4,
                "shard_workers": 2,
                "cores": os.cpu_count() or 1,
                "nets": netlist.num_nets,
                "base_walltime_seconds": round(base_time, 4),
                "shard_walltime_seconds": round(shard_time, 4),
                "pool_walltime_seconds": round(pool_time, 4),
                "shard_speedup": round(speedup, 3),
                "pool_speedup_vs_serial_shards": round(shard_time / pool_time, 3),
                "pool_speedup_stacked": round(base_time / pool_time, 3),
                "seam_wl_delta": sharded.wire_length - base.wire_length,
                "seam_overflow_delta": sharded.overflow - base.overflow,
            },
            "tracked": tracked,
        }
    ]


def scenario_session_eco() -> List[Dict[str, object]]:
    """Sharded-ECO-replay vs cold-sharded re-route on the smoke chip.

    The session replays its memo log through the shard coordinator, so the
    incremental walltime should beat the cold sharded re-route while the
    metrics stay bit-identical (asserted here; the replay's tracked metrics
    are recorded so any drift also trips the CI gate).  Walltimes and the
    speedup are informational -- machines differ.
    """
    from repro.core.cost_distance import CostDistanceSolver
    from repro.instances.chips import build_chip, smoke_chip
    from repro.instances.eco import MovePin
    from repro.router.metrics import PARITY_FIELDS
    from repro.router.router import GlobalRouter, GlobalRouterConfig
    from repro.serve.session import RoutingSession

    shards = 2
    graph, netlist = build_chip(smoke_chip(bench_scale()))
    target = netlist.nets[0]
    sink = target.sinks[0]
    op = MovePin(
        target.name, sink.name,
        (sink.position.x + 1) % graph.nx, sink.position.y, sink.position.layer,
    )
    class TimedSolver(CostDistanceSolver):
        """Sums the walltime of its ``build`` calls.  Round reports carry
        no oracle time (per-net clocks run only under a tracer), so the
        scenario takes it here; trees are untouched."""

        seconds = 0.0

        def build(self, instance, rng):
            started = time.perf_counter()
            try:
                return super().build(instance, rng)
            finally:
                self.seconds += time.perf_counter() - started

    config = GlobalRouterConfig(num_rounds=3, shards=shards)
    oracle = TimedSolver()
    session = RoutingSession(graph, netlist, oracle, config)
    session.route()
    oracle.seconds = 0.0
    started = time.perf_counter()
    report = session.apply_eco([op])
    eco_seconds = time.perf_counter() - started
    # What the batch paid beside the search: scaffolding, signatures,
    # replay, STA.
    eco_overhead_seconds = eco_seconds - oracle.seconds

    started = time.perf_counter()
    cold = GlobalRouter(graph, session.netlist, CostDistanceSolver(), session.config)
    cold_result = cold.run()
    cold_seconds = time.perf_counter() - started
    for field in PARITY_FIELDS:
        if getattr(report.result, field) != getattr(cold_result, field):
            raise RuntimeError(
                f"sharded ECO replay diverged from the cold sharded "
                f"re-route on {field}"
            )
    total = 3 * session.num_nets
    return [
        {
            "name": "session_eco_sharded",
            "metrics": {
                "shards": shards,
                "eco_walltime_seconds": round(eco_seconds, 4),
                "eco_overhead_seconds": round(eco_overhead_seconds, 4),
                "cold_walltime_seconds": round(cold_seconds, 4),
                "eco_speedup": round(
                    cold_seconds / eco_seconds if eco_seconds > 0 else float("inf"), 3
                ),
                "nets_rerouted": report.nets_rerouted,
                "nets_reused": report.nets_reused,
                "reuse_fraction": round(report.nets_reused / total, 4),
            },
            "tracked": _result_metrics(report.result),
        }
    ]


def scenario_obs_overhead() -> List[Dict[str, object]]:
    """Tracing-off vs tracing-on routing of the smoke chip.

    Tracing disabled must stay the zero-cost default: the traced and
    untraced runs are asserted bit-identical, and the traced/untraced
    walltime ratio is *tracked* so a regression past the shared +20%
    tolerance trips the CI gate -- the ratio is measured on one machine
    within one job, so unlike absolute walltimes it transfers across
    hosts.  The ratio is floored at 1.0 before tracking so a lucky traced
    run cannot tighten the gate below "within 20% of untraced".
    """
    import tempfile

    from repro import obs
    from repro.core.cost_distance import CostDistanceSolver
    from repro.instances.chips import build_chip, smoke_chip
    from repro.obs.summary import load_trace, summarize
    from repro.router.metrics import PARITY_FIELDS
    from repro.router.router import GlobalRouter, GlobalRouterConfig

    graph, netlist = build_chip(smoke_chip(bench_scale()))

    def best_run(trace_path=None):
        best = None
        for _ in range(2):
            if trace_path is not None:
                obs.configure_tracing(trace_path)
            started = time.perf_counter()
            router = GlobalRouter(
                graph, netlist, CostDistanceSolver(),
                GlobalRouterConfig(num_rounds=3, shards=2),
            )
            result = router.run()
            walltime = time.perf_counter() - started
            if trace_path is not None:
                obs.close_tracing(obs.active_registry().snapshot())
            if best is None or walltime < best[1]:
                best = (result, walltime)
        return best

    plain, plain_time = best_run()
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "bench_trace.jsonl")
        traced, traced_time = best_run(trace_path)
        summary = summarize(load_trace(trace_path))
    for field in PARITY_FIELDS:
        if getattr(plain, field) != getattr(traced, field):
            raise RuntimeError(f"tracing changed the routing result on {field}")
    if not summary["complete"]:
        raise RuntimeError("benchmark trace file is truncated (no trace_end)")
    overhead = traced_time / plain_time if plain_time > 0 else 1.0
    tracked = _result_metrics(plain)
    tracked["trace_overhead_ratio"] = round(max(1.0, overhead), 3)
    return [
        {
            "name": "obs_overhead",
            "metrics": {
                "plain_walltime_seconds": round(plain_time, 4),
                "traced_walltime_seconds": round(traced_time, 4),
                "trace_overhead_ratio_raw": round(overhead, 3),
                "trace_spans": summary["spans"],
                "trace_events": summary["events"],
            },
            "tracked": tracked,
        }
    ]


def scenario_obs_stream_overhead() -> List[Dict[str, object]]:
    """Watched vs unwatched daemon route jobs.

    Submits the same sharded route job twice through an in-process daemon;
    one run streams its live events to a ``watch`` subscriber consuming on
    a second connection, the other runs unobserved.  The two results must
    be bit-identical (events observe, never feed back), and the
    watched/unwatched walltime ratio is *tracked* under the shared +20%
    gate -- like ``trace_overhead_ratio`` it is a one-machine ratio, so it
    transfers across hosts.  Floored at 1.0 so a lucky watched run cannot
    tighten the gate.
    """
    import threading

    from repro.router.metrics import PARITY_FIELDS, RoutingResult
    from repro.serve.client import ServeClient
    from repro.serve.daemon import ServeDaemon

    params = dict(chip="c1", net_scale=0.4, rounds=3, shards=2)
    daemon = ServeDaemon(port=0, job_workers=1)
    host, port = daemon.start()
    try:
        client = ServeClient(host, port)
        client.wait_until_up()

        def best_run(watched):
            best = None
            for _ in range(2):
                started = time.perf_counter()
                job_id = client.submit_route(**params)
                events = []
                if watched:
                    watcher = threading.Thread(
                        target=lambda: events.extend(client.watch(job_id, timeout=600))
                    )
                    watcher.start()
                record = client.wait(job_id, timeout=600)
                if watched:
                    watcher.join(timeout=600)
                walltime = time.perf_counter() - started
                if record["status"] != "done":
                    raise RuntimeError(f"benchmark job failed: {record}")
                if watched and not any(e.get("event") == "round" for e in events):
                    raise RuntimeError("watch stream carried no round events")
                if best is None or walltime < best[1]:
                    best = (record, walltime)
            return best

        plain_record, plain_time = best_run(watched=False)
        watched_record, watched_time = best_run(watched=True)
    finally:
        daemon.shutdown()
    plain = RoutingResult.from_dict(plain_record["result"]["result"])
    watched = RoutingResult.from_dict(watched_record["result"]["result"])
    for field in PARITY_FIELDS:
        if getattr(plain, field) != getattr(watched, field):
            raise RuntimeError(f"watching changed the routing result on {field}")
    ratio = watched_time / plain_time if plain_time > 0 else 1.0
    tracked = _result_metrics(plain)
    tracked["obs_stream_overhead_ratio"] = round(max(1.0, ratio), 3)
    return [
        {
            "name": "obs_stream_overhead",
            "metrics": {
                "plain_walltime_seconds": round(plain_time, 4),
                "watched_walltime_seconds": round(watched_time, 4),
                "obs_stream_overhead_ratio_raw": round(ratio, 3),
            },
            "tracked": tracked,
        }
    ]


def scenario_soak_recovery() -> List[Dict[str, object]]:
    """Faulted + crashed + resumed routing vs the clean pooled run.

    The chaos leg routes the smoke chip on a region-worker pool with a
    worker killed in round 2, auto-checkpoints every round, "crashes"
    after round 2, and resumes a fresh router from the checkpoint.  The
    recovery contract is asserted in-scenario: the resumed result must be
    bit-identical to the straight-through run on every parity field.  The
    recovery/clean walltime ratio is *tracked* (floored at 1.0, one
    machine, one job -- it transfers across hosts like the obs ratios);
    it bounds the total cost of a kill + in-process retry + checkpoint
    cadence + crash + resume cycle relative to an undisturbed run.
    """
    import tempfile

    from repro import faults
    from repro.core.cost_distance import CostDistanceSolver
    from repro.instances.chips import build_chip, smoke_chip
    from repro.router.metrics import PARITY_FIELDS
    from repro.router.router import GlobalRouter, GlobalRouterConfig
    from repro.serve.checkpoint import checkpoint_every_hook, try_resume_router

    graph, netlist = build_chip(smoke_chip(bench_scale()))
    config = dict(num_rounds=3, shards=2, shard_workers=2)

    class _SimulatedCrash(BaseException):
        pass

    def make_router():
        return GlobalRouter(
            graph, netlist, CostDistanceSolver(), GlobalRouterConfig(**config)
        )

    def clean_run():
        started = time.perf_counter()
        result = make_router().run()
        return result, time.perf_counter() - started

    def recovery_run(path):
        save = checkpoint_every_hook(path, 1)

        def crashing_hook(router, round_index):
            save(router, round_index)
            if round_index == 1:
                raise _SimulatedCrash

        faults.install_plan("kill-region-worker:round=2")
        started = time.perf_counter()
        try:
            interrupted = make_router()
            try:
                interrupted.run(on_round_end=crashing_hook)
                raise RuntimeError("simulated crash never fired")
            except _SimulatedCrash:
                pass
            interrupted.engine.close()
        finally:
            faults.clear_plan()
        resumed = make_router()
        if not try_resume_router(resumed, path):
            raise RuntimeError("auto-checkpoint did not resume")
        resumed_from = resumed.rounds_completed
        result = resumed.run(on_round_end=save)
        return result, time.perf_counter() - started, resumed_from

    # Best-of-2 on both legs, like the other ratio scenarios: the ratio is
    # gated, so per-run pool-forking noise must not masquerade as drift.
    clean, clean_time = min((clean_run() for _ in range(2)), key=lambda r: r[1])
    with tempfile.TemporaryDirectory() as tmp:
        legs = [
            recovery_run(os.path.join(tmp, f"soak_recovery_{attempt}.ckpt"))
            for attempt in range(2)
        ]
    result, recovery_time, resumed_from = min(legs, key=lambda r: r[1])

    for field in PARITY_FIELDS:
        if getattr(clean, field) != getattr(result, field):
            raise RuntimeError(
                f"kill + crash + resume changed the routing result on {field}"
            )
    ratio = recovery_time / clean_time if clean_time > 0 else 1.0
    tracked = _result_metrics(result)
    tracked["recovery_overhead_ratio"] = round(max(1.0, ratio), 3)
    return [
        {
            "name": "soak_recovery",
            "metrics": {
                "clean_walltime_seconds": round(clean_time, 4),
                "recovery_walltime_seconds": round(recovery_time, 4),
                "recovery_overhead_ratio_raw": round(ratio, 3),
                "resumed_from_round": resumed_from,
            },
            "tracked": tracked,
        }
    ]


def scenario_kernel_speedup() -> List[Dict[str, object]]:
    """Vectorized routing-state kernel vs the retained scalar reference.

    Routes the large chip's unsharded batch path twice: once as shipped
    (numpy congestion kernels, batch-level oracle cost context) and once
    with the scalar reference paths from
    :mod:`repro.grid.reference` patched in.  The two runs must be
    bit-identical on every parity field -- that is the vectorization's
    acceptance bar, asserted here in-scenario.  The speedup compares the
    summed engine *round* walltimes (best of 2 per leg), excluding the
    shared chip/netlist construction both legs pay identically.

    ``kernel_time_ratio`` (vectorized/reference round time) is *tracked*
    under the shared +20% gate; like the obs ratios it is measured on one
    machine within one job, so it transfers across hosts.  It is floored
    at 0.5, so the gate asserts "the vectorized kernel stays at least
    ~1.7x faster than the scalar reference" without letting an unusually
    fast run tighten the gate further.
    """
    from repro.core.cost_distance import CostDistanceSolver
    from repro.grid.reference import install_reference_kernel
    from repro.instances.chips import large_chip
    from repro.router.metrics import PARITY_FIELDS
    from repro.router.router import GlobalRouter, GlobalRouterConfig

    # Same workload floor as the shard-scaling scenario: the kernel's wins
    # scale with edge count, so the speedup target is a large-design claim.
    graph, netlist = large_chip(max(0.8, bench_scale()))

    def best_run():
        best = None
        for _ in range(2):
            started = time.perf_counter()
            router = GlobalRouter(
                graph, netlist, CostDistanceSolver(),
                GlobalRouterConfig(num_rounds=3),
            )
            result = router.run()
            walltime = time.perf_counter() - started
            round_time = sum(r.walltime_seconds for r in router.engine.round_reports)
            if best is None or round_time < best[1]:
                best = (result, round_time, walltime)
        return best

    vec, vec_rounds, vec_total = best_run()
    with install_reference_kernel():
        ref, ref_rounds, ref_total = best_run()
    for field in PARITY_FIELDS:
        if getattr(vec, field) != getattr(ref, field):
            raise RuntimeError(
                f"vectorized kernel diverged from the scalar reference on {field}"
            )
    ratio = vec_rounds / ref_rounds if ref_rounds > 0 else 1.0
    tracked = _result_metrics(vec)
    tracked["kernel_time_ratio"] = round(max(0.5, ratio), 3)
    return [
        {
            "name": "kernel_speedup",
            "metrics": {
                "nets": netlist.num_nets,
                "edges": graph.num_edges,
                "vector_round_seconds": round(vec_rounds, 4),
                "reference_round_seconds": round(ref_rounds, 4),
                "vector_walltime_seconds": round(vec_total, 4),
                "reference_walltime_seconds": round(ref_total, 4),
                "kernel_speedup": round(
                    ref_rounds / vec_rounds if vec_rounds > 0 else float("inf"), 3
                ),
                "kernel_time_ratio_raw": round(ratio, 3),
            },
            "tracked": tracked,
        }
    ]


def run_trajectory() -> Dict[str, object]:
    records: List[Dict[str, object]] = []
    records.extend(scenario_engine_modes())
    records.extend(scenario_serve_throughput())
    records.extend(scenario_shard_scaling())
    records.extend(scenario_session_eco())
    records.extend(scenario_obs_overhead())
    records.extend(scenario_obs_stream_overhead())
    records.extend(scenario_soak_recovery())
    records.extend(scenario_kernel_speedup())
    return {
        "schema": SCHEMA_VERSION,
        "bench_scale": bench_scale(),
        "benchmarks": records,
    }


def compare(current: Dict[str, object], baseline: Dict[str, object]) -> List[str]:
    """Tracked-metric regressions of ``current`` against ``baseline``.

    All tracked metrics are lower-is-better.  Returns human-readable
    failure lines (empty = pass).  Scenarios or metrics absent from the
    baseline are skipped, so adding benchmarks never breaks CI; a metric
    that *disappears* from the current run fails, so coverage cannot
    silently shrink.
    """
    failures: List[str] = []
    if baseline.get("bench_scale") != current.get("bench_scale"):
        failures.append(
            f"bench scale mismatch: baseline {baseline.get('bench_scale')} "
            f"vs current {current.get('bench_scale')} (set REPRO_BENCH_SCALE)"
        )
        return failures
    current_by_name = {b["name"]: b for b in current["benchmarks"]}  # type: ignore[index]
    for base_bench in baseline.get("benchmarks", []):  # type: ignore[union-attr]
        name = base_bench["name"]
        tracked_base = base_bench.get("tracked", {})
        if not tracked_base:
            continue
        current_bench = current_by_name.get(name)
        if current_bench is None:
            failures.append(f"{name}: benchmark disappeared from the trajectory")
            continue
        tracked_now = current_bench.get("tracked", {})
        for metric, base_value in tracked_base.items():
            if metric not in tracked_now:
                failures.append(f"{name}.{metric}: metric disappeared")
                continue
            now = float(tracked_now[metric])
            base_value = float(base_value)
            limit = base_value * (1.0 + TOLERANCE) + EPSILON
            if now > limit:
                failures.append(
                    f"{name}.{metric}: {now:.4f} regressed past "
                    f"{limit:.4f} (baseline {base_value:.4f}, +{TOLERANCE:.0%})"
                )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_pr.json", help="trajectory output path")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE, help="baseline JSON path")
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) when tracked metrics regress vs the baseline",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the measured trajectory to the baseline path as well",
    )
    args = parser.parse_args(argv)

    document = run_trajectory()
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"trajectory written to {args.output}", file=sys.stderr)
    for bench in document["benchmarks"]:  # type: ignore[union-attr]
        print(f"  {bench['name']}: {json.dumps(bench['metrics'])}", file=sys.stderr)

    if args.update_baseline:
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"baseline updated at {args.baseline}", file=sys.stderr)
        return 0

    if args.check:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except FileNotFoundError:
            print(f"error: no baseline at {args.baseline}", file=sys.stderr)
            return 1
        failures = compare(document, baseline)
        if failures:
            print("tracked metric regressions:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print("tracked metrics within tolerance of the baseline", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
