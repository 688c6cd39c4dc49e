"""Runs one workload in this process and reports its metrics.

``--trace 0`` measures the end-to-end metrics with no tracer installed and
no trace file open; ``--trace 1`` runs a fixed number of operations twice,
first plain and then under the program's tracer, and derives the per-layer
metrics from what the program emitted (see ``layers.py``) plus the
micro-benchmarks (``micro.py``).  The last line printed is the result
object the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs.summary import load_trace
from repro.router.metrics import PARITY_FIELDS

from . import layers
from .micro import run_micro
from .spec import host_info, load_spec, remove_scratch, scratch_dir
from .workloads import FULL, Check, Op, Scale, fixed_ops, make_workload, parity, time_box

EXPECTED = Path(__file__).with_name("expected.json")
#: Calibration drift beyond this marks a run ``noisy``.
NOISY_DRIFT = 0.10
#: Per-layer metrics that exist on one workload only; 0 elsewhere.
ONE_WORKLOAD_ONLY = (
    "shard.pool_ratio",
    "serve.session.batch_p75_ms",
    "serve.session.replay_overhead_ms_p50",
    "serve.session.reuse_fraction",
    "serve.session.nets_rerouted",
    "serve.daemon.job_p95_ms",
    "serve.daemon.ping_us_p50",
    "serve.daemon.submit_ms_p50",
    "serve.daemon.route_ms_p50",
    "serve.daemon.job_overhead_ms_p50",
    "serve.daemon.polls_per_job",
)


def calibrate(reps: int) -> float:
    """Seconds for a fixed pure-Python + numpy loop (fastest of ``reps``): a
    yardstick for host speed.  End-to-end numbers are never normalised by it."""
    gc.collect()
    vector = np.arange(500_000, dtype=np.float64)
    work = np.empty_like(vector)
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i % 7
        for _ in range(40):  # in place: a grown heap must not slow the loop
            np.multiply(vector, vector, out=work)
            work += 1.0
            np.sqrt(work, out=work)
        samples.append(time.perf_counter() - started)
    return min(samples)


def quality(ops: Sequence[Op]) -> Dict[str, float]:
    """Mean quality of the routed solutions of ``ops``, as never-zero
    lower-is-better numbers (slack itself changes sign; the critical path
    delay it measures does not)."""
    return {
        "wire_length": layers.mean([op.result.wire_length for op in ops]),
        "via_count": layers.mean([op.result.via_count for op in ops]),
        "ace4": layers.mean([op.result.ace4 for op in ops]),
        "critical_delay": layers.mean(
            [float(op.info["period"]) - op.result.worst_slack for op in ops]
        ),
    }


def parity_fields(op: Op) -> Dict[str, float]:
    return {f: getattr(op.result, f) for f in PARITY_FIELDS} if op.result else {}


def pinned_check(name: str, seed: int, scale: Scale, first: Op) -> List[Check]:
    """Seed 0 of the full-size workloads must reproduce ``expected.json``."""
    if seed != 0 or scale is not FULL or first.result is None:
        return []
    with open(EXPECTED, "r", encoding="utf-8") as handle:
        expected = json.load(handle).get(name, {})
    return [("matches_expected_json", parity_fields(first) == expected)]


def measure_untraced(workload, seconds: float, scale: Scale) -> Tuple[Dict, Dict, Dict, List[Op], List[Check]]:
    name = workload.name
    setups = []
    for rep in range(scale.setup_reps[name]):
        if rep:
            workload.teardown()
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    started = time.perf_counter()
    ops = workload.run_ops(time_box(seconds, scale.min_ops[name]))
    loop_seconds = time.perf_counter() - started
    checks = workload.checks(ops)
    latencies = [op.seconds for op in ops if op.ok]
    values = {
        "setup_s": layers.median(setups),
        "op_p50_ms": layers.median(latencies) * 1e3,
        "ops_per_s": len(latencies) / loop_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Quality over the operations every run makes, however fast the host:
    # the same seed reports the same values.
    routed = [op for op in ops[: scale.min_ops[name]] if op.ok]
    if routed:
        values.update(quality(routed))
    counts = dict.fromkeys(("op_p50_ms", "ops_per_s"), len(latencies))
    counts.update(dict.fromkeys(("wire_length", "via_count", "ace4", "critical_delay"), len(routed)))
    counts["setup_s"] = len(setups)
    samples = {"setup_s": setups, "op_s": [op.seconds for op in ops]}
    return values, counts, samples, ops, checks


def measure_traced(workload, scale: Scale, workdir: str) -> Tuple[Dict, Dict, Dict, List[Op], List[Check]]:
    """A fixed amount of work (so counts repeat exactly), whatever ``--seconds``."""
    name = workload.name
    count = scale.traced_ops[name]
    workload.setup()
    plain = workload.run_ops(fixed_ops(count))
    registry = obs.active_registry()
    before = registry.snapshot()
    trace_path = os.path.join(workdir, "trace.jsonl")
    obs.configure_tracing(trace_path)
    try:
        traced = workload.run_ops(fixed_ops(count), start=0 if workload.stateless else count)
    finally:
        obs.close_tracing()
    counters = layers.counter_delta(before, registry.snapshot())
    records = load_trace(trace_path)

    spans = layers.spans_of(records)
    spent = layers.total_by_name(spans, layers.durations(spans))
    own = layers.total_by_name(spans, layers.self_times(spans))
    nets = layers.events_of(records, "net")
    solves = [float(event["attrs"]["seconds"]) for event in nets]
    busy = sum(solves)
    traced_seconds = sum(op.seconds for op in traced)
    engine_rounds = layers.engine_round_seconds(spans)
    constructs = sum(float(op.info.get("construct_s", 0.0)) for op in traced)
    rounds = [sample for op in traced for sample in op.info.get("rounds", [])]
    last = next((op.result for op in reversed(traced) if op.result is not None), None)
    labels = counters.get("cd.labels", 0)

    values = dict.fromkeys(ONE_WORKLOAD_ONLY, 0.0)
    values.update(
        {
            "core.heap.pops": counters.get("astar.pops", 0),
            "core.cost_distance.solves": counters.get("cd.solves", 0),
            "core.cost_distance.labels": labels,
            "core.cost_distance.merges": counters.get("cd.merges", 0),
            "core.cost_distance.busy_s": busy,
            "core.cost_distance.share": busy / traced_seconds,
            "core.cost_distance.solve_p50_ms": layers.median(solves) * 1e3,
            "core.cost_distance.solve_p95_ms": layers.percentile(solves, 95) * 1e3,
            "core.cost_distance.us_per_label": busy / labels * 1e6 if labels else 0.0,
            "engine.batches": counters.get("engine.batches", 0),
            "engine.oracle_calls": counters.get("engine.oracle_calls", 0),
            "engine.nets_cached": counters.get("engine.nets_cached", 0),
            "engine.nets_replayed": counters.get("engine.nets_replayed", 0),
            "engine.round_s_p50": layers.median(engine_rounds),
            # Batch spans have no child spans; what is not the oracle is the engine's.
            "engine.self_s": spent.get("batch", 0.0) - busy,
            "router.self_s": own.get("round", 0.0),
            "timing.sta.busy_s": spent.get("sta", 0.0),
            "timing.sta.worst_slack": last.worst_slack if last else 0.0,
            "timing.sta.tns": last.total_negative_slack if last else 0.0,
            "router.resource_sharing.busy_s": spent.get("price_update", 0.0),
            "grid.congestion.overflow": last.overflow if last else 0.0,
            "shard.region_s": spent.get("region", 0.0),
            "shard.seam_s": spent.get("seam", 0.0) + spent.get("seam_scope", 0.0),
            "shard.overhead_s": sum(float(s.get("overhead_seconds", 0.0)) for s in rounds),
            "obs.trace_overhead_ratio": layers.median([op.seconds for op in traced])
            / layers.median([op.seconds for op in plain]),
            "obs.trace_spans": len(spans),
            "obs.trace_events": sum(1 for r in records if r.get("type") == "event"),
            # Time inside the program's top-level spans (plus router
            # construction, which the route workloads time from outside)
            # over the time the caller waited.
            "ledger.attributed_share": (layers.root_seconds(spans) + constructs) / traced_seconds,
        }
    )
    own_values, checks = workload.own_layers(plain, traced, nets)
    values.update(own_values)
    checks = checks + workload.checks(plain + traced)
    if workload.stateless:
        same = all(parity(a.result, b.result) for a, b in zip(plain, traced))
        checks.append(("traced_matches_untraced", same))

    router = workload.subject()
    stats = router.engine.stats if router.config.shards > 1 else None
    values["shard.interior_nets"] = float(stats.total_interior) if stats else 0.0
    values["shard.seam_nets"] = float(stats.seam_nets) if stats else 0.0
    micro_values, micro_counts = run_micro(router, workload.seed, scale.micro_seconds, workdir)
    values.update(micro_values)
    # Sample counts: traced operations unless stated otherwise.
    counts = dict.fromkeys(values, len(traced))
    counts.update(micro_counts)
    counts.update(dict.fromkeys(
        ("core.cost_distance.solve_p50_ms", "core.cost_distance.solve_p95_ms"), len(solves)
    ))
    counts["engine.round_s_p50"] = len(engine_rounds)
    counts["serve.daemon.ping_us_p50"] = scale.pings if values["serve.daemon.ping_us_p50"] else 0
    samples = {
        "plain_op_s": [op.seconds for op in plain],
        "traced_op_s": [op.seconds for op in traced],
    }
    return values, counts, samples, plain + traced, checks


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL
) -> Dict[str, object]:
    """Run one workload; returns the full record (see README, "Output")."""
    spec = load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    bounds = {metric["name"]: metric.get("bound") for metric in declared}
    workdir = scratch_dir(f"{name}-{os.getpid()}")
    workload = make_workload(name, seed, scale, str(workdir))
    calib_before = calibrate(scale.calib_reps)
    try:
        if trace:
            values, counts, samples, ops, checks = measure_traced(workload, scale, str(workdir))
        else:
            values, counts, samples, ops, checks = measure_untraced(workload, seconds, scale)
    finally:
        workload.teardown()
        remove_scratch(workdir)
    calib_after = calibrate(scale.calib_reps)
    drift = abs(calib_after - calib_before) / calib_before
    if trace:
        values["host.calib_s"] = calib_before
        values["host.calib_drift"] = drift
    if ops:
        checks = checks + pinned_check(name, seed, scale, ops[0])
    checks.append(("emits_declared_metrics", set(values) == set(units)))
    failed = sum(1 for op in ops if not op.ok) + sum(1 for _, ok in checks if not ok)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": len(ops) + len(checks),
        "failed": failed,
        "operations": len(ops),
        "checks": dict(checks),
        "first_result": parity_fields(ops[0]) if ops else {},
        # In the order BENCHMARK.json declares them.
        "metrics": {
            metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in units.items()
            if metric in values
        },
        "counts": counts,
        "bounds": bounds,
        "samples": samples,
        "calib_s": [calib_before, calib_after],
        "noisy": drift > NOISY_DRIFT,
        "host": host_info(),
    }


def render(record: Dict[str, object]) -> str:
    """Every metric by name with value, unit, sample count and bound."""
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"operations {record['operations']}  noisy {record['noisy']}"
    ]
    for name, metric in record["metrics"].items():
        bound = record["bounds"].get(name)
        count = record["counts"].get(name, 1)
        lines.append(
            f"  {name:<42} {metric['value']:>16.6f} {metric['unit']:<6} n={count:<5}"
            + (f" bound={bound:.0%}" if bound is not None else "")
        )
    for check, ok in record["checks"].items():
        lines.append(f"  check {check}: {'ok' if ok else 'FAILED'}")
    return "\n".join(lines)


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The program ends its own worker pools (``GlobalRouter.run`` closes its
    engine), but the pooled route's shared-memory blocks start the stdlib's
    ``multiprocessing`` resource tracker, which outlives its parent by a
    moment -- long enough for whoever ran the benchmark to find it.  It
    ignores SIGTERM and ends when its pipe closes, which is what ``_stop``
    does; whatever else is still a child of this process by now is a leak
    and is killed.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="utf-8") as handle:
                stat = handle.read()
            # Fields after the parenthesised command name: state, ppid, ...
            if int(stat[stat.rindex(")") + 2 :].split()[1]) != me:
                continue
            os.kill(int(entry), signal.SIGKILL)
            os.waitpid(int(entry), 0)
        except (OSError, ValueError):  # gone already, or reaped by its owner
            continue


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record (raw samples, host) here")
    args = parser.parse_args(argv)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    print(render(record))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    # A failed check is reported in the result object, not the exit code:
    # the driver reads `correct`; `python -m benchmarks.ledger run` exits 1.
    return 0


if __name__ == "__main__":
    sys.exit(main())
