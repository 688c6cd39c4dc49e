"""Per-layer attribution from the program's own telemetry.

The traced pass reads three things the program already emits -- spans
(``job`` > ``round`` > ``region``/``seam_scope``/``seam`` > ``batch``, plus
``sta`` and ``price_update``), per-net ``net`` events carrying the oracle's
wall time, and the metrics registry's counters -- and turns them into the
``per_layer`` metrics of ``BENCHMARK.json``.  Nothing under ``src/`` is
instrumented for the benchmark.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

Record = Dict[str, object]


def spans_of(records: Iterable[Record]) -> List[Record]:
    return [r for r in records if r.get("type") == "span"]


def events_of(records: Iterable[Record], name: str) -> List[Record]:
    return [r for r in records if r.get("type") == "event" and r.get("name") == name]


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[Record]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    bounds = {}
    for span in spans:
        lo = float(span["start"])
        bounds[span["span_id"]] = (lo, lo + float(span["duration"]))
    for span in spans:
        parent = span.get("parent_id")
        if parent in bounds:
            plo, phi = bounds[parent]
            lo, hi = bounds[span["span_id"]]
            # Clip to the parent: start stamps are wall-clock, durations
            # monotonic, so a child may poke out by clock granularity.
            lo, hi = max(lo, plo), min(hi, phi)
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return {
        span["span_id"]: max(0.0, float(span["duration"]) - _covered(children.get(span["span_id"], [])))
        for span in spans
    }


def total_by_name(spans: Sequence[Record], seconds: Dict[int, float]) -> Dict[str, float]:
    """Sum ``seconds`` (keyed by span id) over the spans of each name."""
    totals: Dict[str, float] = {}
    for span in spans:
        name = str(span["name"])
        totals[name] = totals.get(name, 0.0) + seconds[span["span_id"]]
    return totals


def engine_round_seconds(spans: Sequence[Record]) -> List[float]:
    """What the engine spends on each round: the ``round`` span minus the
    timing analysis and price update that follow the routing inside it."""
    rounds = {s["span_id"]: float(s["duration"]) for s in spans if s["name"] == "round"}
    for span in spans:
        if span["name"] in ("sta", "price_update") and span.get("parent_id") in rounds:
            rounds[span["parent_id"]] -= float(span["duration"])
    return list(rounds.values())


def root_seconds(spans: Sequence[Record]) -> float:
    """Total duration of the spans that have no parent in the trace."""
    ids = {span["span_id"] for span in spans}
    return sum(float(s["duration"]) for s in spans if s.get("parent_id") not in ids)


def durations(spans: Sequence[Record]) -> Dict[int, float]:
    return {span["span_id"]: float(span["duration"]) for span in spans}


def counter_delta(before: Record, after: Record) -> Dict[str, float]:
    """Counter increments between two registry snapshots (the registry
    accumulates for the life of the process, so always diff)."""
    old = before.get("counters", {})
    return {
        name: value - old.get(name, 0)
        for name, value in after.get("counters", {}).items()
    }


def percentile(samples: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile; ``percent=100`` is the maximum."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples: Sequence[float]) -> float:
    return statistics.fmean(samples) if samples else 0.0
