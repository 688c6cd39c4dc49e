"""Compare two result files of ``python -m benchmarks.ledger run``.

For every workload and end-to-end metric: both medians, the relative
change with its base, and a verdict under the bound ``BENCHMARK.json``
fixes for the metric -- ``worse``, ``ok``, or ``unresolved`` when the
run-to-run spread is wider than the bound and the two sides overlap.
Per-layer metrics are listed without a verdict; they say where a change
sits, not whether it is acceptable.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Sequence, Tuple


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (``None`` for a
    single run or a zero median)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def judge(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[float, Optional[float], str]:
    """``(relative change of the median, widest spread, verdict)``."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    moved = (statistics.median(change) - base) / abs(base) if base else 0.0
    spreads = [s for s in (spread(parent), spread(change)) if s is not None]
    widest = max(spreads) if spreads else None
    worse = sign * moved > bound
    # Every run of one side beats every run of the other: the spread cannot
    # blur the verdict, however wide it is.
    apart = (
        max(sign * v for v in change) < min(sign * v for v in parent)
        or min(sign * v for v in change) > max(sign * v for v in parent)
    )
    if widest is not None and widest > bound and not apart:
        return moved, widest, "unresolved"
    return moved, widest, "worse" if worse else "ok"


def metric_values(document: Dict, workload: str, kind: str) -> Dict[str, List[float]]:
    """``{metric: [value per run]}`` of one workload (``kind``: runs|traced)."""
    entry = document["workloads"].get(workload, {})
    records = entry.get("runs", []) if kind == "runs" else [entry["traced"]] if entry.get("traced") else []
    values: Dict[str, List[float]] = {}
    for record in records:
        for name, metric in record["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def compare(parent: Dict, change: Dict, spec: Dict) -> Tuple[List[str], bool]:
    """Report lines and whether any end-to-end metric is ``worse``."""
    lines: List[str] = []
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in parent["workloads"] or workload not in change["workloads"]:
            continue
        lines.append(f"{workload}")
        old, new = (metric_values(doc, workload, "runs") for doc in (parent, change))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in old or name not in new:
                lines.append(f"  {name:<42} missing on one side")
                continue
            moved, widest, verdict = judge(old[name], new[name], metric["better"], metric["bound"])
            any_worse |= verdict == "worse"
            base = statistics.median(old[name])
            lines.append(
                f"  {name:<42} {base:>14.4f} -> {statistics.median(new[name]):>14.4f} "
                f"{metric['unit']:<6} {moved:+8.2%} of {base:.4f}  bound {metric['bound']:.0%}  "
                f"spread {'n/a' if widest is None else format(widest, '.1%')}  "
                f"n={len(old[name])}/{len(new[name])}  {verdict}"
            )
        old, new = (metric_values(doc, workload, "traced") for doc in (parent, change))
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name in old and name in new:
                a, b = old[name][0], new[name][0]
                moved = f"{(b - a) / abs(a):+8.2%} of {a:.4f}" if a else "   (base 0)"
                lines.append(f"  {name:<42} {a:>14.4f} -> {b:>14.4f} {metric['unit']:<6} {moved}")
    return lines, any_worse


def load(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
