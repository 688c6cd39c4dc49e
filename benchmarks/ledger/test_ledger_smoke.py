"""Tier-1 smoke test of the performance ledger.

Drives every workload, untraced and traced, on a c1 x 0.2 instance and
checks that what it emits is exactly what ``BENCHMARK.json`` declares;
unit-tests the span self-time computation on a hand-built span tree.
"""

import re

import pytest

from benchmarks.ledger import layers
from benchmarks.ledger.compare import judge
from benchmarks.ledger.harness import run_workload
from benchmarks.ledger.spec import load_spec
from benchmarks.ledger.workloads import SMOKE

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_benchmark_json_respects_the_contract_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_exactly_the_declared_metrics(workload, trace):
    record = run_workload(workload, seed=3, seconds=0.0, trace=trace, scale=SMOKE)
    assert record["correct"], record["checks"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in declared]
    if not trace:
        assert all(metric["value"] != 0 for metric in record["metrics"].values())


def _span(span_id, parent_id, start, duration, name="s"):
    return {
        "type": "span", "name": name, "span_id": span_id, "parent_id": parent_id,
        "start": start, "duration": duration,
    }


def test_self_time_is_duration_minus_covered_child_intervals():
    spans = [
        _span(1, None, 0.0, 10.0, "round"),
        _span(2, 1, 1.0, 3.0, "batch"),       # [1, 4]
        _span(3, 1, 3.0, 3.0, "batch"),       # [3, 6] overlaps span 2: union [1, 6]
        _span(4, 1, 8.0, 5.0, "sta"),         # [8, 13] clipped to the parent: [8, 10]
        _span(5, 2, 1.5, 1.0, "net"),         # grandchild: only shortens span 2
        _span(6, 99, 0.0, 2.0, "orphan"),     # parent not in the trace
    ]
    own = layers.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[6] == pytest.approx(2.0)
    totals = layers.total_by_name(spans, own)
    assert totals["batch"] == pytest.approx(5.0)
    assert layers.percentile([3.0, 1.0, 2.0], 100) == 3.0
    assert layers.percentile(list(range(1, 101)), 95) == 95


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert judge(steady, [104.0, 105.0, 103.0, 104.5], "lower", 0.10)[2] == "ok"
    assert judge(steady, [120.0, 121.0, 119.0, 122.0], "lower", 0.10)[2] == "worse"
    assert judge(steady, [80.0, 81.0, 79.0, 80.5], "higher", 0.10)[2] == "worse"
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert judge(noisy, [105.0, 150.0, 75.0, 125.0], "lower", 0.10)[2] == "unresolved"
    assert judge(noisy, [200.0, 260.0, 190.0, 240.0], "lower", 0.10)[2] == "worse"
