"""Tests for the fault-injection subsystem (``repro.faults``)."""

import os

import pytest

from repro import faults
from repro.faults import (
    ENV_VAR,
    FaultError,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
)


@pytest.fixture(autouse=True)
def clean_plan():
    """Every test starts and ends without an installed plan."""
    faults.clear_plan()
    yield
    faults.clear_plan()


class TestParsing:
    def test_single_spec(self):
        plan = parse_fault_plan("kill-region-worker:round=2")
        assert plan.specs == [FaultSpec(kind="kill-region-worker", round=2)]

    def test_round_is_optional(self):
        plan = parse_fault_plan("kill-region-worker")
        assert plan.specs == [FaultSpec(kind="kill-region-worker", round=None)]

    def test_multiple_specs_semicolon_and_whitespace(self):
        plan = parse_fault_plan("drop-outcome:round=1; slow-oracle:ms=5")
        assert [s.kind for s in plan.specs] == ["drop-outcome", "slow-oracle"]
        assert plan.specs[1].ms == 5.0

    def test_describe_round_trips(self):
        text = "kill-region-worker:round=2;slow-oracle:ms=7.5;crash-run"
        assert parse_fault_plan(text).describe() == text

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault"):
            parse_fault_plan("explode-everything")

    def test_batch_pool_kill_is_gone_with_the_batch_pool(self):
        with pytest.raises(FaultError, match="unknown fault"):
            parse_fault_plan("kill-pool-worker:round=2")

    def test_unknown_argument_rejected(self):
        with pytest.raises(FaultError, match="does not take"):
            parse_fault_plan("kill-region-worker:ms=5")

    def test_malformed_argument_rejected(self):
        with pytest.raises(FaultError, match="malformed"):
            parse_fault_plan("kill-region-worker:round")

    def test_rounds_are_one_based(self):
        with pytest.raises(FaultError, match="1-based"):
            parse_fault_plan("kill-region-worker:round=0")

    def test_slow_oracle_requires_ms(self):
        with pytest.raises(FaultError, match="requires ms"):
            parse_fault_plan("slow-oracle")
        with pytest.raises(FaultError, match="non-negative"):
            parse_fault_plan("slow-oracle:ms=-1")

    def test_empty_plan_rejected(self):
        with pytest.raises(FaultError, match="empty"):
            parse_fault_plan("  ;  ")


class TestShould:
    def test_round_scoped_fault_fires_only_in_its_round(self):
        plan = parse_fault_plan("kill-region-worker:round=2")
        assert not plan.should("kill-region-worker", round_index=0)
        assert plan.should("kill-region-worker", round_index=1)  # 0-based 1 == round 2

    def test_one_shot_latch(self):
        plan = parse_fault_plan("kill-region-worker:round=1")
        assert plan.should("kill-region-worker", round_index=0)
        assert not plan.should("kill-region-worker", round_index=0)

    def test_unscoped_fault_fires_at_first_opportunity(self):
        plan = parse_fault_plan("kill-region-worker")
        assert plan.should("kill-region-worker", round_index=None)
        assert not plan.should("kill-region-worker", round_index=None)

    def test_kind_mismatch_never_fires(self):
        plan = parse_fault_plan("drop-outcome")
        assert not plan.should("kill-region-worker", round_index=0)

    def test_firing_increments_counters(self):
        from repro import obs

        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            plan = parse_fault_plan("drop-outcome")
            assert plan.should("drop-outcome", round_index=0)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["fault.injected"] == 1
        assert snapshot["counters"]["fault.injected.drop-outcome"] == 1


class TestDelay:
    def test_delay_ms(self):
        plan = parse_fault_plan("slow-oracle:ms=3")
        assert plan.delay_ms("slow-oracle") == 3.0
        assert plan.delay_ms("slow-oracle") == 3.0  # continuous, never latches

    def test_delay_defaults_to_zero(self):
        plan = parse_fault_plan("kill-region-worker")
        assert plan.delay_ms("slow-oracle") == 0.0
        plan.sleep("slow-oracle")  # no-op, no error

    def test_delay_counted_once(self):
        from repro import obs

        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            plan = parse_fault_plan("slow-oracle:ms=0")
            for _ in range(5):
                plan.sleep("slow-oracle")
        assert registry.snapshot()["counters"]["fault.injected.slow-oracle"] == 1


class TestInstallation:
    def test_disabled_by_default(self):
        assert faults.get_plan() is None

    def test_install_plan_from_text(self):
        plan = faults.install_plan("kill-region-worker:round=1")
        assert faults.get_plan() is plan
        assert os.environ[ENV_VAR] == "kill-region-worker:round=1"

    def test_install_plan_object(self):
        plan = FaultPlan([FaultSpec(kind="drop-outcome", round=3)])
        assert faults.install_plan(plan) is plan
        assert os.environ[ENV_VAR] == "drop-outcome:round=3"

    def test_clear_plan_removes_env_mirror(self):
        faults.install_plan("kill-region-worker")
        faults.clear_plan()
        assert faults.get_plan() is None
        assert ENV_VAR not in os.environ

    def test_env_round_trip(self, monkeypatch):
        """A fresh process (simulated by resetting the module globals)
        re-parses the plan from the environment -- the worker path."""
        faults.install_plan("slow-oracle:ms=4;kill-region-worker:round=2")
        monkeypatch.setattr(faults, "_PLAN", None)
        monkeypatch.setattr(faults, "_ENV_CHECKED", False)
        plan = faults.get_plan()
        assert plan is not None
        assert plan.describe() == "slow-oracle:ms=4;kill-region-worker:round=2"

    def test_round_tracking(self):
        assert faults.current_round() is None
        faults.set_round(3)
        assert faults.current_round() == 3
        faults.clear_plan()
        assert faults.current_round() is None


class TestKillPoolWorker:
    def test_no_live_workers_is_a_noop(self):
        class FakeProcess:
            exitcode = 1
            pid = 12345

        class FakePool:
            _pool = [FakeProcess()]

        assert faults.kill_pool_worker(FakePool()) is None
        assert faults.kill_pool_worker(object()) is None  # no _pool at all
