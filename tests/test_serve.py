"""Tests for the routing service layer (checkpoint, sessions, jobs, daemon)."""

import json
import time

import pytest

from repro.core.cost_distance import CostDistanceSolver
from repro.engine.engine import EngineConfig
from repro.grid.geometry import GridPoint
from repro.grid.graph import build_grid_graph
from repro.instances.eco import (
    AddNet,
    AddSink,
    MovePin,
    RemoveNet,
    RemoveSink,
    ReweightSink,
    apply_eco,
    parse_ops,
)
from repro.router.metrics import RoutingResult
from repro.router.netlist import Net, Netlist, Pin, Stage
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.serve.checkpoint import (
    CheckpointError,
    load_checkpoint,
    resume_router,
    save_checkpoint,
)
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon
from repro.serve.jobs import JobState, JobStore
from repro.serve.session import RoutingSession


def tiny_netlist():
    nets = [
        Net("n0", Pin("n0:d", GridPoint(0, 0, 0)), [Pin("n0:s0", GridPoint(4, 1, 0)),
                                                    Pin("n0:s1", GridPoint(2, 5, 0))]),
        Net("n1", Pin("n1:d", GridPoint(4, 1, 0)), [Pin("n1:s0", GridPoint(7, 7, 0))]),
        Net("n2", Pin("n2:d", GridPoint(1, 6, 0)), [Pin("n2:s0", GridPoint(6, 3, 0))]),
        Net("n3", Pin("n3:d", GridPoint(8, 8, 0)), [Pin("n3:s0", GridPoint(9, 9, 0))]),
    ]
    stages = [Stage(0, 0, 1, cell_delay=5.0)]
    return Netlist("tiny", nets, stages, clock_period=60.0)


def result_key(result):
    return (
        result.worst_slack,
        result.total_negative_slack,
        result.ace4,
        result.wire_length,
        result.via_count,
        result.overflow,
        result.objective,
    )


def tree_key(trees):
    return [None if t is None else (t.root, tuple(t.sinks), tuple(t.edges)) for t in trees]


def make_router(num_rounds=4, engine=None, netlist=None):
    graph = build_grid_graph(10, 10, 4)
    return GlobalRouter(
        graph,
        netlist or tiny_netlist(),
        CostDistanceSolver(),
        GlobalRouterConfig(num_rounds=num_rounds, engine=engine or EngineConfig()),
    )


class TestResultRoundTrip:
    def test_json_schema_is_pinned(self):
        """The exact key set the service returns; changing it is an API break."""
        result = RoutingResult("c1", "CD", -1.5, -20.25, 88.07, 1234.5, 67, 0.5,
                               overflow=3.25, objective=99.125, num_nets=45)
        record = result.as_dict()
        assert sorted(record) == [
            "ACE4", "Nets", "Objective", "Overflow", "TNS", "Vias",
            "WL", "WS", "Walltime", "chip", "method",
        ]

    def test_round_trip_through_json(self):
        result = RoutingResult("c3", "SL", -0.1, -7.3, 91.22, 4321.0, 89, 12.75,
                               overflow=0.5, objective=17.0, num_nets=70)
        rebuilt = RoutingResult.from_dict(json.loads(json.dumps(result.as_dict())))
        assert rebuilt == result

    def test_from_dict_tolerates_old_records(self):
        record = RoutingResult("c1", "CD", 0.0, 0.0, 1.0, 2.0, 3, 4.0).as_dict()
        for legacy_missing in ("Overflow", "Objective", "Nets"):
            record.pop(legacy_missing)
        rebuilt = RoutingResult.from_dict(record)
        assert rebuilt.overflow == 0.0 and rebuilt.num_nets == 0


class TestCheckpoint:
    def test_save_load_restores_exact_state(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        router = make_router(num_rounds=3)

        def hook(r, round_index):
            if round_index == 1:
                save_checkpoint(r, path)

        router.run(on_round_end=hook)
        checkpoint = load_checkpoint(path)
        assert checkpoint.rounds_completed == 2
        other = make_router(num_rounds=3)
        checkpoint.restore(other)
        assert other.rounds_completed == 2
        assert (other.congestion.usage >= 0).all()

    def test_interrupted_run_resumes_bit_for_bit(self, tmp_path):
        """The acceptance criterion: kill mid-flow, resume, identical result."""
        path = str(tmp_path / "run.ckpt")
        uninterrupted = make_router(num_rounds=4)
        expected = uninterrupted.run()

        class Killed(Exception):
            pass

        def killer(r, round_index):
            save_checkpoint(r, path)
            if round_index == 1:
                raise Killed()

        interrupted = make_router(num_rounds=4)
        with pytest.raises(Killed):
            interrupted.run(on_round_end=killer)

        resumed = make_router(num_rounds=4)
        assert resume_router(resumed, path)
        assert resumed.rounds_completed == 2
        actual = resumed.run()
        assert result_key(actual) == result_key(expected)
        assert tree_key(resumed.trees) == tree_key(uninterrupted.trees)

    def test_resume_after_final_round_returns_metrics(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        router = make_router(num_rounds=2)
        expected = router.run(on_round_end=lambda r, i: save_checkpoint(r, path))
        resumed = make_router(num_rounds=2)
        assert resume_router(resumed, path)
        assert resumed.rounds_completed == 2
        assert result_key(resumed.run()) == result_key(expected)

    def test_checkpoint_with_cache_round_trips_signatures(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        engine = EngineConfig(reroute_cache=True, cache_scope="global")
        expected = make_router(num_rounds=4, engine=engine).run()
        interrupted = make_router(num_rounds=4, engine=engine)

        class Killed(Exception):
            pass

        def killer(r, round_index):
            save_checkpoint(r, path)
            if round_index == 2:
                raise Killed()

        with pytest.raises(Killed):
            interrupted.run(on_round_end=killer)
        resumed = make_router(num_rounds=4, engine=engine)
        assert resume_router(resumed, path)
        assert len(resumed.engine.cache.export_signatures()) == 4
        assert result_key(resumed.run()) == result_key(expected)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        router = make_router(num_rounds=2)
        router.run(on_round_end=lambda r, i: save_checkpoint(r, path))
        different_seed = GlobalRouter(
            build_grid_graph(10, 10, 4),
            tiny_netlist(),
            CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=2, seed=7),
        )
        with pytest.raises(CheckpointError, match="seed"):
            load_checkpoint(path).restore(different_seed)
        # Flow-shaping config differences are rejected too (a resumed run
        # is only bit-for-bit under the exact same round structure) ...
        different_scheduling = make_router(
            num_rounds=2, engine=EngineConfig(scheduling="bbox")
        )
        with pytest.raises(CheckpointError, match="scheduling"):
            load_checkpoint(path).restore(different_scheduling)
        # ... while the region worker count may change freely: every
        # placement produces identical trees.
        different_workers = GlobalRouter(
            build_grid_graph(10, 10, 4), tiny_netlist(), CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=2, shard_workers=2),
        )
        load_checkpoint(path).restore(different_workers)
        assert different_workers.rounds_completed == 2

    def test_unreadable_checkpoints_rejected(self, tmp_path):
        missing = str(tmp_path / "nope.ckpt")
        assert not resume_router(make_router(), missing)
        with pytest.raises(CheckpointError):
            load_checkpoint(missing)
        bad = tmp_path / "bad.ckpt"
        bad.write_text('{"format": "something-else"}')
        with pytest.raises(CheckpointError, match="repro-checkpoint"):
            load_checkpoint(str(bad))


class TestEcoOps:
    def test_parse_round_trip(self):
        ops = [
            MovePin("n0", "n0:s0", 3, 3, 0),
            AddSink("n1", "n1:s9", 2, 2, 0),
            RemoveSink("n0", "n0:s1"),
            AddNet("n9", ("n9:d", 1, 1, 0), (("n9:s0", 2, 2, 0),)),
            RemoveNet("n2"),
            ReweightSink("n1", "n1:s0", 1.25),
        ]
        assert parse_ops([op.as_dict() for op in ops]) == ops

    def test_parse_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown ECO op"):
            parse_ops([{"op": "teleport_net"}])

    def test_move_driver_and_sink(self):
        eco = apply_eco(
            tiny_netlist(),
            [MovePin("n3", "n3:d", 7, 7, 1), MovePin("n3", "n3:s0", 9, 8, 0)],
        )
        net = eco.netlist.nets[3]
        assert net.driver.position == GridPoint(7, 7, 1)
        assert net.sinks[0].position == GridPoint(9, 8, 0)
        assert eco.touched == ["n3"]
        assert eco.index_map == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_add_and_remove_sink(self):
        eco = apply_eco(tiny_netlist(), [AddSink("n3", "n3:s1", 9, 7, 0)])
        assert eco.netlist.nets[3].num_sinks == 2
        eco = apply_eco(eco.netlist, [RemoveSink("n3", "n3:s0")])
        assert [p.name for p in eco.netlist.nets[3].sinks] == ["n3:s1"]

    def test_remove_sink_guards(self):
        with pytest.raises(ValueError, match="last sink"):
            apply_eco(tiny_netlist(), [RemoveSink("n3", "n3:s0")])
        with pytest.raises(ValueError, match="drives a stage"):
            apply_eco(tiny_netlist(), [RemoveSink("n0", "n0:s0")])

    def test_remove_sink_reindexes_stages(self):
        netlist = tiny_netlist()
        netlist.stages[0] = Stage(0, 1, 1, cell_delay=5.0)  # n0:s1 drives n1
        eco = apply_eco(netlist, [RemoveSink("n0", "n0:s0")])
        assert eco.netlist.stages[0].from_sink == 0

    def test_add_net_appends(self):
        eco = apply_eco(
            tiny_netlist(),
            [AddNet("n4", ("n4:d", 5, 5, 0), (("n4:s0", 6, 6, 0), ("n4:s1", 5, 7, 0)))],
        )
        assert eco.netlist.num_nets == 5
        assert eco.netlist.nets[4].num_sinks == 2
        assert eco.index_map == {0: 0, 1: 1, 2: 2, 3: 3}
        with pytest.raises(ValueError, match="already exists"):
            apply_eco(eco.netlist, [AddNet("n4", ("x", 0, 0, 0), (("y", 1, 1, 0),))])

    def test_remove_net_shifts_indices(self):
        eco = apply_eco(tiny_netlist(), [RemoveNet("n2")])
        assert [net.name for net in eco.netlist.nets] == ["n0", "n1", "n3"]
        assert eco.index_map == {0: 0, 1: 1, 3: 2}
        with pytest.raises(ValueError, match="participates in a stage"):
            apply_eco(tiny_netlist(), [RemoveNet("n0")])

    def test_reweight_collects_overrides(self):
        eco = apply_eco(tiny_netlist(), [ReweightSink("n0", "n0:s1", 2.5)])
        assert eco.weight_overrides == {"n0": {1: 2.5}}
        assert eco.netlist.nets[0].num_sinks == 2  # netlist untouched
        with pytest.raises(ValueError, match="non-negative"):
            apply_eco(tiny_netlist(), [ReweightSink("n0", "n0:s1", -1.0)])

    def test_unknown_references_rejected(self):
        with pytest.raises(ValueError, match="unknown net"):
            apply_eco(tiny_netlist(), [MovePin("zz", "p", 0, 0, 0)])
        with pytest.raises(ValueError, match="unknown sink"):
            apply_eco(tiny_netlist(), [RemoveSink("n0", "zz")])

    def test_input_netlist_never_mutated(self):
        netlist = tiny_netlist()
        apply_eco(netlist, [MovePin("n3", "n3:s0", 9, 8, 0), RemoveNet("n2")])
        assert netlist.num_nets == 4
        assert netlist.nets[3].sinks[0].position == GridPoint(9, 9, 0)


def cold_route(netlist, config, weight_overrides=None):
    """A from-scratch route of ``netlist`` (the ECO parity reference)."""
    graph = build_grid_graph(10, 10, 4)
    router = GlobalRouter(graph, netlist, CostDistanceSolver(), config)
    for net_name, per_sink in (weight_overrides or {}).items():
        index = next(i for i, net in enumerate(netlist.nets) if net.name == net_name)
        for sink_index, weight in per_sink.items():
            router.prices.delay_weights[index][sink_index] = weight
    return router, router.run()


class TestRoutingSession:
    ROUNDS = 3

    def make_session(self):
        return RoutingSession(
            build_grid_graph(10, 10, 4),
            tiny_netlist(),
            CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=self.ROUNDS),
        )

    def test_forces_reroute_cache_on(self):
        session = self.make_session()
        assert session.config.engine.reroute_cache

    def test_eco_requires_initial_route(self):
        with pytest.raises(RuntimeError, match="route\\(\\) first"):
            self.make_session().apply_eco([MovePin("n3", "n3:s0", 9, 8, 0)])

    def test_move_pin_reroutes_only_dirty_closure(self):
        """The acceptance criterion: incremental counters + cold parity."""
        session = self.make_session()
        session.route()
        ops = [MovePin("n3", "n3:s0", 9, 8, 0)]
        report = session.apply_eco(ops)
        num_nets = session.num_nets
        # Only the dirty closure was re-routed; the far-away nets replayed.
        assert report.nets_reused > 0
        assert report.nets_rerouted < self.ROUNDS * num_nets
        assert report.nets_rerouted + report.nets_reused == self.ROUNDS * num_nets
        assert report.touched == ["n3"]
        # Metrics match a cold full re-route of the edited netlist.
        _, cold = cold_route(apply_eco(tiny_netlist(), ops).netlist, session.config)
        assert result_key(report.result) == result_key(cold)

    def test_eco_ops_accepted_as_wire_dicts(self):
        session = self.make_session()
        session.route()
        report = session.apply_eco([MovePin("n3", "n3:s0", 9, 8, 0).as_dict()])
        assert report.touched == ["n3"]

    def test_add_net_parity(self):
        session = self.make_session()
        session.route()
        ops = [AddNet("n4", ("n4:d", 0, 9, 0), (("n4:s0", 2, 9, 0),))]
        report = session.apply_eco(ops)
        assert session.num_nets == 5
        assert report.result.num_nets == 5
        _, cold = cold_route(apply_eco(tiny_netlist(), ops).netlist, session.config)
        assert result_key(report.result) == result_key(cold)

    def test_remove_net_parity(self):
        session = self.make_session()
        session.route()
        ops = [RemoveNet("n2")]
        report = session.apply_eco(ops)
        assert session.num_nets == 3
        _, cold = cold_route(apply_eco(tiny_netlist(), ops).netlist, session.config)
        assert result_key(report.result) == result_key(cold)

    def test_reweight_parity_and_persistence(self):
        session = self.make_session()
        session.route()
        ops = [ReweightSink("n0", "n0:s1", 1.75)]
        report = session.apply_eco(ops)
        assert session.weight_overrides == {"n0": {1: 1.75}}
        _, cold = cold_route(
            tiny_netlist(), session.config, weight_overrides={"n0": {1: 1.75}}
        )
        assert result_key(report.result) == result_key(cold)
        # The override sticks for subsequent flows of the session.
        second = session.apply_eco([MovePin("n3", "n3:s0", 9, 8, 0)])
        _, cold2 = cold_route(
            apply_eco(tiny_netlist(), [MovePin("n3", "n3:s0", 9, 8, 0)]).netlist,
            session.config,
            weight_overrides={"n0": {1: 1.75}},
        )
        assert result_key(second.result) == result_key(cold2)

    def test_successive_ecos_keep_amortising(self):
        session = self.make_session()
        session.route()
        session.apply_eco([MovePin("n3", "n3:s0", 9, 8, 0)])
        second = session.apply_eco([MovePin("n3", "n3:s0", 9, 9, 0)])
        assert second.nets_reused > 0
        assert session.generation == 3
        _, cold = cold_route(tiny_netlist(), session.config)
        assert result_key(second.result) == result_key(cold)  # moved back

    def test_cancelled_eco_leaves_session_untouched(self):
        """A delta is committed only after its re-route completes."""
        session = self.make_session()
        session.route()

        class Cancelled(Exception):
            pass

        def cancel_immediately(router, round_index):
            raise Cancelled()

        with pytest.raises(Cancelled):
            session.apply_eco(
                [AddSink("n3", "n3:s1", 9, 7, 0), ReweightSink("n0", "n0:s1", 2.0)],
                on_round_end=cancel_immediately,
            )
        assert session.netlist.nets[3].num_sinks == 1
        assert session.weight_overrides == {}
        assert session.generation == 1
        # The same ECO succeeds afterwards (nothing was half-applied).
        report = session.apply_eco([AddSink("n3", "n3:s1", 9, 7, 0)])
        assert session.netlist.nets[3].num_sinks == 2
        assert report.result.num_nets == 4

    def test_identity_eco_replays_everything(self):
        session = self.make_session()
        baseline = session.route()
        report = session.apply_eco([ReweightSink("n1", "n1:s0", 0.15)])
        # The "override" equals the base weight, so no instance changed:
        # every net of every round replays and the result is unchanged.
        assert report.nets_rerouted == 0
        assert report.nets_reused == self.ROUNDS * session.num_nets
        assert result_key(report.result) == result_key(baseline)


class TestJobStore:
    def test_lifecycle(self):
        store = JobStore()
        job = store.submit("route", {"chip": "c1"})
        assert job.status == JobState.QUEUED
        store.mark_running(job.job_id)
        store.mark_done(job.job_id, {"answer": 42})
        final = store.get(job.job_id)
        assert final.status == JobState.DONE
        assert final.result == {"answer": 42}
        assert final.finished_at is not None

    def test_terminal_states_are_immutable(self):
        store = JobStore()
        job = store.submit("route", {})
        store.mark_cancelled(job.job_id)
        store.mark_done(job.job_id, {"late": True})
        assert store.get(job.job_id).status == JobState.CANCELLED

    def test_unknown_job_rejected(self):
        with pytest.raises(KeyError):
            JobStore().get("job-99999")

    def test_persistence_across_restarts(self, tmp_path):
        state_dir = str(tmp_path / "jobs")
        store = JobStore(state_dir)
        done = store.submit("route", {"chip": "c1"})
        store.mark_running(done.job_id)
        store.mark_done(done.job_id, {"ok": 1})
        interrupted = store.submit("route", {"chip": "c2"})
        store.mark_running(interrupted.job_id)

        reborn = JobStore(state_dir)
        assert reborn.get(done.job_id).status == JobState.DONE
        assert reborn.get(done.job_id).result == {"ok": 1}
        recovered = reborn.get(interrupted.job_id)
        assert recovered.status == JobState.FAILED
        assert "interrupted" in recovered.error
        # Fresh ids never collide with persisted ones.
        assert reborn.submit("route", {}).job_id not in (done.job_id, interrupted.job_id)


@pytest.fixture()
def daemon(tmp_path):
    daemon = ServeDaemon(port=0, job_workers=2, state_dir=str(tmp_path / "state"))
    daemon.start()
    yield daemon
    daemon.shutdown()


@pytest.fixture()
def client(daemon):
    host, port = daemon.address
    client = ServeClient(host, port, timeout=30.0)
    client.wait_until_up()
    return client


class TestDaemon:
    def test_ping_and_unknown_op(self, client):
        pong = client.ping()
        assert pong["pong"] is True
        with pytest.raises(ServeError, match="unknown op"):
            client.request("warp")

    def test_route_job_end_to_end(self, client):
        job_id = client.submit_route(chip="c1", net_scale=0.1, rounds=1)
        job = client.wait(job_id, timeout=300.0)
        assert job["status"] == JobState.DONE
        record = job["result"]["result"]
        assert record["chip"] == "c1"
        result = RoutingResult.from_dict(record)
        assert result.num_nets == 10
        # status omits the payload, result carries it
        assert "result" not in client.status(job_id)

    def test_route_job_payload_names_no_engine_backend(self, client):
        """Batches run in the job's thread: the payload no longer says where."""
        job_id = client.submit_route(chip="c1", net_scale=0.1, rounds=1)
        job = client.wait(job_id, timeout=300.0)
        assert job["status"] == JobState.DONE
        assert set(job["result"]) == {"result", "session"}

    def test_session_route_then_eco(self, client):
        job_id = client.submit_route(chip="c1", net_scale=0.1, rounds=2, session="s1")
        assert client.wait(job_id, timeout=300.0)["status"] == JobState.DONE
        assert client.sessions() == [{"name": "s1", "nets": 10, "generation": 1}]
        # A second route under the same session name fails its job.
        duplicate = client.wait(
            client.submit_route(chip="c1", net_scale=0.1, session="s1"), timeout=300.0
        )
        assert duplicate["status"] == JobState.FAILED
        assert "already exists" in duplicate["error"]
        eco_id = client.submit_eco(
            "s1", [{"op": "move_pin", "net": "n0", "pin": "n0:s0", "x": 1, "y": 1}]
        )
        eco_job = client.wait(eco_id, timeout=300.0)
        assert eco_job["status"] == JobState.DONE
        payload = eco_job["result"]
        assert payload["touched"] == ["n0"]
        assert payload["nets_reused"] > 0
        assert client.sessions()[0]["generation"] == 2

    def test_eco_against_unknown_session_fails(self, client):
        job_id = client.submit_eco("ghost", [{"op": "remove_net", "net": "n0"}])
        job = client.wait(job_id, timeout=60.0)
        assert job["status"] == JobState.FAILED
        assert "unknown session" in job["error"]

    def test_bad_chip_fails_cleanly(self, client):
        """A bad value is refused by name in the submit response."""
        with pytest.raises(ServeError, match="unknown chip"):
            client.submit_route(chip="c99")
        assert client.jobs() == []

    @pytest.mark.parametrize("rounds", [0, -3])
    def test_zero_round_job_fails_and_leaves_no_session(self, client, rounds):
        """``rounds < 1`` used to run zero rounds and report a "done" job
        with nothing routed; ``submit`` refuses it, so no job exists and the
        session name is never reserved."""
        with pytest.raises(ServeError, match="rounds must be a positive integer"):
            client.submit_route(chip="c1", net_scale=0.1, rounds=rounds, session="z")
        assert client.sessions() == []
        assert client.jobs() == []

    def test_queued_job_cancellation(self, tmp_path):
        # One worker: the first job occupies it, the second stays queued
        # and must cancel deterministically.
        with ServeDaemon(port=0, job_workers=1) as daemon:
            host, port = daemon.start()
            client = ServeClient(host, port, timeout=30.0)
            client.wait_until_up()
            blocker = client.submit_route(chip="c1", net_scale=0.3, rounds=3)
            queued = client.submit_route(chip="c1", net_scale=0.3, rounds=3)
            status = client.cancel(queued)
            assert status in (JobState.CANCELLED, JobState.QUEUED)
            assert client.wait(queued, timeout=300.0)["status"] == JobState.CANCELLED
            assert client.wait(blocker, timeout=300.0)["status"] == JobState.DONE

    def test_cancelled_queued_job_leaves_no_bookkeeping(self):
        """A queued job cancelled via ``future.cancel()`` never reaches
        ``_run_job``; its future and cancel flag must be dropped on the
        cancel path instead of leaking for the daemon's lifetime."""
        with ServeDaemon(port=0, job_workers=1) as daemon:
            host, port = daemon.start()
            client = ServeClient(host, port, timeout=30.0)
            client.wait_until_up()
            blocker = client.submit_route(chip="c1", net_scale=0.3, rounds=3)
            deadline = time.monotonic() + 60.0
            while client.status(blocker)["status"] == JobState.QUEUED:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            queued = client.submit_route(chip="c1", net_scale=0.3, rounds=3)
            assert client.cancel(queued) == JobState.CANCELLED
            assert queued not in daemon._futures
            assert queued not in daemon._cancel_flags
            assert client.wait(blocker, timeout=300.0)["status"] == JobState.DONE
            # _run_job's ``finally`` runs just after the terminal state lands.
            while daemon._futures or daemon._cancel_flags:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert daemon._futures == {} and daemon._cancel_flags == {}

    @pytest.mark.parametrize("params", [[], 0, "", "chip=c1", 3, [1], False])
    def test_submit_params_must_be_an_object(self, client, params):
        """Only a missing/null ``params`` defaults to ``{}``; any other
        non-object is a malformed request, not a default c1 route."""
        with pytest.raises(ServeError, match="params must be a JSON object"):
            client.request("submit", kind="route", params=params)
        assert client.jobs() == []

    def test_submit_params_may_be_missing_or_null(self, client):
        for request in ({}, {"params": None}):
            job_id = client.request("submit", kind="eco", **request)["job_id"]
            assert client.wait(job_id, timeout=60.0)["params"] == {}

    def test_jobs_listing(self, client):
        job_id = client.submit_route(chip="c1", net_scale=0.1, rounds=1)
        client.wait(job_id, timeout=300.0)
        listed = client.jobs()
        assert [job["job_id"] for job in listed] == [job_id]

    def test_malformed_request_line(self, daemon):
        import socket as socket_module

        host, port = daemon.address
        with socket_module.create_connection((host, port), timeout=10.0) as conn:
            conn.sendall(b"this is not json\n")
            with conn.makefile("r") as reader:
                response = json.loads(reader.readline())
        assert response["ok"] is False

    def test_oversized_request_line_is_refused_and_dropped(self, daemon, client):
        """A line past the cap gets a named error and loses its connection;
        the daemon buffers no more than the cap and keeps serving others."""
        import socket as socket_module

        from repro.serve.daemon import MAX_REQUEST_BYTES

        host, port = daemon.address
        with socket_module.create_connection((host, port), timeout=10.0) as conn:
            conn.sendall(b"x" * (MAX_REQUEST_BYTES + 1))  # no newline in sight
            with conn.makefile("r") as reader:
                response = json.loads(reader.readline())
                assert reader.readline() == ""  # the daemon hung up
        assert response == {
            "ok": False,
            "error": f"ValueError: request line exceeds {MAX_REQUEST_BYTES} bytes",
        }
        assert client.ping()["ok"] is True
        # A line of exactly the cap is still a request (here: not JSON).
        with socket_module.create_connection((host, port), timeout=10.0) as conn:
            conn.sendall(b"x" * (MAX_REQUEST_BYTES - 1) + b"\n")
            with conn.makefile("r") as reader:
                assert "JSONDecodeError" in json.loads(reader.readline())["error"]

    def test_client_error_when_daemon_unreachable(self):
        client = ServeClient("127.0.0.1", 1, timeout=0.5)
        with pytest.raises(ServeError, match="cannot reach"):
            client.ping()
