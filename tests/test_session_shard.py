"""Cross-backend equivalence battery for shard-aware ECO sessions.

PR 2 built incremental ECO re-routing (sessions replaying per-round
``RoundMemo`` logs) and PRs 3-4 built the sharded, region-parallel
coordinator -- but the two could not be combined (``RoutingSession``
rejected ``shards > 1``).  This battery locks down their composition:

* **the heart of the PR** -- an ECO replayed through a sharded session is
  bit-identical (every ``PARITY_FIELDS`` metric plus per-net trees) to a
  cold sharded re-route of the edited netlist, for random chips x ECO op
  sequences (move/add/remove nets) x K in {1, 2, 4} x region workers in
  {1, 2} x start methods,
* in parity mode (full-round cost window) the sharded replay additionally
  equals the cold *unsharded* route -- the triple equivalence,
* dirty-net oracle-call counts prove clean regions were *replayed*, not
  re-routed: an identity ECO replays every net of every round
  (``nets_rerouted == 0``) and the counts agree across region backends,
* memo remapping survives an ECO that removes a *seam* net (seam scope
  membership changes across the ECO) -- only interior removal was covered
  before,
* checkpoints carry the re-route signatures as one name-keyed map: same-K
  resumes restore the scope caches under either region placement,
  parity-regime checkpoints resume under a *different*
  ``shards``/``shard_workers`` (including back to 1/1) bit-identically, and
  older-version checkpoints are rejected with a clear error instead of
  restored with silently dropped state,
* the PR-2 "sessions require shards=1" guard is gone from the codebase.

Like ``tests/test_shard_parallel.py``, the randomized sweeps run a bounded
subset by default (one seed, ``fork`` only; the ``slow`` marker labels them
for ``-m "not slow"`` deselection) and widen under ``REPRO_TEST_SWEEP=1``.
"""

import json
import multiprocessing
import os

import pytest

from repro.core.cost_distance import CostDistanceSolver
from repro.grid.geometry import GridPoint
from repro.grid.graph import build_grid_graph
from repro.instances.eco import AddNet, MovePin, RemoveNet, RemoveSink, ReweightSink
from repro.instances.generator import NetlistGeneratorConfig, generate_netlist
from repro.router.metrics import PARITY_FIELDS
from repro.router.netlist import Net, Netlist, Pin
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.serve.checkpoint import (
    CheckpointError,
    load_checkpoint,
    resume_router,
    save_checkpoint,
    try_resume_router,
)
from repro.serve.session import RoutingSession

#: Wide-sweep opt-in (nightly-style): more seeds, every start method.
SWEEP = os.environ.get("REPRO_TEST_SWEEP") == "1"
SWEEP_SEEDS = (101, 202, 303) if SWEEP else (101,)
START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]
SWEEP_START_METHODS = START_METHODS if SWEEP else START_METHODS[:1]

ROUNDS = 2


def random_design(seed, num_nets=20, nx=12, ny=12, layers=4):
    graph = build_grid_graph(nx, ny, layers)
    netlist = generate_netlist(
        graph,
        NetlistGeneratorConfig(num_nets=num_nets),
        seed=seed,
        name=f"rand{seed}",
    )
    return graph, netlist


def cached_design():
    """c1 x 0.4: unlike the random designs, its prices settle enough for the
    re-route cache to hit in rounds 3 and 4."""
    from repro.instances.chips import CHIP_SUITE, build_chip

    return build_chip(CHIP_SUITE[0].scaled(0.4))


def tree_key(trees):
    return [
        None if t is None else (t.root, tuple(t.sinks), tuple(t.edges))
        for t in trees
    ]


def stage_free_net(netlist):
    """The first net that participates in no combinational stage (safe to
    remove via ECO)."""
    staged = {s.from_net for s in netlist.stages} | {s.to_net for s in netlist.stages}
    for index, net in enumerate(netlist.nets):
        if index not in staged:
            return net
    raise AssertionError("design has no stage-free net")


def eco_ops(kind, graph, netlist):
    """One of the battery's ECO op sequences against ``netlist``."""
    first = netlist.nets[0]
    sink = first.sinks[0]
    if kind == "move":
        return [
            MovePin(
                first.name, sink.name,
                (sink.position.x + 2) % graph.nx, sink.position.y,
                sink.position.layer,
            )
        ]
    if kind == "add_remove":
        victim = stage_free_net(netlist)
        return [
            AddNet(
                "eco_new",
                ("eco_new:d", 0, 0, 0),
                (("eco_new:s0", 2, 1, 0), ("eco_new:s1", 1, 3, 0)),
            ),
            RemoveNet(victim.name),
        ]
    if kind == "mixed":
        victim = stage_free_net(netlist)
        return [
            MovePin(
                first.name, sink.name,
                sink.position.x, (sink.position.y + 1) % graph.ny,
                sink.position.layer,
            ),
            RemoveNet(victim.name),
            AddNet(
                "eco_mix",
                ("eco_mix:d", graph.nx - 1, graph.ny - 1, 0),
                (("eco_mix:s0", graph.nx - 3, graph.ny - 2, 0),),
            ),
        ]
    raise ValueError(kind)


def cold_route(graph, netlist, config):
    """A from-scratch route of ``netlist`` under ``config`` (the sharded
    ECO parity reference)."""
    router = GlobalRouter(graph, netlist, CostDistanceSolver(), config)
    return router, router.run()


def assert_equivalent(session, report, cold_router, cold_result):
    for field in PARITY_FIELDS:
        assert getattr(report.result, field) == getattr(cold_result, field), field
    assert tree_key(session.router.trees) == tree_key(cold_router.trees)


class TestShardedEcoEquivalence:
    """sharded-ECO-replay == cold-sharded (== cold-unsharded in the parity
    regime), for every seed x ops x K x workers x start-method combination."""

    @pytest.mark.slow
    @pytest.mark.parametrize("start_method", SWEEP_START_METHODS)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("ops_kind", ["move", "add_remove", "mixed"])
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_eco_replay_matches_cold_shard(
        self, seed, ops_kind, shards, workers, start_method
    ):
        graph, netlist = random_design(seed)
        config = GlobalRouterConfig(
            num_rounds=ROUNDS,
            shards=shards,
            shard_workers=workers,
            shard_start_method=start_method if shards > 1 and workers > 1 else None,
        )
        session = RoutingSession(graph, netlist, CostDistanceSolver(), config)
        session.route()
        report = session.apply_eco(eco_ops(ops_kind, graph, netlist))
        cold_router, cold_result = cold_route(graph, session.netlist, session.config)
        assert_equivalent(session, report, cold_router, cold_result)
        total = ROUNDS * session.num_nets
        assert report.nets_rerouted + report.nets_reused == total
        # Clean nets replayed without an oracle call -- the dirty closure of
        # these small deltas never covers the whole design.
        assert report.nets_reused > 0
        assert report.nets_rerouted < total

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_parity_mode_triple_equivalence(self, seed, shards, workers):
        """In shard_parity mode at a full-round cost window, the sharded
        session replay, the cold sharded route, and the cold *unsharded*
        route all agree bit for bit."""
        graph, netlist = random_design(seed)
        config = GlobalRouterConfig(
            num_rounds=ROUNDS,
            cost_refresh_interval=10**9,
            shards=shards,
            shard_parity=True,
            shard_workers=workers,
        )
        session = RoutingSession(graph, netlist, CostDistanceSolver(), config)
        session.route()
        ops = eco_ops("move", graph, netlist)
        report = session.apply_eco(ops)
        cold_router, cold_result = cold_route(graph, session.netlist, session.config)
        assert_equivalent(session, report, cold_router, cold_result)
        from dataclasses import replace

        plain_config = replace(session.config, shards=1, shard_workers=None)
        plain_router, plain_result = cold_route(graph, session.netlist, plain_config)
        for field in PARITY_FIELDS:
            assert getattr(report.result, field) == getattr(plain_result, field), field
        assert tree_key(session.router.trees) == tree_key(plain_router.trees)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_identity_eco_replays_every_region(self, workers):
        """The clean-region proof: an ECO that changes no instance replays
        every net of every round -- zero oracle calls across all regions,
        seam scopes, and the global seam engine, on both region backends."""
        graph, netlist = random_design(101)
        config = GlobalRouterConfig(num_rounds=ROUNDS, shards=4, shard_workers=workers)
        session = RoutingSession(graph, netlist, CostDistanceSolver(), config)
        baseline = session.route()
        target = netlist.nets[0]
        base_weight = session.router.prices.config.base_delay_weight
        report = session.apply_eco(
            [ReweightSink(target.name, target.sinks[0].name, base_weight)]
        )
        assert report.nets_rerouted == 0
        assert report.nets_reused == ROUNDS * session.num_nets
        for field in PARITY_FIELDS:
            assert getattr(report.result, field) == getattr(baseline, field), field

    def test_replay_counts_agree_across_region_backends(self):
        """Replay flows bypass the inter-round cache bookkeeping, so the
        oracle-call counters -- not just the trees -- are identical between
        the serial region loop and the process pool."""
        graph, netlist = random_design(101)
        reports = {}
        for workers in (1, 2):
            config = GlobalRouterConfig(
                num_rounds=ROUNDS, shards=4, shard_workers=workers
            )
            session = RoutingSession(graph, netlist, CostDistanceSolver(), config)
            session.route()
            report = session.apply_eco(eco_ops("move", graph, netlist))
            reports[workers] = report
        assert reports[1].nets_rerouted == reports[2].nets_rerouted
        assert reports[1].nets_reused == reports[2].nets_reused
        assert reports[1].rounds == reports[2].rounds
        for field in PARITY_FIELDS:
            assert getattr(reports[1].result, field) == getattr(
                reports[2].result, field
            ), field

    def test_successive_ecos_keep_amortising_through_shards(self):
        graph, netlist = random_design(101)
        config = GlobalRouterConfig(num_rounds=ROUNDS, shards=2)
        session = RoutingSession(graph, netlist, CostDistanceSolver(), config)
        session.route()
        first = session.apply_eco(eco_ops("move", graph, netlist))
        assert first.nets_reused > 0
        second = session.apply_eco(eco_ops("add_remove", graph, session.netlist))
        assert second.nets_reused > 0
        cold_router, cold_result = cold_route(graph, session.netlist, session.config)
        assert_equivalent(session, second, cold_router, cold_result)


class TestSeamScopeMembershipChanges:
    """ECOs that edit *seam* nets: seam scope membership changes across the
    ECO and the remaining memos must still replay (tests/test_shard.py only
    covered interior removal)."""

    def seam_design(self):
        """A design with known seam nets: two nets spanning the K=2 cut
        (y = 8 on a 16-tall grid), plus interior nets in each region."""
        graph = build_grid_graph(16, 16, 4)
        nets = [
            # Interior to the bottom and top regions respectively.
            Net("bot0", Pin("bot0:d", GridPoint(1, 2, 0)),
                [Pin("bot0:s0", GridPoint(4, 5, 0))]),
            Net("bot1", Pin("bot1:d", GridPoint(10, 3, 0)),
                [Pin("bot1:s0", GridPoint(13, 6, 0))]),
            Net("top0", Pin("top0:d", GridPoint(2, 10, 0)),
                [Pin("top0:s0", GridPoint(5, 13, 0))]),
            Net("top1", Pin("top1:d", GridPoint(11, 9, 0)),
                [Pin("top1:s0", GridPoint(14, 12, 0))]),
            # Seam-crossing nets (driver below the cut, a sink above it).
            Net("seamA", Pin("seamA:d", GridPoint(4, 5, 0)),
                [Pin("seamA:s0", GridPoint(4, 11, 0))]),
            Net("seamB", Pin("seamB:d", GridPoint(9, 6, 0)),
                [Pin("seamB:s0", GridPoint(9, 12, 0)),
                 Pin("seamB:s1", GridPoint(11, 6, 0))]),
        ]
        return graph, Netlist("seamy", nets, [], clock_period=400.0)

    def make_session(self, graph, netlist, **overrides):
        config = GlobalRouterConfig(num_rounds=ROUNDS, shards=2, **overrides)
        return RoutingSession(graph, netlist, CostDistanceSolver(), config)

    def test_removing_a_seam_net_keeps_other_memos(self):
        graph, netlist = self.seam_design()
        session = self.make_session(graph, netlist)
        session.route()
        # Sanity: the design really classifies seam nets.
        assert session.router.engine.stats.seam_nets >= 2
        report = session.apply_eco([RemoveNet("seamA")])
        assert session.num_nets == 5
        cold_router, cold_result = cold_route(graph, session.netlist, session.config)
        assert_equivalent(session, report, cold_router, cold_result)
        # The surviving nets -- including the other seam net -- replayed.
        assert report.nets_reused > 0

    def test_seam_net_becoming_interior_is_rerouted_not_misreplayed(self):
        """Removing the cut-crossing sink of a seam net moves the net into a
        region's interior scope: its old memo (recorded on a different
        scope/graph) must be dropped, not installed, and the result must
        still equal the cold sharded route."""
        graph, netlist = self.seam_design()
        session = self.make_session(graph, netlist)
        session.route()
        report = session.apply_eco([RemoveSink("seamB", "seamB:s0")])
        cold_router, cold_result = cold_route(graph, session.netlist, session.config)
        assert_equivalent(session, report, cold_router, cold_result)
        # seamB itself was re-routed (scope changed), the rest replayed.
        assert report.nets_rerouted >= ROUNDS
        assert report.nets_reused > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_seam_membership_change_on_the_region_pool(self, workers):
        graph, netlist = self.seam_design()
        session = self.make_session(graph, netlist, shard_workers=workers)
        session.route()
        report = session.apply_eco([RemoveNet("seamA")])
        cold_router, cold_result = cold_route(graph, session.netlist, session.config)
        assert_equivalent(session, report, cold_router, cold_result)


class TestShardedSessionCheckpoints:
    """The checkpoint's name-keyed re-route signatures (format version 3).

    The cache tests route :func:`cached_design` for four rounds and
    checkpoint after the second: its last two rounds hit the cache under
    every layout, so equal per-round counts prove the signatures came back.
    """

    @pytest.mark.parametrize(
        "written_workers,resumed_workers", [(None, None), (2, 2), (2, None), (None, 2)]
    )
    def test_same_layout_resume_restores_scope_caches(
        self, tmp_path, written_workers, resumed_workers
    ):
        """A fast-path sharded run with the re-route cache checkpoints its
        signatures and resumes bit-identically -- including the cache state,
        so the resumed rounds skip exactly like the uninterrupted ones --
        wherever the regions ran before and run after the checkpoint."""
        from repro.engine.engine import EngineConfig

        graph, netlist = cached_design()

        def router_for(workers):
            return GlobalRouter(
                graph, netlist, CostDistanceSolver(),
                GlobalRouterConfig(
                    num_rounds=4, shards=4, shard_workers=workers,
                    engine=EngineConfig(reroute_cache=True, cache_scope="global"),
                ),
            )

        uninterrupted = router_for(None)
        expected = uninterrupted.run()

        path = str(tmp_path / "shard.ckpt")

        def hook(router, round_index):
            if round_index == 1:
                save_checkpoint(router, path)

        router_for(written_workers).run(on_round_end=hook)

        signatures = load_checkpoint(path).state["cache_signatures"]
        interior = {
            netlist.nets[i].name
            for region in uninterrupted.engine.regions
            for i in region.interior
        }
        assert interior and interior <= set(signatures)

        resumed = router_for(resumed_workers)
        assert resume_router(resumed, path)
        assert resumed.rounds_completed == 2
        # The scopes hold their signatures again before any round runs.
        assert all(
            None not in region.signatures for region in resumed.engine.regions
        )
        result = resumed.run()
        for field in PARITY_FIELDS:
            assert getattr(result, field) == getattr(expected, field), field
        assert tree_key(resumed.trees) == tree_key(uninterrupted.trees)
        # The resumed rounds skip exactly like the uninterrupted flow's
        # final round -- the restored signatures made the cache state, not
        # just the trees, part of the resume.
        resumed_counts = [
            (r.nets_routed, r.nets_cached) for r in resumed.engine.round_reports
        ]
        uninterrupted_counts = [
            (r.nets_routed, r.nets_cached)
            for r in uninterrupted.engine.round_reports[-len(resumed_counts):]
        ]
        assert resumed_counts == uninterrupted_counts
        assert sum(cached for _, cached in resumed_counts) > 0

    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize(
        "written_layout,resumed_layout",
        [((4, 2), (2, 1)), ((4, 2), (4, 1)), ((4, 2), (1, 1)), ((1, 1), (4, 1))],
    )
    def test_parity_checkpoint_resumes_across_layouts(
        self, tmp_path, written_layout, resumed_layout, cache
    ):
        """A parity-regime checkpoint written under (shards, workers) resumes
        under a different decomposition -- including back to, and from, the
        plain unsharded engine (1/1) -- bit-identically; with the re-route
        cache on, the flat name-keyed signatures restore into whichever
        engine resumes (parity signatures are scope-independent), so the
        resumed round also skips the nets the unsharded reference skips."""
        from repro.engine.engine import EngineConfig

        graph, netlist = cached_design()

        def config_for(shards, workers):
            return GlobalRouterConfig(
                num_rounds=4,
                cost_refresh_interval=10**9,
                shards=shards,
                shard_parity=shards > 1,
                shard_workers=None if workers == 1 else workers,
                engine=EngineConfig(reroute_cache=cache, cache_scope="global"),
            )

        reference = GlobalRouter(
            graph, netlist, CostDistanceSolver(), config_for(1, 1)
        )
        expected = reference.run()

        path = str(tmp_path / "parity.ckpt")

        def hook(router, round_index):
            if round_index == 1:
                save_checkpoint(router, path)

        writer = GlobalRouter(graph, netlist, CostDistanceSolver(), config_for(*written_layout))
        writer.run(on_round_end=hook)

        resumed = GlobalRouter(
            graph, netlist, CostDistanceSolver(), config_for(*resumed_layout)
        )
        assert resume_router(resumed, path)
        assert resumed.rounds_completed == 2
        result = resumed.run()
        for field in PARITY_FIELDS:
            assert getattr(result, field) == getattr(expected, field), field
        assert tree_key(resumed.trees) == tree_key(reference.trees)
        last, want = resumed.engine.round_reports[-1], reference.engine.round_reports[-1]
        assert (last.nets_routed, last.nets_cached) == (want.nets_routed, want.nets_cached)
        assert (want.nets_cached > 0) == cache

    @pytest.mark.parametrize("written,resumed", [(4, 1), (1, 4), (4, 2)])
    def test_fast_path_checkpoint_rejected_under_another_layout(
        self, tmp_path, written, resumed
    ):
        """Fast-path trees depend on the decomposition, so resuming under
        another one used to finish at a result matching neither layout's
        own run.  The layout is part of the fingerprint now: the resume is
        refused, and ``try_resume_router`` restarts from round 0."""
        graph, netlist = random_design(101)
        path = str(tmp_path / "layout.ckpt")

        def hook(router, round_index):
            if round_index == 0:
                save_checkpoint(router, path)

        GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=2, shards=written),
        ).run(on_round_end=hook)

        def fresh(**overrides):
            return GlobalRouter(
                graph, netlist, CostDistanceSolver(),
                GlobalRouterConfig(num_rounds=2, shards=resumed, **overrides),
            )

        with pytest.raises(CheckpointError, match=r"differs on \['shard_layout'\]"):
            resume_router(fresh(), path)
        if resumed > 1:
            with pytest.raises(CheckpointError, match="shard_layout"):
                resume_router(fresh(shard_halo=1), path)
        expected = fresh().run()
        restarted = fresh()
        assert not try_resume_router(restarted, path)
        assert restarted.rounds_completed == 0
        result = restarted.run()
        for field in PARITY_FIELDS:
            assert getattr(result, field) == getattr(expected, field), field

    def test_checkpoint_without_shard_layout_key_loads_when_unsharded(self, tmp_path):
        """A checkpoint older than the ``shard_layout`` key reads as
        ``None``: unsharded and parity-regime routers still accept it, a
        fast-path router does not."""
        graph, netlist = random_design(101)
        path = tmp_path / "old.ckpt"
        writer = GlobalRouter(
            graph, netlist, CostDistanceSolver(), GlobalRouterConfig(num_rounds=2)
        )

        def hook(router, round_index):
            if round_index == 0:
                save_checkpoint(router, str(path))

        writer.run(on_round_end=hook)
        document = json.loads(path.read_text())
        assert document["fingerprint"].pop("shard_layout") is None
        path.write_text(json.dumps(document))
        for config in (
            GlobalRouterConfig(num_rounds=2),
            GlobalRouterConfig(num_rounds=2, shards=2, shard_parity=True),
        ):
            router = GlobalRouter(graph, netlist, CostDistanceSolver(), config)
            assert resume_router(router, str(path))
            assert router.rounds_completed == 1
        fast = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=2, shards=2),
        )
        with pytest.raises(CheckpointError, match="shard_layout"):
            resume_router(fast, str(path))

    @pytest.mark.parametrize("version", [1, 2])
    def test_version1_checkpoint_rejected_with_clear_error(self, tmp_path, version):
        """Older-version checkpoints (index-keyed and per-scope signature
        sections, dict trees) must be rejected with a clear error naming
        the version, not restored into garbage; ``try_resume_router``
        degrades that to a fresh start."""
        graph, netlist = random_design(101)
        router = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=1, shards=2),
        )
        router.run()
        path = tmp_path / "old.ckpt"
        save_checkpoint(router, str(path))
        document = json.loads(path.read_text())
        document["version"] = version
        path.write_text(json.dumps(document))
        with pytest.raises(
            CheckpointError, match=f"unsupported checkpoint version {version} .*version 3"
        ):
            load_checkpoint(str(path))
        fresh = GlobalRouter(
            graph, netlist, CostDistanceSolver(),
            GlobalRouterConfig(num_rounds=1, shards=2),
        )
        assert not try_resume_router(fresh, str(path))
        assert fresh.rounds_completed == 0
        assert tree_key(fresh.trees) == [None] * netlist.num_nets
        fresh.run()
        assert tree_key(fresh.trees) == tree_key(router.trees)


class TestOldGuardsGone:
    """The PR-2 shards=1 guards were *replaced by the real path*, not
    rephrased: their error messages must not survive anywhere in src/."""

    REMOVED_MESSAGES = (
        "does not carry replay memos",
        "route with shards=1 for ECO sessions",
        "sessions require an unsharded flow",
        "sessions and --shards are mutually exclusive",
    )

    def test_old_error_messages_gone_from_codebase(self):
        src_root = os.path.join(os.path.dirname(__file__), "..", "src")
        offenders = []
        for dirpath, _dirnames, filenames in os.walk(src_root):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                file_path = os.path.join(dirpath, filename)
                with open(file_path, "r", encoding="utf-8") as handle:
                    text = handle.read()
                for message in self.REMOVED_MESSAGES:
                    if message in text:
                        offenders.append((file_path, message))
        assert not offenders, offenders

    def test_sharded_session_constructs(self):
        graph, netlist = random_design(101, num_nets=8)
        session = RoutingSession(
            graph, netlist, CostDistanceSolver(), GlobalRouterConfig(shards=2)
        )
        assert session.config.shards == 2
