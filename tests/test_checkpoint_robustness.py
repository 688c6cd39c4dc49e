"""Checkpoint robustness: corruption matrix, atomic-write crash simulation.

The loader's contract (see DESIGN.md, "Recovery contract"): a checkpoint
that cannot be restored -- truncated, corrupt, empty, wrong format, wrong
version -- always surfaces as :class:`CheckpointError` naming the path,
never as a raw ``JSONDecodeError``/``KeyError``/``ValueError`` out of the
decoding internals.  A structurally valid checkpoint whose state does not
fit the router (a net short, a tree index off the graph) is refused by
``Checkpoint.restore`` the same way, before the router is touched.
``try_resume_router`` additionally degrades any such
error to a warned fresh start, which is what lets a restarted daemon
re-adopt a job whose checkpoint died with the machine.
"""

import json
import os

import pytest

from repro.core.cost_distance import CostDistanceSolver
from repro.flowparams import build_flow
from repro.grid.graph import build_grid_graph
from repro.instances.generator import NetlistGeneratorConfig, generate_netlist
from repro.router.metrics import PARITY_FIELDS
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.serve.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointError,
    checkpoint_every_hook,
    load_checkpoint,
    resume_router,
    router_fingerprint,
    save_checkpoint,
    try_resume_router,
)


def make_router(num_rounds=2, seed=31):
    graph = build_grid_graph(10, 10, 3)
    netlist = generate_netlist(
        graph, NetlistGeneratorConfig(num_nets=10), seed=seed, name=f"ckpt{seed}"
    )
    return GlobalRouter(
        graph, netlist, CostDistanceSolver(), GlobalRouterConfig(num_rounds=num_rounds)
    )


@pytest.fixture
def checkpoint_path(tmp_path):
    router = make_router()
    router.run()
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(router, path)
    return path


class TestCorruptionMatrix:
    """Every way a checkpoint file can be broken maps to CheckpointError."""

    def _assert_clear_error(self, path):
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert path in str(excinfo.value)

    def test_truncated_json(self, checkpoint_path):
        with open(checkpoint_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(checkpoint_path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        self._assert_clear_error(checkpoint_path)

    def test_truncated_state(self, checkpoint_path):
        """Valid JSON, valid header, missing state keys -- the case a raw
        KeyError used to leak from."""
        with open(checkpoint_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        del document["state"]["edge_prices"]
        with open(checkpoint_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        self._assert_clear_error(checkpoint_path)

    def test_mangled_array_encoding(self, checkpoint_path):
        with open(checkpoint_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["state"]["edge_prices"] = {"dtype": "float64", "shape": "oops"}
        with open(checkpoint_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        self._assert_clear_error(checkpoint_path)

    def test_garbage_bytes(self, tmp_path):
        path = str(tmp_path / "garbage.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"\x00\xff\xfe not json at all \x13\x37")
        self._assert_clear_error(path)

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.ckpt")
        open(path, "w").close()
        self._assert_clear_error(path)

    def test_non_dict_document(self, tmp_path):
        path = str(tmp_path / "list.ckpt")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([1, 2, 3], handle)
        self._assert_clear_error(path)

    def test_wrong_format(self, tmp_path):
        path = str(tmp_path / "other.ckpt")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "something-else", "version": 1}, handle)
        self._assert_clear_error(path)

    def test_wrong_version(self, checkpoint_path):
        with open(checkpoint_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["version"] = CHECKPOINT_VERSION + 1
        with open(checkpoint_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        self._assert_clear_error(checkpoint_path)

    #: Structurally valid documents whose state does not fit the router:
    #: each edit used to leak ``ValueError`` / ``KeyError`` out of
    #: ``restore`` -- or, for the edge index, restore "successfully" and die
    #: in the next round with ``IndexError``.
    MISFITS = {
        "trees_one_short": lambda state: state["trees"].pop(),
        "delay_weight_row_of_wrong_arity": lambda state: state["delay_weights"][0].append(1.0),
        "tree_record_missing_a_field": lambda state: state["trees"][0].pop(),
        "tree_edge_index_off_the_graph": lambda state: state["trees"][0][2].append(10**9),
    }

    @staticmethod
    def _misfit(checkpoint_path, name):
        with open(checkpoint_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        TestCorruptionMatrix.MISFITS[name](document["state"])
        with open(checkpoint_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

    @pytest.mark.parametrize("name", sorted(MISFITS))
    def test_state_that_does_not_fit_is_refused_untouched(self, checkpoint_path, name):
        self._misfit(checkpoint_path, name)
        router = make_router()
        with pytest.raises(CheckpointError, match="does not fit this router"):
            resume_router(router, checkpoint_path)
        assert router.rounds_completed == 0
        assert not router.congestion.usage.any()
        assert router.trees == [None] * router.netlist.num_nets

    def test_missing_file_is_not_an_error_on_resume(self, tmp_path):
        router = make_router()
        assert resume_router(router, str(tmp_path / "never-written.ckpt")) is False

    def test_intact_checkpoint_still_loads(self, checkpoint_path):
        checkpoint = load_checkpoint(checkpoint_path)
        assert checkpoint.rounds_completed == 2
        assert checkpoint.fingerprint["num_rounds"] == 2


class TestTryResume:
    """try_resume_router: corrupt -> warned fresh start, usable -> resume."""

    def test_corrupt_checkpoint_degrades_to_fresh_start(self, tmp_path, caplog):
        import logging

        path = str(tmp_path / "bad.ckpt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        router = make_router()
        with caplog.at_level(logging.WARNING, logger="repro.serve.checkpoint"):
            assert try_resume_router(router, path) is False
        assert router.rounds_completed == 0
        messages = [rec.getMessage() for rec in caplog.records]
        assert any("ignoring unusable checkpoint" in m for m in messages)

    @pytest.mark.parametrize("name", sorted(TestCorruptionMatrix.MISFITS))
    def test_misfit_checkpoint_degrades_to_fresh_start(self, checkpoint_path, name):
        """The refused restore leaves the router exactly as built, so the
        flow it then runs is the uninterrupted one."""
        TestCorruptionMatrix._misfit(checkpoint_path, name)
        reference = make_router()
        expected = reference.run()
        router = make_router()
        assert try_resume_router(router, checkpoint_path) is False
        assert router.rounds_completed == 0
        assert not router.congestion.usage.any()
        result = router.run()
        for field in PARITY_FIELDS:
            assert getattr(result, field) == getattr(expected, field), field
        assert [t.edges for t in router.trees] == [t.edges for t in reference.trees]

    def test_missing_checkpoint_is_silent(self, tmp_path, caplog):
        import logging

        router = make_router()
        with caplog.at_level(logging.WARNING, logger="repro.serve.checkpoint"):
            assert try_resume_router(router, str(tmp_path / "missing.ckpt")) is False
        assert caplog.records == []

    def test_usable_checkpoint_resumes(self, checkpoint_path):
        router = make_router()
        assert try_resume_router(router, checkpoint_path) is True
        assert router.rounds_completed == 2


class TestAtomicWriteCrash:
    """A crash between tmp write and rename leaves only the tmp file; the
    loader never looks at tmp files, so the run restarts (or resumes from
    the previous intact checkpoint)."""

    def test_orphaned_tmp_file_is_ignored(self, tmp_path):
        # Simulate the crash window: tmp present, final path absent.
        tmp_file = tmp_path / ".checkpoint-abc123"
        tmp_file.write_text('{"format": "repro-checkpoint", "version": 3, "trunc')
        final = str(tmp_path / "run.ckpt")
        router = make_router()
        assert resume_router(router, final) is False
        assert router.rounds_completed == 0

    def test_failed_save_leaves_previous_checkpoint_intact(
        self, checkpoint_path, monkeypatch
    ):
        """os.replace is the commit point: when the write before it fails,
        the previous checkpoint file is untouched and still loads."""
        before = load_checkpoint(checkpoint_path)
        router = make_router()
        router.run()

        def exploding_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", exploding_dump)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(router, checkpoint_path)
        monkeypatch.undo()
        after = load_checkpoint(checkpoint_path)
        assert after.fingerprint == before.fingerprint
        assert after.rounds_completed == before.rounds_completed
        # ...and the aborted write left no tmp litter behind.
        directory = os.path.dirname(checkpoint_path)
        assert [f for f in os.listdir(directory) if f.startswith(".checkpoint-")] == []


class TestCheckpointEveryHook:
    def test_interval_validation(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            checkpoint_every_hook(str(tmp_path / "x.ckpt"), 0)

    @pytest.mark.parametrize("every,expected_saves", [(1, 3), (2, 2), (3, 1), (5, 1)])
    def test_save_cadence(self, tmp_path, every, expected_saves):
        """Every N rounds, plus always the final round."""
        saves = []
        path = str(tmp_path / "cadence.ckpt")
        hook = checkpoint_every_hook(path, every)
        router = make_router(num_rounds=3)

        def counting_hook(router, round_index):
            hook(router, round_index)
            if os.path.exists(path):
                saves.append(load_checkpoint(path).rounds_completed)
                os.unlink(path)

        router.run(on_round_end=counting_hook)
        assert len(saves) == expected_saves
        assert saves[-1] == 3  # the final round is always checkpointed

    def test_document_format_is_versioned(self, checkpoint_path):
        with open(checkpoint_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["format"] == CHECKPOINT_FORMAT
        assert document["version"] == CHECKPOINT_VERSION


class TestFingerprintCompatibility:
    """The fingerprint dict is the resume key of every v3 checkpoint already
    on disk: removing a config option must not change it.  Options that
    became constants (eta, the price rules, the bbox batch cap and halo)
    keep their slots with the values the router uses."""

    COMMON = {
        "netlist": "ckpt31",
        "num_nets": 10,
        "grid": [10, 10, 3],
        "num_edges": 470,
        "oracle": "CD",
        "seed": 0,
        "num_rounds": 2,
        "dbif": 0.0,
        "eta": 0.25,
        "cost_refresh_interval": 8,
        "resource_sharing": [1.5, 64.0, 0.15, 2.0, 0.7],
        "scheduling": ["window", None, 2],
    }

    def test_default_unsharded_config(self):
        router = make_router()
        expected = dict(self.COMMON, cache=[False, "bbox"], shard_layout=None)
        assert router_fingerprint(router) == expected

    def test_four_shard_cached_config(self):
        base = make_router()
        config = build_flow({"shards": 4, "cache": True})[2]
        router = GlobalRouter(base.graph, base.netlist, CostDistanceSolver(), config)
        try:
            expected = dict(self.COMMON, cache=[True, "bbox"], shard_layout=[4, 0])
            assert router_fingerprint(router) == expected
        finally:
            router.engine.close()
