"""Versioned on-disk checkpoints of a routing run.

A checkpoint captures everything :meth:`repro.router.router.GlobalRouter.export_state`
deems flow-determining -- routed trees, congestion usage, resource-sharing
prices, the round counter, and (when the engine cache is on) the stored
re-route signatures -- next to a fingerprint of the inputs (netlist, graph,
oracle, seed, round budget).  Restoring it into a freshly built router over
the same inputs resumes the flow *bit for bit*: the remaining rounds produce
exactly the trees and metrics an uninterrupted run would have produced,
because each round is a pure function of the restored state.

The format is a single JSON document.  Float scalars survive JSON exactly
(Python encodes them via ``repr``, which round-trips every finite double);
the large float64 arrays are stored as base64 of their raw bytes, which is
lossless by construction.  ``version`` guards the schema: readers refuse
checkpoints written by an incompatible layout rather than mis-restoring.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.engine.scheduler import BBOX_HALO
from repro.router.router import GlobalRouter

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "Checkpoint",
    "router_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_hook",
    "checkpoint_every_hook",
    "resume_router",
    "try_resume_router",
]

CHECKPOINT_FORMAT = "repro-checkpoint"
#: Version 3 stores the re-route signatures of every engine, sharded or not,
#: as one ``cache_signatures`` map keyed by net name (a net belongs to exactly
#: one scope, so the flat map is lossless) and trees as the
#: :data:`~repro.core.tree.TreeRecord` s the process pools ship.  Older
#: versions are refused with a clear error instead of being mis-restored.
CHECKPOINT_VERSION = 3


class CheckpointError(RuntimeError):
    """A checkpoint could not be read or does not match the router."""


def encode_array(array: np.ndarray) -> Dict[str, object]:
    """Lossless JSON encoding of a numpy array (dtype + shape + raw bytes)."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(record: Dict[str, object]) -> np.ndarray:
    """The exact inverse of :func:`encode_array`."""
    raw = base64.b64decode(str(record["data"]))
    array = np.frombuffer(raw, dtype=np.dtype(str(record["dtype"])))
    return array.reshape([int(n) for n in record["shape"]]).copy()  # type: ignore[union-attr]


def router_fingerprint(router: GlobalRouter) -> Dict[str, object]:
    """The input identity a checkpoint is only valid against.

    Covers every configuration knob the remaining rounds depend on --
    bit-for-bit resume is only guaranteed when all of them match.  The
    executor backend and worker count are deliberately *excluded*: all
    backends produce identical trees (the engine's determinism contract),
    so a run checkpointed under ``serial`` may resume under ``process``.
    The shard layout is part of the identity only on the fast path, whose
    trees depend on it; parity-regime flows reproduce the unsharded router
    under every layout and keep ``None``, like an unsharded run.
    """
    config = router.config
    sharing = router.prices.config
    fast_path = config.shards > 1 and not config.shard_parity
    return {
        "netlist": router.netlist.name,
        "num_nets": router.netlist.num_nets,
        "grid": [router.graph.nx, router.graph.ny, router.graph.num_layers],
        "num_edges": router.graph.num_edges,
        "oracle": router.oracle.name,
        "seed": config.seed,
        "num_rounds": config.num_rounds,
        "dbif": config.dbif,
        # eta, the price rules, the bbox batch cap (None) and the bbox halo
        # are fixed by the flow; they keep their slots, read from what the
        # router uses, so that checkpoints of older configs still resume.
        "eta": router.bifurcation.eta,
        "cost_refresh_interval": config.cost_refresh_interval,
        "resource_sharing": [
            sharing.edge_price_strength,
            sharing.max_edge_price,
            sharing.base_delay_weight,
            sharing.critical_delay_weight,
            sharing.weight_smoothing,
        ],
        "scheduling": [config.engine.scheduling, None, BBOX_HALO],
        "cache": [config.engine.reroute_cache, config.engine.cache_scope],
        "shard_layout": [config.shards, config.shard_halo] if fast_path else None,
    }


@dataclass
class Checkpoint:
    """A loaded checkpoint: input fingerprint plus restorable router state."""

    fingerprint: Dict[str, object]
    state: Dict[str, object]

    @property
    def rounds_completed(self) -> int:
        return int(self.state["rounds_completed"])  # type: ignore[arg-type]

    def restore(self, router: GlobalRouter) -> None:
        """Install this checkpoint's state into ``router``.

        Raises
        ------
        CheckpointError
            If the router was built from different inputs than the run
            that wrote the checkpoint, or the state does not fit the router
            (wrong net count, a tree index off the graph, ...); the router
            is untouched either way.
        """
        actual = router_fingerprint(router)
        # Key-wise with ``get``: a key a checkpoint predates reads as None.
        mismatched = sorted(
            key
            for key in set(actual) | set(self.fingerprint)
            if actual.get(key) != self.fingerprint.get(key)
        )
        if mismatched:
            raise CheckpointError(
                f"checkpoint does not match this router (differs on {mismatched})"
            )
        try:
            router.import_state(self.state)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint state does not fit this router ({exc!r})"
            ) from exc


def save_checkpoint(router: GlobalRouter, path: str) -> None:
    """Write the router's current state to ``path`` (atomic replace)."""
    with obs.span("checkpoint_save", path=path, round=router.rounds_completed):
        _save_checkpoint(router, path)
    obs.inc("checkpoint.saves")


def _save_checkpoint(router: GlobalRouter, path: str) -> None:
    state = router.export_state()
    signatures: Optional[Dict[str, str]] = None
    if state["cache_signatures"] is not None:
        signatures = {
            name: sig.hex()
            for name, sig in state["cache_signatures"].items()  # type: ignore[union-attr]
        }
    document = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "fingerprint": router_fingerprint(router),
        "state": {
            "rounds_completed": state["rounds_completed"],
            "trees": state["trees"],
            "congestion": {
                "overflow_penalty": state["congestion"]["overflow_penalty"],  # type: ignore[index]
                "threshold": state["congestion"]["threshold"],  # type: ignore[index]
                "usage": encode_array(state["congestion"]["usage"]),  # type: ignore[index]
            },
            "edge_prices": encode_array(state["edge_prices"]),  # type: ignore[arg-type]
            "delay_weights": state["delay_weights"],
            "cache_signatures": signatures,
        },
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(prefix=".checkpoint-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    with obs.span("checkpoint_load", path=path):
        checkpoint = _load_checkpoint(path)
    obs.inc("checkpoint.loads")
    return checkpoint


def _load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if not isinstance(document, dict):
        raise CheckpointError(f"{path!r} is not a {CHECKPOINT_FORMAT} file")
    if document.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path!r} is not a {CHECKPOINT_FORMAT} file")
    if document.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path!r} has unsupported checkpoint version "
            f"{document.get('version')!r} (this build reads version "
            f"{CHECKPOINT_VERSION}: name-keyed cache signatures, trees as "
            "records); re-run the flow and write a fresh checkpoint"
        )
    # Every shape assumption below is guarded: a truncated or hand-edited
    # document must surface as a CheckpointError naming the file, never as
    # a raw KeyError/ValueError traceback out of the decoding internals.
    try:
        fingerprint = document["fingerprint"]
        raw_state = document["state"]
        signatures = None
        if raw_state.get("cache_signatures") is not None:
            signatures = {
                str(name): bytes.fromhex(sig)
                for name, sig in raw_state["cache_signatures"].items()
            }
        state = {
            "rounds_completed": int(raw_state["rounds_completed"]),
            "trees": raw_state["trees"],
            "congestion": {
                "overflow_penalty": float(raw_state["congestion"]["overflow_penalty"]),
                "threshold": float(raw_state["congestion"]["threshold"]),
                "usage": decode_array(raw_state["congestion"]["usage"]),
            },
            "edge_prices": decode_array(raw_state["edge_prices"]),
            "delay_weights": raw_state["delay_weights"],
            "cache_signatures": signatures,
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is corrupt or truncated ({exc!r})"
        ) from exc
    return Checkpoint(fingerprint=fingerprint, state=state)


def checkpoint_every_hook(path: str, every: int = 1):
    """An ``on_round_end`` callback that checkpoints every ``every``-th
    round -- and always after the final round, so a completed flow never
    leaves a stale mid-flow checkpoint behind.

    Usage::

        router.run(on_round_end=checkpoint_every_hook("run.ckpt", 2))
    """
    if every < 1:
        raise ValueError("checkpoint interval must be positive")

    def hook(router: GlobalRouter, round_index: int) -> None:
        completed = round_index + 1
        if completed % every == 0 or completed >= router.config.num_rounds:
            save_checkpoint(router, path)

    return hook


def checkpoint_hook(path: str):
    """An ``on_round_end`` callback that checkpoints after every round.

    Usage::

        router.run(on_round_end=checkpoint_hook("run.ckpt"))
    """
    return checkpoint_every_hook(path, 1)


def resume_router(router: GlobalRouter, path: str) -> bool:
    """Restore ``path`` into ``router`` if it exists; returns whether it did."""
    if not os.path.exists(path):
        return False
    load_checkpoint(path).restore(router)
    return True


def try_resume_router(router: GlobalRouter, path: str) -> bool:
    """Like :func:`resume_router`, but an *unusable* checkpoint degrades to
    a fresh start instead of failing the run.

    The crash-recovery contract of the serve daemon: a checkpoint that is
    corrupt, truncated, or written against different inputs means the run
    restarts from round 0 -- with a structured warning and a
    ``recovery.checkpoint_corrupt`` counter -- because re-routing from
    scratch always converges to the same result, while refusing to start
    would leave the re-adopted job dead.  A *missing* checkpoint is the
    ordinary cold-start case and is not warned about.
    """
    try:
        return resume_router(router, path)
    except CheckpointError as exc:
        obs.get_logger("serve.checkpoint").warning(
            "ignoring unusable checkpoint %s (%s); restarting from round 0",
            path,
            exc,
            extra={"checkpoint": path},
        )
        obs.inc("recovery.checkpoint_corrupt")
        obs.publish("recovery", kind="checkpoint_corrupt", path=path)
        return False
