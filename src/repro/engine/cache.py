"""Incremental re-route caching for rip-up-and-re-route rounds.

Later resource-sharing rounds re-solve every net from scratch even though
most prices have settled: a net whose terminals, delay weights, and nearby
congestion costs did not change since its last routing would get the exact
same tree from the (deterministically seeded) oracle.  The
:class:`RerouteCache` detects such nets by signature comparison and lets the
engine skip the oracle call -- the previous tree is kept, and because it is
unchanged the congestion usage does not need to be touched either.

The signature (see :func:`repro.core.instance.instance_signature`) covers

* the net's terminals and sink delay weights,
* the bifurcation model parameters,
* the congestion cost vector restricted to the net's *bounding region* --
  the halo-expanded planar bounding box of its pins, plus every edge of the
  net's current tree (routes may detour outside the pin box), and
* the global minimum routing-edge cost, which feeds the oracle's A*
  potentials and must therefore be part of the cache key even though it is
  not a "local" quantity.

``scope="global"`` digests the full cost vector instead of the bounding
region; it is slower to hash but makes a cache hit a *proof* that re-solving
would reproduce the tree (the region scope is a very good heuristic).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.core.bifurcation import BifurcationModel
from repro.core.instance import instance_signature
from repro.engine.scheduler import BoundingBox
from repro.grid.graph import RoutingGraph

if TYPE_CHECKING:  # circular at runtime: tree.py does not import the engine
    from repro.core.tree import EmbeddedTree

__all__ = ["CacheStats", "RerouteCache", "RoundMemo", "reroute_stats"]


@dataclass
class RoundMemo:
    """What one rip-up-and-re-route round memoises for later replay.

    ``signatures`` holds every net's *lookup* signature -- the digest
    computed before the round's oracle call, under the tree the net carried
    into the round -- and ``trees`` the embedded tree each net held after
    the round.  A later run over an edited netlist can replay the flow
    against this memo: a net whose lookup signature at round ``r`` equals
    the memoised one would receive the exact same tree from the
    deterministic oracle, so the memoised tree is installed without an
    oracle call.  This is how :class:`repro.serve.session.RoutingSession`
    turns an ECO delta into an incremental re-route whose outcome is
    bit-identical to a cold run of the edited netlist.

    Sharded flows carry one memo per *round* too, but each scope of the
    round (region interiors, seam super-region scopes, the global seam
    engine) computes its lookup signatures against its own (sub)graph, so
    the bytes are only comparable between identical scopes.  The shard
    coordinator localises the global memo per scope before replaying and
    merges the per-scope log signatures back in fixed region order; a net
    whose scope changed across an ECO simply misses its memo and is
    re-routed -- conservative, never wrong.
    """

    signatures: Dict[int, bytes] = field(default_factory=dict)
    trees: Dict[int, "EmbeddedTree"] = field(default_factory=dict)

    def remapped(self, index_map: Dict[int, int]) -> "RoundMemo":
        """A copy with net indices translated through ``index_map``.

        Nets absent from the map (removed by an ECO) are dropped; every
        surviving net's memo moves to its new index.  Sound because RNG
        streams and signatures are keyed by net *name*, not index (see
        :mod:`repro.engine.rng`): the deterministic oracle reproduces the
        memoised tree at the shifted index as long as the lookup signature
        still matches.
        """
        return RoundMemo(
            signatures={
                index_map[i]: s for i, s in self.signatures.items() if i in index_map
            },
            trees={index_map[i]: t for i, t in self.trees.items() if i in index_map},
        )


@dataclass
class CacheStats:
    """Hit/miss counters of one routing run."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def reroute_stats(round_reports: Sequence[object]) -> CacheStats:
    """The re-route cache's counters of a flow, from its engine's round
    reports (:class:`~repro.engine.engine.RoundReport`) -- the one view that
    exists for sharded flows, whose lookups happen in many scope caches and
    processes.  Every net is looked up once per round after the first (it
    has no tree to keep before), and is then either kept or re-routed."""
    return CacheStats(
        hits=sum(r.nets_cached for r in round_reports),
        misses=sum(r.nets_routed for r in round_reports if r.round_index > 0),
    )


class RerouteCache:
    """Skips re-solving nets whose instance signature is unchanged.

    Parameters
    ----------
    graph:
        The routing graph (edge geometry for the bounding regions).
    boxes:
        Per-net halo-expanded planar bounding boxes, typically from
        :meth:`repro.engine.scheduler.NetScheduler.net_box`.
    scope:
        ``"bbox"`` digests costs over the net's bounding region,
        ``"global"`` digests the full cost vector.
    """

    #: Chunk size (edges) of the global digest's fixed two-level layout.
    DIGEST_CHUNK = 4096

    def __init__(
        self,
        graph: RoutingGraph,
        boxes: Sequence[BoundingBox],
        scope: str = "bbox",
    ) -> None:
        if scope not in ("bbox", "global"):
            raise ValueError(f"unknown cache scope {scope!r}")
        self.graph = graph
        self.boxes = list(boxes)
        self.scope = scope
        self.stats = CacheStats()
        self._signatures: Dict[int, bytes] = {}
        # Region edge arrays live in the graph's per-box memo, shared with
        # the caches of earlier and later engines on this graph; boxes no
        # net of this netlist has are dropped from it here.
        if scope == "bbox":
            graph.retain_box_edges(self.boxes)
        self._routing_mask = ~graph.edge_is_via

    # ------------------------------------------------------------- regions
    def region_edges(self, net_index: int) -> np.ndarray:
        """Sorted edge indices inside the net's bounding region (shared,
        read-only; see :meth:`repro.grid.graph.RoutingGraph.box_edges`)."""
        return self.graph.box_edges(self.boxes[net_index])

    def _region_with_tree(self, net_index: int, tree_edges: Sequence[int]) -> np.ndarray:
        """The sorted union of the net's region and its tree's edges.

        A tree mostly lies inside its net's box, so only the tree's own
        edges are looked up in the (sorted) region array and the few outside
        it are merged in; the region array itself is returned, uncopied,
        when there are none.
        """
        region = self.region_edges(net_index)
        if not len(tree_edges):
            return region
        tree = np.asarray(tree_edges, dtype=np.int64)
        slots = np.searchsorted(region, tree)
        in_range = slots < region.size
        inside = np.zeros(tree.size, dtype=bool)
        inside[in_range] = region[slots[in_range]] == tree[in_range]
        if inside.all():
            return region
        outside = np.unique(tree[~inside])
        return np.insert(region, np.searchsorted(region, outside), outside)

    # ----------------------------------------------------------- signature
    def global_cost_digest(self, costs: np.ndarray) -> bytes:
        """Digest of the full cost vector (for ``global``-scope signatures).

        SHA-1 over the SHA-1s of the vector's fixed :attr:`DIGEST_CHUNK`-edge
        chunks -- the layout checkpoints and replay memos already carry.  A
        pure function of the vector's contents, recomputed per call.
        """
        data = np.ascontiguousarray(costs, dtype=np.float64)
        chunks = [
            hashlib.sha1(data[start : start + self.DIGEST_CHUNK]).digest()
            for start in range(0, max(data.size, 1), self.DIGEST_CHUNK)
        ]
        return hashlib.sha1(b"".join(chunks)).digest()

    def global_cost_floor(self, costs: np.ndarray) -> float:
        """The cheapest routing-edge cost anywhere under ``costs``.

        The oracle's A* potentials scale with this value, so it is part of
        every bbox-scope signature; it is constant for one cost vector, so
        callers digesting a whole batch should compute it once and pass it
        to :meth:`signature` instead of paying the O(edges) scan per net.
        """
        routing_costs = costs[self._routing_mask]
        return float(routing_costs.min()) if routing_costs.size else 0.0

    def signature(
        self,
        net_index: int,
        root: int,
        sinks: Sequence[int],
        weights: Sequence[float],
        costs: np.ndarray,
        bifurcation: BifurcationModel,
        tree_edges: Sequence[int] = (),
        cost_floor: Optional[float] = None,
        cost_digest: Optional[bytes] = None,
    ) -> bytes:
        """Compute the cache signature of one net under ``costs``.

        ``cost_floor`` / ``cost_digest`` are the batch-constant
        :meth:`global_cost_floor` / :meth:`global_cost_digest` of ``costs``;
        each is computed on demand when omitted, so callers digesting a
        whole batch should pass them in.
        """
        if self.scope == "global":
            extras: List[float] = []
            if cost_digest is None:
                cost_digest = self.global_cost_digest(costs)
        else:
            if cost_floor is None:
                cost_floor = self.global_cost_floor(costs)
            extras = [cost_floor]
            region = self._region_with_tree(net_index, tree_edges)
            cost_digest = hashlib.sha1(
                np.ascontiguousarray(costs[region], dtype=np.float64)
            ).digest()
        return instance_signature(
            root, sinks, weights, costs, bifurcation, extras=extras, cost_digest=cost_digest
        )

    # -------------------------------------------------------------- lookup
    def is_fresh(self, net_index: int, signature: bytes) -> bool:
        """Whether the net's last routing used an identical signature."""
        hit = self._signatures.get(net_index) == signature
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return hit

    def store(self, net_index: int, signature: bytes) -> None:
        """Record the signature the net was (or would have been) routed with."""
        self._signatures[net_index] = signature

    def invalidate(self, net_index: Optional[int] = None) -> None:
        """Drop one net's entry, or all entries when ``net_index`` is None."""
        if net_index is None:
            self._signatures.clear()
        else:
            self._signatures.pop(net_index, None)

    # --------------------------------------------------------- persistence
    def export_signatures(self) -> Dict[int, bytes]:
        """Copy of the stored per-net signatures (for checkpointing)."""
        return dict(self._signatures)

    def load_signatures(self, signatures: Dict[int, bytes]) -> None:
        """Replace the stored signatures (the checkpoint-restore inverse of
        :meth:`export_signatures`); hit/miss statistics are left untouched."""
        self._signatures = dict(signatures)

    def __len__(self) -> int:
        return len(self._signatures)
