"""The cost-distance Steiner tree problem instance.

A :class:`SteinerInstance` bundles everything a Steiner tree oracle needs for
one net: the routing graph, the root and sink positions (graph nodes), the
sink delay weights, the current per-edge congestion cost vector ``c(e)``, the
static per-edge delay vector ``d(e)``, and the bifurcation penalty model.

Both the cost-distance algorithm and every baseline consume this object, so
the apples-to-apples comparison of paper Tables I/II and the router's oracle
calls share one code path.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.core.bifurcation import BifurcationModel
from repro.grid.geometry import GridPoint
from repro.grid.graph import RoutingGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.costctx import OracleCostContext

__all__ = ["SteinerInstance", "instance_signature", "require_finite_non_negative"]


def require_finite_non_negative(name: str, values: np.ndarray) -> None:
    """Refuse a vector with a negative, NaN or infinite entry, by name
    (``min`` propagates NaN, so two reductions catch all three)."""
    if values.size and not (values.min() >= 0.0 and values.max() < np.inf):
        raise ValueError(f"{name} must be finite and non-negative")


def instance_signature(
    root: int,
    sinks: Sequence[int],
    weights: Sequence[float],
    cost: np.ndarray,
    bifurcation: BifurcationModel,
    region_edges: Optional[np.ndarray] = None,
    extras: Sequence[float] = (),
    cost_digest: Optional[bytes] = None,
) -> bytes:
    """A stable digest of everything that determines one net's Steiner tree.

    The digest covers the terminals, the sink delay weights, the bifurcation
    parameters, and the congestion cost vector -- either in full or, when
    ``region_edges`` is given, restricted to those edges (plus any scalar
    ``extras`` such as global cost summaries feeding A* potentials).  Two
    routing attempts of a net with equal signatures (and equal RNG streams)
    produce the same tree, which is what the incremental re-route cache of
    :mod:`repro.engine.cache` exploits to skip unchanged nets.

    ``cost_digest`` is an optional pre-computed digest of the *full* cost
    vector; passing it lets callers signing many nets against one shared
    vector hash it once instead of once per net.  It is only consulted when
    ``region_edges`` is ``None`` (full-vector scope).
    """
    hasher = hashlib.sha1()
    hasher.update(struct.pack("<q", root))
    hasher.update(np.asarray(list(sinks), dtype=np.int64).tobytes())
    hasher.update(np.asarray(list(weights), dtype=np.float64).tobytes())
    hasher.update(struct.pack("<dd?", bifurcation.dbif, bifurcation.eta, bifurcation.enabled))
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    if region_edges is not None:
        hasher.update(np.ascontiguousarray(cost[region_edges]).tobytes())
    elif cost_digest is not None:
        hasher.update(cost_digest)
    else:
        hasher.update(cost.tobytes())
    if extras:
        hasher.update(np.asarray(list(extras), dtype=np.float64).tobytes())
    return hasher.digest()


@dataclass
class SteinerInstance:
    """One cost-distance Steiner tree problem.

    Attributes
    ----------
    graph:
        The 3D global routing graph.
    root:
        Graph node index of the net's source (root) pin.
    sinks:
        Graph node indices of the sink pins, one per sink (duplicates are
        allowed -- two sinks may share a tile).
    weights:
        Delay weight ``w(t)`` per sink, same order as ``sinks``.  These arise
        from the Lagrangean relaxation of the timing constraints.
    cost:
        Per-edge congestion cost vector ``c(e)`` (length ``graph.num_edges``).
    delay:
        Per-edge delay vector ``d(e)`` (length ``graph.num_edges``).
    bifurcation:
        The bifurcation penalty model (``dbif``, ``eta``).
    name:
        Optional identifier used in reports.
    context:
        Optional :class:`~repro.core.costctx.OracleCostContext` sharing
        batch-level artefacts (future-cost estimators, validation) across
        every net routed against the same cost vector.
        Only consulted when its arrays are identical (``is``) to this
        instance's ``cost``/``delay``; it never changes results.
    """

    graph: RoutingGraph
    root: int
    sinks: List[int]
    weights: List[float]
    cost: np.ndarray
    delay: np.ndarray
    bifurcation: BifurcationModel = field(default_factory=BifurcationModel.disabled)
    name: str = ""
    context: Optional["OracleCostContext"] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.sinks = list(self.sinks)
        self.weights = [float(w) for w in self.weights]
        self.cost = np.ascontiguousarray(self.cost, dtype=np.float64)
        self.delay = np.ascontiguousarray(self.delay, dtype=np.float64)
        if len(self.sinks) != len(self.weights):
            raise ValueError("sinks and weights must have the same length")
        if len(self.cost) != self.graph.num_edges or len(self.delay) != self.graph.num_edges:
            raise ValueError("cost/delay vectors must have one entry per graph edge")
        ctx = self.context
        if ctx is not None and ctx.covers(self.cost, self.delay):
            # Batch-level validation: same scans, run once per cost vector.
            ctx.validate()
        else:
            self.context = None
            require_finite_non_negative("edge costs", self.cost)
            require_finite_non_negative("edge delays", self.delay)
        require_finite_non_negative("sink delay weights", np.asarray(self.weights))
        nodes = [self.root] + self.sinks
        for node in nodes:
            if not 0 <= node < self.graph.num_nodes:
                raise ValueError(f"terminal node {node} outside the graph")

    # ------------------------------------------------------------- queries
    @property
    def num_sinks(self) -> int:
        """Number of sinks ``|S|``."""
        return len(self.sinks)

    @property
    def num_terminals(self) -> int:
        """Number of terminals ``t = |S| + 1`` (sinks plus root)."""
        return len(self.sinks) + 1

    @property
    def total_weight(self) -> float:
        """Sum of all sink delay weights."""
        return float(sum(self.weights))

    def root_point(self) -> GridPoint:
        """The :class:`GridPoint` of the root."""
        return self.graph.node_point(self.root)

    def sink_points(self) -> List[GridPoint]:
        """The :class:`GridPoint` of each sink, in sink order."""
        return [self.graph.node_point(s) for s in self.sinks]

    def terminal_nodes(self) -> List[int]:
        """Root node followed by all sink nodes."""
        return [self.root] + list(self.sinks)

    # --------------------------------------------------------- persistence
    def signature(
        self,
        region_edges: Optional[np.ndarray] = None,
        extras: Sequence[float] = (),
    ) -> bytes:
        """Digest of the tree-determining inputs (see :func:`instance_signature`)."""
        return instance_signature(
            self.root,
            self.sinks,
            self.weights,
            self.cost,
            self.bifurcation,
            region_edges=region_edges,
            extras=extras,
        )

    # ---------------------------------------------------------- derivation
    def with_bifurcation(self, bifurcation: BifurcationModel) -> "SteinerInstance":
        """A copy of this instance with a different bifurcation model."""
        return SteinerInstance(
            graph=self.graph,
            root=self.root,
            sinks=list(self.sinks),
            weights=list(self.weights),
            cost=self.cost,
            delay=self.delay,
            bifurcation=bifurcation,
            name=self.name,
            context=self.context,
        )

    def with_costs(self, cost: np.ndarray) -> "SteinerInstance":
        """A copy of this instance with a different congestion cost vector."""
        return SteinerInstance(
            graph=self.graph,
            root=self.root,
            sinks=list(self.sinks),
            weights=list(self.weights),
            cost=cost,
            delay=self.delay,
            bifurcation=self.bifurcation,
            name=self.name,
        )
