"""Batch-level oracle cost context.

One re-route batch prices a single cost vector against one congestion
snapshot and then routes every net of the batch against it.
:class:`OracleCostContext` hoists the per-batch artefacts of that vector --
the :class:`~repro.core.future_cost.FutureCostEstimator` (an O(edges)
min-scan, plus landmark Dijkstras when enabled), the global cost floor and
the validity scans of :meth:`~repro.core.instance.SteinerInstance.__post_init__`
-- out of the per-net path.  The cost-distance kernel reads ``cost`` and
``delay`` in place, so no router path materialises lists or chains contexts.

The engine (or an executor worker) builds one context per (costs, delay)
pair and the per-net fast paths activate only under an *identity* check
(``cost is ctx.cost``), so a context can never be silently applied to the
wrong vector.  Every derived value is computed lazily, at most once, and is
bit-identical to what the per-net path would have produced -- the context
is a pure cache, never a semantic change.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from repro.core.instance import require_finite_non_negative
from repro.grid.graph import RoutingGraph

__all__ = ["OracleCostContext"]


class OracleCostContext:
    """Shared per-batch artefacts derived from one priced cost vector.

    Parameters
    ----------
    graph:
        The routing graph the costs belong to.
    cost:
        The batch's congestion-priced cost vector ``c(e)``.  The context
        holds a reference (contiguous float64; no copy when already so) and
        derived values are memoised against this exact array object.
    delay:
        Optional static delay vector ``d(e)`` shared by the batch.
    """

    def __init__(
        self,
        graph: RoutingGraph,
        cost: np.ndarray,
        delay: Optional[np.ndarray] = None,
    ) -> None:
        self.graph = graph
        self.cost = np.ascontiguousarray(cost, dtype=np.float64)
        self.delay = None if delay is None else np.ascontiguousarray(delay, dtype=np.float64)
        self._cost_list: Optional[List[float]] = None
        self._delay_list: Optional[List[float]] = None
        self._cost_floor: Optional[float] = None
        self._estimators: Dict[int, object] = {}
        self._validated = False
        self._loops = threading.local()

    # -------------------------------------------------------------- caches
    def cost_list(self) -> List[float]:
        """``cost.tolist()``, once per context.  No router path calls it; it
        stays because ``benchmarks/ledger/micro.py`` times it (``build_ms``)."""
        if self._cost_list is None:
            self._cost_list = self.cost.tolist()
        return self._cost_list

    def delay_list(self) -> List[float]:
        """``delay.tolist()``, once per context; kept beside :meth:`cost_list`."""
        if self.delay is None:
            raise ValueError("context has no delay vector")
        if self._delay_list is None:
            self._delay_list = self.delay.tolist()
        return self._delay_list

    def cost_floor(self) -> float:
        """Minimum cost over routing (non-via) edges, or 0.0 without any.

        Matches :meth:`repro.engine.cache.RerouteCache.global_cost_floor`
        and the ``min_cost_per_tile`` of a
        :class:`~repro.core.future_cost.FutureCostEstimator` built on this
        vector, so all three consumers agree bit-exactly.
        """
        if self._cost_floor is None:
            routing = ~self.graph.edge_is_via
            if np.any(routing):
                self._cost_floor = float(np.min(self.cost[routing]))
            else:
                self._cost_floor = 0.0
        return self._cost_floor

    def estimator(self, num_landmarks: int):
        """A :class:`FutureCostEstimator` over this cost vector, memoised.

        The estimator is immutable after construction and a pure function
        of ``(graph, cost, num_landmarks)`` (landmark selection is seeded),
        so sharing one across all nets of a batch is bit-identical to the
        per-net construction it replaces.
        """
        est = self._estimators.get(num_landmarks)
        if est is None:
            from repro.core.future_cost import FutureCostEstimator

            est = FutureCostEstimator(
                self.graph,
                cost_lower_bound=self.cost,
                num_landmarks=num_landmarks,
            )
            self._estimators[num_landmarks] = est
        return est

    def search_loop(self, lib):
        """This thread's compiled search state (``_search.SearchLoop`` over
        the context's graph, cost and delay, loaded from ``lib``): the one
        :meth:`return_loop` last handed back, else a new one.  A solve holds
        it until it hands it back, so a solve started inside another on the
        same thread gets its own."""
        loop = getattr(self._loops, "loop", None)
        if loop is not None and loop.lib is lib:
            self._loops.loop = None
            return loop
        from repro.core._search import SearchLoop

        return SearchLoop(lib, self.graph, self.cost, self.delay)

    def return_loop(self, loop) -> None:
        """Keep ``loop`` for this thread's next :meth:`search_loop`."""
        self._loops.loop = loop

    def inherit(self, prev: "OracleCostContext") -> None:
        """Seed memoised values from the previous batch's context.

        No router path chains contexts; this stays because the ledger's
        micro-benchmark times it (``core.costctx.inherit_ms``).  Consecutive
        batches of one engine round share the delay vector (same object)
        and differ in cost only on the edges the previous batch's trees
        touched, so the ``tolist`` materialisations can be carried forward:

        * the delay list is shared outright when ``prev`` memoised it for
          the identical array (read-only by contract), and
        * the cost list is copied from ``prev`` and patched at the changed
          indices when few enough edges moved -- entry-for-entry the result
          equals ``cost.tolist()`` exactly (unchanged entries are equal by
          definition, changed ones are read from this context's array).
        """
        if prev.delay is self.delay and prev._delay_list is not None:
            self._delay_list = prev._delay_list
        if (
            prev._cost_list is not None
            and self.cost.shape == prev.cost.shape
        ):
            changed = np.flatnonzero(prev.cost != self.cost)
            if changed.size <= self.cost.size // 8:
                patched = prev._cost_list.copy()
                for index, value in zip(changed.tolist(), self.cost[changed].tolist()):
                    patched[index] = value
                self._cost_list = patched

    def validate(self) -> None:
        """The instance validity scans, run once per batch.

        Raises the same ``ValueError`` as
        :meth:`SteinerInstance.__post_init__` would for a negative, NaN or
        infinite cost or delay entry.
        """
        if self._validated:
            return
        require_finite_non_negative("edge costs", self.cost)
        if self.delay is not None:
            require_finite_non_negative("edge delays", self.delay)
        self._validated = True

    # -------------------------------------------------------------- guards
    def covers(self, cost: np.ndarray, delay: Optional[np.ndarray] = None) -> bool:
        """True when this context's arrays are the *same objects* as given.

        Identity (not equality) keeps the guard O(1) and makes it
        impossible to reuse memoised artefacts against a different vector.
        """
        if cost is not self.cost:
            return False
        return delay is None or delay is self.delay
