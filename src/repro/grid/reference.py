"""Scalar reference implementations of the vectorized routing-state kernel.

The numpy kernels in :mod:`repro.grid.congestion` and the batch-level
:class:`~repro.core.costctx.OracleCostContext` fast paths promise **bit-exact
parity** with the per-edge / per-net scalar code they replaced.  This module
retains that scalar code in two roles:

* as plain functions (``scalar_*``) the property-style parity battery in
  ``tests/test_vector_kernel.py`` drives head-to-head against the vectorized
  kernel with exact float equality, and
* as :func:`install_reference_kernel`, a context manager that patches the
  scalar paths back into the live classes -- the ``kernel_speedup`` benchmark
  scenario routes the same chip once per mode and asserts the results are
  bit-identical while timing the difference.

The scalar ``remove`` mirrors the vectorized kernel's *atomic* semantics
(validate the whole delta, then mutate): per unique edge the removed amounts
are accumulated in occurrence order -- exactly the association
``np.bincount`` uses -- and subtracted once.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.grid.congestion import CongestionMap

__all__ = [
    "install_reference_kernel",
    "scalar_add_usage",
    "scalar_remove_usage",
    "scalar_ace",
    "scalar_ace4",
    "scalar_wire_length",
    "scalar_via_count",
    "scalar_congestion_cost",
]


def scalar_add_usage(
    cmap: CongestionMap, edge_indices: Iterable[int], amount: Optional[float] = None
) -> None:
    """Per-edge loop equivalent of :meth:`CongestionMap.add_usage`."""
    base = cmap.graph.edge_base_cost
    for e in edge_indices:
        cmap.usage[e] += base[e] if amount is None else amount


def scalar_remove_usage(
    cmap: CongestionMap, edge_indices: Iterable[int], amount: Optional[float] = None
) -> None:
    """Per-edge loop equivalent of the *atomic* ``remove_usage``.

    The whole delta is validated before any mutation; the map is unchanged
    when a :class:`ValueError` is raised.
    """
    base = cmap.graph.edge_base_cost
    totals: Dict[int, float] = {}
    order: List[int] = []
    for e in edge_indices:
        e = int(e)
        if e not in totals:
            totals[e] = 0.0
            order.append(e)
        totals[e] += float(base[e]) if amount is None else float(amount)
    # np.unique sorts; matching it keeps the first-offender error identical.
    order.sort()
    for e in order:
        if float(cmap.usage[e]) - totals[e] < -1e-9:
            raise ValueError(f"usage of edge {e} became negative")
    for e in order:
        remaining = float(cmap.usage[e]) - totals[e]
        cmap.usage[e] = remaining if remaining > 0.0 else 0.0


def scalar_ace(congestion, percent: float) -> float:
    """The pre-vectorization ``ace`` (with the percent-validation bugfix)."""
    if not 0 < percent <= 100:
        raise ValueError("percent must be in (0, 100]")
    import math

    values = np.asarray(list(congestion), dtype=float)
    if values.size == 0:
        return 0.0
    count = max(1, int(math.ceil(values.size * percent / 100.0)))
    worst = np.sort(values)[-count:]
    return float(np.mean(worst) * 100.0)


def scalar_ace4(congestion) -> float:
    """The pre-vectorization ``ace4`` (re-materialises per ``ace`` call)."""
    values = list(congestion)
    return 0.25 * (
        scalar_ace(values, 0.5)
        + scalar_ace(values, 1.0)
        + scalar_ace(values, 2.0)
        + scalar_ace(values, 5.0)
    )


def scalar_wire_length(tree) -> float:
    """Per-edge loop equivalent of :meth:`EmbeddedTree.wire_length`."""
    length = tree.graph.edge_length
    return float(sum(length[e] for e in tree.edges))


def scalar_via_count(tree) -> int:
    """Per-edge loop equivalent of :meth:`EmbeddedTree.via_count`."""
    is_via = tree.graph.edge_is_via
    return int(sum(1 for e in tree.edges if is_via[e]))


def scalar_congestion_cost(tree, cost) -> float:
    """Per-edge loop equivalent of :meth:`EmbeddedTree.congestion_cost`."""
    return float(sum(cost[e] for e in tree.edges))


@contextmanager
def install_reference_kernel() -> Iterator[None]:
    """Temporarily restore the scalar/per-net hot paths on the live classes.

    Patches three things for the duration of the ``with`` block:

    * ``CongestionMap.add_usage`` / ``remove_usage`` back to per-edge loops,
    * ``RoutingEngine.make_context`` to return ``None``, reverting every
      solver/engine consumer to its per-net slow path (per-net
      estimator, per-net validation scans), and
    * the cost-distance search loop and the merge steps that run beside
      it in C to their Python specification (``_search.LIB = None``):
      solves started in the block run ``_Solve.run``,
      ``_component_delays``, ``_best_steiner_position`` and
      ``_target_l1`` instead of the compiled library.

    Results are bit-identical with and without the patches (that is the
    vectorization's acceptance bar); only the walltime differs.  Used by
    the ``kernel_speedup`` benchmark scenario and the parity battery.
    """
    from repro.core import _search
    from repro.engine.engine import RoutingEngine

    saved_add = CongestionMap.add_usage
    saved_remove = CongestionMap.remove_usage
    saved_make_context = RoutingEngine.make_context
    saved_lib = _search.LIB

    def _add(self, edge_indices, amount=None):
        scalar_add_usage(self, edge_indices, amount)

    def _remove(self, edge_indices, amount=None):
        scalar_remove_usage(self, edge_indices, amount)

    try:
        CongestionMap.add_usage = _add
        CongestionMap.remove_usage = _remove
        RoutingEngine.make_context = lambda self, costs: None
        _search.LIB = None
        yield
    finally:
        CongestionMap.add_usage = saved_add
        CongestionMap.remove_usage = saved_remove
        RoutingEngine.make_context = saved_make_context
        _search.LIB = saved_lib
