"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.bifurcation import BifurcationModel
from repro.core.instance import SteinerInstance
from repro.grid.graph import build_grid_graph


@pytest.fixture(scope="session")
def small_graph():
    """A small 3D routing graph shared (read-only) by many tests."""
    return build_grid_graph(10, 10, 4)


@pytest.fixture(scope="session")
def medium_graph():
    """A medium routing graph for algorithm-quality tests."""
    return build_grid_graph(16, 16, 6)


def make_instance(graph, num_sinks, seed=0, dbif=0.0, eta=0.25, weight_range=(0.05, 1.5)):
    """Build a random Steiner instance on ``graph`` (helper, not a fixture)."""
    rng = random.Random(seed)
    root = graph.node_index(rng.randrange(graph.nx), rng.randrange(graph.ny), 0)
    sinks = [
        graph.node_index(rng.randrange(graph.nx), rng.randrange(graph.ny), 0)
        for _ in range(num_sinks)
    ]
    weights = [rng.uniform(*weight_range) for _ in range(num_sinks)]
    return SteinerInstance(
        graph=graph,
        root=root,
        sinks=sinks,
        weights=weights,
        cost=graph.base_cost_array(),
        delay=graph.delay_array(),
        bifurcation=BifurcationModel(dbif=dbif, eta=eta),
        name=f"test-{num_sinks}-{seed}",
    )


@pytest.fixture
def instance_factory(small_graph):
    """Factory fixture producing random instances on the small graph."""

    def factory(num_sinks, seed=0, dbif=0.0, eta=0.25):
        return make_instance(small_graph, num_sinks, seed=seed, dbif=dbif, eta=eta)

    return factory


@pytest.fixture
def pool_every_batch(monkeypatch):
    """Lower the engine's pool break-even to zero, so that a batch pool of
    two or more workers takes every multi-net batch, however small."""
    from repro.engine import executor

    monkeypatch.setattr(executor, "POOL_BREAK_EVEN", 0)
