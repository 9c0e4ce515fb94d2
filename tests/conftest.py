"""Shared graph fixtures and hypothesis strategies for the test suite."""
from __future__ import annotations

import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import strategies as st

from percobound import SurvivalProfile, WeightedGraph, generate, percolation
from percobound.percolation import TrialBlock


def petersen_graph() -> WeightedGraph:
    """Outer 5-cycle, inner pentagram, five spokes; spectrum {3, 1^5, (-2)^4}."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5, 1.0))
        edges.append((i, i + 5, 1.0))
        edges.append((5 + i, 5 + (i + 2) % 5, 1.0))
    return WeightedGraph(10, tuple(edges))


def petersen_induced_8() -> WeightedGraph:
    """Subgraph of the Petersen graph induced on vertices 0..7."""
    full = petersen_graph()
    edges = tuple((i, j, w) for i, j, w in full.edges if i < 8 and j < 8)
    return WeightedGraph(8, edges)


@pytest.fixture
def petersen() -> WeightedGraph:
    return petersen_graph()


@pytest.fixture
def paley13() -> WeightedGraph:
    return generate("paley", q=13)


@pytest.fixture
def c4() -> WeightedGraph:
    return generate("cycle", n=4)


@pytest.fixture
def p3() -> WeightedGraph:
    return generate("path", n=3)


def level_trial_block(g, profile, alpha, seed, start, count, levels) -> TrialBlock:
    """The trials of percolation._trial_chunks run with levels, each chunk's
    pattern entries copied to the trials that drew them, as trial_block
    copies them."""
    chunks = [chunk for _, chunk in percolation._trial_chunks(g, profile, alpha, seed, start,
                                                              count, levels)]
    return TrialBlock(*(np.concatenate([getattr(b, f.name)[inverse] for b, inverse in chunks])
                        for f in fields(TrialBlock)))


probabilities = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def weighted_graphs(draw, min_n=1, max_n=9, max_weight=1e3):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.floats(1e-3, max_weight, allow_nan=False, allow_infinity=False)
    return WeightedGraph(n, tuple((i, j, draw(weights)) for i, j in chosen))


@st.composite
def graph_profile(draw, min_n=1, max_weight=1e3):
    g = draw(weighted_graphs(min_n=min_n, max_weight=max_weight))
    p = draw(st.lists(probabilities, min_size=g.n, max_size=g.n))
    return g, SurvivalProfile(p)


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child forked while the test runs: a run on w worker
    processes forks w - 1 children."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids
