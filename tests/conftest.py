"""Shared fixtures for the test suite.

``paper_example`` is the running example of the paper (Figure 1): vertices
``a..f`` and hyperedges ``1: {a,b,c}``, ``2: {b,c,d}``, ``3: {a,b,c,d,e}``,
``4: {e,f}``.  Its s-line graphs for s = 1..4 are given in Figure 2 and used
as ground truth throughout the tests.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# The runtime lock-order detector must patch the threading factories
# before anything under repro creates a lock, so this runs ahead of the
# repro imports below.  Opt-in via REPRO_LOCKCHECK=1 (tier-2 CI jobs);
# zero cost otherwise — the module is not even imported.
_TOOLS_DIR = str(Path(__file__).resolve().parent.parent / "tools")
if os.environ.get("REPRO_LOCKCHECK") == "1":
    if _TOOLS_DIR not in sys.path:
        sys.path.insert(0, _TOOLS_DIR)
    from repro_lint import lockcheck as _lockcheck

    _lockcheck.install()
else:
    _lockcheck = None

import numpy as np
import pytest

from repro.generators.random import random_hypergraph, zipf_edge_sizes
from repro.generators.community import planted_community_hypergraph
from repro.hypergraph.builders import (
    hypergraph_from_edge_dict,
    hypergraph_from_edge_lists,
)
from repro.hypergraph.hypergraph import Hypergraph


#: The edge sets of the hyperedge s-line graphs of the paper example
#: (0-indexed hyperedge IDs), read off the paper's Figure 2.
PAPER_EXAMPLE_SLINE_EDGES = {
    1: {(0, 1), (0, 2), (1, 2), (2, 3)},
    2: {(0, 1), (0, 2), (1, 2)},
    3: {(0, 2), (1, 2)},
    4: set(),
}

#: Exact pairwise overlap counts of the paper example (upper triangle).
PAPER_EXAMPLE_OVERLAPS = {
    (0, 1): 2,  # {b, c}
    (0, 2): 3,  # {a, b, c}
    (0, 3): 0,
    (1, 2): 3,  # {b, c, d}
    (1, 3): 0,
    (2, 3): 1,  # {e}
}


@pytest.fixture
def paper_example():
    """The paper's Figure 1 example hypergraph, with labels."""
    return hypergraph_from_edge_dict(
        {
            1: ["a", "b", "c"],
            2: ["b", "c", "d"],
            3: ["a", "b", "c", "d", "e"],
            4: ["e", "f"],
        }
    )


@pytest.fixture
def paper_example_unlabelled():
    """The same example built from integer edge lists (no labels)."""
    return hypergraph_from_edge_lists(
        [[0, 1, 2], [1, 2, 3], [0, 1, 2, 3, 4], [4, 5]], num_vertices=6
    )


@pytest.fixture
def small_random_hypergraph():
    """A small random hypergraph with mixed edge sizes (deterministic)."""
    rng = np.random.default_rng(42)
    sizes = zipf_edge_sizes(60, mean_size=4.0, max_size=12, rng=rng)
    return random_hypergraph(40, 60, edge_sizes=sizes, seed=rng)


@pytest.fixture
def community_hypergraph():
    """A planted-community hypergraph with meaningful overlaps (deterministic)."""
    return planted_community_hypergraph(
        num_vertices=80,
        num_edges=120,
        num_communities=6,
        mean_edge_size=6.0,
        max_edge_size=20,
        seed=7,
    )


@pytest.fixture
def empty_hypergraph():
    """A hypergraph with vertices but a single empty hyperedge."""
    return hypergraph_from_edge_lists([[]], num_vertices=3)


def pytest_sessionfinish(session, exitstatus):
    """Under REPRO_LOCKCHECK=1, fail the run on an observed lock-order
    cycle or over-threshold hold — the graph covers every lock the whole
    session actually acquired, across all threads."""
    if _lockcheck is None or not _lockcheck.is_active():
        return
    print(f"\n{_lockcheck.report()}")
    if _lockcheck.find_cycles() or _lockcheck.hold_violations():
        session.exitstatus = 1


def brute_force_s_line_edges(h, s):
    """Oracle: compute the s-line-graph edge set by direct set intersections."""
    members = [set(map(int, h.edge_members(i))) for i in range(h.num_edges)]
    out = {}
    for i in range(h.num_edges):
        for j in range(i + 1, h.num_edges):
            overlap = len(members[i] & members[j])
            if overlap >= s:
                out[(i, j)] = overlap
    return out


class EdgeListModel:
    """The model oracle of a hypergraph under updates: plain member lists.

    An add appends its members (sorted, deduplicated) and a remove empties
    its edge to ``[]``, so every hyperedge ID stays put.  Labels and the
    vertex count are carried as an add extends them: an unnamed edge is
    named by its ID, and each new vertex by its own.  :meth:`hypergraph`
    builds the current state from scratch.
    """

    def __init__(self, h):
        self.members = [sorted(map(int, row)) for _, row in h.iter_edges()]
        self.num_vertices = h.num_vertices
        self.edge_names = None if h.edge_names is None else list(h.edge_names)
        self.vertex_names = None if h.vertex_names is None else list(h.vertex_names)

    def add(self, members, name=None):
        """Append a hyperedge; returns its ID."""
        members = sorted({int(v) for v in members})
        new_id = len(self.members)
        self.members.append(members)
        grown = max([self.num_vertices] + [v + 1 for v in members])
        if self.edge_names is not None:
            self.edge_names.append(new_id if name is None else name)
        if self.vertex_names is not None:
            self.vertex_names.extend(range(self.num_vertices, grown))
        self.num_vertices = grown
        return new_id

    def remove(self, edge_id):
        self.members[int(edge_id)] = []

    def hypergraph(self):
        built = hypergraph_from_edge_lists(self.members, num_vertices=self.num_vertices)
        return Hypergraph(
            built.edges_csr, edge_names=self.edge_names, vertex_names=self.vertex_names
        )
