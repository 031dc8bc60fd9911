"""Integration tests asserting the paper's qualitative claims on surrogate data.

Each test corresponds to a statement in the paper's evaluation or
applications sections; docs/ARCHITECTURE.md ("Which kernel runs where")
says which kernels the claims are measured on.
"""

import pytest

import repro
from repro.core.algorithms.hashmap import s_line_graph_hashmap
from repro.core.algorithms.heuristic import s_line_graph_heuristic
from repro.generators.datasets import load_dataset


@pytest.fixture(scope="module")
def livejournal():
    return load_dataset("livejournal", scale=0.2, seed=0)


class TestTable1Claims:
    """Table I: the hashmap method performs zero set intersections."""

    def test_hashmap_has_zero_set_intersections(self, livejournal):
        result = s_line_graph_hashmap(livejournal, 8)
        assert result.workload.total_set_intersections() == 0

    def test_heuristic_performs_many_set_intersections(self, livejournal):
        result = s_line_graph_heuristic(livejournal, 8)
        assert result.workload.total_set_intersections() > livejournal.num_edges

    def test_both_methods_agree(self, livejournal):
        a = s_line_graph_hashmap(livejournal, 8)
        b = s_line_graph_heuristic(livejournal, 8)
        assert a.graph.edge_set() == b.graph.edge_set()


class TestSectionIIIClaims:
    """Section III-I / Figure 4: s-clique graphs sparsify rapidly with s."""

    def test_s_clique_density_drops(self):
        from repro.generators.datasets import disgenet_surrogate

        h = disgenet_surrogate(num_genes=400, num_core_genes=80, seed=0)
        dual = h.dual()
        ensemble = repro.s_line_graph_ensemble(dual, [1, 2, 4, 8, 16])
        counts = ensemble.edge_counts()
        ordered = [counts[s] for s in sorted(counts)]
        assert ordered == sorted(ordered, reverse=True)
        assert counts[1] > 10 * counts[16]


class TestSection6Claims:
    """Section VI: skewed inputs benefit from relabel-by-degree load balance."""

    def test_relabelling_improves_balance_under_blocked_partitioning(self):
        # Construct a hypergraph whose high-degree hyperedges all have high IDs,
        # the adversarial case for blocked partitioning without relabelling.
        from repro.hypergraph.builders import hypergraph_from_edge_lists

        lists = [[i % 20] for i in range(60)] + [list(range(40)) for _ in range(6)]
        h = hypergraph_from_edge_lists(lists, num_vertices=40)
        no_relabel = repro.run_variant(h, 2, "2BN", num_workers=4)
        relabelled = repro.run_variant(h, 2, "2BA", num_workers=4)
        assert relabelled.workload.imbalance() <= no_relabel.workload.imbalance()

    def test_cyclic_beats_blocked_balance_without_relabel(self, livejournal):
        blocked = repro.run_variant(livejournal, 8, "2BN", num_workers=8)
        cyclic = repro.run_variant(livejournal, 8, "2CN", num_workers=8)
        # The paper's Figure 10: cyclic distribution balances skewed inputs better.
        assert cyclic.workload.imbalance() <= blocked.workload.imbalance() * 1.10


class TestTable5Claims:
    """Table V: s = 8 line graphs are far smaller than the s = 1 clique expansions."""

    def test_s8_much_smaller_than_s1(self, livejournal):
        ensemble = repro.s_line_graph_ensemble(livejournal, [1, 8])
        counts = ensemble.edge_counts()
        assert counts[8] < counts[1]
        assert counts[8] > 0
