"""End-to-end integration tests: datasets → pipeline → s-measures.

These exercise the public API the way the examples and benchmarks do, on
small instances of the surrogate datasets.
"""

import numpy as np
import pytest

import repro
from repro.core.pipeline import SLinePipeline
from repro.generators.datasets import load_dataset
from repro.parallel.executor import ParallelConfig


@pytest.fixture(scope="module")
def livejournal_small():
    return load_dataset("livejournal", scale=0.12, seed=0)


class TestPublicAPI:
    def test_package_exports(self):
        assert repro.__version__
        for name in ("Hypergraph", "SLineGraph", "s_line_graph", "SLinePipeline"):
            assert hasattr(repro, name)

    def test_quickstart_docstring_flow(self):
        h = repro.hypergraph_from_edge_dict(
            {
                1: ["a", "b", "c"],
                2: ["b", "c", "d"],
                3: ["a", "b", "c", "d", "e"],
                4: ["e", "f"],
            }
        )
        lg = repro.s_line_graph(h, s=2)
        assert sorted(lg.edge_set()) == [(0, 1), (0, 2), (1, 2)]

    def test_dataset_listing(self):
        assert "livejournal" in repro.available_datasets()


class TestPipelineOnDatasets:
    @pytest.mark.parametrize("algorithm", ["hashmap", "vectorized"])
    def test_full_framework_run(self, livejournal_small, algorithm):
        pipeline = SLinePipeline(
            algorithm=algorithm,
            relabel="ascending",
            metrics=("connected_components",),
        )
        result = pipeline.run(livejournal_small, s=8)
        assert result.num_line_graph_edges > 0
        assert result.num_components() >= 1
        assert result.stage_times.get("s_overlap") > 0.0

    def test_relabel_does_not_change_results(self, livejournal_small):
        base = SLinePipeline(relabel="none", metrics=()).run(livejournal_small, 8)
        asc = SLinePipeline(relabel="ascending", metrics=()).run(livejournal_small, 8)
        desc = SLinePipeline(relabel="descending", metrics=()).run(livejournal_small, 8)
        assert (
            base.line_graph.edge_set()
            == asc.line_graph.edge_set()
            == desc.line_graph.edge_set()
        )

    def test_smetrics_consistent_with_pipeline(self, livejournal_small):
        result = SLinePipeline(metrics=("connected_components",)).run(livejournal_small, 8)
        comps = repro.s_connected_components(livejournal_small, 8)
        flattened = sorted(e for comp in comps for e in comp if len(comp) >= 2)
        labels = result.metrics["connected_components"]
        # Hyperedges participating in non-singleton components must agree.
        mapping = result.squeeze_mapping
        in_pipeline = sorted(
            int(mapping.new_to_old[i])
            for i in range(labels.size)
            if np.count_nonzero(labels == labels[i]) >= 2
        )
        assert flattened == in_pipeline

    def test_clique_expansion_via_dual(self, livejournal_small):
        """The s-clique graph pathway (Section III-H): s = 1 on the dual."""
        dual = livejournal_small.dual()
        clique = repro.s_line_graph(dual, 1, algorithm="vectorized")
        # Every adjacent vertex pair co-occurs in at least one hyperedge.
        for i, j in list(clique.edge_set())[:50]:
            assert livejournal_small.adj(i, j) >= 1


class TestParallelConsistency:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_agree_with_serial(self, livejournal_small, backend):
        serial = repro.s_line_graph(livejournal_small, 8, algorithm="hashmap")
        parallel = repro.s_line_graph(
            livejournal_small,
            8,
            algorithm="hashmap",
            config=ParallelConfig(num_workers=4, strategy="cyclic", backend=backend),
        )
        assert serial == parallel

    def test_workload_totals_independent_of_partitioning(self, livejournal_small):
        _, blocked = repro.s_line_graph(
            livejournal_small, 8,
            config=ParallelConfig(num_workers=8, strategy="blocked"),
            return_workload=True,
        )
        _, cyclic = repro.s_line_graph(
            livejournal_small, 8,
            config=ParallelConfig(num_workers=8, strategy="cyclic"),
            return_workload=True,
        )
        assert blocked.total_wedges() == cyclic.total_wedges()
        assert blocked.num_workers == cyclic.num_workers == 8

    def test_variant_runs_agree_across_all_twelve(self, livejournal_small):
        results = {
            name: repro.run_variant(livejournal_small, 8, name, num_workers=2)
            for name in repro.ALL_VARIANTS
        }
        reference = results["1CN"].graph.edge_set()
        for name, result in results.items():
            assert result.graph.edge_set() == reference, name
