"""PersistentQueryEngine: warm opens, builds, durable updates, compaction."""

import numpy as np
import pytest

from repro.core.pipeline import SLinePipeline
from repro.engine.engine import QueryEngine
from repro.store.format import HYPERGRAPH_NAME, StoreError
from repro.store.persistent import PersistentQueryEngine
from repro.store.sharded import ShardedIndex
from repro.store.store import IndexStore
from repro.utils.validation import ValidationError


@pytest.fixture
def store_path(community_hypergraph, tmp_path):
    path = tmp_path / "idx"
    IndexStore.build(community_hypergraph, path, num_shards=4)
    return path


class TestOpenAndServe:
    def test_matches_fresh_engine(self, store_path, community_hypergraph):
        engine = PersistentQueryEngine.open(store_path)
        fresh = QueryEngine(community_hypergraph)
        sweep = engine.sweep(range(1, 9), metrics=("connected_components",))
        expected = fresh.sweep(range(1, 9), metrics=("connected_components",))
        for s in range(1, 9):
            assert engine.line_graph(s) == fresh.line_graph(s)
            assert sweep.edge_counts[s] == expected.edge_counts[s]
            assert sweep.num_components(s) == expected.num_components(s)
        # Warm open: the wedge-enumeration pass never ran.
        assert engine.stats().index_builds == 0

    def test_open_rejects_a_hypergraph_copy_of_another_graph(
        self, store_path, paper_example
    ):
        """The served hypergraph is the store's own copy; one that does not
        hash to the snapshot's fingerprint is refused, never served."""
        from repro.io.serialization import save_hypergraph_npz

        save_hypergraph_npz(paper_example, store_path / HYPERGRAPH_NAME)
        with pytest.raises(StoreError, match="inconsistent"):
            PersistentQueryEngine.open(store_path)

    def test_build_classmethod(self, community_hypergraph, tmp_path):
        engine = PersistentQueryEngine.build(
            community_hypergraph, tmp_path / "fresh", num_shards=3
        )
        assert engine.line_graph(2) == QueryEngine(community_hypergraph).line_graph(2)
        assert IndexStore.exists(tmp_path / "fresh")

    def test_store_serves_the_same_whichever_kernel_built_it(
        self, community_hypergraph, tmp_path
    ):
        """The manifest's ``algorithm`` is provenance only: a store built
        with either name opens, serves, takes updates and compacts alike."""
        engines = {}
        for algorithm in ("hashmap", "vectorized"):
            path = tmp_path / algorithm
            IndexStore.build(community_hypergraph, path, algorithm=algorithm)
            engines[algorithm] = engine = PersistentQueryEngine.open(path)
            assert engine.algorithm == engine.index.manifest.algorithm == algorithm
            engine.add_hyperedge([0, 1, 2, 50])
            engine.compact()
            assert engine.index.manifest.algorithm == algorithm
        for s in range(1, 5):
            assert engines["hashmap"].line_graph(s) == engines["vectorized"].line_graph(s)

    def test_every_store_backed_engine_serves_a_sharded_index(
        self, store_path, community_hypergraph, tmp_path
    ):
        """One index path: opened or built, the pair store stays on disk
        behind a ShardedIndex."""
        opened = PersistentQueryEngine.open(store_path)
        built = PersistentQueryEngine.build(community_hypergraph, tmp_path / "built")
        for engine in (opened, built):
            assert isinstance(engine.index, ShardedIndex)
        opened.add_hyperedge([0, 1, 2])
        opened.compact()
        assert isinstance(opened.index, ShardedIndex)
        assert opened.index.manifest.generation == 1


class TestDurability:
    def test_updates_survive_reopen(self, store_path, community_hypergraph):
        engine = PersistentQueryEngine.open(store_path)
        new_id = engine.add_hyperedge([0, 1, 2, 50], name="session-edge")
        engine.remove_hyperedge(4)
        expected = {
            s: engine.line_graph(s).edge_set() for s in range(1, 6)
        }
        # "New process": reopen purely from disk.
        reloaded = PersistentQueryEngine.open(store_path)
        assert reloaded.hypergraph.num_edges == community_hypergraph.num_edges + 1
        # Unlabelled hypergraphs stay unlabelled: replay matches the live engine.
        assert reloaded.hypergraph.edge_name(new_id) == engine.hypergraph.edge_name(
            new_id
        )
        assert reloaded.hypergraph.edge_size(4) == 0
        for s in range(1, 6):
            assert reloaded.line_graph(s).edge_set() == expected[s], s
        assert reloaded.fingerprint() == engine.fingerprint()

    def test_writer_names_equal_what_a_reopen_serves(self, paper_example, tmp_path):
        path = tmp_path / "labelled"
        IndexStore.build(paper_example, path, num_shards=2)
        engine = PersistentQueryEngine.open(path)
        engine.add_hyperedge([0, 1], name={"x": [1]})
        engine.add_hyperedge([2, 3], name=7)
        names = engine.hypergraph.edge_names
        assert names[-2:] == ["{'x': [1]}", "7"]
        assert PersistentQueryEngine.open(path, read_only=True).hypergraph.edge_names == names
        engine.compact()
        assert engine.hypergraph.edge_names == names
        assert PersistentQueryEngine.open(path, read_only=True).hypergraph.edge_names == names

    def test_unnamed_labels_are_one_type_across_a_compaction(self, paper_example, tmp_path):
        path = tmp_path / "labelled"
        IndexStore.build(paper_example, path, num_shards=2)
        engine = PersistentQueryEngine.open(path)
        num_vertices = engine.hypergraph.num_vertices
        new_id = engine.add_hyperedge([0, num_vertices, num_vertices + 1])
        labels = (engine.hypergraph.edge_names, engine.hypergraph.vertex_names)
        assert labels[0][-1] == str(new_id)
        assert labels[1][-2:] == [str(num_vertices), str(num_vertices + 1)]

        def reopened():
            h = PersistentQueryEngine.open(path, read_only=True).hypergraph
            return h.edge_names, h.vertex_names

        assert reopened() == labels
        engine.compact()
        assert (engine.hypergraph.edge_names, engine.hypergraph.vertex_names) == labels
        assert reopened() == labels

    def test_compact_keeps_serving(self, store_path):
        engine = PersistentQueryEngine.open(store_path)
        engine.add_hyperedge([3, 4, 5])
        before = engine.line_graph(2)
        engine.compact()
        assert engine.store.num_wal_records() == 0
        assert engine.line_graph(2) == before
        assert PersistentQueryEngine.open(store_path).line_graph(2) == before

    def test_compact_closes_the_superseded_sharded_index(self, store_path):
        engine = PersistentQueryEngine.open(store_path)
        engine.add_hyperedge([3, 4, 5])
        engine.line_graph(1)  # fault every shard of the old generation in
        superseded = engine.index
        assert superseded.num_resident_shards > 0
        engine.compact()
        # Its mmaps pointed at files compaction just swept: released now,
        # not whenever the garbage collector reaches the dropped index.
        assert superseded.num_resident_shards == 0
        assert engine.index is not superseded
        assert engine.index.manifest.generation == superseded.manifest.generation + 1


class TestIndexInjection:
    def test_injected_index_must_match(self, community_hypergraph, paper_example):
        from repro.engine.index import OverlapIndex

        wrong = OverlapIndex.build(paper_example)
        with pytest.raises(ValidationError, match="does not describe"):
            QueryEngine(community_hypergraph, index=wrong)

    def test_injected_index_is_served(self, community_hypergraph):
        from repro.engine.index import OverlapIndex

        index = OverlapIndex.build(community_hypergraph)
        engine = QueryEngine(community_hypergraph, index=index)
        assert engine.index is index
        assert engine.stats().index_builds == 0


class TestPipelineOverStoreEngine:
    def test_persist_then_reuse(self, community_hypergraph, tmp_path):
        path = str(tmp_path / "pipe-idx")
        oracle = SLinePipeline(metrics=("connected_components",))
        baseline = oracle.run(community_hypergraph, 2)
        first = PersistentQueryEngine.build(community_hypergraph, path)
        try:
            assert first.line_graph(2) == baseline.line_graph
            assert np.array_equal(
                first.metric(2, "connected_components"),
                baseline.metrics["connected_components"],
            )
        finally:
            first.close()
        # A second engine (fresh process) opens the snapshot: no rebuild.
        second = PersistentQueryEngine.open(path)
        try:
            assert second.line_graph(3) == oracle.run(community_hypergraph, 3).line_graph
            assert second.stats().index_builds == 0
        finally:
            second.close()

    def test_engine_and_store_path_are_gone(self, community_hypergraph, tmp_path):
        engine = QueryEngine(community_hypergraph)
        with pytest.raises(TypeError, match="engine"):
            SLinePipeline(engine=engine)
        with pytest.raises(TypeError, match="store_path"):
            SLinePipeline(store_path=str(tmp_path / "x"))


class TestChurnStreamAgainstTheOracle:
    def test_churn_query_stream_with_compaction_and_reopen(
        self, community_hypergraph, tmp_path
    ):
        """``churn_query``'s stream through the delta-applied cache: adds of
        3 members, every 4th update a remove of the oldest added hyperedge,
        ``metric`` rotating s = 1..3, one ``sweep(1..8, [CC])`` per 6 updates,
        a ``compact()`` and a close / reopen mid-stream — every answer
        against :class:`SLinePipeline` on an independently kept model."""
        from repro.hypergraph.builders import hypergraph_from_edge_lists
        from repro.utils.rng import make_rng

        cc = "connected_components"
        oracle = SLinePipeline(
            metrics=(cc,), drop_empty_edges=False, drop_isolated_vertices=False
        )
        num_vertices = community_hypergraph.num_vertices
        model = [members.tolist() for _, members in community_hypergraph.iter_edges()]
        added = []
        rng = make_rng(22)
        path = tmp_path / "churn"
        engine = PersistentQueryEngine.build(community_hypergraph, path, num_shards=4)
        engine.sweep(range(1, 9), metrics=(cc,))
        for i in range(36):
            if i % 4 == 3:
                victim = added.pop(0)
                engine.remove_hyperedge(victim)
                model[victim] = []
            else:
                members = sorted(rng.choice(num_vertices, size=3, replace=False).tolist())
                added.append(engine.add_hyperedge(members))
                assert added[-1] == len(model)
                model.append(members)
            if i == 13:
                engine.compact()
            if i == 25:
                engine.close()
                engine = PersistentQueryEngine.open(path)
            h = hypergraph_from_edge_lists(model, num_vertices=num_vertices)
            assert engine.fingerprint() == h.fingerprint()
            s = 1 + i % 3
            expected = oracle.run(h, s).metric_by_hyperedge(cc)
            assert engine.metric_by_hyperedge(s, cc) == expected, (i, s)
            if i % 6 == 5:
                sweep = engine.sweep(range(1, 9), metrics=(cc,))
                for s in range(1, 9):
                    result = oracle.run(h, s)
                    assert engine.line_graph(s) == result.line_graph, (i, s)
                    assert sweep.edge_counts[s] == result.line_graph.num_edges, (i, s)
                    assert sweep.active_counts[s] == result.line_graph.num_active_vertices
                    assert np.array_equal(sweep.metrics[s][cc], result.metrics[cc]), (i, s)
        stats = engine.stats()
        assert stats.patched_entries > 0 and stats.index_builds == 0
        engine.close()


class TestUpdateCost:
    """A served update costs its members: it builds no CSR and hashes no
    hypergraph from scratch; the overlay is folded only when the store
    compacts."""

    def test_fifty_served_updates_build_no_csr_and_no_scratch_digest(
        self, store_path, monkeypatch
    ):
        from repro.hypergraph import hypergraph as hypergraph_module
        from repro.hypergraph.csr import CSRMatrix

        engine = PersistentQueryEngine.open(store_path)
        engine.sweep(range(1, 5), metrics=("connected_components",))
        counts = {"csr": 0, "digest": 0}
        csr_init = CSRMatrix.__post_init__
        scratch_lanes = hypergraph_module.incidence_lanes

        def counting_csr(self):
            counts["csr"] += 1
            csr_init(self)

        def counting_digest(*args):
            counts["digest"] += 1
            return scratch_lanes(*args)

        monkeypatch.setattr(CSRMatrix, "__post_init__", counting_csr)
        # The from-scratch digest is the one call resolved in the hypergraph
        # module; an update's row lanes are the overlay's own import.
        monkeypatch.setattr(hypergraph_module, "incidence_lanes", counting_digest)
        rng = np.random.default_rng(3)
        num_vertices = engine.hypergraph.num_vertices
        added = []
        for step in range(50):
            if step % 5 == 4:
                engine.remove_hyperedge(added.pop(0))
            else:
                members = rng.choice(num_vertices, size=3, replace=False)
                added.append(engine.add_hyperedge(members.tolist()))
            engine.fingerprint()
        assert counts == {"csr": 0, "digest": 0}
        carried = engine.fingerprint()
        monkeypatch.undo()

        assert engine.store.current_fingerprint() == carried
        engine.compact()
        assert engine.fingerprint() == carried
        assert engine.hypergraph.fingerprint() == carried
        reopened = PersistentQueryEngine.open(store_path)
        assert reopened.fingerprint() == carried
        assert reopened.hypergraph == engine.hypergraph
        reopened.close()
        engine.close()
