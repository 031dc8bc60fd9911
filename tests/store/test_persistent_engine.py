"""PersistentQueryEngine and the QueryEngine.from_store wiring."""

import numpy as np
import pytest

from repro.core.pipeline import SLinePipeline
from repro.engine.engine import QueryEngine
from repro.store.format import FingerprintMismatchError
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
            assert sweep.line_graphs[s] == expected.line_graphs[s]
            assert sweep.num_components(s) == expected.num_components(s)
        # Warm open: the wedge-enumeration pass never ran.
        assert engine.stats().index_builds == 0

    def test_open_with_explicit_hypergraph(self, store_path, community_hypergraph):
        engine = PersistentQueryEngine.open(store_path, hypergraph=community_hypergraph)
        assert engine.hypergraph is community_hypergraph

    def test_open_rejects_wrong_hypergraph(self, store_path, paper_example):
        with pytest.raises(FingerprintMismatchError):
            PersistentQueryEngine.open(store_path, hypergraph=paper_example)

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
        """One index path: however the engine reaches its store, the pair
        store stays on disk behind a ShardedIndex."""
        opened = PersistentQueryEngine.open(store_path)
        built = PersistentQueryEngine.build(community_hypergraph, tmp_path / "built")
        created = QueryEngine.from_store(
            tmp_path / "created", hypergraph=community_hypergraph, create=True
        )
        for engine in (opened, built, created):
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


class TestFromStore:
    def test_creates_when_asked(self, community_hypergraph, tmp_path):
        path = tmp_path / "auto"
        with pytest.raises(ValidationError, match="create=True"):
            QueryEngine.from_store(path, hypergraph=community_hypergraph)
        engine = QueryEngine.from_store(
            path, hypergraph=community_hypergraph, create=True
        )
        assert isinstance(engine, PersistentQueryEngine)
        assert IndexStore.exists(path)

    def test_reuses_existing_snapshot(self, store_path, community_hypergraph):
        engine = QueryEngine.from_store(store_path, hypergraph=community_hypergraph)
        assert engine.stats().index_builds == 0
        assert engine.line_graph(3) == QueryEngine(community_hypergraph).line_graph(3)

    def test_mismatch_raises_by_default(self, store_path, paper_example):
        with pytest.raises(FingerprintMismatchError):
            QueryEngine.from_store(store_path, hypergraph=paper_example)


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
        first = QueryEngine.from_store(path, hypergraph=community_hypergraph, create=True)
        try:
            assert first.line_graph(2) == baseline.line_graph
            assert np.array_equal(
                first.metric(2, "connected_components"),
                baseline.metrics["connected_components"],
            )
        finally:
            first.close()
        # A second engine (fresh process) opens the snapshot: no rebuild.
        second = QueryEngine.from_store(path, hypergraph=community_hypergraph, create=True)
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
                    assert sweep.line_graphs[s] == result.line_graph, (i, s)
                    assert sweep.active_counts[s] == result.line_graph.num_active_vertices
                    assert np.array_equal(sweep.metrics[s][cc], result.metrics[cc]), (i, s)
        stats = engine.stats()
        assert stats.patched_entries > 0 and stats.index_builds == 0
        engine.close()
