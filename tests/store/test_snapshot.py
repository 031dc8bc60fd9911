"""Snapshot format: round-trip fidelity, shard boundaries, manifest safety."""

import json
import os

import numpy as np
import pytest

from repro.engine.index import OverlapIndex
from repro.store.format import (
    FORMAT_VERSION,
    Manifest,
    StoreFormatError,
    read_manifest,
)
from repro.store.sharded import ShardedIndex
from repro.store.snapshot import load_shard, write_snapshot


@pytest.fixture
def index(community_hypergraph):
    return OverlapIndex.build(community_hypergraph)


@pytest.fixture
def fingerprint(community_hypergraph):
    return community_hypergraph.fingerprint()


def assert_reads_back(path, written: OverlapIndex) -> None:
    """The snapshot at ``path``, read through :class:`ShardedIndex`, holds
    exactly the index that was written."""
    back = ShardedIndex(path)
    assert back.num_pairs == written.num_pairs
    assert back.max_weight == written.max_weight
    assert back.num_hyperedges == written.num_hyperedges
    assert np.array_equal(back.edge_sizes, written.edge_sizes)
    for s in range(1, written.max_weight + 2):
        assert back.line_graph(s) == written.line_graph(s), s


class TestRoundTrip:
    @pytest.mark.parametrize("num_shards", [1, 3, 8])
    def test_read_back_equals_oracle(self, index, fingerprint, tmp_path, num_shards):
        write_snapshot(index, tmp_path, fingerprint, num_shards=num_shards)
        assert_reads_back(tmp_path, index)

    @pytest.mark.parametrize("num_shards", [1, 10])
    def test_tiny_hypergraph(self, paper_example, tmp_path, num_shards):
        # num_shards=10 > 4 hyperedges: blocked_partitions pads with empty
        # blocks and the snapshot must cope with empty shards.
        index = OverlapIndex.build(paper_example)
        write_snapshot(index, tmp_path, paper_example.fingerprint(), num_shards=num_shards)
        assert_reads_back(tmp_path, index)

    def test_empty_index(self, empty_hypergraph, tmp_path):
        index = OverlapIndex.build(empty_hypergraph)
        write_snapshot(index, tmp_path, empty_hypergraph.fingerprint(), num_shards=2)
        assert_reads_back(tmp_path, index)
        assert ShardedIndex(tmp_path).num_hyperedges == empty_hypergraph.num_edges


class TestShardBoundaries:
    def test_blocks_cover_id_space_and_own_their_pairs(
        self, index, fingerprint, tmp_path
    ):
        manifest = write_snapshot(index, tmp_path, fingerprint, num_shards=5)
        # Boundaries are contiguous and cover 0..m.
        assert manifest.shards[0].row_start == 0
        assert manifest.shards[-1].row_stop == index.num_hyperedges
        for prev, cur in zip(manifest.shards, manifest.shards[1:]):
            assert cur.row_start == prev.row_stop
        # Every pair lives in the shard owning its smaller endpoint, and the
        # per-shard counts add up to the whole store.
        total = 0
        for info in manifest.shards:
            edges, weights = load_shard(tmp_path, info, mmap=False)
            total += weights.size
            if edges.size:
                assert int(edges[:, 0].min()) >= info.row_start
                assert int(edges[:, 0].max()) < info.row_stop
                # Shards preserve the ascending-weight invariant.
                assert np.all(np.diff(weights) >= 0)
                assert info.min_weight == int(weights[0])
                assert info.max_weight == int(weights[-1])
        assert total == manifest.num_pairs == index.num_pairs

    def test_shard_files_mmap_loadable(self, index, fingerprint, tmp_path):
        manifest = write_snapshot(index, tmp_path, fingerprint, num_shards=3)
        populated = [i for i in manifest.shards if i.num_pairs]
        assert populated, "community hypergraph must produce overlap pairs"
        edges, weights = load_shard(tmp_path, populated[0], mmap=True)
        assert isinstance(edges, np.memmap)
        assert isinstance(weights, np.memmap)


class TestManifestSafety:
    def test_manifest_records_provenance(self, index, fingerprint, tmp_path):
        manifest = write_snapshot(
            index, tmp_path, fingerprint, provenance={"source": "unit-test"}
        )
        raw = json.loads((tmp_path / "manifest.json").read_text())
        assert raw["format_version"] == FORMAT_VERSION
        assert raw["fingerprint"] == fingerprint
        assert raw["algorithm"] == index.algorithm
        assert raw["provenance"]["source"] == "unit-test"
        assert raw["provenance"]["builder"] == "repro.store"
        assert manifest.fingerprint == fingerprint

    def test_manifest_records_the_kernel_asked_for(
        self, community_hypergraph, fingerprint, tmp_path
    ):
        index = OverlapIndex.build(community_hypergraph, algorithm="hashmap")
        write_snapshot(index, tmp_path, fingerprint)
        assert read_manifest(tmp_path).algorithm == "hashmap"

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(StoreFormatError, match="no snapshot manifest"):
            read_manifest(tmp_path)

    def test_corrupt_manifest_rejected(self, index, fingerprint, tmp_path):
        write_snapshot(index, tmp_path, fingerprint)
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(StoreFormatError, match="not valid JSON"):
            read_manifest(tmp_path)

    def test_future_format_version_rejected(self, index, fingerprint, tmp_path):
        write_snapshot(index, tmp_path, fingerprint)
        raw = json.loads((tmp_path / "manifest.json").read_text())
        raw["format_version"] = FORMAT_VERSION + 1
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(StoreFormatError, match="format version"):
            read_manifest(tmp_path)

    def test_version_1_manifest_names_both_versions_and_the_rebuild(
        self, index, fingerprint, tmp_path
    ):
        # Version 1 stores hold the old fingerprint definition: compaction
        # would carry those values forward, so only a rebuild upgrades them.
        write_snapshot(index, tmp_path, fingerprint)
        raw = json.loads((tmp_path / "manifest.json").read_text())
        raw["format_version"] = 1
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        match = r"format version 1 .*expected 2.*`repro index build`"
        with pytest.raises(StoreFormatError, match=match):
            read_manifest(tmp_path)

    def test_missing_shard_file_rejected(self, index, fingerprint, tmp_path):
        manifest = write_snapshot(index, tmp_path, fingerprint, num_shards=2)
        populated = [i for i in manifest.shards if i.num_pairs][0]
        os.remove(tmp_path / "shards" / populated.edges_file)
        with pytest.raises(StoreFormatError, match="shard file missing"):
            ShardedIndex(tmp_path).line_graph(1)

    def test_pair_count_mismatch_rejected(self, index, fingerprint, tmp_path):
        write_snapshot(index, tmp_path, fingerprint, num_shards=1)
        raw = json.loads((tmp_path / "manifest.json").read_text())
        raw["shards"][0]["num_pairs"] += 1
        raw["num_pairs"] += 1
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(StoreFormatError, match="manifest records"):
            ShardedIndex(tmp_path).line_graph(1)

    def test_edge_size_count_mismatch_rejected(self, index, fingerprint, tmp_path):
        write_snapshot(index, tmp_path, fingerprint, num_shards=2)
        raw = json.loads((tmp_path / "manifest.json").read_text())
        raw["num_hyperedges"] += 1
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(StoreFormatError, match="manifest records"):
            ShardedIndex(tmp_path)

    def test_unknown_manifest_fields_tolerated(self, index, fingerprint, tmp_path):
        """Same-version writers may add fields with defaults; readers skip them."""
        write_snapshot(index, tmp_path, fingerprint, num_shards=2)
        raw = json.loads((tmp_path / "manifest.json").read_text())
        raw["some_future_field"] = {"nested": True}
        for shard in raw["shards"]:
            shard["checksum"] = "abc123"
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        assert_reads_back(tmp_path, index)


class TestGenerationIsolation:
    def test_new_generation_never_touches_live_files(
        self, index, fingerprint, tmp_path
    ):
        """Laying down generation G+1 must leave every file the live
        (generation G) manifest references intact — the crash-window
        guarantee compaction builds on."""
        import numpy as np
        from repro.store.snapshot import load_edge_sizes
        from repro.store.format import Manifest

        m0 = write_snapshot(index, tmp_path, fingerprint, num_shards=2)
        m0_manifest = Manifest.from_json(m0.to_json())  # frozen copy
        sizes0 = load_edge_sizes(tmp_path, m0_manifest).copy()
        shard0 = {
            i.edges_file for i in m0_manifest.shards
        } | {i.weights_file for i in m0_manifest.shards}

        # A differently-shaped index at generation 1 (one extra hyperedge).
        bigger = OverlapIndex(
            edges=index.pairs_at_least(1)[0],
            weights=index.pairs_at_least(1)[1],
            edge_sizes=np.append(index.edge_sizes, 3),
        )
        m1 = write_snapshot(bigger, tmp_path, "other-fp", num_shards=3, generation=1)
        assert m1.edge_sizes_file != m0_manifest.edge_sizes_file
        # Generation 0's files are all still present and unchanged.
        for name in shard0:
            assert (tmp_path / "shards" / name).is_file()
        assert np.array_equal(load_edge_sizes(tmp_path, m0_manifest), sizes0)
