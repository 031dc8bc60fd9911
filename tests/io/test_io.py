"""Unit tests for hypergraph I/O round trips."""

import numpy as np
import pytest

from repro.core.dispatch import s_line_graph
from repro.io.edgelist import (
    read_bipartite_edgelist,
    read_hyperedge_list,
    write_bipartite_edgelist,
    write_hyperedge_list,
)
from repro.io.serialization import (
    load_hypergraph_npz,
    load_slinegraph_npz,
    peek_hypergraph_fingerprint,
    save_hypergraph_npz,
    save_slinegraph_npz,
)
from repro.utils.validation import ValidationError


class TestBipartiteEdgelist:
    def test_roundtrip(self, paper_example, tmp_path):
        path = tmp_path / "h.bel"
        write_bipartite_edgelist(paper_example, path)
        back = read_bipartite_edgelist(path)
        assert back.num_edges == paper_example.num_edges
        assert back.num_vertices == paper_example.num_vertices
        assert back == paper_example

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "h.bel"
        path.write_text("# comment\n% other comment\n\n0 0\n0 1\n1 1\n")
        h = read_bipartite_edgelist(path)
        assert h.num_edges == 2
        assert h.num_incidences == 3

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.bel"
        path.write_text("0\n")
        with pytest.raises(ValidationError):
            read_bipartite_edgelist(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bel"
        path.write_text("# nothing\n")
        with pytest.raises(ValidationError):
            read_bipartite_edgelist(path)


class TestHyperedgeList:
    def test_roundtrip(self, paper_example, tmp_path):
        path = tmp_path / "h.hel"
        write_hyperedge_list(paper_example, path)
        back = read_hyperedge_list(path)
        assert back == paper_example

    def test_empty_hyperedge_line(self, tmp_path):
        path = tmp_path / "h.hel"
        path.write_text("0 1\n\n2\n")
        h = read_hyperedge_list(path)
        assert h.num_edges == 3
        assert h.edge_size(1) == 0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "none.hel"
        path.write_text("# only a comment\n")
        with pytest.raises(ValidationError):
            read_hyperedge_list(path)


class TestNpzSerialization:
    def test_hypergraph_roundtrip_with_labels(self, paper_example, tmp_path):
        path = tmp_path / "h.npz"
        save_hypergraph_npz(paper_example, path)
        back = load_hypergraph_npz(path)
        assert back.num_edges == paper_example.num_edges
        assert back.num_incidences == paper_example.num_incidences
        assert back.vertex_names == ["a", "b", "c", "d", "e", "f"]

    def test_hypergraph_roundtrip_without_labels(self, paper_example_unlabelled, tmp_path):
        path = tmp_path / "h.npz"
        save_hypergraph_npz(paper_example_unlabelled, path)
        back = load_hypergraph_npz(path)
        assert back == paper_example_unlabelled
        assert back.edge_names is None

    def test_slinegraph_roundtrip(self, paper_example, tmp_path):
        graph = s_line_graph(paper_example, 2)
        path = tmp_path / "lg.npz"
        save_slinegraph_npz(graph, path)
        back = load_slinegraph_npz(path)
        assert back == graph
        assert back.active_vertices.tolist() == graph.active_vertices.tolist()


class TestNpzFingerprint:
    """The archive carries the structural fingerprint (store manifest guard)."""

    def test_fingerprint_stable_across_save_load(self, paper_example, tmp_path):
        path = tmp_path / "h.npz"
        save_hypergraph_npz(paper_example, path)
        back = load_hypergraph_npz(path)
        assert back.fingerprint() == paper_example.fingerprint()
        # Another full cycle through the loaded copy stays fixed.
        path2 = tmp_path / "h2.npz"
        save_hypergraph_npz(back, path2)
        assert load_hypergraph_npz(path2).fingerprint() == paper_example.fingerprint()

    def test_peek_reads_fingerprint_without_rebuilding(self, paper_example, tmp_path):
        path = tmp_path / "h.npz"
        save_hypergraph_npz(paper_example, path)
        assert peek_hypergraph_fingerprint(path) == paper_example.fingerprint()

    def test_tampered_archive_rejected(self, paper_example_unlabelled, tmp_path):
        import numpy as np

        path = tmp_path / "h.npz"
        save_hypergraph_npz(paper_example_unlabelled, path)
        with np.load(str(path), allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        payload["indices"] = payload["indices"].copy()
        payload["indices"][0] = (payload["indices"][0] + 1) % int(
            payload["num_vertices"][0]
        )
        np.savez_compressed(str(path), **payload)
        with pytest.raises(ValidationError, match="archive recorded"):
            load_hypergraph_npz(path)
        # The escape hatch still loads the (altered) structure.
        salvaged = load_hypergraph_npz(path, verify_fingerprint=False)
        assert salvaged.num_edges == paper_example_unlabelled.num_edges

    def test_archive_without_fingerprint_still_loads(
        self, paper_example_unlabelled, tmp_path
    ):
        import numpy as np

        path = tmp_path / "h.npz"
        save_hypergraph_npz(paper_example_unlabelled, path)
        with np.load(str(path), allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files if k != "fingerprint"}
        np.savez_compressed(str(path), **payload)  # a pre-store-era archive
        assert peek_hypergraph_fingerprint(path) is None
        assert load_hypergraph_npz(path) == paper_example_unlabelled
