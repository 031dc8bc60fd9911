"""Hypergraph input/output.

Three interchange formats are supported:

* bipartite edge lists (``edge_id vertex_id`` per line), the format of the
  KONECT datasets the paper uses;
* hyperedge-list text files (one hyperedge per line, members separated by
  whitespace), the format used by Hygra/practical-parallel-hypergraph
  releases;
* a compact ``.npz`` binary round-trip of the CSR structures.
"""

from repro.io.edgelist import (
    read_bipartite_edgelist,
    write_bipartite_edgelist,
    read_hyperedge_list,
    write_hyperedge_list,
)
from repro.io.serialization import (
    load_hypergraph_npz,
    load_slinegraph_npz,
    save_hypergraph_npz,
    save_slinegraph_npz,
)

__all__ = [
    "read_bipartite_edgelist",
    "write_bipartite_edgelist",
    "read_hyperedge_list",
    "write_hyperedge_list",
    "save_hypergraph_npz",
    "load_hypergraph_npz",
    "save_slinegraph_npz",
    "load_slinegraph_npz",
]
