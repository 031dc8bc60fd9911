"""Fresh-process half of one ``cold_build`` cycle: pipeline run, index build.

``python cold_child.py HYPERGRAPH.npz STORE_DIR`` loads the saved dataset
(untimed), then prints one JSON line per step:

``{"op": "ready"}`` once imports and the load are done;
``{"op": "pipeline", ...}`` after one cold ``SLinePipeline.run(h, s=2)`` with
the Table I stage times, the work counters and a digest of the edge set;
``{"op": "build", ...}`` after ``OverlapIndex.build`` + ``IndexStore.from_index``
(together: ``IndexStore.build``), with this process's ``VmHWM``.

A new process per cycle keeps every run cold (no fingerprint or CSR caches
carried over) and makes the peak RSS that of pipeline + build alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time


def edge_digest(line_graph) -> str:
    """SHA-1 of the canonical ``(i < j, sorted)`` edge array."""
    return hashlib.sha1(line_graph.edges.tobytes()).hexdigest()


def pipeline_step(h, algorithm: str = "hashmap") -> dict:
    """One cold pipeline run as a JSON-able record (also the gate's oracle)."""
    from repro.core.pipeline import SLinePipeline

    start = time.perf_counter()
    result = SLinePipeline(algorithm=algorithm, metrics=("connected_components",)).run(h, s=2)
    seconds = time.perf_counter() - start
    return {
        "op": "pipeline",
        "algorithm": algorithm,
        "seconds": seconds,
        "stage_times": result.stage_times.as_dict(),
        "wedges": int(result.workload.total_wedges()),
        "edges": int(result.num_line_graph_edges),
        "components": int(result.num_components()),
        "digest": edge_digest(result.line_graph),
    }


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    npz_path, store_path = argv
    from repro.engine.index import OverlapIndex
    from repro.io.serialization import load_hypergraph_npz
    from repro.store import IndexStore

    from e2e_topology import peak_rss_mb

    h = load_hypergraph_npz(npz_path, verify_fingerprint=False)
    print(json.dumps({"op": "ready"}), flush=True)
    print(json.dumps(pipeline_step(h)), flush=True)

    start = time.perf_counter()
    index = OverlapIndex.build(h)
    built = time.perf_counter()
    IndexStore.from_index(index, h.fingerprint(), store_path, num_shards=4, hypergraph=h)
    done = time.perf_counter()
    print(
        json.dumps(
            {
                "op": "build",
                "seconds": done - start,
                "index_build_s": built - start,
                "snapshot_write_s": done - built,
                "num_pairs": int(index.num_pairs),
                "peak_rss_mb": peak_rss_mb(os.getpid()),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
