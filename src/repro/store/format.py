"""On-disk format of the persistent overlap-index store.

A store is a directory:

.. code-block:: text

    <store>/
        manifest.json        versioned description of the snapshot (below)
        edge_sizes.npy       per-hyperedge sizes |e_i| (int64)
        hypergraph.npz       source hypergraph (io.serialization; uncompressed)
        wal.log              write-ahead log of incremental updates
        shards/
            g<G>-shard-00000.edges.npy    (k_b, 2) int64, weight-ascending
            g<G>-shard-00000.weights.npy  (k_b,)  int64, ascending

The hyperedge-ID space is partitioned into contiguous row blocks (via
:func:`repro.parallel.partition.blocked_partitions`); a pair ``(i, j)`` with
``i < j`` lives in the shard owning row ``i``.  Within each shard the arrays
keep the :class:`~repro.engine.index.OverlapIndex` invariant — ascending
weight — so every shard answers ``weight >= s`` with one binary search.
Shard files are plain ``.npy`` so they can be opened with
``np.load(mmap_mode="r")`` and paged in lazily.

Format version policy
---------------------
``FORMAT_VERSION`` is bumped on any change that an older reader cannot
interpret (new manifest fields with defaults do *not* bump it) — a layout
change, or a change of what a stored value means.  Readers refuse
manifests whose version differs, with a :class:`StoreFormatError` naming
both versions and the way forward: rebuild the store from its source
hypergraph with ``repro index build``.  Compaction cannot upgrade across
versions: it carries the old snapshot's values forward.

* Version 1: the fingerprint was one SHA-256 over the sorted CSR.
* Version 2: the fingerprint is a multiset digest of the incidences
  (:meth:`repro.hypergraph.Hypergraph.fingerprint`), carried through every
  update in O(|e|).  The manifest, every WAL record and ``hypergraph.npz``
  hold fingerprints, so a version-1 store's values no longer verify.

The ``generation`` counter names the shard files of the live snapshot —
compaction writes generation ``G+1`` files before atomically replacing the
manifest, so a crash mid-compaction leaves the old snapshot intact.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Union

from repro.utils.validation import ValidationError

PathLike = Union[str, os.PathLike]

#: Bumped on any change an older reader cannot interpret (see the module docstring).
FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"
EDGE_SIZES_NAME = "edge_sizes.npy"
HYPERGRAPH_NAME = "hypergraph.npz"
WAL_NAME = "wal.log"
SHARD_DIR = "shards"
#: Advisory single-writer lock file (see :class:`repro.service.StoreLock`).
LOCK_NAME = "writer.lock"


class StoreError(ValidationError):
    """Base error for persistent-store failures."""


class StoreFormatError(StoreError):
    """The on-disk layout cannot be interpreted by this reader."""


class ReadOnlyStoreError(StoreError):
    """A write was attempted through a store handle opened read-only."""


@dataclass
class ShardInfo:
    """Manifest entry for one row-block shard."""

    shard_id: int
    #: Owned hyperedge rows: pairs ``(i, j)`` with ``row_start <= i < row_stop``.
    row_start: int
    row_stop: int
    num_pairs: int
    #: Smallest/largest pair weight in the shard (0/0 when empty).
    min_weight: int
    max_weight: int
    edges_file: str
    weights_file: str


@dataclass
class Manifest:
    """Everything a reader needs to interpret (and trust) a snapshot."""

    format_version: int
    #: :meth:`Hypergraph.fingerprint` of the hypergraph at snapshot time.
    fingerprint: str
    num_hyperedges: int
    num_pairs: int
    max_weight: int
    #: Stage-3 algorithm that enumerated the pairs (build provenance).
    algorithm: str
    #: Snapshot generation; names the shard files (bumped by compaction).
    generation: int = 0
    shards: List[ShardInfo] = field(default_factory=list)
    #: Free-form build provenance (builder, creation time, source dataset…).
    provenance: Dict[str, object] = field(default_factory=dict)
    #: Per-hyperedge size array; generation-named so writing a new snapshot
    #: never clobbers the file the live manifest references.
    edge_sizes_file: str = EDGE_SIZES_NAME

    def to_json(self) -> str:
        """The manifest as the JSON text written to ``manifest.json``."""
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        """Parse and validate a manifest's JSON text (:class:`StoreFormatError`
        when it is malformed or of another format version)."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreFormatError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict) or "format_version" not in raw:
            raise StoreFormatError("manifest is missing 'format_version'")
        version = raw["format_version"]
        if version != FORMAT_VERSION:
            raise StoreFormatError(
                f"snapshot format version {version!r} is not supported by this "
                f"reader (expected {FORMAT_VERSION}; version 2 changed the "
                "hypergraph fingerprint); rebuild the store from its source "
                "hypergraph with `repro index build`"
            )
        try:
            # Ignore unknown shard keys: the format policy allows writers at
            # the same FORMAT_VERSION to add fields older readers skip.
            known = {f.name for f in fields(ShardInfo)}
            shards = [
                ShardInfo(**{k: v for k, v in s.items() if k in known})
                for s in raw.get("shards", [])
            ]
            return cls(
                format_version=int(version),
                fingerprint=str(raw["fingerprint"]),
                num_hyperedges=int(raw["num_hyperedges"]),
                num_pairs=int(raw["num_pairs"]),
                max_weight=int(raw["max_weight"]),
                algorithm=str(raw.get("algorithm", "")),
                generation=int(raw.get("generation", 0)),
                shards=shards,
                provenance=dict(raw.get("provenance", {})),
                edge_sizes_file=str(raw.get("edge_sizes_file", EDGE_SIZES_NAME)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(f"manifest is malformed: {exc}") from exc


def shard_file_names(generation: int, shard_id: int) -> tuple:
    """``(edges_file, weights_file)`` for a shard of a snapshot generation."""
    stem = f"g{int(generation)}-shard-{int(shard_id):05d}"
    return f"{stem}.edges.npy", f"{stem}.weights.npy"


def edge_sizes_file_name(generation: int) -> str:
    """Generation-named per-hyperedge size file."""
    return f"g{int(generation)}-{EDGE_SIZES_NAME}"


def fsync_path(path: PathLike) -> None:
    """fsync a file or directory so it survives power loss.

    Directory fsyncs matter after ``os.replace``: the rename itself lives
    in the directory entry, not the file.
    """
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def manifest_path(store_path: PathLike) -> str:
    """Path of the manifest file of the store directory ``store_path``."""
    return os.path.join(str(store_path), MANIFEST_NAME)


def read_manifest(store_path: PathLike) -> Manifest:
    """Load and validate the manifest of a store directory."""
    path = manifest_path(store_path)
    if not os.path.isfile(path):
        raise StoreFormatError(f"no snapshot manifest at {path}")
    with open(path, "r", encoding="utf-8") as handle:
        return Manifest.from_json(handle.read())


def write_manifest(store_path: PathLike, manifest: Manifest) -> None:
    """Durably replace the manifest (write-temp, fsync, rename, fsync dir)."""
    path = manifest_path(store_path)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(manifest.to_json())
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_path(store_path)
