"""Writing and reading overlap-index snapshots (the store's base images).

A snapshot is the CSR-style weight-sorted pair arrays of an
:class:`~repro.engine.index.OverlapIndex`, partitioned into row-block shards
(see :mod:`repro.store.format`).  Shards are plain ``.npy`` files, so the
one reader, :class:`~repro.store.sharded.ShardedIndex`, maps them with
``np.load(mmap_mode="r")`` and lets the OS page slices in on demand.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.index import OverlapIndex, insert_by_weight, weight_pair_order
from repro.parallel.partition import blocked_partitions
from repro.store.format import (
    EDGE_SIZES_NAME,
    FORMAT_VERSION,
    Manifest,
    PathLike,
    SHARD_DIR,
    ShardInfo,
    StoreFormatError,
    edge_sizes_file_name,
    fsync_path,
    shard_file_names,
    write_manifest,
)
from repro.store.overlay import WalOverlay
from repro.utils.validation import check_positive_int


#: ``(row_start, row_stop) -> (edges, weights)``: the pairs ``(i, j)`` with
#: ``row_start <= i < row_stop``, weight-ascending, in the order to store.
BlockPairs = Callable[[int, int], Tuple[np.ndarray, np.ndarray]]


def write_snapshot(
    index: OverlapIndex,
    store_path: PathLike,
    fingerprint: str,
    num_shards: int = 1,
    generation: int = 0,
    provenance: Optional[Dict[str, object]] = None,
) -> Manifest:
    """Serialise ``index`` as a sharded snapshot under ``store_path``.

    The hyperedge-ID space is split into ``num_shards`` contiguous row
    blocks; pair ``(i, j)`` (``i < j``) goes to the block owning ``i``.
    Slicing the weight-ascending pair store by a row mask preserves the
    ascending order, so every shard keeps the binary-search invariant for
    free.  Shard files are named by ``generation`` so a compaction can lay
    down a fresh snapshot next to the live one before switching the
    manifest atomically.
    """
    edges, weights = index.pairs_at_least(1)
    rows = edges[:, 0] if edges.size else np.empty(0, dtype=np.int64)

    def block_pairs(row_start: int, row_stop: int) -> Tuple[np.ndarray, np.ndarray]:
        mask = (rows >= row_start) & (rows < row_stop)
        return edges[mask], weights[mask]

    return _write_generation(
        block_pairs,
        index.edge_sizes,
        index.algorithm,
        store_path,
        fingerprint,
        num_shards,
        generation,
        provenance,
    )


def write_folded_snapshot(
    base: Manifest,
    overlay: WalOverlay,
    store_path: PathLike,
    fingerprint: str,
    num_shards: int,
    generation: int,
    provenance: Optional[Dict[str, object]] = None,
) -> Manifest:
    """Serialise snapshot ``base`` plus a folded log, one row block at a time.

    Writes exactly the files :func:`write_snapshot` writes for the index
    obtained by replaying the log over ``base`` record by record — without
    ever holding that index: each output block gathers its rows from the
    (memory-mapped) input shards that overlap it, drops tombstoned pairs,
    sorts that block alone and merges the overlay's rows for it.  Peak
    memory is one output block plus the overlay, whatever the store's size.
    """
    dead = np.zeros(overlay.edge_sizes.size, dtype=bool)
    dead[overlay.removed] = True
    overlay_rows = overlay.edges[:, 0]

    def live_rows(info: ShardInfo, row_start: int, row_stop: int):
        """One input shard's pairs that fall in the block and are not tombstoned."""
        edges, weights = load_shard(store_path, info)  # mapped for this call only
        rows = edges[:, 0]
        keep = (rows >= row_start) & (rows < row_stop)
        if overlay.removed.size:
            keep &= ~(dead[rows] | dead[edges[:, 1]])
        return edges[keep], weights[keep]

    def block_pairs(row_start: int, row_stop: int) -> Tuple[np.ndarray, np.ndarray]:
        parts = [(np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64))]
        parts += [
            live_rows(info, row_start, row_stop)
            for info in base.shards
            if info.num_pairs and info.row_start < row_stop and info.row_stop > row_start
        ]
        edges = np.concatenate([e for e, _ in parts], axis=0)
        weights = np.concatenate([w for _, w in parts])
        # The memory bound is the point of this function: drop each copy of
        # the block as soon as the next one exists.
        del parts
        # Canonical base order, as materialising the snapshot would give.
        order = weight_pair_order(edges, weights)
        edges, weights = edges.take(order, axis=0), weights.take(order)
        del order
        mine = (overlay_rows >= row_start) & (overlay_rows < row_stop)
        return insert_by_weight(
            edges, weights, overlay.edges[mine], overlay.weights[mine]
        )

    return _write_generation(
        block_pairs,
        overlay.edge_sizes,
        base.algorithm,
        store_path,
        fingerprint,
        num_shards,
        generation,
        provenance,
    )


def _write_generation(
    block_pairs: BlockPairs,
    edge_sizes: np.ndarray,
    algorithm: str,
    store_path: PathLike,
    fingerprint: str,
    num_shards: int,
    generation: int,
    provenance: Optional[Dict[str, object]],
) -> Manifest:
    """Lay down one snapshot generation, shard by shard, then its manifest."""
    num_shards = check_positive_int(num_shards, "num_shards")
    store_path = str(store_path)
    shard_dir = os.path.join(store_path, SHARD_DIR)
    os.makedirs(shard_dir, exist_ok=True)
    blocks = blocked_partitions(int(edge_sizes.size), num_shards)

    shards: List[ShardInfo] = []
    start = 0
    for shard_id, block in enumerate(blocks):
        row_start = int(block[0]) if block.size else start
        row_stop = int(block[-1]) + 1 if block.size else row_start
        start = row_stop
        shard_edges, shard_weights = block_pairs(row_start, row_stop)
        shard_edges = np.ascontiguousarray(shard_edges)
        shard_weights = np.ascontiguousarray(shard_weights)
        edges_file, weights_file = shard_file_names(generation, shard_id)
        np.save(os.path.join(shard_dir, edges_file), shard_edges)
        np.save(os.path.join(shard_dir, weights_file), shard_weights)
        fsync_path(os.path.join(shard_dir, edges_file))
        fsync_path(os.path.join(shard_dir, weights_file))
        shards.append(
            ShardInfo(
                shard_id=shard_id,
                row_start=row_start,
                row_stop=row_stop,
                num_pairs=int(shard_weights.size),
                min_weight=int(shard_weights[0]) if shard_weights.size else 0,
                max_weight=int(shard_weights[-1]) if shard_weights.size else 0,
                edges_file=edges_file,
                weights_file=weights_file,
            )
        )

    # Generation-named: a newer snapshot being laid down never touches the
    # size array the live manifest references (crash-window safety).
    edge_sizes_file = edge_sizes_file_name(generation)
    np.save(
        os.path.join(store_path, edge_sizes_file),
        np.ascontiguousarray(edge_sizes, dtype=np.int64),
    )
    fsync_path(os.path.join(store_path, edge_sizes_file))
    # Data files must be durable BEFORE the manifest rename makes them
    # reachable; otherwise power loss could leave a valid manifest pointing
    # at torn shard arrays.
    fsync_path(shard_dir)
    meta = {"builder": "repro.store", "created_unix": time.time()}
    if provenance:
        meta.update(provenance)
    manifest = Manifest(
        format_version=FORMAT_VERSION,
        fingerprint=str(fingerprint),
        num_hyperedges=int(edge_sizes.size),
        num_pairs=sum(info.num_pairs for info in shards),
        max_weight=max((info.max_weight for info in shards), default=0),
        algorithm=algorithm,
        generation=int(generation),
        shards=shards,
        provenance=meta,
        edge_sizes_file=edge_sizes_file,
    )
    write_manifest(store_path, manifest)
    return manifest


def sweep_orphan_shards(store_path: PathLike, manifest: Manifest) -> int:
    """Delete snapshot files the live manifest does not reference.

    Superseded generations (compaction, in-place rebuild) and half-written
    generations abandoned by a crash both leave orphans; sweeping by
    "not referenced" rather than "previous generation" catches them all —
    shard arrays and generation-named edge-size files alike.  Assumes the
    single-writer protocol: only the process holding the store open for
    writing may sweep.  Returns the number of files removed.
    """
    removed = 0
    shard_dir = os.path.join(str(store_path), SHARD_DIR)
    if os.path.isdir(shard_dir):
        live = {info.edges_file for info in manifest.shards}
        live |= {info.weights_file for info in manifest.shards}
        for name in os.listdir(shard_dir):
            if name not in live:
                try:
                    os.remove(os.path.join(shard_dir, name))
                    removed += 1
                except FileNotFoundError:
                    pass
    for name in os.listdir(str(store_path)):
        is_sizes = name == EDGE_SIZES_NAME or name.endswith("-" + EDGE_SIZES_NAME)
        if is_sizes and name != manifest.edge_sizes_file:
            try:
                os.remove(os.path.join(str(store_path), name))
                removed += 1
            except FileNotFoundError:
                pass
    return removed


def load_edge_sizes(store_path: PathLike, manifest: Manifest) -> np.ndarray:
    """The per-hyperedge size array of the snapshot (in memory, writable)."""
    path = os.path.join(str(store_path), manifest.edge_sizes_file)
    if not os.path.isfile(path):
        raise StoreFormatError(
            f"snapshot is missing {manifest.edge_sizes_file} at {path}"
        )
    sizes = np.array(np.load(path), dtype=np.int64)
    if sizes.size != manifest.num_hyperedges:
        raise StoreFormatError(
            f"{manifest.edge_sizes_file} has {sizes.size} entries but the "
            f"manifest records {manifest.num_hyperedges} hyperedges"
        )
    return sizes


def load_shard(
    store_path: PathLike, info: ShardInfo, mmap: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """``(edges, weights)`` of one shard, memory-mapped by default."""
    shard_dir = os.path.join(str(store_path), SHARD_DIR)
    mode = "r" if mmap else None
    try:
        edges = np.load(os.path.join(shard_dir, info.edges_file), mmap_mode=mode)
        weights = np.load(os.path.join(shard_dir, info.weights_file), mmap_mode=mode)
    except FileNotFoundError as exc:
        raise StoreFormatError(f"snapshot shard file missing: {exc}") from exc
    if edges.ndim != 2 or edges.shape[1] != 2 or weights.shape[0] != edges.shape[0]:
        raise StoreFormatError(
            f"shard {info.shard_id} arrays are malformed: "
            f"edges {edges.shape}, weights {weights.shape}"
        )
    if weights.shape[0] != info.num_pairs:
        raise StoreFormatError(
            f"shard {info.shard_id} holds {weights.shape[0]} pairs but the "
            f"manifest records {info.num_pairs}"
        )
    return edges, weights
