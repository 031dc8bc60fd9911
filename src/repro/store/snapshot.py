"""Writing and reading overlap-index snapshots (the store's base images).

A snapshot is an :class:`~repro.engine.index.OverlapIndex` — its base
segments plus its overlay — written as weight-ascending pair arrays,
partitioned into row-block shards, next to a copy of the hypergraph it
indexes (see :mod:`repro.store.format`).  One
writer, :func:`write_snapshot`, serves a build and a compaction alike, and
writes every shard in the one base order of pairs
(:func:`~repro.engine.index.weight_pair_order`): a snapshot's bytes depend
on the state it holds, not on the updates that led to it.  Shards are
plain ``.npy`` files, so the one reader,
:class:`~repro.store.sharded.ShardedIndex`, maps them with
``np.load(mmap_mode="r")`` and lets the OS page slices in on demand; it
needs only weight ascent, so a store written in another tie order still
opens.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.index import OverlapIndex, weight_pair_order
from repro.hypergraph.hypergraph import Hypergraph
from repro.io.serialization import load_edge_sizes_npz, save_hypergraph_npz
from repro.parallel.partition import blocked_partitions
from repro.store.format import (
    FORMAT_VERSION,
    Manifest,
    PathLike,
    SHARD_DIR,
    ShardInfo,
    StoreFormatError,
    fsync_path,
    hypergraph_file_name,
    shard_file_names,
    write_manifest,
)
from repro.utils.validation import ValidationError, check_positive_int


def _in_base_order(edges: np.ndarray, weights: np.ndarray) -> bool:
    """True when the pairs already stand in :func:`weight_pair_order`:
    ascending weight, equal weights by ascending ``(i, j)``."""
    step = np.diff(weights)
    if np.any(step < 0):
        return False
    lo_step = np.diff(edges[:, 0])
    ascending = (step > 0) | (lo_step > 0) | ((lo_step == 0) & (np.diff(edges[:, 1]) > 0))
    return bool(np.all(ascending))


def write_snapshot(
    index: OverlapIndex,
    store_path: PathLike,
    hypergraph: Hypergraph,
    num_shards: int = 1,
    generation: int = 0,
    provenance: Optional[Dict[str, object]] = None,
) -> Manifest:
    """Serialise ``index`` — its base plus its overlay — as a sharded
    snapshot of ``hypergraph`` under ``store_path``, one row block at a
    time, and commit it by replacing the manifest.

    The hyperedge-ID space is split into ``num_shards`` contiguous row
    blocks; pair ``(i, j)`` (``i < j``) goes to the block owning ``i``.
    Each block — its live base and overlay pairs, tombstoned pairs dropped
    (:meth:`~repro.engine.index.OverlapIndex.pairs_in_rows`) — is written in
    base order (:func:`weight_pair_order`), a sort that a block already in
    it, as every block of a build is, skips.  So the files depend only on
    the index's state, the shard count and the generation: a compaction
    writes the bytes a fresh build of the same hypergraph writes.  Peak
    memory is one block, whatever the store's size.  The copy of
    ``hypergraph`` is written with the shards, and the manifest takes its
    fingerprint; every file is named by ``generation``, so a compaction
    lays a fresh snapshot down next to the live one, and the manifest
    rename is the only step a reader can see.
    """
    num_shards = check_positive_int(num_shards, "num_shards")
    edge_sizes = index.edge_sizes
    if not np.array_equal(edge_sizes, hypergraph.edge_sizes()):
        raise ValidationError(
            f"index of {edge_sizes.size} hyperedges does not index the "
            f"hypergraph of {hypergraph.num_edges} it is written with"
        )
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
        shard_edges, shard_weights = index.pairs_in_rows(row_start, row_stop)
        # The block holds copies: unmap the input shards a store's index
        # read it from before sorting and writing it.
        index.close()
        if not _in_base_order(shard_edges, shard_weights):
            order = weight_pair_order(shard_edges, shard_weights)
            # The memory bound is the point of writing by block: drop each
            # copy of the block as soon as the next one exists.
            shard_edges = shard_edges.take(order, axis=0)
            shard_weights = shard_weights.take(order)
            del order
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

    hypergraph_file = hypergraph_file_name(generation)
    save_hypergraph_npz(hypergraph, os.path.join(store_path, hypergraph_file))
    fsync_path(os.path.join(store_path, hypergraph_file))
    # Data files must be durable BEFORE the manifest rename makes them
    # reachable — their contents and both directory entries — otherwise
    # power loss could leave a valid manifest pointing at torn or missing
    # files.
    fsync_path(shard_dir)
    fsync_path(store_path)
    meta = {"builder": "repro.store", "created_unix": time.time()}
    if provenance:
        meta.update(provenance)
    manifest = Manifest(
        format_version=FORMAT_VERSION,
        fingerprint=hypergraph.fingerprint(),
        num_hyperedges=int(edge_sizes.size),
        num_pairs=sum(info.num_pairs for info in shards),
        max_weight=max((info.max_weight for info in shards), default=0),
        algorithm=index.algorithm,
        hypergraph_file=hypergraph_file,
        generation=int(generation),
        shards=shards,
        provenance=meta,
    )
    write_manifest(store_path, manifest)
    return manifest


def sweep_orphan_shards(store_path: PathLike, manifest: Manifest) -> int:
    """Delete snapshot files the live manifest does not reference.

    Superseded generations (compaction, in-place rebuild) and half-written
    generations abandoned by a crash both leave orphans; sweeping by
    "not referenced" rather than "previous generation" catches them all:
    every file under ``shards/`` and every array file (``.npy``, ``.npz``)
    in the store root that the manifest does not name, an earlier format's
    files included, and the ``.sync`` temporaries a killed mirror sync
    left.  Assumes the single-writer protocol: only the process holding the
    store open for writing may sweep.  Returns the number of files removed.
    """
    root = str(store_path)
    shard_dir = os.path.join(root, SHARD_DIR)
    live = set(manifest.file_names())
    names = [n for n in os.listdir(root) if n.endswith((".npy", ".npz", ".sync"))]
    if os.path.isdir(shard_dir):
        names += [f"{SHARD_DIR}/{name}" for name in os.listdir(shard_dir)]
    removed = 0
    for name in names:
        if name in live:
            continue
        try:
            os.remove(os.path.join(root, *name.split("/")))
            removed += 1
        except FileNotFoundError:
            pass
    return removed


def load_edge_sizes(store_path: PathLike, manifest: Manifest) -> np.ndarray:
    """The per-hyperedge sizes of the snapshot — the row lengths of its
    hypergraph copy — in memory and writable."""
    path = os.path.join(str(store_path), manifest.hypergraph_file)
    try:
        sizes = load_edge_sizes_npz(path)
    except FileNotFoundError as exc:
        raise StoreFormatError(
            f"snapshot is missing {manifest.hypergraph_file} at {path}"
        ) from exc
    if sizes.size != manifest.num_hyperedges:
        raise StoreFormatError(
            f"{manifest.hypergraph_file} has {sizes.size} hyperedges but the "
            f"manifest records {manifest.num_hyperedges}"
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
