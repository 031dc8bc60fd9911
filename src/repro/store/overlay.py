"""The write-ahead log folded into arrays: one batched overlay per fold.

Replaying a log record by record costs one array rebuild per record.
:func:`fold_records` instead reduces the log to the three things its
records can change — appended overlap pairs, tombstoned hyperedges and the
size array — with one concatenation and one mask, so both consumers
(:meth:`~repro.store.IndexStore.sharded_index`,
:meth:`~repro.store.IndexStore.compact`) apply the log in a single
step, whatever its length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.store.wal import OP_ADD, WalRecord
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class WalOverlay:
    """What a log does to the snapshot it was written against.

    ``edges`` / ``weights`` are in log order, the order of the live pairs
    that replaying the records one at a time through
    :meth:`~repro.engine.index.OverlapIndex.add_hyperedge` leaves.
    """

    #: ``(k, 2)`` surviving appended pairs ``(existing_id, new_id)``.
    edges: np.ndarray
    #: Length-``k`` overlap counts of ``edges``.
    weights: np.ndarray
    #: Sorted IDs of the hyperedges the log tombstoned.
    removed: np.ndarray
    #: Per-hyperedge sizes after the whole log (tombstones at 0).
    edge_sizes: np.ndarray


def fold_records(
    records: Sequence[WalRecord], base_edge_sizes: np.ndarray
) -> WalOverlay:
    """Fold ``records`` over a snapshot whose size array is ``base_edge_sizes``.

    Raises :class:`ValidationError` for a log that does not apply: an add
    whose ID is not the next free one, a remove outside the ID range of its
    moment, or an overlap row with a weight below 1, whose IDs do not
    strictly ascend, or that references a hyperedge which does not exist
    (yet) or was removed earlier in the log.
    """
    base_n = int(base_edge_sizes.size)
    n = base_n
    pair_ids: List[int] = []
    pair_weights: List[int] = []
    row_counts: List[int] = []
    add_positions: List[int] = []
    added_sizes: List[int] = []
    removed_ids: List[int] = []
    remove_positions: List[int] = []
    for position, record in enumerate(records):
        edge_id = record.edge_id
        if record.op == OP_ADD:
            if edge_id != n:
                raise ValidationError(
                    f"new hyperedge ID must be {n}, got {edge_id}"
                )
            row_ids = record.payload["pair_ids"]
            row_weights = record.payload["pair_weights"]
            if len(row_ids) != len(row_weights):
                raise ValidationError(
                    f"add of hyperedge {edge_id} logs {len(row_ids)} pair IDs "
                    f"but {len(row_weights)} pair weights"
                )
            pair_ids.extend(row_ids)
            pair_weights.extend(row_weights)
            row_counts.append(len(row_ids))
            add_positions.append(position)
            added_sizes.append(max(int(record.payload["size"]), 0))
            n += 1
        else:
            if edge_id < 0 or edge_id >= n:
                raise ValidationError(
                    f"hyperedge ID {edge_id} out of range [0, {n})"
                )
            removed_ids.append(edge_id)
            remove_positions.append(position)

    lo = np.asarray(pair_ids, dtype=np.int64)
    weights = np.asarray(pair_weights, dtype=np.int64)
    counts = np.asarray(row_counts, dtype=np.int64)
    hi = np.repeat(np.arange(base_n, n, dtype=np.int64), counts)
    if np.any(weights < 1):
        raise ValidationError("overlap weights must be >= 1")
    if np.any((lo < 0) | (lo >= hi)):
        raise ValidationError("pair IDs must reference existing hyperedges")
    if np.any((hi[1:] == hi[:-1]) & (lo[1:] <= lo[:-1])):
        raise ValidationError("pair IDs must strictly ascend")
    row_position = np.repeat(np.asarray(add_positions, dtype=np.int64), counts)

    # Log position of each hyperedge's first tombstone (``never`` if none).
    never = len(records)
    removed = np.asarray(removed_ids, dtype=np.int64)
    removed_at = np.full(n, never, dtype=np.int64)
    np.minimum.at(removed_at, removed, np.asarray(remove_positions, dtype=np.int64))
    if np.any(removed_at[lo] < row_position):
        raise ValidationError("pair IDs must reference live hyperedges")

    keep = (removed_at[lo] == never) & (removed_at[hi] == never)
    edge_sizes = np.concatenate(
        [
            np.asarray(base_edge_sizes, dtype=np.int64),
            np.asarray(added_sizes, dtype=np.int64),
        ]
    )
    edge_sizes[removed] = 0
    return WalOverlay(
        edges=np.column_stack([lo[keep], hi[keep]]),
        weights=weights[keep],
        removed=np.unique(removed),
        edge_sizes=edge_sizes,
    )
