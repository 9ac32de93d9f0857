"""Result-store compaction: drop superseded rows and orphaned blobs.

A resumed or re-ingested campaign appends corrected rows for
fingerprints the store already holds; queries hide the stale ones
behind :meth:`~avipack.results.store.ResultStore.live_mask`, but their
bytes — rows *and* their pickled blobs — stay on disk forever.
:func:`compact_store` rewrites exactly the shards that contain dead
rows, copying each live row (and its blob bytes, verbatim) into fresh
shards, then deletes the originals.

Crash-safety ordering, designed so SIGKILL anywhere preserves the
ranking contract byte-for-byte:

1. new shards are published first, under numbers *after* every
   existing shard, via the store's own atomic blobs-then-rows path
   (:func:`avipack.results.store.publish_shard`);
2. only after every replacement shard is durable are the old shard
   files deleted — rows file first (the commit point: once it is gone
   the shard no longer exists to readers), then its blob pool.

A crash between 1 and 2 leaves duplicate rows for some fingerprints —
old copy in the original shard, identical new copy in a higher-numbered
shard — which is exactly the state a resumed campaign produces anyway:
``live_mask`` keeps the latest copy, and since the duplicate rows are
byte-identical (same ``index`` tie-break column, same metrics),
``ranking_signature`` is unchanged.  Re-running compaction finishes the
job.  A crash between a shard's blobs and rows publication leaves an
orphan ``.blobs`` file, and one inside a publication a shard temp
file; compaction sweeps both (but never reason-sidecar temp files,
which readers publish without the writer lock).

Quarantined files are left untouched (evidence for the operator), and a
shard whose blob pool was quarantined is *not* rewritten — its rows are
still queryable, and rewriting them would silently discard the one
remaining chance of re-pairing them with recovered blobs.

Writers are excluded for the whole pass via the store's advisory
``.writer.lock``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import perf as _perf
from ..errors import ResultStoreError
from ..publish import sweep_temps
from ..results.schema import ROW_DTYPE
from ..results.store import (
    _LOCK_NAME,
    _SHARD_PATTERN,
    _lock_writer,
    DEFAULT_SHARD_ROWS,
    ResultStore,
    next_shard_number,
    publish_shard,
)

__all__ = ["StoreCompaction", "compact_store"]


@dataclass(frozen=True)
class StoreCompaction:
    """What one result-store compaction pass rewrote and reclaimed."""

    directory: str
    #: Old shards rewritten (they contained superseded rows).
    shards_rewritten: int
    #: Replacement shards published.
    shards_published: int
    #: Superseded rows dropped.
    rows_dropped: int
    #: Orphan ``.blobs`` files (no ``.rows`` partner) swept.
    orphan_blobs_removed: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)

    @property
    def changed(self) -> bool:
        return bool(self.shards_rewritten or self.orphan_blobs_removed)


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _orphan_blobs(directory: str) -> List[str]:
    """``shard-*.blobs`` files whose ``.rows`` partner is gone."""
    orphans = []
    for entry in sorted(os.listdir(directory)):
        match = _SHARD_PATTERN.match(entry)
        if match and match.group(2) == "blobs":
            rows_name = f"shard-{match.group(1)}.rows"
            if not os.path.exists(os.path.join(directory, rows_name)):
                orphans.append(entry)
    return orphans


def compact_store(directory: str,
                  shard_rows: int = DEFAULT_SHARD_ROWS,
                  phase_hook: Optional[Callable[[str], None]] = None
                  ) -> StoreCompaction:
    """Rewrite shards holding superseded rows; sweep crash debris.

    Takes the store's writer lock for the whole pass (raises
    :class:`~avipack.errors.ResultStoreError` on contention or a
    missing directory); ``ranking_signature`` over the store is
    byte-identical before and after.  ``phase_hook`` is the chaos-test
    seam, called with ``"open"``, ``"plan"``, ``"publish"`` (once per
    replacement shard), ``"delete"`` and ``"done"`` as each phase
    begins.
    """
    hook = phase_hook or (lambda phase: None)
    if not os.path.isdir(directory):
        raise ResultStoreError(
            f"result store directory not found: {directory}")
    lock_stream = open(os.path.join(directory, _LOCK_NAME), "ab")
    _lock_writer(lock_stream, directory)
    try:
        hook("open")
        # The lock excludes every shard publisher: these are debris.
        swept = sweep_temps(directory,
                            lambda name: bool(_SHARD_PATTERN.match(name)))
        orphans = _orphan_blobs(directory)
        store = ResultStore.open(directory)
        live = store.live_mask()
        hook("plan")
        rewrite: List[Tuple[object, np.ndarray]] = []
        for shard in store.shards():
            mask = live[shard.row_base:shard.row_base + shard.n_rows]
            if shard.blobs_available and not mask.all():
                rewrite.append((shard, mask))
        bytes_before = swept + sum(
            _file_size(os.path.join(directory, name))
            for name in orphans)
        rows_dropped = 0
        survivors: List[Tuple[object, int]] = []
        for shard, mask in rewrite:
            bytes_before += _file_size(shard.path)
            bytes_before += _file_size(shard.blob_path)
            rows_dropped += int((~mask).sum())
            survivors.extend(
                (shard, local) for local in np.flatnonzero(mask))
        bytes_after = 0
        shards_published = 0
        number = next_shard_number(directory)
        for start in range(0, len(survivors), shard_rows):
            chunk = survivors[start:start + shard_rows]
            rows = np.zeros(len(chunk), dtype=ROW_DTYPE)
            blobs = bytearray()
            for position, (shard, local) in enumerate(chunk):
                record = shard.rows[local].copy()
                blob = shard.read_blob(int(record["blob_offset"]),
                                       int(record["blob_length"]))
                record["blob_offset"] = len(blobs)
                blobs += blob
                rows[position] = record
            hook("publish")
            publish_shard(directory, number, rows, blobs)
            base = os.path.join(directory, f"shard-{number:06d}")
            bytes_after += _file_size(base + ".rows")
            bytes_after += _file_size(base + ".blobs")
            shards_published += 1
            number += 1
        hook("delete")
        # Every replacement shard is durable; now retire the originals
        # — rows file first (the commit point for readers), then the
        # blob pool it indexed.
        for shard, _ in rewrite:
            os.unlink(shard.path)
            os.unlink(shard.blob_path)
        for name in orphans:
            os.unlink(os.path.join(directory, name))
        hook("done")
    finally:
        lock_stream.close()
    compaction = StoreCompaction(
        directory=directory, shards_rewritten=len(rewrite),
        shards_published=shards_published, rows_dropped=rows_dropped,
        orphan_blobs_removed=len(orphans),
        bytes_before=bytes_before, bytes_after=bytes_after)
    if compaction.changed:
        _perf.increment("retention.store_compactions")
    if compaction.bytes_reclaimed:
        _perf.increment("retention.bytes_reclaimed",
                        compaction.bytes_reclaimed)
    return compaction
