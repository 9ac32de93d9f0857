"""Persistent on-disk solver-cache backend shared across resumed runs.

:class:`DiskSolverCache` speaks the same duck-typed protocol as the
in-memory :class:`avipack.sweep.cache.SolverCache` —
``get_or_compute(key, compute)`` plus ``hits`` / ``misses`` /
``corrupt`` counters — but stores each entry as one file under a cache
directory, so the sub-solves a journal-resumed campaign already paid
for survive the process that computed them.

Durability discipline matches the journal's:

* entries are published atomically by
  :func:`avipack.publish.publish` — readers (including concurrent sweep
  workers sharing the directory) see either the old entry, the new
  entry, or no entry, never a half-written one;
* every entry embeds a SHA-256 checksum of its pickled payload; a
  mismatch (or any other read failure, or an injected
  ``durability.cache_disk_corrupt`` fault) evicts the file, counts in
  ``corrupt``, and falls through to a recompute — the same
  treat-as-miss rule :class:`~avipack.sweep.cache.SolverCache` applies
  in memory, surfaced through the same
  :class:`~avipack.sweep.cache.CacheStats.corrupt` statistic.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Any, Callable, Optional

from ..errors import InputError
from ..fingerprint import content_digest, stable_fingerprint
from ..publish import publish
from ..resilience.faults import corrupts as _corrupts
from ..sweep.cache import CacheStats

__all__ = ["DiskSolverCache", "worker_disk_cache"]

#: Entry file magic; a version bump orphans (and lazily evicts) old
#: entries instead of misreading them.
_MAGIC = b"avipack-cache/1 "


class _DamagedEntry(ValueError):
    """Internal verification signal; always caught by
    :meth:`DiskSolverCache.get_or_compute` (a damaged entry is evicted
    and recomputed, never raised)."""


class DiskSolverCache:
    """Content-keyed solver cache persisted under a directory.

    Parameters
    ----------
    directory:
        Cache directory (created on demand).  Safe to share between
        concurrent workers and across resumed runs.
    max_entries:
        Optional bound on stored entry files.  When full, new results
        are still returned but not persisted (same no-eviction-churn
        policy as the in-memory cache).
    """

    def __init__(self, directory: str,
                 max_entries: Optional[int] = None) -> None:
        if not directory:
            raise InputError("cache directory must be non-empty")
        if max_entries is not None and max_entries < 0:
            raise InputError("max_entries must be >= 0")
        self.directory = directory
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._corrupt = 0
        os.makedirs(directory, exist_ok=True)

    # -- counters ------------------------------------------------------------

    @property
    def hits(self) -> int:
        """Lookups served from disk so far."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that had to compute so far."""
        return self._misses

    @property
    def corrupt(self) -> int:
        """Entries found unreadable (evicted and recomputed) so far."""
        return self._corrupt

    def __len__(self) -> int:
        return len(self._entry_names())

    def __contains__(self, key: Any) -> bool:
        return os.path.exists(self._entry_path(key))

    def _entry_names(self) -> list:
        try:
            return [name for name in os.listdir(self.directory)
                    if name.endswith(".entry")]
        except OSError:
            return []

    def _entry_path(self, key: Any) -> str:
        digest = key if isinstance(key, str) else stable_fingerprint(key)
        return os.path.join(self.directory,
                            f"{stable_fingerprint(digest)}.entry")

    # -- entry IO ------------------------------------------------------------

    def _read(self, path: str) -> Any:
        """Load one entry file, raising on any damage."""
        with open(path, "rb") as stream:
            blob = stream.read()
        if _corrupts("durability.cache_disk_corrupt",
                     ("diskcache", os.path.basename(path))):
            raise _DamagedEntry("injected disk-cache corruption")
        if not blob.startswith(_MAGIC):
            raise _DamagedEntry("bad cache entry magic")
        header, _, payload = blob[len(_MAGIC):].partition(b"\n")
        if header.decode("ascii", "replace") != content_digest(payload):
            raise _DamagedEntry("cache entry checksum mismatch")
        return pickle.loads(payload)

    def _write(self, path: str, value: Any) -> None:
        """Atomically publish one entry (:func:`avipack.publish.publish`)."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + content_digest(payload).encode("ascii") \
            + b"\n" + payload
        try:
            publish(path, blob)
        except OSError:
            # A failed store is a lost optimisation, not a lost result:
            # the computed value was already returned to the caller.
            pass

    # -- protocol ------------------------------------------------------------

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Return the stored value for ``key``, computing it on a miss.

        A stored entry that cannot be read back is deleted, counted in
        :attr:`corrupt`, and recomputed — a campaign never aborts on a
        damaged cache file.
        """
        path = self._entry_path(key)
        if os.path.exists(path):
            try:
                value = self._read(path)
            except Exception:
                with self._lock:
                    self._corrupt += 1
                    self._misses += 1
                try:
                    os.unlink(path)
                except OSError:
                    pass
            else:
                with self._lock:
                    self._hits += 1
                return value
        else:
            with self._lock:
                self._misses += 1
        value = compute()
        if self.max_entries is None or len(self) < self.max_entries:
            self._write(path, value)
        return value

    def stats(self) -> CacheStats:
        """Snapshot of the counters (entries = files on disk)."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              entries=len(self), corrupt=self._corrupt,
                              max_entries=self.max_entries)

    def clear(self) -> None:
        """Delete every entry file and reset the counters."""
        with self._lock:
            for name in self._entry_names():
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass
            self._hits = 0
            self._misses = 0
            self._corrupt = 0


_WORKER_DISK_CACHES: dict = {}


def worker_disk_cache(directory: str) -> DiskSolverCache:
    """The process's :class:`DiskSolverCache` for ``directory``.

    One instance per directory per process (the on-disk analogue of
    :func:`avipack.sweep.cache.worker_cache`), so the hit/miss/corrupt
    counters a sweep worker reports are deltas on a stable object.
    """
    cache = _WORKER_DISK_CACHES.get(directory)
    if cache is None:
        cache = _WORKER_DISK_CACHES[directory] = DiskSolverCache(directory)
    return cache
