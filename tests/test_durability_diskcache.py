"""Persistent solver cache: atomic publish, checksum gate, eviction."""

import os

import pytest

from avipack.durability import DiskSolverCache, worker_disk_cache
from avipack.durability.diskcache import _MAGIC
from avipack.errors import InputError
from avipack.publish import temp_target
from avipack.resilience import faults as faults_mod
from avipack.resilience.faults import FaultPlan, FaultSpec
from avipack.sweep import DesignSpace, SweepRunner


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults_mod.uninstall()
    yield
    faults_mod.uninstall()


def entry_files(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(".entry"))


def tmp_files(directory):
    return [name for name in os.listdir(directory) if temp_target(name)]


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = DiskSolverCache(str(tmp_path))
        calls = []
        value = cache.get_or_compute("k", lambda: calls.append(1) or 41)
        again = cache.get_or_compute("k", lambda: calls.append(1) or 99)
        assert (value, again) == (41, 41)
        assert calls == [1]
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 1, 0)

    def test_entries_survive_the_instance(self, tmp_path):
        first = DiskSolverCache(str(tmp_path))
        first.get_or_compute(("net", 3), lambda: {"t": 57.5})
        reborn = DiskSolverCache(str(tmp_path))
        hit = reborn.get_or_compute(("net", 3), lambda: {"t": -1.0})
        assert hit == {"t": 57.5}
        assert (reborn.hits, reborn.misses) == (1, 0)

    def test_structured_keys_and_values(self, tmp_path):
        cache = DiskSolverCache(str(tmp_path))
        key = ("solve", (("power", 20.0), ("cooling", "afT")), 4)
        stored = cache.get_or_compute(key, lambda: [1.0, float("inf")])
        assert cache.get_or_compute(key, lambda: None) == stored

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = DiskSolverCache(str(tmp_path))
        for i in range(8):
            cache.get_or_compute(f"k{i}", lambda: i)
        assert tmp_files(str(tmp_path)) == []
        assert len(entry_files(str(tmp_path))) == 8
        assert len(cache) == 8

    def test_stats_and_clear(self, tmp_path):
        cache = DiskSolverCache(str(tmp_path), max_entries=100)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("a", lambda: 1)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries,
                stats.corrupt, stats.max_entries) == (1, 1, 1, 0, 100)
        cache.clear()
        assert entry_files(str(tmp_path)) == []
        assert cache.stats().misses == 0

    def test_input_validation(self, tmp_path):
        with pytest.raises(InputError):
            DiskSolverCache("")
        with pytest.raises(InputError):
            DiskSolverCache(str(tmp_path), max_entries=-1)


class TestBound:
    def test_full_cache_stops_persisting_but_still_returns(self, tmp_path):
        cache = DiskSolverCache(str(tmp_path), max_entries=2)
        assert [cache.get_or_compute(f"k{i}", lambda i=i: i * 10)
                for i in range(5)] == [0, 10, 20, 30, 40]
        assert len(cache) == 2

    def test_zero_bound_never_persists(self, tmp_path):
        cache = DiskSolverCache(str(tmp_path), max_entries=0)
        assert cache.get_or_compute("k", lambda: 7) == 7
        assert entry_files(str(tmp_path)) == []


class TestCorruption:
    def _entry(self, tmp_path):
        names = entry_files(str(tmp_path))
        assert len(names) == 1
        return tmp_path / names[0]

    def test_bitflipped_payload_is_evicted_and_recomputed(self, tmp_path):
        cache = DiskSolverCache(str(tmp_path))
        cache.get_or_compute("k", lambda: 41)
        entry = self._entry(tmp_path)
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0x08
        entry.write_bytes(bytes(blob))

        assert cache.get_or_compute("k", lambda: 42) == 42
        assert cache.corrupt == 1
        # The recompute was re-persisted atomically; the damaged file
        # is gone and a later lookup hits again.
        assert cache.get_or_compute("k", lambda: -1) == 42
        assert cache.hits == 1

    def test_bad_magic_is_evicted(self, tmp_path):
        cache = DiskSolverCache(str(tmp_path))
        cache.get_or_compute("k", lambda: 41)
        entry = self._entry(tmp_path)
        entry.write_bytes(b"not-an-avipack-entry\n" + b"x" * 16)
        assert cache.get_or_compute("k", lambda: 42) == 42
        assert cache.corrupt == 1

    def test_truncated_entry_is_evicted(self, tmp_path):
        cache = DiskSolverCache(str(tmp_path))
        cache.get_or_compute("k", lambda: {"big": list(range(64))})
        entry = self._entry(tmp_path)
        entry.write_bytes(entry.read_bytes()[:len(_MAGIC) + 20])
        assert cache.get_or_compute("k", lambda: "fresh") == "fresh"
        assert cache.corrupt == 1

    def test_injected_fault_site(self, tmp_path):
        # durability.cache_disk_corrupt classifies a pristine file as
        # damaged on its first read: evict + recompute, never raise.
        cache = DiskSolverCache(str(tmp_path))
        cache.get_or_compute("k", lambda: 41)
        faults_mod.install(FaultPlan(specs=(
            FaultSpec("durability.cache_disk_corrupt", "cache_corrupt"),)))
        try:
            assert cache.get_or_compute("k", lambda: 42) == 42
            assert (cache.corrupt, cache.misses) == (1, 2)
            # persist=1: the fault fires once per (site, scope); the
            # re-persisted entry reads back clean.
            assert cache.get_or_compute("k", lambda: -1) == 42
        finally:
            faults_mod.uninstall()


class TestWorkerSingleton:
    def test_one_instance_per_directory(self, tmp_path):
        a1 = worker_disk_cache(str(tmp_path / "a"))
        a2 = worker_disk_cache(str(tmp_path / "a"))
        b = worker_disk_cache(str(tmp_path / "b"))
        assert a1 is a2
        assert a1 is not b


class TestSweepIntegration:
    SPACE = DesignSpace(axes={
        "power_per_module": (10.0, 20.0),
        "cooling": ("direct_air_flow", "air_flow_through"),
    })

    def test_second_run_hits_disk(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = SweepRunner(parallel=False, cache_dir=cache_dir) \
            .run(self.SPACE)
        warm = SweepRunner(parallel=False, cache_dir=cache_dir) \
            .run(self.SPACE)
        assert cold.cache.misses > 0
        assert warm.cache.hits > 0
        assert warm.cache.misses == 0
        assert [(o.fingerprint, o.worst_board_c) for o in warm.results] \
            == [(o.fingerprint, o.worst_board_c) for o in cold.results]
        # Disk-backed runs report an unbounded persistent cache.
        assert warm.cache.max_entries is None
