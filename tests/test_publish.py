"""The one atomic-publish primitive and every writer routed through it.

:func:`avipack.publish.publish` is the package's only tmp + fsync +
``os.replace`` sequence, so its contract is tested once here — phase
order, abort at every phase, temp placement, one fsync — and then the
failure contract is checked at every real call site: an ``OSError``
from ``fsync`` (a full disk, say) must leave the destination with its
old bytes (or absent) and no temp file behind.
"""

import errno
import os
import types

import numpy as np
import pytest

from avipack.__main__ import _write_report_json
from avipack.analysis.baseline import Baseline
from avipack.analysis.cache import AnalysisCache
from avipack.analysis.findings import Finding, Severity
from avipack.durability import DiskSolverCache, SweepJournal
from avipack.durability.journal import QuarantinedRecord, _write_quarantine
from avipack.errors import ResultStoreError
from avipack.publish import TEMP_MARKER, publish, sweep_temps, temp_target
from avipack.results.schema import ROW_DTYPE
from avipack.results.store import _write_reason_sidecar, publish_shard
from avipack.retention import compact_journal
from avipack.service.jobs import JobStore
from avipack.sweep import Candidate

PHASES = ("write", "fsync", "replace")


def temp_files(directory):
    return [name for name in os.listdir(directory) if temp_target(name)]


def read_or_none(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as stream:
        return stream.read()


class Abort(Exception):
    pass


class TestPublish:
    def test_phase_order(self, tmp_path):
        path = str(tmp_path / "doc.json")
        phases = []
        publish(path, b"new", phase_hook=phases.append)
        assert phases == list(PHASES)
        assert read_or_none(path) == b"new"
        assert os.listdir(tmp_path) == ["doc.json"]

    @pytest.mark.parametrize("target", PHASES)
    def test_abort_at_each_phase_keeps_old_bytes(self, tmp_path, target):
        path = str(tmp_path / "doc.json")
        publish(path, b"old")

        def hook(phase):
            if phase == target:
                raise Abort(phase)

        with pytest.raises(Abort):
            publish(path, b"new", phase_hook=hook)
        assert read_or_none(path) == b"old"
        assert temp_files(tmp_path) == []

    def test_temp_file_lives_in_the_destination_directory(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.mkdir("sub")
        seen = {}

        def hook(phase):
            if phase == "fsync":
                seen["cwd"] = temp_files(".")
                seen["sub"] = temp_files("sub")

        publish(os.path.join("sub", "doc.json"), b"x", phase_hook=hook)
        assert seen["cwd"] == []
        assert len(seen["sub"]) == 1
        assert temp_target(seen["sub"][0]) == "doc.json"

    def test_exactly_one_fsync(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: calls.append(fd) or real_fsync(fd))
        publish(str(tmp_path / "doc.json"), b"x")
        assert len(calls) == 1


class TestTempFiles:
    @pytest.mark.parametrize("name, target", [
        ("shard-000001.rows" + TEMP_MARKER + "k3x9_q2a",
         "shard-000001.rows"),
        ("j000001.manifest.json.tmp.12345", "j000001.manifest.json"),
        ("shard-000001.rows.quarantine.reason.tmp.ab_cd",
         "shard-000001.rows.quarantine.reason"),
        ("shard-000001.rows", None),
        (".tmp.abc", None),
        ("doc.json.tmp.", None),
    ])
    def test_temp_target(self, name, target):
        assert temp_target(name) == target

    def test_sweep_removes_only_owned_temps(self, tmp_path):
        owned = tmp_path / ("a.json" + TEMP_MARKER + "x1")
        owned.write_bytes(b"12345")
        other = tmp_path / ("b.json" + TEMP_MARKER + "x2")
        other.write_bytes(b"1")
        (tmp_path / "a.json").write_bytes(b"live")
        reclaimed = sweep_temps(str(tmp_path),
                                lambda target: target == "a.json")
        assert reclaimed == 5
        assert sorted(os.listdir(tmp_path)) == ["a.json", other.name]


# -- every publishing site under a failing fsync -----------------------------

def _report(version):
    return types.SimpleNamespace(
        n_candidates=version, n_compliant=0, failures=(), mode="serial",
        workers=1, wall_time_s=float(version), top=lambda top: [],
        durability=None, result_store=None)


def _analysis_cache(directory, version):
    path = os.path.join(directory, "analysis-cache.json")
    return path, lambda: AnalysisCache(f"rules-{version}").save(path)


def _baseline(directory, version):
    path = os.path.join(directory, "analysis-baseline.json")
    findings = [Finding("AVI006", Severity.ERROR, "m.py", line, 0, "msg")
                for line in range(version)]
    return path, lambda: Baseline(findings).save(path)


def _journal_quarantine(directory, version):
    path = os.path.join(directory, "sweep.jsonl.quarantine")
    records = tuple(QuarantinedRecord(line, "crc32 mismatch", b"x")
                    for line in range(version + 1))
    return path, lambda: _write_quarantine(path, records)


def _disk_cache(directory, version):
    cache = DiskSolverCache(directory)
    key = f"key-{version}"
    return cache._entry_path(key), \
        lambda: cache.get_or_compute(key, lambda: version)


def _compact_journal(directory, version):
    path = os.path.join(directory, "sweep.jsonl")
    if version == 0:
        def create():
            candidates = (Candidate(power_per_module=10.0),)
            with SweepJournal.create(path, candidates) as journal:
                journal.record_dispatched(0, candidates[0])
        return path, create
    return path, lambda: compact_journal(path)


def _report_json(directory, version):
    path = os.path.join(directory, "report.json")
    return path, lambda: _write_report_json(path, _report(version), 5)


def _job_manifest(directory, version):
    store = JobStore(directory)
    return os.path.join(directory, "j000001.manifest.json"), \
        lambda: store.save_manifest("j000001", {"state": version})


def _shard(directory, version):
    rows = np.zeros(1, dtype=ROW_DTYPE)
    return os.path.join(directory, f"shard-{version:06d}.rows"), \
        lambda: publish_shard(directory, version, rows, b"blob")


def _reason_sidecar(directory, version):
    shard = os.path.join(directory, "shard-000000.rows")
    error = ResultStoreError(f"damage {version}", reason="checksum")
    return shard + ".quarantine.reason", \
        lambda: _write_reason_sidecar(shard, error)


SITES = {
    "AnalysisCache.save": _analysis_cache,
    "Baseline.save": _baseline,
    "_write_quarantine": _journal_quarantine,
    "DiskSolverCache._write": _disk_cache,
    "compact_journal": _compact_journal,
    "_write_report_json": _report_json,
    "JobStore.save_manifest": _job_manifest,
    "publish_shard": _shard,
    "_write_reason_sidecar": _reason_sidecar,
}

#: Sites whose failed publish is swallowed by design (a lost cache
#: write is a lost optimisation, not a lost result).
SWALLOWED = {"DiskSolverCache._write"}


@pytest.mark.parametrize("site", sorted(SITES))
def test_failed_fsync_keeps_old_bytes_and_leaves_no_temp(
        tmp_path, monkeypatch, site):
    directory = str(tmp_path)
    _, write_old = SITES[site](directory, 0)
    write_old()
    path, write_new = SITES[site](directory, 1)
    before = read_or_none(path)

    def enospc(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", enospc)
    if site in SWALLOWED:
        write_new()
    else:
        with pytest.raises(OSError) as raised:
            write_new()
        assert raised.value.errno == errno.ENOSPC
    monkeypatch.undo()
    assert read_or_none(path) == before
    assert temp_files(directory) == []
