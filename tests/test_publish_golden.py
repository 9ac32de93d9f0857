"""Golden bytes: every atomically published document keeps its on-disk form.

Each builder below publishes one document through its real writer from
fixed inputs; the committed copy under ``tests/fixtures/publish/`` is
the byte-exact output, so a change to any writer's encoding (JSON
separators, indentation, key order, ASCII escaping, trailing newline)
fails here.

Regenerate the fixtures (only when a format change is intended) with::

    PYTHONPATH=src python tests/test_publish_golden.py
"""

import os
import sys
import types

import numpy as np
import pytest

from avipack.analysis.baseline import Baseline
from avipack.analysis.cache import AnalysisCache
from avipack.analysis.findings import Finding, Severity
from avipack.analysis.project import ModuleSummary
from avipack.durability.journal import QuarantinedRecord, _write_quarantine
from avipack.errors import ResultStoreError
from avipack.results.schema import ROW_DTYPE
from avipack.results.store import _write_reason_sidecar, publish_shard
from avipack.service.jobs import Job, JobStore

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "publish")

FINDINGS = (
    Finding("AVI006", Severity.ERROR, "src/pkg/io.py", 12, 4,
            "persisted document opened for direct write",
            suggestion="publish it atomically", symbol="save"),
    Finding("AVI002", Severity.WARNING, "src/pkg/mod.py", 3, 0,
            "wall-clock read in a solver path — °C drift",
            symbol="Model.solve"),
)


def job_manifest(directory):
    job = Job(job_id="j000001", client="bench-é", priority=2,
              submission={"space": {"power_per_module": [10.0, 20.0]},
                          "deadline_s": 30.5},
              fingerprint="ab" * 32,
              journal_path=os.path.join(directory, "j000001.jsonl"),
              state="succeeded", submit_order=7, total=4,
              result={"n_candidates": 4, "signature": "cd" * 16},
              finished_wall=1700000000.25, compacted=True)
    JobStore(directory).save(job)
    return os.path.join(directory, "j000001.manifest.json")


def report_json(directory):
    from avipack.__main__ import _write_report_json

    candidate = types.SimpleNamespace(label="seb/40W/air → fins")
    results = [types.SimpleNamespace(
        index=index, fingerprint=f"{index:064x}", candidate=candidate,
        cost_rank=index + 1, worst_board_c=71.5 + index / 3.0,
        thermal_headroom_c=13.5 - index) for index in range(3)]
    report = types.SimpleNamespace(
        n_candidates=3, n_compliant=2, failures=("boom",),
        mode="serial", workers=1, wall_time_s=0.125,
        top=lambda top: results[:top],
        durability=types.SimpleNamespace(
            journal_path="campaign.jsonl", n_resumed=1, n_recomputed=2,
            n_quarantined=0, n_audit_failures=0),
        result_store=types.SimpleNamespace(
            directory="campaign.results", rows_added=3, shards_sealed=1))
    path = os.path.join(directory, "report.json")
    _write_report_json(path, report, 2)
    return path


def analysis_baseline(directory):
    path = os.path.join(directory, "analysis-baseline.json")
    Baseline(FINDINGS).save(path)
    return path


def analysis_cache(directory):
    cache = AnalysisCache("rules-signature-1")
    cache.put("src/pkg/mod.py", "c" * 16, "d" * 16,
              ModuleSummary(rel_path="src/pkg/mod.py", module="pkg.mod",
                            imports=("os", "pkg.io"),
                            bindings={"io": "pkg.io"},
                            classes=("Model",)),
              FINDINGS[1:])
    cache.put("src/pkg/io.py", "e" * 16, "f" * 16, None, FINDINGS[:1])
    path = os.path.join(directory, "analysis-cache.json")
    cache.save(path)
    return path


def journal_quarantine(directory):
    path = os.path.join(directory, "campaign.jsonl.quarantine")
    _write_quarantine(path, (
        QuarantinedRecord(3, "crc32 mismatch", b'{"torn": tru'),
        QuarantinedRecord(9, "unparseable record", b"\x00\xff\n")))
    return path


def shard_reason_sidecar(directory):
    path = os.path.join(directory, "shard-000001.rows")
    _write_reason_sidecar(path, ResultStoreError(
        "shard-000001.rows: sha256 mismatch", reason="checksum"))
    return path + ".quarantine.reason"


def shard(directory):
    rows = np.zeros(2, dtype=ROW_DTYPE)
    rows["index"] = [0, 1]
    publish_shard(directory, 0, rows, b"pickled-outcome-0pickled-1")
    return os.path.join(directory, "shard-000000")


BUILDERS = {
    "j000001.manifest.json": job_manifest,
    "report.json": report_json,
    "analysis-baseline.json": analysis_baseline,
    "analysis-cache.json": analysis_cache,
    "campaign.jsonl.quarantine": journal_quarantine,
    "shard-000001.rows.quarantine.reason": shard_reason_sidecar,
    "shard-000000.rows": lambda directory: shard(directory) + ".rows",
    "shard-000000.blobs": lambda directory: shard(directory) + ".blobs",
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_published_bytes_match_golden(tmp_path, name):
    path = BUILDERS[name](str(tmp_path))
    assert os.path.basename(path) == name
    with open(os.path.join(FIXTURES, name), "rb") as stream:
        golden = stream.read()
    with open(path, "rb") as stream:
        assert stream.read() == golden
    # The publish left no temp file behind.
    assert [entry for entry in os.listdir(tmp_path)
            if ".tmp" in entry] == []


def _regenerate(target: str) -> None:
    import shutil
    import tempfile

    os.makedirs(target, exist_ok=True)
    for name, build in sorted(BUILDERS.items()):
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copyfile(build(scratch), os.path.join(target, name))
        print(f"wrote {os.path.join(target, name)}")


if __name__ == "__main__":
    _regenerate(sys.argv[1] if len(sys.argv) > 1 else FIXTURES)
