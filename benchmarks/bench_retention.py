"""Committed retention benchmark baseline: write and regression-compare.

``BENCH_retention.json`` at the repository root pins median timings and
exact counters for the space-reclamation path — folding a
1000-candidate journal into its checkpoint, replaying the compacted
journal, rewriting a half-superseded result store, and the governor's
``directory_bytes`` usage probe.  CI re-measures and compares with a
generous timing tolerance (default 3x, shared-runner noise must never
fail a build) while the counters — records folded, rows dropped,
shards rewritten, bytes-reclaimed fractions — are compared exactly: a
compaction that folds fewer records or drops the wrong rows is a
correctness regression no matter how fast the box.

Usage::

    python benchmarks/bench_retention.py write     # refresh the baseline
    python benchmarks/bench_retention.py compare   # exit 1 on regression

Run from the repository root (or pass ``--baseline`` explicitly).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

from avipack.durability import SweepJournal, replay_journal
from avipack.publish import publish
from avipack.results import ResultStoreWriter
from avipack.retention import compact_journal, compact_store, \
    directory_bytes
from bench_results import synthetic_outcomes

BASELINE = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_retention.json"

#: Candidates in the benchmark journal: 1 plan + 2N records, plus
#: ``churn`` extra outcome generations (the resumed-campaign shape
#: retention actually targets — only the latest per fingerprint lives).
N_JOURNAL = 1000
JOURNAL_CHURN = 3
#: Rows in the benchmark store, half of them later superseded.
N_STORE = 20_000
STORE_SHARD_ROWS = 4096


def build_journal(path, n=N_JOURNAL, seed=23, churn=0):
    """An n-candidate campaign journal, optionally churned.

    ``churn`` appends that many extra full outcome generations (as a
    campaign resumed and re-recorded repeatedly does); the checkpoint
    folds them all into the one live outcome per fingerprint, which is
    where compaction earns its bytes back.
    """
    outcomes = synthetic_outcomes(n, seed=seed)
    candidates = tuple(o.candidate for o in outcomes)
    with SweepJournal.create(path, candidates) as journal:
        for index, outcome in enumerate(outcomes):
            journal.record_dispatched(index, outcome.candidate)
            journal.record_outcome(outcome)
    next_seq = 1 + 2 * n
    for _ in range(churn):
        with SweepJournal.append_to(path, next_seq=next_seq) as journal:
            for outcome in outcomes:
                journal.record_outcome(outcome)
        next_seq += n
    return outcomes


def build_half_superseded_store(directory, n=N_STORE, seed=29):
    """``n`` originals plus corrections for every second fingerprint."""
    outcomes = synthetic_outcomes(n, seed=seed)
    corrections = outcomes[::2]
    with ResultStoreWriter(directory,
                           shard_rows=STORE_SHARD_ROWS) as writer:
        writer.add_many(outcomes)
        writer.add_many(corrections)
    return len(corrections)


def _median_ms(samples):
    return round(statistics.median(samples) * 1e3, 4)


def run_benches(rounds=5):
    """Measure every pinned scenario; returns the baseline document."""
    benches = {}
    with tempfile.TemporaryDirectory(prefix="bench-retention-") as tmp:
        # -- journal fold: fresh journal per round (compaction is
        #    destructive); the fold fraction is pinned exactly.
        samples = []
        for r in range(rounds):
            path = os.path.join(tmp, f"journal-{r}.jsonl")
            build_journal(path, churn=JOURNAL_CHURN)
            t0 = time.perf_counter()
            compaction = compact_journal(path)
            samples.append(time.perf_counter() - t0)
        reclaimed_pct = round(
            100.0 * compaction.bytes_reclaimed / compaction.bytes_before)
        benches["journal_compact_1k_churned"] = {
            "median_ms": _median_ms(samples),
            "counters": {
                "n_folded": compaction.n_folded,
                "n_quarantined": compaction.n_quarantined,
                "reclaimed_pct_floor": min(reclaimed_pct, 60),
            },
        }

        # -- replay of the compacted journal (the restart path a
        #    retention-governed service actually takes).
        compacted = os.path.join(tmp, "journal-0.jsonl")
        samples = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            replay = replay_journal(compacted, write_quarantine=False)
            samples.append(time.perf_counter() - t0)
        benches["replay_compacted_journal"] = {
            "median_ms": _median_ms(samples),
            "counters": {
                "n_records": replay.n_records,
                "n_outcomes": len(replay.outcomes),
            },
        }

        # -- store rewrite: copy the pristine half-superseded store per
        #    round, compact the copy.
        pristine = os.path.join(tmp, "store-pristine")
        n_dead = build_half_superseded_store(pristine)
        samples = []
        for r in range(rounds):
            directory = os.path.join(tmp, f"store-{r}")
            shutil.copytree(pristine, directory)
            t0 = time.perf_counter()
            compaction = compact_store(directory)
            samples.append(time.perf_counter() - t0)
        benches["store_compact_20k_half_dead"] = {
            "median_ms": _median_ms(samples),
            "counters": {
                "rows_dropped": compaction.rows_dropped,
                "shards_rewritten": compaction.shards_rewritten,
                "orphan_blobs_removed": compaction.orphan_blobs_removed,
                "n_superseded": n_dead,
            },
        }

        # -- the governor's usage probe over a job-tree-sized directory.
        probe_root = os.path.join(tmp, "store-0")
        samples = []
        for _ in range(max(rounds, 9)):
            t0 = time.perf_counter()
            directory_bytes(probe_root)
            samples.append(time.perf_counter() - t0)
        benches["directory_bytes_probe"] = {
            "median_ms": _median_ms(samples),
            "counters": {"nonzero": int(directory_bytes(probe_root) > 0)},
        }

    return {
        "schema": 1,
        "unit": "median wall milliseconds over warm rounds",
        "rounds": rounds,
        "n_journal_candidates": N_JOURNAL,
        "n_store_rows": N_STORE,
        "benches": benches,
    }


def write_baseline(path, rounds):
    document = run_benches(rounds)
    publish(str(path), (json.dumps(document, indent=2, sort_keys=True)
                        + "\n").encode("utf-8"))
    print(f"wrote {path} ({len(document['benches'])} benches)")
    return 0


def compare_baseline(path, rounds, tolerance, report_path=None):
    if not path.exists():
        print(f"ERROR: baseline {path} not found; run "
              "`python benchmarks/bench_retention.py write` and commit it")
        return 2
    baseline = json.loads(path.read_text())
    current = run_benches(rounds)
    failures = []
    comparison = {"schema": 1, "tolerance": tolerance, "rounds": rounds,
                  "benches": {}}
    for name, pinned in sorted(baseline["benches"].items()):
        measured = current["benches"].get(name)
        if measured is None:
            failures.append(f"{name}: bench disappeared")
            comparison["benches"][name] = {"verdict": "MISSING",
                                           "baseline": pinned}
            continue
        limit = pinned["median_ms"] * tolerance
        verdict = "ok"
        if measured["median_ms"] > limit:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {measured['median_ms']:.3f} ms exceeds "
                f"{tolerance:g}x baseline {pinned['median_ms']:.3f} ms")
        counter_names = sorted(set(pinned["counters"])
                               | set(measured["counters"]))
        for counter in counter_names:
            expected = pinned["counters"].get(counter)
            got = measured["counters"].get(counter)
            if got != expected:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: counter {counter} drifted: baseline "
                    f"{expected} -> measured {got} "
                    "(compaction discipline broken)")
        comparison["benches"][name] = {
            "verdict": verdict,
            "baseline_ms": pinned["median_ms"],
            "measured_ms": measured["median_ms"],
            "limit_ms": round(limit, 4),
            "baseline_counters": pinned["counters"],
            "measured_counters": measured["counters"],
        }
        print(f"{name:<32} {measured['median_ms']:>9.3f} ms "
              f"(baseline {pinned['median_ms']:.3f}, "
              f"limit {limit:.3f})  {verdict}")
    comparison["failures"] = failures
    comparison["ok"] = not failures
    if report_path is not None:
        publish(str(report_path),
                (json.dumps(comparison, indent=2, sort_keys=True)
                 + "\n").encode("utf-8"))
        print(f"comparison written to {report_path}")
    if failures:
        print("\n" + "\n".join(f"FAIL: {line}" for line in failures))
        return 1
    print("\nall benches within tolerance, counters exact")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("write", "compare"))
    parser.add_argument("--baseline", type=pathlib.Path, default=BASELINE)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="allowed slow-down factor (default 3x)")
    parser.add_argument("--report", type=pathlib.Path, default=None,
                        help="write the comparison document (JSON) here "
                             "(compare mode only)")
    args = parser.parse_args(argv)
    if args.mode == "write":
        return write_baseline(args.baseline, args.rounds)
    return compare_baseline(args.baseline, args.rounds, args.tolerance,
                            args.report)


if __name__ == "__main__":
    sys.exit(main())
