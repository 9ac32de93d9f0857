"""Per-layer metrics from a traced phase.

Times are per-op means over every traced op.  Counts are per-op means
over the *count window* -- the first ops of the traced loop, one pass
over the seeded inputs -- so that with the same seed they repeat
exactly between runs however many ops the time budget allowed.

For ``service_jobs`` the layers run in the job server and its pool
workers: each of those processes writes its own trace, and every value
is a per-job mean over all jobs the server ran (warm-up included).

The per-layer metric names and units are the ``per_layer`` list of
``BENCHMARK.json``; a value computed here under any other name is an
error.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from typing import Dict, List, Tuple

import numpy as np

import tracing

JOURNAL_APPEND = ("durability.journal.create", "durability.journal.open",
                  "durability.journal.plan",
                  "durability.journal.dispatched",
                  "durability.journal.outcome", "durability.journal.close")

#: Per-layer time metric -> span-name prefixes whose self time it sums
#: (seconds per op).
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "sweep.space.build_s": ("sweep.space.",),
    "sweep.cache.self_s": ("sweep.cache.",),
    "core.levels.level1_s": ("core.levels.level1",),
    "core.levels.level2_s": ("core.levels.level2",),
    "core.levels.level3_s": ("core.levels.level3",),
    "core.design_flow.mechanical_s": ("core.design_flow.mechanical",),
    "core.design_flow.thermal_s": ("core.design_flow.thermal",),
    "durability.journal.append_s": JOURNAL_APPEND,
    "durability.journal.replay_s": ("durability.journal.replay",),
    "durability.audit.s": ("durability.audit.",),
    "results.store.add_s": ("results.store.add",),
    "results.store.seal_s": ("results.store.seal",),
    "results.query_s": ("results.query.",),
    "retention.compact_journal_s": ("retention.compact_journal",),
    "retention.compact_store_s": ("retention.compact_store",),
}

#: Spans whose self time feeds a per-layer metric measured another way
#: at the same boundary: ``fingerprint.s`` (outermost calls) and the
#: thermal kernels' ``thermal.*.wall_s`` (perf registry).
OTHER_LAYER_SPANS = ("fingerprint.stable", "thermal.")

#: Every span-name prefix whose self time reaches a per-layer metric.
#: The self time of all other spans -- the op's root and the spans that
#: only wrap layers (runner, report, pyramid, design procedure, SEB
#: model, paper generators) -- is reported as unattributed.
ATTRIBUTED_SPANS = tuple(prefix for prefixes in SELF_TIME_METRICS.values()
                         for prefix in prefixes) + OTHER_LAYER_SPANS

#: Perf-registry deltas reported per op (``thermal.`` + kernel field).
THERMAL_COUNTS = (
    "network.steady.solves", "network.steady.factorizations",
    "network.steady.factorization_reuses",
    "network.transient.factorizations", "conduction.steady.solves",
)
THERMAL_TIMES = ("network.steady.wall_s", "network.transient.wall_s",
                 "conduction.steady.wall_s")

PAPER_KIND_METRICS = {"fig10": "paper.fig10_s",
                      "claims": "paper.claims_s",
                      "composite": "paper.claims_s",
                      "ceiling": "paper.ceiling_s",
                      "altitude": "paper.altitude_s",
                      "qualification": "paper.qualification_s"}

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")


def per_layer_units() -> Dict[str, str]:
    """Per-layer metric name -> unit, in ``BENCHMARK.json`` order."""
    with open(BENCHMARK_JSON) as stream:
        declared = json.load(stream)["per_layer"]
    return {metric["name"]: metric["unit"] for metric in declared}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _warmup_extra(phase) -> float:
    """Warm-up op latency above a steady op of the same kind."""
    by_kind: Dict[str, List[float]] = {}
    for op in phase.ops:
        by_kind.setdefault(op["kind"], []).append(op["latency"])
    extra = [warm["latency"] - statistics.median(by_kind[warm["kind"]])
             for warm in phase.warmup if warm["kind"] in by_kind]
    return _mean(extra)


def _span_metrics(spans: Dict[str, Dict[str, float]], n_ops: int,
                  values: Dict[str, float]) -> None:
    def total(prefixes, field="self_s"):
        return sum(stats[field] for name, stats in spans.items()
                   if name.startswith(prefixes))

    for metric, prefixes in SELF_TIME_METRICS.items():
        values[metric] = total(prefixes) / n_ops
    busy = total("sweep.runner.evaluate", "total_s")
    runner = total(("sweep.runner.run", "sweep.runner.resume"), "total_s")
    values["sweep.runner.busy_s"] = busy / n_ops
    workers = values.get("sweep.runner.workers") or 1.0
    values["sweep.runner.ipc_overhead_s"] = (runner - busy / workers) / n_ops


def _count_metrics(deltas: List[Dict[str, float]],
                   values: Dict[str, float]) -> None:
    """Per-op means of counter deltas (perf registry + trace counts)."""
    def mean_of(key):
        return _mean([d.get(key, 0) for d in deltas])

    for key in THERMAL_COUNTS:
        values["thermal." + key] = mean_of(key)
    values["sweep.cache.lookups"] = mean_of("sweep.cache.lookups")
    lookups = sum(d.get("sweep.cache.lookups", 0) for d in deltas)
    hits = sum(d.get("sweep.cache.hits", 0) for d in deltas)
    values["sweep.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    values["sweep.space.candidates"] = mean_of("sweep.space.candidates")
    values["durability.journal.records"] = mean_of(
        "durability.journal.records")
    values["durability.journal.bytes"] = mean_of("durability.journal.bytes")
    values["durability.journal.fsyncs"] = mean_of("fsync:durability.journal")
    values["durability.audit.outcomes"] = mean_of(
        "durability.audit.outcomes")
    values["results.store.rows"] = mean_of("results.rows_ingested")
    values["results.store.shards"] = mean_of("results.shards_written")
    values["retention.bytes_reclaimed"] = mean_of(
        "retention.bytes_reclaimed")
    reports = sum(d.get("sweep.runner.reports", 0) for d in deltas)
    values["sweep.runner.workers"] = (
        sum(d.get("sweep.runner.workers", 0) for d in deltas) / reports
        if reports else 0.0)


def _in_process(workload, seconds: float, clock):
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        phase = workload.phase(seconds, clock, tracer=tracer)
    finally:
        installation.uninstall()
    cols = tracer.columns()
    names = tracer.names
    n_ops = len(phase.ops)
    values: Dict[str, float] = {}
    window = phase.op_deltas[:workload.count_window]
    _count_metrics(window, values)
    for key in THERMAL_TIMES:
        values["thermal." + key] = _mean(
            [d.get(key, 0.0) for d in phase.op_deltas])
    spans = tracing.aggregate(cols, names, ops=np.arange(n_ops))
    _span_metrics(spans, n_ops, values)
    window_ops = np.arange(workload.count_window)
    window_calls, _ = tracing.outermost_calls(
        _subset(cols, window_ops), names, "fingerprint.stable")
    values["fingerprint.calls"] = (window_calls / workload.count_window
                                   if workload.count_window else 0.0)
    _calls, fp_seconds = tracing.outermost_calls(
        _subset(cols, np.arange(n_ops)), names, "fingerprint.stable")
    values["fingerprint.s"] = fp_seconds / n_ops
    _attribution(spans, "op", n_ops, values)
    by_kind: Dict[str, List[float]] = {}
    for op in phase.ops:
        metric = PAPER_KIND_METRICS.get(op["kind"])
        if metric:
            by_kind.setdefault(metric, []).append(op["latency"])
    for metric, latencies in by_kind.items():
        values[metric] = statistics.median(latencies)
    return phase, values, spans, n_ops


def _attribution(spans, root: str, n_ops: int,
                 values: Dict[str, float]) -> None:
    """Share of op wall time that reaches a named per-layer metric.

    ``spans`` are the spans recorded inside ops by the process running
    them, and ``root`` the span covering one op: the benchmark's own op
    span in-process, the server's job execution for the service.  The
    attributed time is the self time of :data:`ATTRIBUTED_SPANS`; the
    rest of the root's wall time is unattributed.  For the service the
    pool workers' layers run in other processes, so the time the server
    spends waiting on the pool is unattributed there.
    """
    wall = spans.get(root, {}).get("total_s", 0.0)
    attributed = sum(stats["self_s"] for name, stats in spans.items()
                     if name.startswith(ATTRIBUTED_SPANS))
    values["trace.unattributed_s"] = (wall - attributed) / n_ops
    values["trace.attributed_share"] = attributed / wall if wall else 0.0
    journal = sum(stats["self_s"] for name, stats in spans.items()
                  if name.startswith("durability.journal."))
    values["durability.journal.share"] = journal / wall if wall else 0.0


def _subset(cols, ops):
    mask = np.isin(cols["op"], ops)
    return {key: column[mask] for key, column in cols.items()}


def _service(workload, seconds: float, clock):
    phase = workload.phase(seconds, clock, tracer=tracing)
    values: Dict[str, float] = {}
    spans: Dict[str, Dict[str, float]] = {}
    server_spans: Dict[str, Dict[str, float]] = {}
    deltas: Dict[str, float] = {}
    fp_calls = 0
    fp_seconds = 0.0
    for path in sorted(glob.glob(os.path.join(phase.extra["trace_dir"],
                                              "spans-*.npz"))):
        cols, meta = tracing.load(path)
        names = meta["names"]
        if "service.execute" in names and (  # the server, not a worker
                cols["nid"] == names.index("service.execute")).any():
            jobs = np.unique(cols["op"][cols["op"] >= 0])
            server_spans = tracing.aggregate(cols, meta["names"], ops=jobs)
        for name, stats in tracing.aggregate(cols, meta["names"]).items():
            merged = spans.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                merged[key] += value
        for key, value in list(meta["perf"].items()) + list(
                meta["counts"].items()):
            deltas[key] = deltas.get(key, 0) + value
        calls, seconds_ = tracing.outermost_calls(cols, meta["names"],
                                                  "fingerprint.stable")
        fp_calls += calls
        fp_seconds += seconds_
    n_ops = max(len(phase.ops) + len(phase.warmup), 1)
    per_op = {key: value / n_ops for key, value in deltas.items()}
    _count_metrics([per_op], values)
    for key in THERMAL_TIMES:
        values["thermal." + key] = per_op.get(key, 0.0)
    _span_metrics(spans, n_ops, values)
    values["fingerprint.calls"] = fp_calls / n_ops
    values["fingerprint.s"] = fp_seconds / n_ops
    _attribution(server_spans, "service.execute", n_ops, values)
    marks = phase.extra.get("marks", [])
    values.update(_service_marks(marks))
    values["service.stderr_tracebacks"] = phase.extra["stderr_tracebacks"]
    return phase, values, spans, n_ops


def _service_marks(all_marks) -> Dict[str, float]:
    """Client-observed step times, medians over jobs."""
    steps: Dict[str, List[float]] = {}
    for marks in all_marks:
        if not marks:
            continue
        at = {}
        progress_last = None
        for label, when in marks:
            at.setdefault(label, when)
            if label == "progress":
                progress_last = when
        terminal = marks[-2][1]
        started = at.get("started", at["submitted"])
        steps.setdefault("service.submit_s", []).append(
            at["submitted"] - at["begin"])
        steps.setdefault("service.queue_wait_s", []).append(
            started - at["submitted"])
        steps.setdefault("service.run_s", []).append(terminal - started)
        steps.setdefault("service.finalize_s", []).append(
            terminal - (progress_last or started))
        steps.setdefault("service.results_s", []).append(
            at["results"] - terminal)
        steps.setdefault("service.events", []).append(len(marks) - 3)
    return {name: statistics.median(values)
            for name, values in steps.items()}


def traced_phase(workload, seconds: float, untraced, setups, clock):
    """Run the traced phase; returns it and the per-layer metrics.

    The ``trace.items_per_s_traced`` and ``trace.overhead_ratio``
    figures are left at 0 for the caller, which holds both phases'
    (host-adjusted) throughput.

    Per-layer times are raw (as measured); the host speed the run saw
    is printed beside them.
    """
    if workload.name == "service_jobs":
        phase, values, spans, n_ops = _service(workload, seconds, clock)
    else:
        phase, values, spans, n_ops = _in_process(workload, seconds,
                                                  clock)
    values["import.s"] = statistics.median(s["import_s"] for s in setups)
    values["import.modules"] = statistics.median(
        s["modules"] for s in setups)
    values["warmup.extra_s"] = _warmup_extra(untraced)
    print(f"   host reference {clock.reference_s:.6g} s "
          f"(factor {clock.factor:.6g})")
    print("   spans (per op): name, calls, total s, self s, attributed")
    for name in sorted(spans):
        stats = spans[name]
        print(f"     {name:<36} {stats['calls'] / n_ops:10.2f} "
              f"{stats['total_s'] / n_ops:10.5f} "
              f"{stats['self_s'] / n_ops:10.5f} "
              f"{'yes' if name.startswith(ATTRIBUTED_SPANS) else 'no'}")
    units = per_layer_units()
    undeclared = set(values) - set(units)
    if undeclared:
        raise RuntimeError("per-layer values missing from BENCHMARK.json: "
                           + ", ".join(sorted(undeclared)))
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    return phase, metrics
