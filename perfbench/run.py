"""The repository benchmark: paper workloads timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_campaign --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``sweep_campaign``, ``paper_figures``, ``service_jobs`` (see
``workloads.RATIONALE`` for why each exists).  With ``--trace 0`` the
run measures the end-to-end metrics with no tracing installed; with
``--trace 1`` it runs the closed loop twice, untraced and then with the
span wrappers of ``tracing.py`` installed, and reports per-layer
metrics plus the tracing overhead.  Human-readable lines go to stdout
first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``error_ratio`` (failed / attempted ops) is printed with the other
end-to-end metrics; the JSON line carries it as ``attempted`` and
``failed`` and as ``ok_ratio`` = 1 - ``error_ratio``, which is never 0
and so can carry a regression bound.

On the in-process workloads, op timings are host-adjusted against a
fixed reference task timed in the same run, and on every workload
``setup_s`` against a reference interpreter start paired with each
cold start (``hostclock.py`` says why and how); the printout shows
each raw value next to its adjusted one.  ``service_jobs`` op timings
are raw.

Every timing rests on many samples: ``setup_s`` is a median over
several fresh-interpreter cold starts, op latencies are medians and
tail percentiles over every op of the run, and throughput divides the
items of the whole timed loop by its wall time.  Bytecode is compiled
untimed before the cold starts, and warm-up ops run untimed before the
loop.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import serving  # noqa: E402
import workloads  # noqa: E402
from hostclock import (REFERENCE_START_NOMINAL_S, HostClock,  # noqa: E402
                       reference_start_s, time_until_ready)

#: Timed cold starts before the timed loop, inside it and after it
#: (one more runs untimed first).  Spreading them over the whole run
#: lets their median ride out short-term drift of the host's speed.
#: The service loop takes none inside (a cold start there would start
#: a second server beside the measured one).
COLD_STARTS = 2
#: Warm-up ops per client before the timed loop (paper_figures warms
#: one whole rotation instead).
WARMUP_OPS = 2
WORK_ROOT = ".bench_work"
#: Least ops per timed loop, so that ``op_tail_s`` reports the same
#: percentile on every run: p90 has 10 samples beyond it from 100 ops
#: on, p75 from 42 (7 whole paper_figures rotations; 36 ops would fall
#: back to the maximum).
MIN_OPS = 100
PAPER_MIN_ROTATIONS = 7


# -- statistics ----------------------------------------------------------------

#: Percentiles ``op_tail_s`` may report, highest first.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


def tail(latencies: List[float]):
    """Latency at the highest percentile with >= 10 samples beyond it.

    The percentile comes from :data:`TAIL_PERCENTILES`, so runs whose
    op counts differ a little still report the same percentile (on
    ``paper_figures`` a rank chosen from the exact count would wander
    across the boundary between two op kinds).  Returns ``(value,
    percentile, n_beyond)``; with too few samples for p75, the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], percentile, n - rank
    return ordered[-1], 100, 0


# -- setup ---------------------------------------------------------------------

def compile_sources() -> None:
    """Compile bytecode untimed so no cold start pays for it."""
    for tree in ("src", HERE):
        compileall.compile_dir(tree, quiet=1)


def cold_start(workload: str, seed: int, workdir: str) -> Dict[str, float]:
    os.makedirs(workdir, exist_ok=True)
    ready, line = time_until_ready(
        [sys.executable, os.path.join(HERE, "coldstart.py"), workload,
         str(seed), workdir], env=serving.server_env())
    info = json.loads(line[len("ready "):])
    info["setup_s"] = ready
    return info


class ColdStarts:
    """The run's timed cold starts, spread over the run.

    A reference start (``hostclock.reference_start_s``) runs just
    before every cold start.  Time spent here while a loop is timed is
    excluded from the loop's wall and CPU time.
    """

    def __init__(self, workload: str, seed: int, work: str) -> None:
        self.workload, self.seed, self.work = workload, seed, work
        self.setups: List[Dict] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._due: List[float] = []
        cold_start(workload, seed, os.path.join(work, "cold-untimed"))

    def take(self, count: int = COLD_STARTS) -> None:
        for _ in range(count):
            cpu = time.process_time()
            started = time.perf_counter()
            reference = reference_start_s()
            info = cold_start(self.workload, self.seed, os.path.join(
                self.work, f"cold-{len(self.setups)}"))
            self.spent_s += time.perf_counter() - started
            self.spent_cpu_s += time.process_time() - cpu
            info["reference_s"] = reference
            self.setups.append(info)

    def spread_over(self, seconds: float) -> None:
        """Take :data:`COLD_STARTS` starts evenly inside a loop of
        ``seconds`` (see :meth:`maybe_take`)."""
        self._due = [seconds * (i + 1) / (COLD_STARTS + 1)
                     for i in range(COLD_STARTS)]

    def maybe_take(self, elapsed: float) -> None:
        while self._due and elapsed >= self._due[0]:
            self._due.pop(0)
            self.take(1)


# -- one measured phase --------------------------------------------------------

class Phase:
    """Everything one closed-loop phase measured."""

    def __init__(self) -> None:
        self.ops: List[Dict[str, Any]] = []   # kind, latency, items, ok
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.warmup: List[Dict[str, Any]] = []
        self.problems: List[str] = []
        self.op_deltas: List[Dict[str, float]] = []
        self.extra: Dict[str, Any] = {}

    @property
    def items(self) -> int:
        return sum(op["items"] for op in self.ops if op["ok"])

    @property
    def items_per_s(self) -> float:
        return self.items / self.wall_s if self.wall_s else 0.0

    def record(self, kind: str, latency: float, items: int,
               problems: List[str], began: float) -> None:
        self.ops.append({"kind": kind, "latency": latency,
                         "items": items, "ok": not problems,
                         "mid": began + latency / 2.0})
        self.problems.extend(problems[:3])


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _in_process_loop(phase: Phase, seconds: float, next_op: Callable,
                     clock: HostClock, colds: Optional[ColdStarts],
                     tracer=None, min_ops: int = 0, whole: int = 1) -> None:
    """Closed loop, one client, in this process.

    ``next_op(i)`` returns ``(kind, run, check, items)``; ``run()`` is
    the timed op, ``check(result)`` the untimed output check.  The loop
    stops on a multiple of ``whole`` ops once ``seconds`` have passed.
    Host reference samples and any ``colds`` cold starts taken between
    ops are excluded from the loop's wall and CPU time.
    """
    def paused():
        extra = (colds.spent_s, colds.spent_cpu_s) if colds else (0, 0)
        return clock.spent_s + extra[0], clock.spent_cpu_s + extra[1]

    spent0, spent_cpu0 = paused()
    if colds is not None:
        colds.spread_over(seconds)
    cpu0 = time.process_time()
    start = time.perf_counter()
    index = 0
    while True:
        if index % whole == 0 and index >= min_ops \
                and time.perf_counter() - start >= seconds:
            break
        kind, run, check, items = next_op(index)
        counters = tracer.counter_state() if tracer else None
        began = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.op_span(index):
                    result = run()
            else:
                result = run()
            latency = time.perf_counter() - began
            problems = check(result)
        except Exception as exc:  # an op that raises is a failed op
            latency = time.perf_counter() - began
            problems = [f"{kind}: {type(exc).__name__}: {exc}"]
        if tracer is not None:
            phase.op_deltas.append(tracer.counter_delta(counters))
        phase.record(kind, latency, items, problems, began)
        index += 1
        clock.maybe_sample()
        if colds is not None:
            colds.maybe_take(time.perf_counter() - start)
    spent, spent_cpu = paused()
    phase.wall_s = time.perf_counter() - start - (spent - spent0)
    phase.cpu_s = time.process_time() - cpu0 - (spent_cpu - spent_cpu0)
    phase.peak_rss_mb = _self_peak_rss_mb()


def _warm(phase: Phase, next_op: Callable, count: int) -> None:
    """Untimed warm-up ops (recorded only for ``warmup.extra_s``)."""
    for index in range(count):
        kind, run, check, _items = next_op(index)
        began = time.perf_counter()
        result = run()
        latency = time.perf_counter() - began
        problems = check(result)
        if problems:
            raise RuntimeError(f"warm-up op failed: {problems}")
        phase.warmup.append({"kind": kind, "latency": latency})


# -- workloads -----------------------------------------------------------------

class SweepCampaign:
    name = "sweep_campaign"
    host_adjusted = True

    def __init__(self, seed: int, work: str) -> None:
        self.spaces = workloads.sweep_inputs(seed)
        self.references = workloads.sweep_references(self.spaces)
        self.work = work
        self.count_window = len(self.spaces)

    def next_op(self, index: int):
        slot = index % len(self.spaces)
        workdir = workloads.fresh_dir(os.path.join(self.work, "op"))
        space = self.spaces[slot]
        return ("sweep", lambda: workloads.sweep_op(space, workdir),
                lambda result: self._check(result, slot), space.size)

    def _check(self, result, slot: int) -> List[str]:
        cache = result[0].cache
        self.cache_hits += cache.hits
        self.cache_lookups += cache.lookups
        return workloads.sweep_check(result, self.references[slot])

    def phase(self, seconds: float, clock: HostClock,
              colds: Optional[ColdStarts] = None, tracer=None) -> Phase:
        phase = Phase()
        self.cache_hits = self.cache_lookups = 0
        _warm(phase, self.next_op, WARMUP_OPS)
        self.cache_hits = self.cache_lookups = 0
        _in_process_loop(phase, seconds, self.next_op, clock, colds,
                         tracer, min_ops=MIN_OPS)
        phase.extra["cache_hit_ratio"] = (
            self.cache_hits / self.cache_lookups
            if self.cache_lookups else 0.0)
        return phase


class PaperFigures:
    name = "paper_figures"
    host_adjusted = True

    def __init__(self, seed: int, work: str) -> None:
        self.inputs = workloads.paper_inputs(seed)
        self.order: List[str] = []
        self.count_window = len(workloads.PAPER_KINDS)

    def next_op(self, index: int):
        while len(self.order) <= index:
            self.order.extend(workloads.paper_rotation(self.inputs))
        kind = self.order[index]
        return (kind, lambda: workloads.paper_op(kind, self.inputs),
                lambda result: workloads.paper_check(kind, result), 1)

    def phase(self, seconds: float, clock: HostClock,
              colds: Optional[ColdStarts] = None, tracer=None) -> Phase:
        phase = Phase()
        self.order = []
        _warm(phase, self.next_op, len(workloads.PAPER_KINDS))
        self.order = self.order[len(workloads.PAPER_KINDS):]
        kinds = len(workloads.PAPER_KINDS)
        _in_process_loop(phase, seconds, self.next_op, clock, colds,
                         tracer, min_ops=PAPER_MIN_ROTATIONS * kinds,
                         whole=kinds)
        return phase


class ServiceJobs:
    name = "service_jobs"
    #: Raw timings: the reference cannot run during the loop without
    #: competing with the server's pool for the two cores, and samples
    #: taken only before and after it widened the spread when tried.
    host_adjusted = False

    def __init__(self, seed: int, work: str) -> None:
        self.inputs = workloads.service_inputs(seed)
        self.references = workloads.service_references(self.inputs)
        self.work = work
        self.runs = 0

    def _client_loop(self, client_id: int, client, first: int,
                     stop: Callable[[int], bool], phase: Phase,
                     lock: threading.Lock, warm: bool) -> None:
        plan = self.inputs["plans"][client_id]
        expected = self.references[client_id]
        name = f"bench-{client_id}"
        index = 0
        while not stop(index):
            slot = (first + index) % len(plan)
            size, sample_seed = plan[slot]
            began = time.perf_counter()
            try:
                result = workloads.service_op(
                    client, name, self.inputs["axes"], size, sample_seed)
                latency = time.perf_counter() - began
                problems = workloads.service_check(result, expected[slot])
                marks = result[2]
            except Exception as exc:  # a refused or broken op
                latency = time.perf_counter() - began
                problems = [f"{type(exc).__name__}: {exc}"]
                marks = []
            with lock:
                if warm:
                    phase.warmup.append({"kind": "job",
                                         "latency": latency})
                    phase.problems.extend(problems)
                else:
                    phase.record("job", latency, size, problems, began)
                    phase.extra.setdefault("marks", []).append(marks)
            index += 1

    def _run_clients(self, clients, phase: Phase, first: int,
                     stop: Callable[[int], bool], warm: bool) -> None:
        lock = threading.Lock()
        threads = [threading.Thread(
            target=self._client_loop,
            args=(i, clients[i], first, stop, phase, lock, warm))
            for i in range(workloads.SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def phase(self, seconds: float, clock: HostClock,
              colds: Optional[ColdStarts] = None, tracer=None) -> Phase:
        """One server lifetime; any ``tracer`` starts it traced.

        ``clock`` is not sampled and ``colds`` takes no start here:
        service timings stay raw.
        """
        from avipack.service import ServiceClient

        phase = Phase()
        self.runs += 1
        workdir = workloads.fresh_dir(
            os.path.join(self.work, f"server-{self.runs}"))
        stderr_path = os.path.join(workdir, "server.stderr")
        trace_dir = None
        if tracer is not None:
            trace_dir = workloads.fresh_dir(os.path.join(workdir, "trace"))
        server = serving.start_server(workdir, stderr_path, trace_dir)
        control = None
        try:
            control = serving.wait_ready(server, workdir)
            clients = [ServiceClient(serving.socket_of(workdir))
                       for _ in range(workloads.SERVICE_CLIENTS)]
            self._run_clients(clients, phase, 0,
                              lambda index: index >= WARMUP_OPS, True)
            if phase.problems:
                raise RuntimeError(f"warm-up failed: {phase.problems}")
            cpu0 = time.process_time() + serving.proc_cpu_s(server.pid)
            start = time.perf_counter()
            deadline = start + seconds
            self._run_clients(
                clients, phase, WARMUP_OPS,
                lambda index: (time.perf_counter() >= deadline
                               and len(phase.ops) >= MIN_OPS), False)
            phase.wall_s = time.perf_counter() - start
            phase.cpu_s = (time.process_time() - cpu0
                           + serving.proc_cpu_s(server.pid))
            phase.peak_rss_mb = (_self_peak_rss_mb()
                                 + serving.proc_peak_rss_mb(server.pid))
        finally:
            if control is not None:
                serving.stop_server(server, control)
            else:
                server.kill()
                server.wait()
        phase.extra["stderr_tracebacks"] = serving.count_tracebacks(
            stderr_path)
        steps = [dict(marks) for marks in phase.extra.get("marks", [])]
        waits = [step["started"] - step["submitted"]
                 for step in steps if "started" in step]
        if waits:
            phase.extra["queue_wait_share"] = (
                statistics.median(waits)
                / statistics.median(op["latency"] for op in phase.ops))
        phase.extra["trace_dir"] = trace_dir
        return phase


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (SweepCampaign, PaperFigures, ServiceJobs)}


# -- metrics -------------------------------------------------------------------

def end_to_end(phase: Phase, setups: List[Dict],
               clock: Optional[HostClock]) -> Dict[str, Dict]:
    """The end-to-end metrics; timings host-adjusted (see hostclock).

    ``setup_s`` is the median of each cold start's ratio to the
    reference start just before it: on the 2-core VM ``hostclock``
    describes, between two sets of runs its median moved 0.3 % where the
    raw median moved 16 % and the median scaled by the run's
    reference-task factor 8 %.  With no ``clock`` every op
    timing is raw.

    Each timing also carries its ``raw`` measured value, and
    ``op_tail_s`` its percentile and sample counts, for the printout.
    """
    latencies = [op["latency"] for op in phase.ops]
    adjusted = [op["latency"] * (clock.factor_at(op["mid"]) if clock
                                 else 1.0)
                for op in phase.ops]
    value, percentile, beyond = tail(adjusted)
    attempted = len(phase.ops)
    failed = sum(1 for op in phase.ops if not op["ok"])
    # The loop's host factor: per-op factors weighted by op time.
    factor = sum(adjusted) / sum(latencies)
    raw_cpu = phase.cpu_s / max(phase.items, 1)
    raw_setup = statistics.median(s["setup_s"] for s in setups)
    setup = REFERENCE_START_NOMINAL_S * statistics.median(
        s["setup_s"] / s["reference_s"] for s in setups)
    return {
        "setup_s": {"value": setup, "unit": "s", "raw": raw_setup},
        "items_per_s": {"value": phase.items_per_s / factor, "unit": "1/s",
                        "raw": phase.items_per_s},
        "op_p50_s": {"value": statistics.median(adjusted), "unit": "s",
                     "raw": statistics.median(latencies)},
        "op_tail_s": {"value": value, "unit": "s",
                      "raw": tail(latencies)[0], "percentile": percentile,
                      "samples_beyond": beyond, "samples": attempted},
        "cpu_s_per_item": {"value": raw_cpu * factor, "unit": "s",
                           "raw": raw_cpu},
        "peak_rss_mb": {"value": phase.peak_rss_mb, "unit": "MB"},
        "ok_ratio": {"value": (attempted - failed) / attempted,
                     "unit": "1"},
        "error_ratio": {"value": failed / attempted, "unit": "1"},
    }


def print_table(workload: str, metrics: Dict[str, Dict], phase: Phase,
                title: str = "") -> None:
    print(f"== {workload}{title}: {len(phase.ops)} ops in "
          f"{phase.wall_s:.2f} s")
    for key, value in workloads.RATIONALE[workload].items():
        print(f"   {key:<9} {value}")
    for key, value in phase.extra.items():
        if isinstance(value, (int, float)):
            print(f"   measured  {key} = {value:.6g}")
    for name, metric in metrics.items():
        line = f"   {name:<42} {metric['value']:.6g} {metric['unit']}"
        if "raw" in metric:
            line += f"  (raw {metric['raw']:.6g})"
        if name == "op_tail_s":
            line += (f"  (p{metric['percentile']:g}, "
                     f"{metric['samples_beyond']} of {metric['samples']} "
                     "samples beyond)")
        print(line)
    for problem in phase.problems[:10]:
        print(f"   FAILED: {problem}")


# -- main ----------------------------------------------------------------------

def run(args) -> Dict[str, Any]:
    import tracing_report

    work = workloads.fresh_dir(os.path.join(
        WORK_ROOT, f"{args.workload}-{os.getpid()}"))
    try:
        compile_sources()
        clock = HostClock()
        colds = ColdStarts(args.workload, args.seed, work)
        colds.take()
        sys.path.insert(0, "src")
        workload = WORKLOAD_CLASSES[args.workload](args.seed, work)
        clock.sample()
        phase = workload.phase(args.seconds, clock, colds)
        clock.sample()
        colds.take()
        setups = colds.setups
        print("   cold starts [s] (reference start): " + " ".join(
            f"{s['setup_s']:.4f} ({s['reference_s']:.4f})" for s in setups))
        print(f"   host reference: {clock.reference_s * 1000:.3f} ms "
              f"median of {len(clock.samples)} samples (factor "
              f"{clock.factor:.4f})")
        adjust = clock if workload.host_adjusted else None
        metrics = end_to_end(phase, setups, adjust)
        print_table(args.workload, metrics, phase)
        phases = [phase]
        if args.trace:
            traced, layer_metrics = tracing_report.traced_phase(
                workload, args.seconds, phase, setups, clock)
            phases.append(traced)
            traced_metrics = end_to_end(traced, setups, adjust)
            print_table(args.workload, traced_metrics, traced, " (traced)")
            untraced_rate = metrics["items_per_s"]["value"]
            traced_rate = traced_metrics["items_per_s"]["value"]
            print(f"   tracing overhead: items_per_s {untraced_rate:.6g} "
                  f"untraced, {traced_rate:.6g} traced")
            layer_metrics["trace.items_per_s_traced"]["value"] = traced_rate
            layer_metrics["trace.overhead_ratio"]["value"] = (
                untraced_rate / traced_rate if traced_rate else 0.0)
            for name, metric in layer_metrics.items():
                print(f"   {name:<42} {metric['value']:.6g} "
                      f"{metric['unit']}")
            metrics = layer_metrics
        else:
            metrics.pop("error_ratio")
            metrics = {name: {"value": metric["value"],
                              "unit": metric["unit"]}
                       for name, metric in metrics.items()}
        ops = [op for measured in phases for op in measured.ops]
        failed = sum(1 for op in ops if not op["ok"])
        return {"correct": failed == 0, "attempted": len(ops),
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still used by another run
            os.rmdir(WORK_ROOT)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every started server and
    # cold-start child is stopped and reaped by the finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join("src", "avipack")):
        print("error: run from the repository root (src/avipack not "
              "found)", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
