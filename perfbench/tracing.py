"""Span tracing installed from the benchmark's own files.

Nothing in ``src/`` knows about this module.  :func:`install` replaces
public functions and methods of the avipack layers with thin wrappers
that record one span per call -- name, start, end, parent span and the
op id of the thread that made the call -- plus a few counts measured at
the same boundary (cache hits, journal bytes, fsyncs per layer).

Spans are kept in memory, in per-thread typed arrays, and written when
the run ends (:meth:`Tracer.dump`).  A process forked from a traced
process (a sweep pool worker) starts an empty trace of its own at its
first traced call and dumps it when the worker exits, so spans recorded
in pool children reach the benchmark too.

A span's *self time* is its duration minus the time its direct children
cover; :func:`aggregate` computes it per span name.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Traced entry points: (span name, module, attribute path).  The span
#: name's prefix up to the last dot is the layer the call belongs to.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("fingerprint.stable", "avipack.fingerprint", "stable_fingerprint"),
    ("sweep.space.grid", "avipack.sweep.space", "DesignSpace.grid"),
    ("sweep.space.sample", "avipack.sweep.space", "DesignSpace.sample"),
    ("sweep.space.build", "avipack.sweep.space", "Candidate.build"),
    ("sweep.space.submission", "avipack.service.protocol",
     "build_candidates"),
    ("sweep.cache.get", "avipack.sweep.cache", "SolverCache.get_or_compute"),
    ("sweep.runner.run", "avipack.sweep.runner", "SweepRunner.run"),
    ("sweep.runner.resume", "avipack.sweep.runner", "SweepRunner.resume"),
    ("sweep.runner.evaluate", "avipack.sweep.runner", "evaluate_candidate"),
    ("sweep.report.render", "avipack.sweep.report", "render_sweep_document"),
    ("sweep.report.margins", "avipack.core.report", "summarize_margins"),
    ("core.levels.level1", "avipack.core.levels", "run_level1"),
    ("core.levels.level2", "avipack.core.levels", "run_level2"),
    ("core.levels.level3", "avipack.core.levels", "run_level3"),
    ("core.levels.pyramid", "avipack.core.levels", "run_pyramid"),
    ("core.design_flow.mechanical", "avipack.core.design_flow",
     "run_mechanical_branch"),
    ("core.design_flow.thermal", "avipack.core.design_flow",
     "run_thermal_branch"),
    ("core.design_flow.procedure", "avipack.core.design_flow",
     "run_design_procedure"),
    ("thermal.network.steady", "avipack.thermal.network",
     "ThermalNetwork.solve"),
    ("thermal.network.transient", "avipack.thermal.transient",
     "TransientNetworkSolver.integrate"),
    ("thermal.conduction.steady", "avipack.thermal.conduction",
     "ConductionSolver.solve_steady"),
    ("packaging.seb.build", "avipack.packaging.seb",
     "SeatElectronicsBox.build_network"),
    ("packaging.seb.solve", "avipack.packaging.seb",
     "SeatElectronicsBox.solve"),
    ("packaging.seb.capability", "avipack.packaging.seb",
     "SeatElectronicsBox.max_power_for_delta_t"),
    ("experiments.fig10", "avipack.experiments.cosee", "fig10_curves"),
    ("experiments.claims", "avipack.experiments.cosee", "measure_claims"),
    ("experiments.composite", "avipack.experiments.cosee",
     "measure_composite_claims"),
    ("experiments.ceiling", "avipack.experiments.cosee",
     "ceiling_installation_study"),
    ("experiments.altitude", "avipack.experiments.cosee",
     "altitude_derating_study"),
    ("experiments.seb_under_test", "avipack.experiments.cosee",
     "seb_under_test"),
    ("core.qualification.campaign", "avipack.core.qualification",
     "run_campaign"),
    ("durability.journal.create", "avipack.durability.journal",
     "SweepJournal.create"),
    ("durability.journal.open", "avipack.durability.journal",
     "SweepJournal.append_to"),
    ("durability.journal.plan", "avipack.durability.journal",
     "SweepJournal.record_plan"),
    ("durability.journal.dispatched", "avipack.durability.journal",
     "SweepJournal.record_dispatched"),
    ("durability.journal.outcome", "avipack.durability.journal",
     "SweepJournal.record_outcome"),
    ("durability.journal.close", "avipack.durability.journal",
     "SweepJournal.close"),
    ("durability.journal.replay", "avipack.durability.journal",
     "replay_journal"),
    ("durability.audit.outcomes", "avipack.durability.audit",
     "audit_outcomes"),
    ("results.store.open_writer", "avipack.results.store",
     "ResultStoreWriter.__init__"),
    ("results.store.add", "avipack.results.store", "ResultStoreWriter.add"),
    ("results.store.seal", "avipack.results.store",
     "ResultStoreWriter.close"),
    ("results.store.open", "avipack.results.store", "ResultStore.open"),
    ("results.store.live", "avipack.results.store",
     "ResultStore.live_fingerprints"),
    ("results.query.signature", "avipack.results.query",
     "ranking_signature"),
    ("results.query.ranked", "avipack.results.query", "ranked_row_ids"),
    ("results.query.histogram", "avipack.results.query",
     "headroom_histogram"),
    ("retention.compact_journal", "avipack.retention.checkpoint",
     "compact_journal"),
    ("retention.compact_store", "avipack.retention.storecompact",
     "compact_store"),
)

#: Service-side entry points, traced only inside the job server.
SERVER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("service.execute", "avipack.service.server",
     "SweepService._execute_job"),
)

_NO_OP = -1


class _Buffer:
    """One thread's span columns."""

    __slots__ = ("sid", "nid", "parent", "op", "start", "end")

    def __init__(self) -> None:
        self.sid = array("q")
        self.nid = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")


class Tracer:
    """Process-local span recorder (one per process)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Where forked pool workers write their traces (None: nowhere).
        self.dump_dir: Optional[str] = None
        self._start_process()
        self._child_pending = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _start_process(self) -> None:
        self.pid = os.getpid()
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self.counts: Dict[str, float] = {}
        self._perf_before = _perf_state()

    def _after_fork(self) -> None:
        # The parent's spans stay with the parent; the child's trace is
        # dumped when the child exits (registered at its first span,
        # after multiprocessing has reset its finalizer registry).
        self._start_process()
        self._child_pending = True

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def _thread(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.op = _NO_OP
            local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(local.buffer)
        return local

    def begin(self, nid: int):
        if self._child_pending:
            self._child_pending = False
            _register_child_dump(self)
        local = self._thread()
        sid = next(self._ids)
        stack = local.stack
        parent = stack[-1][0] if stack else -1
        stack.append((sid, nid))
        return sid, parent, time.perf_counter()

    def end(self, token) -> None:
        finished = time.perf_counter()
        sid, parent, started = token
        local = self._local
        _sid, nid = local.stack.pop()
        buffer = local.buffer
        buffer.sid.append(sid)
        buffer.nid.append(nid)
        buffer.parent.append(parent)
        buffer.op.append(local.op)
        buffer.start.append(started)
        buffer.end.append(finished)

    def set_op(self, op_id: int) -> None:
        self._thread().op = op_id

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def innermost(self) -> Optional[str]:
        """Span name on top of the calling thread's stack."""
        stack = getattr(self._local, "stack", None)
        return self.names[stack[-1][1]] if stack else None

    def counter_state(self):
        """Perf-registry and trace counts now (see :meth:`counter_delta`)."""
        with self._lock:
            counts = dict(self.counts)
        return _perf_state(), counts

    def counter_delta(self, before) -> Dict[str, float]:
        """Flat deltas of every counter since :meth:`counter_state`."""
        perf_before, counts_before = before
        out = _perf_delta(perf_before)
        with self._lock:
            counts = dict(self.counts)
        for name, value in counts.items():
            out[name] = value - counts_before.get(name, 0)
        return out

    def op_span(self, op_id: int) -> "_OpSpan":
        """Context manager: the root span of one benchmark op."""
        return _OpSpan(self, op_id)

    # -- output ------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        with self._lock:
            buffers = list(self._buffers)
        out = {}
        for field, dtype in (("sid", np.int64), ("nid", np.int32),
                             ("parent", np.int64), ("op", np.int64),
                             ("start", np.float64), ("end", np.float64)):
            parts = [np.frombuffer(getattr(b, field), dtype=dtype)
                     for b in buffers if len(getattr(b, field))]
            out[field] = (np.concatenate(parts) if parts
                          else np.zeros(0, dtype=dtype))
        return out

    def dump(self, path: str) -> None:
        """Write the spans, span names, counts and perf deltas."""
        cols = self.columns()
        meta = {"pid": self.pid, "names": self.names,
                "counts": self.counts,
                "perf": _perf_delta(self._perf_before)}
        tmp = path + ".tmp"
        with open(tmp, "wb") as stream:
            np.savez(stream, meta=np.array(json.dumps(meta)), **cols)
        os.replace(tmp, path)


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int) -> None:
        self.tracer = tracer
        self.op_id = op_id
        self.nid = tracer.name_id("op")

    def __enter__(self) -> None:
        self.tracer.set_op(self.op_id)
        self.token = self.tracer.begin(self.nid)

    def __exit__(self, *exc_info) -> None:
        self.tracer.end(self.token)
        self.tracer.set_op(_NO_OP)


def _perf_state():
    from avipack import perf
    return perf.snapshot(), perf.counters()


def _perf_delta(before) -> Dict[str, float]:
    """Flat ``kernel.field`` / counter deltas since ``before``."""
    from avipack import perf
    kernels, counters = before
    out: Dict[str, float] = {}
    for record in perf.delta_since(kernels):
        for field in ("solves", "factorizations", "factorization_reuses",
                      "iterations", "wall_s"):
            out[f"{record.kernel}.{field}"] = getattr(record, field)
    for name, value in perf.counters().items():
        if value != counters.get(name, 0):
            out[name] = value - counters.get(name, 0)
    return out


def _register_child_dump(tracer: Tracer) -> None:
    """Dump a pool worker's trace when the worker process exits."""
    if tracer.dump_dir is None:
        return
    from multiprocessing import util
    path = os.path.join(tracer.dump_dir, f"spans-{tracer.pid}.npz")
    util.Finalize(None, tracer.dump, args=(path,), exitpriority=10)


# -- wrappers ----------------------------------------------------------------

def _plain(tracer: Tracer, name: str, fn: Callable) -> Callable:
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = tracer.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(token)
    return traced


def _cache_get(tracer: Tracer, name: str, fn: Callable) -> Callable:
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(self, key, compute):
        missed = []

        def counted():
            missed.append(True)
            return compute()
        token = tracer.begin(nid)
        try:
            return fn(self, key, counted)
        finally:
            tracer.end(token)
            tracer.count("sweep.cache.lookups")
            if not missed:
                tracer.count("sweep.cache.hits")
    return traced


def _generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Time each step of a generator as its own span."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            token = tracer.begin(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.end(token)
            yield item
    return traced


def _with_result(counter: Callable) -> Callable:
    """Wrapper factory that also feeds a count from the return value."""
    def factory(tracer: Tracer, name: str, fn: Callable) -> Callable:
        nid = tracer.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(token)
            counter(tracer, args, result)
            return result
        return traced
    return factory


def _count_report(tracer, args, report) -> None:
    tracer.count("sweep.runner.workers", report.workers)
    tracer.count("sweep.runner.reports")
    if not report.mode.startswith("resume"):
        tracer.count("sweep.space.candidates", report.n_candidates)


def _count_audit(tracer, args, flagged) -> None:
    tracer.count("durability.audit.outcomes", len(list(args[0])))


def _server_job(tracer: Tracer, name: str, fn: Callable) -> Callable:
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(self, job):
        tracer.set_op(int(job.submit_order))
        token = tracer.begin(nid)
        try:
            return fn(self, job)
        finally:
            tracer.end(token)
            tracer.set_op(_NO_OP)
    return traced


_FACTORIES = {
    "sweep.cache.get": _cache_get,
    "sweep.space.grid": _generator,
    "sweep.runner.run": _with_result(_count_report),
    "sweep.runner.resume": _with_result(_count_report),
    "durability.audit.outcomes": _with_result(_count_audit),
    "service.execute": _server_job,
}


def _resolve(module_name: str, path: str):
    """The object owning ``path``'s last attribute, and that name."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _patch_function(original: Callable, wrapper: Callable) -> None:
    """Rebind every avipack module global that names ``original``."""
    import sys
    for name, module in list(sys.modules.items()):
        if not (name == "avipack" or name.startswith("avipack.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)


class Installation:
    """The wrappers one :func:`install` call put in place."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer, server: bool = False,
            dump_dir: Optional[str] = None) -> Installation:
    """Wrap every :data:`TARGETS` entry point (and the server's).

    ``dump_dir`` is where forked pool workers write their traces.
    """
    tracer.dump_dir = dump_dir
    import avipack  # noqa: F401  (loads every layer module)
    installation = Installation()
    targets = TARGETS + (SERVER_TARGETS if server else ())
    for name, module_name, path in targets:
        owner, attr = _resolve(module_name, path)
        factory = _FACTORIES.get(name, _plain)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(factory(tracer, name, raw.__func__))
            else:
                replacement = factory(tracer, name, raw)
            setattr(owner, attr, replacement)
            installation._undo.append(
                functools.partial(setattr, owner, attr, raw))
        else:
            original = getattr(owner, attr)
            wrapper = factory(tracer, name, original)
            _patch_function(original, wrapper)
            installation._undo.append(
                functools.partial(_patch_function, wrapper, original))
    _install_counters(tracer, installation)
    return installation


def _install_counters(tracer: Tracer, installation: Installation) -> None:
    """Count-only hooks: journal record bytes and fsyncs per layer."""
    journal = importlib.import_module("avipack.durability.journal")
    encode = journal.encode_record

    @functools.wraps(encode)
    def counted_encode(*args, **kwargs):
        data = encode(*args, **kwargs)
        tracer.count("durability.journal.records")
        tracer.count("durability.journal.bytes", len(data))
        return data
    _patch_function(encode, counted_encode)
    installation._undo.append(
        functools.partial(_patch_function, counted_encode, encode))

    fsync = os.fsync

    def counted_fsync(fd):
        layer = tracer.innermost()
        tracer.count(f"fsync:{layer.rsplit('.', 1)[0] if layer else '-'}")
        return fsync(fd)
    os.fsync = counted_fsync
    installation._undo.append(functools.partial(setattr, os, "fsync", fsync))


# -- analysis ----------------------------------------------------------------

def self_times(cols: Dict[str, np.ndarray]) -> np.ndarray:
    """Duration minus the time direct children cover, per span."""
    duration = cols["end"] - cols["start"]
    if not len(duration):
        return duration
    order = np.argsort(cols["sid"])
    sids = cols["sid"][order]
    parents = cols["parent"]
    has_parent = parents >= 0
    slot = np.searchsorted(sids, parents[has_parent])
    slot = np.clip(slot, 0, len(sids) - 1)
    known = sids[slot] == parents[has_parent]
    child_time = np.zeros(len(sids))
    np.add.at(child_time, slot[known], duration[has_parent][known])
    result = duration.copy()
    result[order] -= child_time
    return result


def aggregate(cols: Dict[str, np.ndarray], names: List[str],
              ops: Optional[np.ndarray] = None
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds (optionally only
    spans whose op id is in ``ops``)."""
    own = self_times(cols)
    duration = cols["end"] - cols["start"]
    mask = (np.ones(len(own), dtype=bool) if ops is None
            else np.isin(cols["op"], ops))
    out: Dict[str, Dict[str, float]] = {}
    nids = cols["nid"][mask]
    for nid in np.unique(nids):
        pick = nids == nid
        out[names[int(nid)]] = {
            "calls": int(pick.sum()),
            "total_s": float(duration[mask][pick].sum()),
            "self_s": float(own[mask][pick].sum()),
        }
    return out


def outermost_calls(cols: Dict[str, np.ndarray], names: List[str],
                    name: str) -> Tuple[int, float]:
    """Count and total seconds of ``name`` spans with no ``name`` parent."""
    if name not in names or not len(cols["sid"]):
        return 0, 0.0
    nid = names.index(name)
    mine = cols["nid"] == nid
    own_sids = set(cols["sid"][mine].tolist())
    outer = mine & ~np.isin(cols["parent"], list(own_sids))
    duration = cols["end"] - cols["start"]
    return int(outer.sum()), float(duration[outer].sum())


def load(path: str) -> Tuple[Dict[str, np.ndarray], dict]:
    with np.load(path) as data:
        cols = {key: data[key] for key in data.files if key != "meta"}
        meta = json.loads(str(data["meta"]))
    return cols, meta
