"""The benchmark's three workloads: inputs, ops, output checks, rationale.

Every workload is a closed loop: a client sends its next op only when
the previous one has returned.  Inputs are generated from the seed the
benchmark receives (``--seed``); the program only ever sees the
generated inputs.  Reference answers are computed outside the timed
loop and every op's output is checked against them, so a wrong answer
counts as a failed op.

``RATIONALE`` records, per workload, the loop type, client count, what
an *item* is, how the seed is used, which layers it loads and which it
bypasses, and the measured input property that decides which changes
it can show (``run.py`` prints the measured value on every run).
"""

from __future__ import annotations

import os
import random
import shutil
from typing import Any, Dict, List, Sequence, Tuple

RATIONALE: Dict[str, Dict[str, str]] = {
    "sweep_campaign": {
        "loop": "closed, 1 client, in-process, serial SweepRunner",
        "item": "one design candidate (72 per op)",
        "seed": "draws a pool of 12 distinct standard_tradeoff spaces "
                "(3 powers x 2 ATR widths each); ops cycle the pool",
        "op": "SweepRunner.run with journal + result store, "
              "render_sweep_document, resume (0 recomputed), "
              "compact_journal + compact_store, ranking_signature",
        "why": "the ROADMAP's headline sweep: heavy on cache keys, cache "
               "lookups and level physics at high sharing, and on the "
               "journal and store for both writes and reads; no worker "
               "IPC, no service queue",
        "property": "cache hit ratio (476/504 lookups per op hit); "
                    "journal share of op time (traced run); "
                    "pool width 1",
    },
    "paper_figures": {
        "loop": "closed, 1 client, in-process",
        "item": "one figure, claim set, study or campaign (one per op)",
        "seed": "shuffles the order of op kinds inside each rotation; "
                "the loop only ends on whole rotations, so every kind "
                "has the same sample count",
        "op": "one of fig10_curves, measure_claims, "
              "measure_composite_claims, ceiling_installation_study, "
              "altitude_derating_study, run_campaign(seb_under_test(40 "
              "W), cosee_campaign())",
        "why": "dominated by nonlinear steady network solves with no "
               "factorization reuse and by the qualification transient; "
               "touches no fingerprint, cache, journal, store or "
               "service, so sweep-side changes must show no change here",
        "property": "factorization reuse ratio 0 "
                    "(thermal.network.steady counters, traced run); "
                    "cache lookups 0",
    },
    "service_jobs": {
        "loop": "closed, 2 client threads (= nproc), one "
                "`python -m avipack serve` subprocess at its defaults",
        "item": "one design candidate (8, 24 or 48 per job)",
        "seed": "per client, the job sizes and the sample seeds of "
                "jobs drawn from a 576-candidate space (12 powers x 4 "
                "ATR widths x 6 coolings x 2 TIMs)",
        "op": "submit, stream events to the terminal one, results(k)",
        "why": "the only workload with worker IPC and a real queue: two "
               "clients share one running slot; sampling from a wide "
               "space lowers cache sharing, so cache changes are also "
               "seen on low-sharing input",
        "property": "queue wait share of op latency; pool width "
                    "(sweep.runner.workers, as the server's runs report "
                    "it) and cache hit ratio ~0.5 (traced run: each "
                    "pool worker has its own cache)",
    },
}

WORKLOADS = tuple(RATIONALE)

# -- sweep_campaign ------------------------------------------------------------

SWEEP_POWERS = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
SWEEP_FORMS = ("1/4_atr", "3/8_atr", "1/2_atr", "3/4_atr", "1_atr")
SWEEP_POOL = 12


def sweep_inputs(seed: int) -> List[Any]:
    """A pool of distinct standard_tradeoff-shaped spaces."""
    from avipack.sweep import DesignSpace

    rng = random.Random(f"sweep_campaign:{seed}")
    drawn: List[Tuple[Tuple[float, ...], Tuple[str, ...]]] = []
    while len(drawn) < SWEEP_POOL:
        key = (tuple(sorted(rng.sample(SWEEP_POWERS, 3))),
               tuple(rng.sample(SWEEP_FORMS, 2)))
        if key not in drawn:
            drawn.append(key)
    return [DesignSpace.standard_tradeoff(powers, forms)
            for powers, forms in drawn]


def _signature(report) -> List[Tuple[str, float, float]]:
    return [(r.fingerprint, r.cost_rank, r.worst_board_c)
            for r in report.ranked()]


def sweep_references(spaces) -> List[List[Tuple[str, float, float]]]:
    """In-memory ranking of each distinct space (no journal, no store)."""
    from avipack.sweep import SweepRunner

    return [_signature(SweepRunner(parallel=False).run(space))
            for space in spaces]


def sweep_op(space, workdir: str):
    """The CLI's durable trade study on one space, end to end."""
    from avipack import retention, sweep
    from avipack.results import ResultStore, query

    journal = os.path.join(workdir, "sweep.jsonl")
    store = os.path.join(workdir, "results")
    runner = sweep.SweepRunner(parallel=False, result_store=store)
    report = runner.run(space, journal_path=journal)
    document = sweep.render_sweep_document(report)
    resumed = runner.resume(journal)
    retention.compact_journal(journal)
    retention.compact_store(store)
    signature = query.ranking_signature(ResultStore.open(store))
    return report, document, resumed, signature


def sweep_check(result, reference) -> List[str]:
    report, document, resumed, signature = result
    problems = []
    if report.failures:
        problems.append(f"{len(report.failures)} candidate(s) failed")
    if not document:
        problems.append("empty sweep document")
    if signature != _signature(report):
        problems.append("store ranking differs from the report ranking")
    if signature != reference:
        problems.append("ranking differs from the reference")
    durability = resumed.durability
    if durability.n_recomputed or durability.n_quarantined:
        problems.append(f"resume recomputed {durability.n_recomputed}, "
                        f"quarantined {durability.n_quarantined}")
    return problems


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- paper_figures -------------------------------------------------------------

PAPER_KINDS = ("fig10", "claims", "composite", "ceiling", "altitude",
               "qualification")


def paper_inputs(seed: int) -> Dict[str, Any]:
    """The qualification inputs and a seeded kind-order generator."""
    from avipack.environments.profiles import cosee_campaign
    from avipack.experiments import cosee

    return {"rng": random.Random(f"paper_figures:{seed}"),
            "equipment": cosee.seb_under_test(power=40.0),
            "campaign": cosee_campaign()}


def paper_rotation(inputs) -> List[str]:
    kinds = list(PAPER_KINDS)
    inputs["rng"].shuffle(kinds)
    return kinds


def paper_op(kind: str, inputs):
    """One paper generator call (looked up at call time, so tracing
    wrappers installed later are used)."""
    from avipack.core import qualification
    from avipack.experiments import cosee

    if kind == "fig10":
        return cosee.fig10_curves()
    if kind == "claims":
        return cosee.measure_claims()
    if kind == "composite":
        return cosee.measure_composite_claims()
    if kind == "ceiling":
        return cosee.ceiling_installation_study()
    if kind == "altitude":
        return cosee.altitude_derating_study(40.0)
    return qualification.run_campaign(inputs["equipment"],
                                      inputs["campaign"])


def _near(value: float, target: float, rel: float = None,
          abs_: float = None) -> bool:
    tolerance = abs_ if abs_ is not None else rel * abs(target)
    return abs(value - target) <= tolerance


def paper_check(kind: str, out) -> List[str]:
    """The tolerances the repository's figure benchmarks assert."""
    ok: Sequence[Tuple[str, bool]]
    if kind == "fig10":
        without = dict(out["without_lhp"])
        horizontal = dict(out["with_lhp_horizontal"])
        tilted = dict(out["with_lhp_tilt22"])
        ok = [("no-LHP dT at 40 W ~ 60 K",
               _near(without[40.0], 60.0, abs_=10.0)),
              ("LHP dT at 100 W ~ 60 K",
               _near(horizontal[100.0], 60.0, abs_=10.0)),
              ("LHP curve far below",
               all(horizontal[p] < 0.65 * without[p] for p in without)),
              ("small tilt penalty",
               all(0.0 <= tilted[p] - horizontal[p] < 5.0
                   for p in horizontal)),
              ("no-LHP curve stops early",
               max(without) < max(horizontal))]
    elif kind == "claims":
        ok = [("capability without LHP",
               _near(out.capability_without_lhp, 40.0, rel=0.15)),
              ("capability with LHP",
               _near(out.capability_with_lhp, 100.0, rel=0.15)),
              ("capability increase",
               _near(out.capability_increase_pct, 150.0, abs_=40.0)),
              ("drop at 40 W",
               _near(out.temperature_drop_at_40w, 32.0, abs_=8.0)),
              ("LHP heat", _near(out.lhp_heat_at_capability, 58.0,
                                 rel=0.15)),
              ("dT at 40 W", _near(out.delta_t_without_at_40w, 60.0,
                                   abs_=8.0))]
    elif kind == "composite":
        ok = [("composite capability",
               _near(out.capability_with_lhp, 70.0, rel=0.15)),
              ("composite increase",
               _near(out.capability_increase_pct, 80.0, abs_=30.0)),
              ("composite drop",
               _near(out.temperature_drop_at_40w, 20.0, abs_=8.0)),
              ("composite beats no LHP",
               out.capability_with_lhp > out.capability_without_lhp)]
    elif kind == "ceiling":
        ok = [("ceiling capability higher",
               out["ceiling_capability"] > out["seat_capability"]),
              ("ceiling dT lower",
               out["ceiling_delta_t"] < out["seat_delta_t"])]
    elif kind == "altitude":
        deltas = [out[p] for p in sorted(out, reverse=True)]
        ok = [("derating monotonic", deltas == sorted(deltas)),
              ("derating < 20 %", deltas[-1] < 1.2 * deltas[0])]
    else:
        ok = [("campaign passed", out.passed),
              ("four verdicts", len(out.verdicts) == 4),
              ("positive margins",
               all(v.margin > 0.0 for v in out.verdicts))]
    return [f"{kind}: {name}" for name, passed in ok if not passed]


# -- service_jobs --------------------------------------------------------------

SERVICE_CLIENTS = 2
SERVICE_SIZES = (8, 24, 48)
SERVICE_TOP_K = 10
#: Jobs planned per client; a client that uses them all starts over.
SERVICE_PLAN = 160


def service_axes() -> Dict[str, List[Any]]:
    """The 576-candidate space the jobs are sampled from."""
    from avipack.packaging.cooling import CoolingTechnique

    return {
        "power_per_module": [float(p) for p in range(5, 65, 5)],
        "form_factor": ["1/4_atr", "1/2_atr", "3/4_atr", "1_atr"],
        "cooling": [t.value for t in CoolingTechnique],
        "tim_name": ["standard_grease", "nanopack_silver_flake_epoxy"],
    }


def service_inputs(seed: int) -> Dict[str, Any]:
    """Per client, the (size, sample seed) of each planned job."""
    import avipack.service  # noqa: F401  (the client library)

    plans = []
    for client in range(SERVICE_CLIENTS):
        rng = random.Random(f"service_jobs:{seed}:{client}")
        plans.append([(rng.choice(SERVICE_SIZES), rng.randrange(2 ** 31))
                      for _ in range(SERVICE_PLAN)])
    return {"axes": service_axes(), "plans": plans}


def service_references(inputs) -> List[List[List[Tuple[str, float, float]]]]:
    """Expected top-k of every planned job, from one in-process sweep.

    The full space is swept once; a job's ranking is the full ranking
    restricted to the job's sampled candidates (the sample keeps grid
    order, so tie-breaks by index agree).
    """
    from avipack.service.protocol import build_candidates, \
        normalize_submission
    from avipack.sweep import SweepRunner

    full = normalize_submission({"axes": inputs["axes"]})
    ranked = SweepRunner(parallel=False).run(
        build_candidates(full)).ranked()
    expected = []
    for plan in inputs["plans"]:
        per_client = []
        for size, sample_seed in plan:
            submission = normalize_submission(
                {"axes": inputs["axes"], "sample": size,
                 "seed": sample_seed})
            wanted = {c.fingerprint for c in build_candidates(submission)}
            per_client.append([(r.fingerprint, r.cost_rank, r.worst_board_c)
                               for r in ranked
                               if r.fingerprint in wanted][:SERVICE_TOP_K])
        expected.append(per_client)
    return expected


def service_op(client, name: str, axes, size: int, sample_seed: int):
    """Submit one job, stream it to its terminal event, fetch results.

    Returns the terminal event, the results payload and the client-side
    arrival time of each step: ``(label, perf_counter)`` pairs.
    """
    import time

    marks = [("begin", time.perf_counter())]
    accepted = client.submit(axes=axes, sample=size, seed=sample_seed,
                             client=name)
    marks.append(("submitted", time.perf_counter()))
    terminal = None
    for event in client.stream(accepted["job_id"]):
        marks.append((event["event"], time.perf_counter()))
        terminal = event
    results = client.results(accepted["job_id"], k=SERVICE_TOP_K)
    marks.append(("results", time.perf_counter()))
    return terminal, results, marks


def service_check(result, expected) -> List[str]:
    terminal, results, _marks = result
    problems = []
    if terminal is None or terminal.get("event") != "completed":
        problems.append(f"job ended with {terminal!r}")
    elif terminal.get("n_failed") != 0:
        problems.append(f"{terminal.get('n_failed')} candidate(s) failed")
    top = [(row["fingerprint"], row["cost_rank"], row["worst_board_c"])
           for row in results.get("top", [])]
    if top != expected:
        problems.append("results top-k differs from the reference")
    return problems
