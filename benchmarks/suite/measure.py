"""One workload, start to finish: set-up, timed calls, checks, metrics.

Closed loop, one client: this process calls ``run_pipeline`` once at a
time.  The end-to-end numbers always come from untraced calls; with
``trace`` one more call runs inside a root span and the layer replay of
``layers.py`` follows it.

The program is deterministic and CPU-bound, and on a shared box what
differs between two calls on the same fields is how fast the machine ran
in those seconds.  So a run makes several short calls, divides each by
the slowdown the reference kernel of ``machine.py`` shows in the windows
right before and after it, and reports the median: seconds at the speed
of the reference box.  The raw seconds of every call and every reference
chunk are kept in the record next to it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback

import spec
import workloads
from envstamp import leak_snapshot, leaks_since
from machine import SpeedProbe
from spans import Tracer, duration

from repro.driver import run_pipeline, survey_bounds
from repro.partition import generate_tasks
from repro.validation import match_catalogs, score_catalog

#: Untimed warm-up survey seed; any constant does.
_WARMUP_SEED = 7


def catalog_content_hash(catalog) -> str:
    """SHA-256 over the catalog's rounded, canonically ordered content —
    the recipe of ``tests/test_golden_pipeline.py``.  Printed and stored,
    never pinned across commits: a later change that legitimately
    re-associates a sum must not need to edit the benchmark."""
    rows = []
    for e in catalog:
        rows.append((
            round(float(e.position[0]), 3), round(float(e.position[1]), 3),
            bool(e.is_galaxy), round(float(e.flux_r), 3),
            tuple(round(float(c), 3) for c in e.colors),
            round(float(e.gal_frac_dev), 3),
            round(float(e.gal_axis_ratio), 3),
            round(float(e.gal_angle), 3),
            round(float(e.gal_radius_px), 3),
        ))
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


def _retried(recoveries: list) -> int:
    return sum(len(r.get("retried", [])) for r in recoveries
               if r.get("kind") == "worker_death")


class Call:
    """One ``run_pipeline`` call and what it did *in this call* (resumed
    calls inherit cumulative counters and a cumulative report from the
    checkpoint; the set-up's values are subtracted)."""

    def __init__(self, prepared: workloads.Prepared, result, seconds: float,
                 slowdown: float, leaks: list[str]):
        base_c = prepared.baseline_counters
        base_r = prepared.baseline_report
        report = result.report
        self.result = result
        self.seconds = seconds
        #: Machine slowdown over the reference windows around the call.
        self.slowdown = slowdown
        self.leaks = leaks
        self.hash = catalog_content_hash(result.catalog)
        self.counters = {k: v - base_c.get(k, 0.0)
                         for k, v in result.counters.items()}
        self.source_updates = sum(o.n_sources for o in result.outcomes)
        self.visits = self.counters.get("active_pixel_visits", 0.0)
        self.tasks_completed = len(result.outcomes)
        new_recoveries = report.recoveries[len(base_r.get("recoveries", [])):]
        self.recoveries = len(new_recoveries)
        self.tasks_retried = _retried(new_recoveries)
        self.task_seconds = (report.task_seconds
                             - base_r.get("task_seconds", 0.0))
        self.sched_seconds = (report.sched_seconds
                              - base_r.get("sched_seconds", 0.0))
        self.messages = report.messages - base_r.get("messages", 0)
        base_comm = {w["worker"]: w for w in base_r.get("worker_comm", [])}
        self.comm = {
            key: sum(w.get(key, 0) - base_comm.get(w["worker"], {}).get(key, 0)
                     for w in report.worker_comm)
            for key in ("rma_gets", "rma_puts", "rma_bytes", "rma_remote")
        }
        self.prefetch_hits = (report.prefetch_hits
                              - base_r.get("prefetch_hits", 0))
        self.prefetch_misses = (report.prefetch_misses
                                - base_r.get("prefetch_misses", 0))

    @property
    def calibrated_seconds(self) -> float:
        return self.seconds / self.slowdown


def timed_call(prepared: workloads.Prepared, probe: SpeedProbe,
               tracer=None) -> Call:
    """One timed call, then the reference window after it (the one before
    it is ``probe``'s latest), then the leak check; timed by its root span
    when ``tracer`` is given.  The per-call checkpoint directory is made
    outside the timer, and ``run_pipeline`` returns a finished catalog,
    not a lazy one, so the whole result is consumed inside it."""
    config = prepared.call_config()
    before = leak_snapshot()
    if tracer is None:
        t0 = time.perf_counter()
        result = run_pipeline(prepared.inputs, config)
        seconds = time.perf_counter() - t0
    else:
        with tracer.span("driver", "run_pipeline") as span:
            result = run_pipeline(prepared.inputs, config)
        seconds = duration(span)
    probe.sample()
    return Call(prepared, result, seconds, probe.around(),
                leaks_since(before))


def _peak_rss_mb() -> float:
    # ru_maxrss is kilobytes on Linux.
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _expected_tasks(prepared: workloads.Prepared, call: Call) -> int:
    """Tasks the call should have executed, regenerated the way the driver
    does (stage 1 only on a resumed call)."""
    config = prepared.workload.config
    tasks = generate_tasks(call.result.seed_catalog,
                           survey_bounds(prepared.fields),
                           config.target_weight, two_stage=config.two_stage)
    if prepared.workload.resume:
        tasks = [t for t in tasks if t.stage == 1]
    return len(tasks)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: str, import_s: float) -> dict:
    """Run one workload and return its full record (see ``run.py`` for
    which part is printed as the result line)."""
    workload = workloads.get(name, smoke)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-%s-" % name, dir=out_dir)
    # The driver's own scratch (spilled fields of the process executor)
    # must land inside the checkout too, and where the leak check looks.
    previous_tmp = tempfile.tempdir
    tempfile.tempdir = workdir
    os.environ["TMPDIR"] = workdir
    try:
        return _run(workload, seed, seconds, trace, smoke, out_dir, workdir,
                    import_s)
    finally:
        tempfile.tempdir = previous_tmp
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, smoke, out_dir, workdir,
         import_s) -> dict:
    name = workload.name
    failures: list[str] = []
    probe = SpeedProbe(chunks_per_window=3 if smoke else 9)
    prepared = workloads.prepare(workload, seed, workdir, probe,
                                 setup_repeats=3 if smoke else 15)

    # Warm-up: the same config on a survey of a few sources, on threads —
    # lazy imports and per-process caches filled before anything is timed
    # (a full-size warm-up would cost a third of the run).
    if not smoke:
        _, warm_fields = workloads.generate_survey(
            workloads.get(name, smoke=True).sky, _WARMUP_SEED)
        run_pipeline(warm_fields, dataclasses.replace(
            workload.config, executor="thread", n_nodes=1,
            pgas_transport="local"))

    # Timed, untraced repetitions until ``seconds`` of calls are timed, and
    # at least three (a smoke run: one).  A traced run alternates three
    # untraced calls with three inside a root span, so that the tracing
    # overhead compares like with like on a machine that drifts.
    min_calls, budget, n_traced = (
        (1, 0.0, int(trace)) if smoke else (3, 0.0, 3) if trace
        else (3, seconds, 0))
    tracer = Tracer(name)
    calls: list[Call] = []
    traced_calls: list[Call] = []
    raised = 0

    def repetition(into: list, root_tracer=None) -> None:
        nonlocal raised
        try:
            into.append(timed_call(prepared, probe, root_tracer))
        except Exception:
            raised += 1
            failures.append("repetition raised:\n" + traceback.format_exc())

    probe.sample()
    while raised < 2 and (len(calls) < min_calls
                          or sum(c.seconds for c in calls) < budget):
        repetition(calls)
        if len(traced_calls) < n_traced:
            repetition(traced_calls, tracer)

    every = calls + traced_calls
    if not calls:
        return {"workload": name, "correct": False, "attempted": 1,
                "failed": 1, "failures": failures, "end_to_end": {},
                "per_layer": {}}
    traced = traced_calls[-1] if traced_calls else None

    # -- correctness ----------------------------------------------------
    hashes = sorted({c.hash for c in every})
    if len(hashes) != 1:
        failures.append("repetitions disagree on the catalog: %s" % hashes)
    for i, c in enumerate(every):
        if c.leaks:
            failures.append("repetition %d leaked %s" % (i, c.leaks))
        if workload.resume and c.result.resumed_stages != ["seed", "stage0"]:
            failures.append("repetition %d resumed %r, not seed+stage0"
                            % (i, c.result.resumed_stages))
        if not workload.resume and c.result.resumed_stages:
            failures.append("repetition %d resumed %r from a fresh "
                            "checkpoint directory"
                            % (i, c.result.resumed_stages))
    last = every[-1]
    match = match_catalogs(prepared.truth, last.result.catalog)
    score = score_catalog(prepared.truth, last.result.catalog)
    accuracy = {
        "completeness": match.completeness,
        "position_err_px": float(score.position),
        "brightness_err_mag": float(score.brightness),
    }
    for metric, gate in workload.gates.items():
        value = accuracy[metric]
        ok = value >= gate if metric == "completeness" else value <= gate
        if not ok:
            failures.append("%s = %.4f is outside its gate %.4f"
                            % (metric, value, gate))

    # Failed operations: tasks not completed, tasks retried, and
    # repetitions that raised, leaked, or broke hash identity — over
    # tasks attempted plus repetitions.
    expected = _expected_tasks(prepared, last)
    tasks_attempted = expected * len(every)
    tasks_failed = sum(abs(expected - c.tasks_completed) + c.tasks_retried
                       for c in every)
    if tasks_failed:
        failures.append("%d of %d tasks were not completed or were retried"
                        % (tasks_failed, tasks_attempted))
    bad_reps = raised + sum(
        1 for c in every if c.leaks or c.hash != every[0].hash)
    attempted = tasks_attempted + len(every) + raised
    failed = tasks_failed + bad_reps

    # -- end to end (untraced calls only) -------------------------------
    wall_to_catalog = statistics.median(c.seconds for c in calls)
    time_to_catalog = statistics.median(c.calibrated_seconds for c in calls)
    end_to_end = {
        "time_to_catalog_s": time_to_catalog,
        "source_updates_per_s": calls[-1].source_updates / time_to_catalog,
        "visits_per_s": calls[-1].visits / time_to_catalog,
        "setup_s": prepared.setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "completeness": accuracy["completeness"],
    }

    per_layer = {}
    if traced is not None:
        import layers

        per_layer = layers.replay(
            tracer, prepared, traced, every, wall_to_catalog, accuracy, seed)
        tracer.write(os.path.join(out_dir, "trace-%s.jsonl" % name))
        per_layer.update({
            "harness.import_s": import_s,
            "harness.wall_to_catalog_s": wall_to_catalog,
            "harness.machine_slowdown": statistics.median(
                c.slowdown for c in calls),
            "trace.overhead_fraction": statistics.median(
                c.calibrated_seconds for c in traced_calls)
                / time_to_catalog - 1.0,
        })
        missing = {m["name"] for m in spec.PER_LAYER} - set(per_layer)
        if missing:
            failures.append("per-layer metrics not measured: %s"
                            % sorted(missing))

    return {
        "workload": name,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "failed_ops_fraction": failed / attempted,
        "catalog_hash": hashes[0] if len(hashes) == 1 else None,
        "repetitions": len(calls),
        "repetition_seconds": [c.seconds for c in calls],
        "repetition_slowdowns": [c.slowdown for c in calls],
        "reference_chunk_windows": probe.windows,
        "n_sources_truth": len(prepared.truth),
        "source_updates": calls[-1].source_updates,
        "tasks": calls[-1].tasks_completed,
        "accuracy": accuracy,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "n_spans": len(tracer.spans),
    }
