"""What the repo benchmark measures: workloads, metrics, bounds, predictions.

This module is the single source for ``BENCHMARK.json`` (regenerate with
``python benchmarks/suite/run.py --write-spec``; ``test_suite.py`` fails
when the two drift) and for the tables in ``README.md``.  It imports
nothing heavy so the schema can be checked without NumPy.

A *layer* is a module name under ``src/repro/``.  Every per-layer metric
names, before anything is measured, the end-to-end metric it should move
and the workloads it should move it on; the workloads left out are the
ones where the prediction is "no change".
"""

from __future__ import annotations

#: Seconds one run measures for (``--seconds`` default).  Repetitions are
#: added until this much ``run_pipeline`` time has been timed.
RUN_SECONDS = 16

#: Default ``--seed``.  Also the seed the sky layout and the observing
#: conditions are pinned with (see ``workloads.py``).
DEFAULT_SEED = 20180131

COMMAND = ["python3", "benchmarks/suite/run.py"]
PATHS = ["benchmarks/suite"]

SCALAR_WORKLOADS = ("sparse_scalar", "process_disk", "resume_stage1")
DISK_WORKLOADS = ("process_disk", "resume_stage1")
ALL_WORKLOADS = ("wide_batched", "sparse_scalar", "process_disk",
                 "resume_stage1")

WORKLOADS = [
    {"name": "wide_batched",
     "why": "A few huge regions of well-separated sources: core's stacked "
            "kernel, optim's lockstep Newton and parallel's run packing do "
            "nearly all the work; driver, sched, pgas and survey do almost "
            "none."},
    {"name": "sparse_scalar",
     "why": "The plain single-thread baseline: many tiny tasks on the scalar "
            "kernel path, so per-task costs (photo, partition, sched, region "
            "setup) are at their largest share and batching is bypassed."},
    {"name": "process_disk",
     "why": "sparse_scalar's survey from field files on two process workers "
            "over the socket transport with task checkpoints: pool spawn, "
            "Dtree, RMA over TCP, prefetch, journal fsyncs, shard writes."},
    {"name": "resume_stage1",
     "why": "sparse_scalar's survey resumed from a stage-0 checkpoint: the "
            "read side of driver.checkpoint and survey.io (photo skipped), "
            "so a write-side gain that costs the read side shows."},
]

#: ``bound`` is the share of the parent's median by which the metric may
#: get worse before a change counts as a regression.  The measured
#: run-to-run spreads that justify each bound are in README.md.
END_TO_END = [
    {"name": "time_to_catalog_s", "unit": "s", "better": "lower",
     "bound": 0.25,
     "definition": "perf_counter around the timed run_pipeline call / the "
                   "machine slowdown around it (machine.py), median of the "
                   "run's calls: seconds at the reference box's speed"},
    {"name": "source_updates_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25,
     "definition": "sum of outcome.n_sources over result.outcomes / "
                   "time_to_catalog_s"},
    {"name": "visits_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25,
     "definition": "active-pixel visits executed in this call (result "
                   "counter minus the resumed checkpoint's) / "
                   "time_to_catalog_s"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "definition": "survey generation + save_field writes (median of 15 "
                   "set-ups) + the stage-0 pre-run on resume_stage1, at "
                   "the reference box's speed; interpreter start and "
                   "imports excluded"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15,
     "definition": "max of RUSAGE_SELF and RUSAGE_CHILDREN ru_maxrss at "
                   "workload exit"},
    {"name": "completeness", "unit": "fraction", "better": "higher",
     "bound": 0.10,
     "definition": "match_catalogs(truth, catalog).completeness at 2 px"},
]


def _m(name, unit, better, moves, on, definition):
    return {"name": name, "unit": unit, "better": better,
            "moves": moves, "on": tuple(on), "definition": definition}


_T = "time_to_catalog_s"

PER_LAYER = [
    # -- survey ---------------------------------------------------------
    _m("survey.load_field_s", "s", "lower", _T, DISK_WORKLOADS,
       "load_field over the workload's field files, summed"),
    _m("survey.load_field_mb_per_s", "MB/s", "higher", _T, DISK_WORKLOADS,
       "field-file bytes / survey.load_field_s"),
    _m("survey.save_field_s", "s", "lower", "setup_s", DISK_WORKLOADS,
       "save_field over the workload's fields, summed"),
    _m("survey.prefetch_hit_ratio", "fraction", "higher", _T,
       DISK_WORKLOADS,
       "report.prefetch_hits / (hits + misses); 0 with no on-disk field"),
    _m("survey.prefetch_misses", "count", "lower", _T, DISK_WORKLOADS,
       "report.prefetch_misses (synchronous field-load stalls)"),
    # -- photo ----------------------------------------------------------
    _m("photo.run_photo_s", "s", "lower", _T,
       ("sparse_scalar", "process_disk"),
       "run_photo per field, summed (resume_stage1 takes its seed from the "
       "checkpoint: no change predicted there)"),
    _m("photo.sources_seeded", "count", "higher", "completeness",
       ALL_WORKLOADS, "len(result.seed_catalog)"),
    # -- partition ------------------------------------------------------
    _m("partition.generate_tasks_s", "s", "lower", _T, SCALAR_WORKLOADS,
       "generate_tasks on the seed catalog, median of 3"),
    _m("partition.n_tasks", "count", "lower", _T, SCALAR_WORKLOADS,
       "tasks generated (both stages)"),
    _m("partition.task_sources_cv", "ratio", "lower", _T,
       ("process_disk",),
       "std/mean of sources per task; moves process_disk through "
       "driver.worker_busy_fraction"),
    # -- sched ----------------------------------------------------------
    _m("sched.dtree_drain_s", "s", "lower", _T, ("process_disk",),
       "drain a Dtree of n_tasks with n_nodes workers via request"),
    _m("sched.messages_per_task", "ratio", "lower", _T, ("process_disk",),
       "report.messages / report.n_tasks of this call"),
    _m("sched.sched_seconds", "s", "lower", _T, ("process_disk",),
       "report.sched_seconds of this call (time inside Dtree.request)"),
    # -- pgas -----------------------------------------------------------
    _m("pgas.get_entries_us", "us", "lower", _T, ("process_disk",),
       "median ShardedCatalog.get_entries call over the workload's "
       "transport, same index sets the tasks use"),
    _m("pgas.put_entries_us", "us", "lower", _T, ("process_disk",),
       "median ShardedCatalog.put_entries call, as above"),
    _m("pgas.rma_gets", "count", "lower", _T, ("process_disk",),
       "one-sided gets summed over report.worker_comm"),
    _m("pgas.rma_puts", "count", "lower", _T, ("process_disk",),
       "one-sided puts summed over report.worker_comm"),
    _m("pgas.rma_bytes", "bytes", "lower", _T, ("process_disk",),
       "bytes moved one-sidedly"),
    _m("pgas.rma_remote_fraction", "fraction", "lower", _T,
       ("process_disk",),
       "share of RMA ops that crossed a shard boundary"),
    # -- parallel -------------------------------------------------------
    _m("parallel.schedule_s", "s", "lower", _T, ("wide_batched",),
       "build_conflict_graph + cyclades_batches per task, summed"),
    _m("parallel.region_s", "s", "lower", _T, ALL_WORKLOADS,
       "optimize_region_parallel called directly on the sampled stage-0 "
       "tasks (largest first, up to 24 sources), summed"),
    _m("parallel.lanes_per_call", "ratio", "higher", _T, ("wide_batched",),
       "elbo_batch_lanes / elbo_batch_calls; 0 when no stacked call ran"),
    _m("parallel.batch_occupancy", "fraction", "higher", _T,
       ("wide_batched",),
       "perf.batch_occupancy: active share of swept lanes (1 when none)"),
    _m("parallel.threads2_over_threads1", "ratio", "lower", _T,
       ("wide_batched",),
       "largest stage-0 task at n_threads=2 / at n_threads=1 (>1 here, "
       "which is why the gated runs use one thread)"),
    # -- core -----------------------------------------------------------
    _m("core.make_context_ms", "ms", "lower", _T, ALL_WORKLOADS,
       "median make_context over contexts sampled from the tasks"),
    _m("core.region_setup_ms", "ms", "lower", _T, ("sparse_scalar",),
       "median RegionOptimizer(...) construction over the sampled tasks"),
    _m("core.elbo_eval_ms", "ms", "lower", _T, SCALAR_WORKLOADS,
       "median scalar elbo (order 2) over the sampled contexts"),
    _m("core.elbo_batch_ms_per_lane", "ms", "lower", _T, ("wide_batched",),
       "compile_elbo_batch + elbo_batch over up to 16 lanes, per lane"),
    _m("core.kernel_visits_per_s", "1/s", "higher", "visits_per_s",
       ALL_WORKLOADS,
       "active pixels of the sampled contexts / their scalar elbo time"),
    _m("core.objective_evaluations", "count", "lower", _T, ALL_WORKLOADS,
       "counter of this call"),
    _m("core.active_pixel_visits", "count", "lower", _T, ALL_WORKLOADS,
       "counter of this call"),
    _m("core.visits_per_eval", "ratio", "lower", _T, ALL_WORKLOADS,
       "active_pixel_visits / objective_evaluations"),
    _m("core.eval_share", "fraction", "lower", _T, SCALAR_WORKLOADS,
       "objective_evaluations x elbo_eval_ms / (n_nodes x "
       "harness.wall_to_catalog_s)"),
    # -- optim ----------------------------------------------------------
    _m("optim.newton_solves", "count", "lower", _T, ALL_WORKLOADS,
       "counter of this call"),
    _m("optim.newton_iterations", "count", "lower", _T, ALL_WORKLOADS,
       "counter of this call; falls with visits_per_s flat"),
    _m("optim.iterations_per_solve", "ratio", "lower", _T, ALL_WORKLOADS,
       "newton_iterations / newton_solves"),
    _m("optim.iter_limit_fraction", "fraction", "lower", "completeness",
       ALL_WORKLOADS,
       "share of sampled optimize_source results that stop on max_iter"),
    _m("optim.solve_trust_region_us", "us", "lower", _T, ALL_WORKLOADS,
       "median solve_trust_region on the sampled contexts' g, H"),
    _m("optim.optimize_source_ms", "ms", "lower", _T, SCALAR_WORKLOADS,
       "median optimize_source over the sampled contexts"),
    _m("optim.optimize_sources_batch_ms_per_lane", "ms", "lower", _T,
       ("wide_batched",),
       "optimize_sources_batch over the sampled contexts, per lane"),
    # -- driver ---------------------------------------------------------
    _m("driver.spawn_bind_s", "s", "lower", _T, ("process_disk",),
       "WorkerPool.ensure(2) on a cold pool + close"),
    _m("driver.checkpoint_save_s", "s", "lower", _T, ("process_disk",),
       "save_checkpoint of the workload's catalogs, sharded by n_nodes"),
    _m("driver.checkpoint_load_s", "s", "lower", _T, ("resume_stage1",),
       "load_checkpoint of the same files"),
    _m("driver.checkpoint_bytes", "bytes", "lower", _T, DISK_WORKLOADS,
       "main JSON + shard files written by that save"),
    _m("driver.journal_append_us", "us", "lower", _T, DISK_WORKLOADS,
       "median append_task_record, fsync included"),
    _m("driver.merge_s", "s", "lower", _T, SCALAR_WORKLOADS,
       "merge_catalogs over the per-field seeds + dedup_catalog"),
    _m("driver.task_s_p50", "s", "lower", _T, ALL_WORKLOADS,
       "median outcome.seconds over every repetition of the run"),
    _m("driver.task_s_p95", "s", "lower", _T, ("process_disk",),
       "95th percentile of the same; the slowest tasks set the stage's "
       "end on two workers"),
    _m("driver.task_seconds", "s", "lower", _T, ALL_WORKLOADS,
       "report.task_seconds of the traced call"),
    _m("driver.worker_busy_fraction", "fraction", "higher", _T,
       ("process_disk",),
       "task_seconds / (n_nodes x wall) of the traced call"),
    _m("driver.overhead_s", "s", "lower", _T, ("process_disk",),
       "wall - task_seconds / n_nodes of the traced call"),
    _m("driver.recoveries", "count", "lower", _T, ("process_disk",),
       "len(report.recoveries) added by this call"),
    # -- validation (oracle; reported, ceiling-gated, not bounded) -------
    _m("validation.position_err_px", "px", "lower", "completeness",
       ALL_WORKLOADS, "score_catalog(truth, catalog).position"),
    _m("validation.brightness_err_mag", "mag", "lower", "completeness",
       ALL_WORKLOADS, "score_catalog(truth, catalog).brightness"),
    # -- the harness itself ---------------------------------------------
    _m("harness.import_s", "s", "lower", "setup_s", ALL_WORKLOADS,
       "interpreter start to repro imported (excluded from setup_s)"),
    _m("harness.wall_to_catalog_s", "s", "lower", _T, ALL_WORKLOADS,
       "median untraced run_pipeline call, raw wall clock; every "
       "per-layer time is raw too"),
    _m("harness.machine_slowdown", "ratio", "lower", _T, ALL_WORKLOADS,
       "mean reference-kernel chunk around a call / the reference box's, "
       "median over the run's calls"),
    _m("trace.overhead_fraction", "fraction", "lower", _T, ALL_WORKLOADS,
       "traced run_pipeline call / time_to_catalog_s - 1, both at the "
       "reference box's speed; spans sit outside the program, so anything "
       "beyond timing noise is a harness bug"),
]


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [dict(w) for w in WORKLOADS],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")}
            for m in END_TO_END
        ],
        "per_layer": [
            {k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER
        ],
    }
