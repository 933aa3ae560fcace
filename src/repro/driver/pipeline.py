"""The end-to-end multi-field inference driver.

This is the paper's full three-level scheme run as one pipeline (Sections
IV-A through IV-D), over many fields:

1. **Seed** — the heuristic Photo pipeline runs on every field, per-field
   detections are mapped into global sky coordinates and merged into one
   deduplicated seed catalog (overlapping fields detect border sources
   twice).
2. **Partition** — the sky is recursively split into equal-work regions and
   re-covered by a half-size-shifted second partition, yielding two stages
   of tasks (:mod:`repro.partition`).
3. **Schedule** — a :class:`~repro.sched.dtree.Dtree` instance hands task
   batches to node-workers; stage-1 tasks only start after every stage-0
   task completed, the two-stage barrier of Section IV-A.
4. **Optimize** — each task jointly optimizes its region's sources with
   Cyclades-scheduled threads (:func:`repro.parallel.optimize_region_parallel`),
   reading every image whose footprint covers the region — multi-field
   fusion, the capability the heuristic baseline lacks.
5. **Merge** — optimized parameters flow back into the global catalog;
   a final deduplication produces the result.

**Node-worker executors.**  Node-workers are seats of a pool, driven by
one stage loop (:mod:`repro.driver.stage`).  ``DriverConfig.executor`` (or
the ``REPRO_DRIVER_EXECUTOR`` environment variable) picks the kind of
seat: ``"thread"`` seats are threads in this process, ``"process"`` seats
are spawn-safe ``multiprocessing`` processes — the paper's
distributed-memory layout, which the GIL cannot cap.  Both run the same
seat body and produce bit-for-bit identical catalogs: tasks are seeded per
task id, and every worker reads its sources and frozen halo from a
stage-start snapshot of the catalog, so results never depend on the
executor, the worker count, or task completion order.

**The sharded catalog.**  The working catalog lives in a
:class:`~repro.driver.shards.ShardedCatalog` — light sources as 44-wide
rows of a :class:`~repro.pgas.GlobalArray` block-partitioned across
node-worker ranks.  The PGAS transport behind it is pluggable
(``DriverConfig.pgas_transport`` / ``REPRO_PGAS_TRANSPORT``): thread
workers default to the in-process transport; process workers run over
:class:`~repro.pgas.SocketTransport` — TCP one-sided RMA against windows
the driver serves on loopback, the multi-node layout with processes
standing in for nodes.  Workers do real one-sided
``get_row``/``put_row`` for exactly the rows a task touches, never pickling
the catalog; catalogs are bit-identical across transports.  Per-worker RMA
traffic lands in the driver report.

**Elastic workers and fault recovery.**  Process node-workers are seats in
a persistent :class:`~repro.driver.pool.WorkerPool`, bound to a run's
state per stage and reusable across ``run_pipeline`` calls (pass ``pool=``
to amortize spawn cost); the pool grows and shrinks between stages and
respawns dead seats.  A run's fixed cost is kept small and off the
critical path: seats are asked for before the serial prologue (seed,
partition, sharding, field spill) so they boot alongside it, and what a
seat runs lives in :mod:`repro.driver.worker`, which this module imports
and a seat imports *instead of* this module — no seed stage, no SciPy
(``docs/scaling.md``, "Fixed cost of a process run").  A worker that
dies mid-stage is survived: the scheduler reclaims its undispatched work
(:meth:`~repro.sched.dtree.Dtree.reclaim`), its in-flight tasks are re-dispatched to surviving workers
(idempotent — snapshot discipline plus per-task seeding make re-execution
bit-identical), and the event is recorded in ``DriverReport.recoveries``.
With ``task_checkpoint`` (and a checkpoint path), every completed task is
also journaled durably (:mod:`repro.driver.checkpoint`), so a *killed run*
resumes mid-stage: journaled tasks replay from disk, the rest re-execute,
and the final catalog is bit-for-bit the uninterrupted one's.

**Field prefetch.**  Fields may be given as in-memory image lists or as
paths to ``.npz`` field files (:mod:`repro.survey.io`).  Path fields are
loaded by a :class:`~repro.survey.io.FieldPrefetcher` thread keyed to the
Dtree's look-ahead (:meth:`~repro.sched.dtree.Dtree.peek`) — the
single-node analogue of the paper's Burst Buffer pipeline.

Progress is checkpointed to JSON after every stage, with the working
catalog written as per-rank shard files (:mod:`repro.driver.checkpoint`),
so a killed run resumes at the last completed stage and reproduces the same
final catalog.  FLOP and throughput accounting accumulate in a
:class:`~repro.perf.counters.Counters` bag and a
:class:`~repro.perf.driver.DriverReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.core.catalog import Catalog
from repro.core.priors import Priors, default_priors
from repro.driver.checkpoint import (
    STAGES,
    Checkpoint,
    load_checkpoint,
    load_task_journal,
    save_checkpoint,
    task_journal_path,
)
from repro.driver.merge import dedup_catalog, merge_catalogs
from repro.driver.pool import InProcessPool, WorkerPool
from repro.driver.shards import ShardedCatalog
from repro.driver.stage import StageRunner, TaskOutcome
from repro.driver.worker import (
    _bounds_region,
    _box_touches_region,
    _FieldStore,
)
from repro.envvars import env_flag, env_int, env_raw
from repro.knobs import fingerprinted_values, knob
from repro.parallel import ParallelRegionConfig
from repro.parallel.executor import lane_limit
from repro.partition import Region, Task, generate_tasks
from repro.perf.counters import Counters
from repro.perf.driver import DriverReport
from repro.pgas import TRANSPORT_NAMES, make_transport
from repro.photo import PhotoConfig, run_photo
from repro.sched import DtreeConfig
from repro.survey.image import Image

__all__ = [
    "DriverConfig",
    "DriverResult",
    "TaskOutcome",
    "images_for_region",
    "run_pipeline",
    "seed_catalog_from_fields",
    "survey_bounds",
]

#: Environment variable consulted when ``DriverConfig.executor`` is None —
#: lets CI force every driver run onto the process executor.
EXECUTOR_ENV_VAR = "REPRO_DRIVER_EXECUTOR"

#: Environment variable consulted when neither ``DriverConfig`` nor the
#: parallel config sets a lockstep ELBO batch size — lets CI run a whole
#: suite at a lane limit other than the default.
ELBO_BATCH_ENV_VAR = "REPRO_ELBO_BATCH"

#: Environment variables consulted when the ``ParallelRegionConfig`` field
#: of the same name is None — let CI run any driver pipeline under the
#: shadow-transport race detector, the pre-execution schedule verifier or
#: the runtime float sanitizer without touching the config.
RACE_DETECT_ENV_VAR = "REPRO_RACE_DETECT"
VERIFY_SCHEDULE_ENV_VAR = "REPRO_VERIFY_SCHEDULE"
NUMERIC_CHECK_ENV_VAR = "REPRO_NUMERIC_CHECK"

#: Environment variable consulted when ``DriverConfig.pgas_transport`` is
#: None — lets CI force every driver run onto one PGAS transport (e.g. the
#: socket tier-1 leg).
PGAS_TRANSPORT_ENV_VAR = "REPRO_PGAS_TRANSPORT"

_EXECUTORS = ("thread", "process")


@dataclass
class DriverConfig:
    """Knobs of the end-to-end driver.

    ``n_nodes`` node-workers pull task batches from the Dtree; each task
    internally runs ``parallel.n_threads`` Cyclades threads — the driver's
    analogue of the paper's processes-per-node x threads-per-process layout.

    Every field carries an explicit provenance declaration
    (:func:`repro.knobs.knob`): :func:`_fingerprint` is derived from the
    ``fingerprinted`` ones, the rest are machine-checked not to reach an
    evaluation path (the KNOB3xx rules of ``python -m repro.analysis``)
    and fuzzer-pinned to be result-invariant
    (``tests/test_provenance.py``).  A behaviour has one name: what the
    optimizer or the Cyclades region reads lives on *its* config
    (``parallel.joint.single.max_iter``, ``parallel.race_detect``, ...),
    not on an alias here.
    """

    #: Node-workers pulling from the Dtree (the "nodes" of level two).
    n_nodes: int = knob(2, provenance="scheduling")
    #: Node-worker executor: ``"thread"`` or ``"process"``; ``None`` reads
    #: :data:`EXECUTOR_ENV_VAR`, defaulting to ``"thread"``.  Results are
    #: identical either way; only the memory/parallelism model changes.
    executor: str | None = knob(None, provenance="scheduling")
    #: PGAS transport backing the sharded catalog, one of
    #: :data:`repro.pgas.TRANSPORT_NAMES`.  ``None`` reads
    #: :data:`PGAS_TRANSPORT_ENV_VAR`, then defaults by executor:
    #: ``"local"`` for thread workers, ``"socket"`` (the windows served
    #: over loopback TCP) for process workers, which cannot use
    #: ``"local"``.  Pure plumbing: catalogs are bit-identical across
    #: transports.
    pgas_transport: str | None = knob(None, provenance="scheduling")
    #: Journal per-task durable progress while a stage runs (needs
    #: ``checkpoint_path``): each completed Cyclades task appends its
    #: result rows to an fsynced journal, and a killed run resumes
    #: *mid-stage* — journaled tasks replay, the rest re-execute, and the
    #: final catalog is bit-for-bit the uninterrupted one's.
    task_checkpoint: bool = knob(True, provenance="scheduling")
    #: Target bright-pixel weight per region (task granularity).
    target_weight: float = knob(40.0, provenance="fingerprinted")
    #: Run the shifted second-stage partition (paper Section IV-A).
    two_stage: bool = knob(True, provenance="fingerprinted")
    #: Re-read the halo from the live working catalog at each optimization
    #: pass instead of the stage-start snapshot, so boundary sources see
    #: their neighbors' freshest parameters.  Costs reproducibility:
    #: results then depend on task completion order, so kill/resume no
    #: longer reproduces a run bit-for-bit (default keeps snapshot
    #: semantics).
    halo_refresh: bool = knob(False, provenance="fingerprinted")
    photo: PhotoConfig = knob(default_factory=PhotoConfig,
                              provenance="fingerprinted")
    parallel: ParallelRegionConfig = knob(
        default_factory=ParallelRegionConfig, provenance="fingerprinted")
    #: Lane limit of a lockstep ELBO evaluation batch; wins over
    #: ``parallel.elbo_batch_size``, then ``REPRO_ELBO_BATCH``
    #: (:func:`_pin_config`); ``None`` everywhere is
    #: :data:`repro.parallel.executor.DEFAULT_LANE_LIMIT` (16).  Residue:
    #: the one behaviour still settable under two config names, because
    #: ``benchmarks/suite`` spells it both ways (``workloads.py::_config``,
    #: ``layers.py``); a later ``benchmark`` PR that may edit the suite
    #: collects this alias.  Catalogs are bit-for-bit identical whatever
    #: the value — an invariant the neutrality fuzzer pins — so it is
    #: ``neutral`` and no part of a checkpoint's fingerprint.
    elbo_batch_size: int | None = knob(None, provenance="neutral")
    #: JSON checkpoint file; ``None`` disables checkpointing.  The working
    #: catalog checkpoints as ``n_nodes`` per-rank shard files.
    checkpoint_path: str | None = knob(None, provenance="scheduling")
    #: Stop (return) right after this stage completes and checkpoints —
    #: simulates a killed run for resume testing, and supports staged
    #: operation (e.g. seed on one machine, optimize on another).
    stop_after: str | None = knob(None, provenance="scheduling")

    # Not fields, knobs or fingerprint keys: plain class constants.  Each
    # has the one value every caller uses; the driver and
    # benchmarks/suite/layers.py read them off a config, and tests reach
    # them with ``monkeypatch.setattr(DriverConfig, ...)``.

    #: Dedup radius (pixels) for cross-field seed merging and final merge.
    dedup_radius = 2.0
    #: Extra margin (pixels) when matching image footprints to task regions,
    #: so patches of border sources still find their pixels.
    image_margin = 16.0
    #: Catalog sources within this many pixels outside a task's region are
    #: rendered into its model images as a frozen halo — without it, a
    #: source near a region border slides toward its unmodeled neighbor's
    #: flux and the fit corrupts.  The margin box is closed on both sides.
    halo_margin = 16.0
    #: Start method for process node-workers: "spawn" works everywhere and
    #: proves nothing leaks through fork.
    mp_start_method = "spawn"
    #: Task ids granted per Dtree request at most, and the Dtree's shape.
    #: Both only decide who computes what and when (the catalog is
    #: completion-order independent).  A seat asks for a grant whenever
    #: its tasks in flight hold fewer sources than the lane limit, and
    #: runs every task it holds in one lockstep; 16 matches the default
    #: lane limit.
    max_batch = 16
    dtree = DtreeConfig()


def _resolve_executor(config: DriverConfig) -> str:
    mode = config.executor
    if mode is None:
        mode = env_raw(EXECUTOR_ENV_VAR) or "thread"
    if mode not in _EXECUTORS:
        raise ValueError(
            "executor must be one of %r, got %r" % (_EXECUTORS, mode)
        )
    return mode


def _resolve_pgas_transport(config: DriverConfig, executor: str) -> str:
    """The PGAS transport name a run will use: config wins, then the
    environment, then an executor-appropriate default.  The in-process
    transport cannot back process workers (nothing would be shared), so
    that combination is rejected loudly rather than silently upgraded."""
    name = config.pgas_transport
    if name is None:
        name = env_raw(PGAS_TRANSPORT_ENV_VAR) or None
    if name is None:
        return "socket" if executor == "process" else "local"
    if name not in TRANSPORT_NAMES:
        raise ValueError(
            "pgas_transport must be one of %r, got %r"
            % (TRANSPORT_NAMES, name)
        )
    if executor == "process" and name == "local":
        raise ValueError(
            "the in-process 'local' transport cannot back process "
            "node-workers; use socket"
        )
    return name


def _unless_set(value, default):
    return default if value is None else value


def _pin_config(config: DriverConfig) -> DriverConfig:
    """Fill every environment default into the nested config, once, and
    validate what was filled.

    After this the lockstep lane limit and the three analysis opt-ins
    hold the values that will run, so the fingerprint (derived from the
    same config) records them, and process node-workers inherit them
    through the pickled config instead of re-reading their own
    environment.  A field that is set wins over its
    variable; ``None`` asks the variable.
    """
    parallel = config.parallel
    batch_size = _unless_set(
        config.elbo_batch_size,
        _unless_set(parallel.elbo_batch_size, env_int(ELBO_BATCH_ENV_VAR)))
    lane_limit(batch_size)  # refuses a limit below one up front
    return replace(
        config,
        elbo_batch_size=batch_size,
        parallel=replace(
            parallel,
            elbo_batch_size=batch_size,
            race_detect=_unless_set(
                parallel.race_detect, env_flag(RACE_DETECT_ENV_VAR)),
            verify_schedule=_unless_set(
                parallel.verify_schedule, env_flag(VERIFY_SCHEDULE_ENV_VAR)),
            numeric_check=_unless_set(
                parallel.numeric_check, env_flag(NUMERIC_CHECK_ENV_VAR)),
        ),
    )


@dataclass
class DriverResult:
    """Everything a driver run produces.

    When the run stopped early (``config.stop_after``), ``catalog`` holds
    the current working catalog — optimized through the completed stages but
    not finalized — and ``stopped_early`` is True.
    """

    catalog: Catalog
    seed_catalog: Catalog
    stage_elbo: dict[str, float]
    report: DriverReport
    counters: dict[str, float]
    outcomes: list[TaskOutcome]
    #: Stages loaded from the checkpoint instead of executed.
    resumed_stages: list[str]
    stopped_early: bool = False


# ---------------------------------------------------------------------------
# Geometry helpers


def survey_bounds(fields: list[list[Image]]) -> Region:
    """Bounding region of every image footprint in the survey."""
    if not fields or not any(fields):
        raise ValueError("need at least one field with images")
    boxes = [im.sky_bounds() for images in fields for im in images]
    return _bounds_region(boxes)


def images_for_region(
    fields: list[list[Image]], region: Region, margin: float
) -> list[Image]:
    """Every image whose footprint intersects ``region`` (with margin)."""
    return [
        im
        for images in fields
        for im in images
        if _box_touches_region(im.sky_bounds(), region, margin)
    ]


# ---------------------------------------------------------------------------
# Stage 1: seeding


def seed_catalog_from_fields(
    fields: list, config: DriverConfig
) -> Catalog:
    """Run Photo per field and merge the per-field catalogs.

    Photo already reports sky coordinates (``detect_sources`` maps through
    the field WCS), so the per-field catalogs concatenate directly; the
    merge deduplicates sources detected by two overlapping fields.  Fields
    given as paths are loaded from disk one at a time — peak memory is one
    field, not the survey.  A field with no images seeds nothing.
    """
    from repro.survey.io import load_field

    loaded = (load_field(f) if isinstance(f, str) else f for f in fields)
    per_field = [run_photo(images, config.photo)
                 for images in loaded if images]
    return merge_catalogs(per_field, config.dedup_radius)


def _seed_catalog_from_store(store: _FieldStore, config: DriverConfig) -> Catalog:
    loaded = (store.field(i) for i in range(store.n_fields))
    per_field = [run_photo(images, config.photo)
                 for images in loaded if images]
    return merge_catalogs(per_field, config.dedup_radius)


# ---------------------------------------------------------------------------
# Checkpoint fingerprint


def _fingerprint(store: _FieldStore, config: DriverConfig) -> dict:
    """Identity of a run for checkpoint compatibility checks: the inputs,
    and every knob declared ``fingerprinted`` anywhere in the (pinned)
    config tree.  Scheduling and observational knobs are thereby excluded:
    task results are independent of completion order and of the memory
    model, so a run may legitimately resume with a different worker layout
    or executor."""
    return {
        "n_fields": store.n_fields,
        "field_shapes": store.field_shapes(),
        **fingerprinted_values(config),
    }


# ---------------------------------------------------------------------------
# The driver


def run_pipeline(
    fields: list,
    config: DriverConfig | None = None,
    priors: Priors | None = None,
    pool: WorkerPool | None = None,
) -> DriverResult:
    """Run the complete three-level pipeline over a survey's fields.

    Parameters
    ----------
    fields:
        Per-field image lists (e.g. from
        :func:`repro.survey.generate_survey_fields`) and/or paths to field
        files written by :func:`repro.survey.io.save_field`; on-disk fields
        are loaded through the look-ahead prefetcher.
    config:
        Driver knobs; when ``config.checkpoint_path`` is set, progress is
        saved after every stage and an existing compatible checkpoint is
        resumed from (including mid-stage, from the task-granular journal,
        when ``config.task_checkpoint`` is on).
    priors:
        Model priors (defaults to :func:`repro.core.default_priors`).
    pool:
        A caller-owned :class:`~repro.driver.pool.WorkerPool` to run
        process node-workers on.  Seats persist across calls, so a second
        run on a warm pool spawns zero new processes; the caller keeps
        ownership and must eventually ``close()`` it.  Ignored by the
        thread executor.  When omitted, the process executor uses a
        private pool torn down with the run.

    Under the process executor the seats are asked for as soon as the
    checkpoint shows an optimization stage left to run — before seeding,
    partitioning, sharding and field spill — so they boot while the
    driver does its serial prologue.  Whatever happens after that, a
    private pool is closed on the way out and a caller's is left alone.
    """
    run_started = time.time()  # det: ignore[DET105] -- observational: the origin of DriverReport.spawn_bind_seconds, compared with seats' stamps across processes (perf_counter is per process)
    if config is None:
        config = DriverConfig()
    # Before anything reads or fingerprints the config.
    config = _pin_config(config)
    if priors is None:
        priors = default_priors()
    executor = _resolve_executor(config)
    transport_name = _resolve_pgas_transport(config, executor)
    if config.stop_after is not None and config.stop_after not in STAGES:
        raise ValueError(
            "stop_after must be one of %r, got %r"
            % (STAGES, config.stop_after)
        )
    if config.stop_after == "stage1" and not config.two_stage:
        raise ValueError("stop_after='stage1' requires two_stage=True")

    stage_names = ["stage0"] + (["stage1"] if config.two_stage else [])
    last = STAGES.index(config.stop_after or "final")
    reachable = [s for s in stage_names if STAGES.index(s) <= last]

    store = _FieldStore(fields)
    runner = working = private_pool = None
    try:
        fingerprint = _fingerprint(store, config)
        ckpt = None
        if config.checkpoint_path is not None:
            ckpt = load_checkpoint(config.checkpoint_path, fingerprint)
        resumed = list(ckpt.completed) if ckpt is not None else []
        if ckpt is None:
            ckpt = Checkpoint(fingerprint=fingerprint)
        if not all(map(ckpt.done, reachable)):
            # The one place the kind of seat is decided.
            if executor == "thread":
                pool = private_pool = InProcessPool()
            else:
                if pool is None:
                    pool = private_pool = WorkerPool(config.mp_start_method)
                pool.ensure(config.n_nodes)

        counters = Counters()
        for name, value in ckpt.counters.items():
            counters.add(name, value)
        report = (DriverReport.from_dict(ckpt.report) if ckpt.report
                  else DriverReport())
        report.n_fields = sum(1 for m in store.metadata() if m)

        def save() -> None:
            report.active_pixel_visits = counters.get("active_pixel_visits")
            ckpt.counters = counters.snapshot()
            ckpt.report = report.as_dict()
            if config.checkpoint_path is not None:
                save_checkpoint(config.checkpoint_path, ckpt,
                                shards=config.n_nodes)

        def result(catalog: Catalog, outcomes: list, early: bool) -> DriverResult:
            report.stage_elbo.update(ckpt.stage_elbo)
            report.active_pixel_visits = counters.get("active_pixel_visits")
            return DriverResult(
                catalog=catalog,
                seed_catalog=seed,
                stage_elbo=dict(ckpt.stage_elbo),
                report=report,
                counters=counters.snapshot(),
                outcomes=outcomes,
                resumed_stages=resumed,
                stopped_early=early,
            )

        # -- Stage "seed": detect per field, merge across fields ----------------
        if ckpt.done("seed"):
            seed = ckpt.seed_catalog
        else:
            t0 = time.perf_counter()
            seed = _seed_catalog_from_store(store, config)
            report.wall_seconds += time.perf_counter() - t0
            ckpt.seed_catalog = seed
            ckpt.working_catalog = seed
            ckpt.mark_done("seed")
            save()
        if config.stop_after == "seed":
            return result(Catalog(list(seed)), [], early=True)

        # -- Partition: regenerated deterministically from the seed catalog -----
        bounds = store.bounds()
        tasks = generate_tasks(
            seed, bounds, config.target_weight, two_stage=config.two_stage
        )
        by_stage: dict[int, list[Task]] = {0: [], 1: []}
        for t in tasks:
            by_stage[t.stage].append(t)

        # The working catalog, sharded across node-worker ranks over the
        # resolved PGAS transport (process seats attach to its windows
        # one-sidedly; "local" is in-process numpy views).
        start_entries = (list(ckpt.working_catalog)
                         if ckpt.working_catalog else list(seed))
        working = ShardedCatalog.from_entries(
            start_entries, n_ranks=config.n_nodes,
            transport=make_transport(transport_name),
        )

        # -- Stages "stage0"/"stage1": Dtree-scheduled joint optimization -------
        task_checkpoint = (bool(config.task_checkpoint)
                           and config.checkpoint_path is not None)
        for stage_idx, stage_name in enumerate(stage_names):
            if not ckpt.done(stage_name):
                if runner is None:
                    runner = StageRunner(
                        store, working, priors, config, counters, pool,
                        fields, make_transport(transport_name), run_started)
                replay = None
                if task_checkpoint:
                    # The journal is valid only against the checkpoint
                    # generation it was written under (the same nonce
                    # scheme that guards shard files): a journal from a
                    # different generation names a different stage start
                    # and must not be replayed.
                    journal = task_journal_path(
                        config.checkpoint_path, stage_name, ckpt.generation)
                    replay = load_task_journal(journal)
                    runner.journal_path = journal
                try:
                    elbo = runner.run(by_stage[stage_idx], report,
                                      replay=replay)
                finally:
                    runner.journal_path = None
                ckpt.stage_elbo[stage_name] = elbo
                ckpt.working_catalog = working.to_catalog()
                ckpt.mark_done(stage_name)
                save()
            if config.stop_after == stage_name:
                outcomes = list(runner.outcomes) if runner else []
                return result(working.to_catalog(), outcomes, early=True)

        # -- Stage "final": merge into the deduplicated global catalog ----------
        if ckpt.done("final"):
            final = ckpt.final_catalog
        else:
            final = dedup_catalog(working.to_catalog(), config.dedup_radius)
            ckpt.final_catalog = final
            ckpt.mark_done("final")
            save()

        outcomes = list(runner.outcomes) if runner else []
        return result(final, outcomes, early=False)
    finally:
        if private_pool is not None:
            # Before the windows go: seats detach from live windows.
            private_pool.close()
        if runner is not None:
            runner.close()
        if working is not None:
            transport = working.array.transport
            if hasattr(transport, "unlink"):
                transport.unlink()
        store.close()
