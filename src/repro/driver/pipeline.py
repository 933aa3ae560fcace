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

**Node-worker executors.**  Node-workers run in one of two modes, selected
by ``DriverConfig.executor`` (or the ``REPRO_DRIVER_EXECUTOR`` environment
variable): ``"thread"`` workers are threads in this process, ``"process"``
workers are spawn-safe ``multiprocessing`` processes — the paper's
distributed-memory layout, which the GIL cannot cap.  Both modes drive the
same task-execution path and produce bit-for-bit identical catalogs: tasks
are seeded per task id, and every worker reads its sources and frozen halo
from a stage-start snapshot of the catalog, so results never depend on the
executor, the worker count, or task completion order.

**ELBO backends.**  Every source optimization evaluates its objective
through a pluggable backend (``DriverConfig.elbo_backend`` /
``REPRO_ELBO_BACKEND``): the fused analytic kernel
(:mod:`repro.core.kernel` — the production default, evaluating both the
pixel term and the KL terms from compile-once closed-form formulas) or the
Taylor reference path (the correctness oracle).  The driver resolves the
choice once, pins it into the per-task optimizer config, and fingerprints
it, so resumed runs and process workers always evaluate with the same
backend — a checkpoint written under one backend (including under the old
``taylor`` default) refuses to resume under another.

**The sharded catalog.**  The working catalog lives in a
:class:`~repro.driver.shards.ShardedCatalog` — light sources as 44-wide
rows of a :class:`~repro.pgas.GlobalArray` block-partitioned across
node-worker ranks.  The PGAS transport behind it is pluggable
(``DriverConfig.pgas_transport`` / ``REPRO_PGAS_TRANSPORT``): thread
workers default to the in-process transport; process workers default to
POSIX shared-memory windows (:class:`~repro.pgas.SharedMemoryTransport`)
and can instead run over :class:`~repro.pgas.SocketTransport` — TCP
one-sided RMA, the multi-node layout with processes standing in for nodes
— or mpi4py RMA where the dependency exists.  Workers do real one-sided
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

import dataclasses
import itertools
import os
import queue as queue_mod
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.catalog import Catalog
from repro.core.elbo import get_backend, resolve_backend_name
from repro.core.kernel import resolve_kernel_target_name
from repro.core.priors import Priors, default_priors
from repro.driver.checkpoint import (
    STAGES,
    Checkpoint,
    append_task_record,
    entry_from_dict,
    entry_to_dict,
    load_checkpoint,
    load_task_journal,
    save_checkpoint,
    task_journal_path,
)
from repro.driver.merge import dedup_catalog, merge_catalogs
from repro.driver.pool import WorkerPool
from repro.driver.shards import ShardedCatalog
from repro.driver.worker import (
    TaskConfig,
    _bounds_region,
    _box_touches_region,
    _comm_totals,
    _dict_delta,
    _execute_task,
    _FieldStore,
)
from repro.envvars import env_flag, env_int, env_raw
from repro.knobs import knob
from repro.parallel import ParallelRegionConfig
from repro.partition import Region, Task, generate_tasks
from repro.perf.counters import Counters
from repro.perf.driver import DriverReport
from repro.pgas import TRANSPORT_NAMES, make_transport
from repro.photo import PhotoConfig, run_photo
from repro.sched import Dtree, DtreeConfig
from repro.survey.image import Image
from repro.survey.io import save_field

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
#: parallel config sets a lockstep ELBO batch size — lets CI force every
#: source optimization through the batched evaluation path.
ELBO_BATCH_ENV_VAR = "REPRO_ELBO_BATCH"

#: Environment variable consulted when ``DriverConfig.race_detect`` is None
#: — lets CI run any driver pipeline under the shadow-transport race
#: detector without touching the config.
RACE_DETECT_ENV_VAR = "REPRO_RACE_DETECT"

#: Environment variable consulted when ``DriverConfig.verify_schedule`` is
#: None — pre-execution static verification of every Cyclades schedule.
VERIFY_SCHEDULE_ENV_VAR = "REPRO_VERIFY_SCHEDULE"

#: Environment variable consulted when ``DriverConfig.numeric_check`` is
#: None — lets CI run any driver pipeline under the runtime float
#: sanitizer without touching the config.
NUMERIC_CHECK_ENV_VAR = "REPRO_NUMERIC_CHECK"

#: Environment variable consulted when ``DriverConfig.pgas_transport`` is
#: None — lets CI force every driver run onto one PGAS transport (e.g. the
#: socket tier-1 leg).
PGAS_TRANSPORT_ENV_VAR = "REPRO_PGAS_TRANSPORT"

_EXECUTORS = ("thread", "process")

#: Unique per-stage epochs for pool-worker result attribution: a collector
#: must never mistake a straggler message from an earlier (possibly
#: failed) stage for one of its own.
_STAGE_EPOCH = itertools.count(1)


@dataclass
class DriverConfig:
    """Knobs of the end-to-end driver.

    ``n_nodes`` node-workers pull task batches from the Dtree; each task
    internally runs ``parallel.n_threads`` Cyclades threads — the driver's
    analogue of the paper's processes-per-node x threads-per-process layout.

    Every field carries an explicit provenance declaration
    (:func:`repro.knobs.knob`): ``fingerprinted`` knobs are part of
    :func:`_fingerprint`, the rest are machine-checked *not* to be (the
    KNOB3xx rules of ``python -m repro.analysis``) and fuzzer-pinned to be
    result-invariant (``tests/test_provenance.py``).
    """

    #: Node-workers pulling from the Dtree (the "nodes" of level two).
    n_nodes: int = knob(2, provenance="scheduling")
    #: Node-worker executor: ``"thread"`` or ``"process"``; ``None`` reads
    #: :data:`EXECUTOR_ENV_VAR`, defaulting to ``"thread"``.  Results are
    #: identical either way; only the memory/parallelism model changes.
    executor: str | None = knob(None, provenance="scheduling")
    #: Start method for process node-workers ("spawn" works everywhere and
    #: proves nothing leaks through fork; "fork" starts faster on Linux).
    mp_start_method: str = knob("spawn", provenance="scheduling")
    #: PGAS transport backing the sharded catalog, one of
    #: :data:`repro.pgas.TRANSPORT_NAMES`.  ``None`` reads
    #: :data:`PGAS_TRANSPORT_ENV_VAR`, then defaults by executor:
    #: ``"local"`` for thread workers, ``"shared_memory"`` for process
    #: workers.  ``"socket"`` serves the windows over TCP so workers can
    #: span real machines; ``"mpi"`` needs mpi4py.  Pure plumbing:
    #: catalogs are bit-identical across transports.
    pgas_transport: str | None = knob(None, provenance="scheduling")
    #: Journal per-task durable progress while a stage runs (needs
    #: ``checkpoint_path``): each completed Cyclades task appends its
    #: result rows to an fsynced journal, and a killed run resumes
    #: *mid-stage* — journaled tasks replay, the rest re-execute, and the
    #: final catalog is bit-for-bit the uninterrupted one's.
    task_checkpoint: bool = knob(True, provenance="scheduling")
    #: Fault injection (tests): the process node-worker executing this
    #: task id hard-exits right before reporting it — after the catalog
    #: write, the worst window — exactly once per run, so the retry on a
    #: surviving worker completes.  Ignored by the thread executor
    #: (killing a thread would kill the run).
    fault_kill_task: int | None = knob(None, provenance="scheduling")
    #: Fault injection (tests): abort the stage (simulated hard crash of
    #: the whole run) once this many tasks completed in it — the setup
    #: half of every resume-from-mid-stage test.
    fault_abort_after: int | None = knob(None, provenance="scheduling")
    #: Target bright-pixel weight per region (task granularity).
    target_weight: float = knob(40.0, provenance="fingerprinted")
    #: Run the shifted second-stage partition (paper Section IV-A).
    two_stage: bool = knob(True, provenance="fingerprinted")
    #: Dedup radius (pixels) for cross-field seed merging and final merge.
    dedup_radius: float = knob(2.0, provenance="fingerprinted")
    #: Extra margin (pixels) when matching image footprints to task regions,
    #: so patches of border sources still find their pixels.
    image_margin: float = knob(16.0, provenance="fingerprinted")
    #: Catalog sources within this many pixels outside a task's region are
    #: rendered into its model images as a frozen halo — without it, a
    #: source near a region border slides toward its unmodeled neighbor's
    #: flux and the fit corrupts.  The margin box is closed on both sides.
    halo_margin: float = knob(16.0, provenance="fingerprinted")
    #: Re-read the halo from the live working catalog at each optimization
    #: pass instead of the stage-start snapshot, so boundary sources see
    #: their neighbors' freshest parameters.  Costs reproducibility:
    #: results then depend on task completion order, so kill/resume no
    #: longer reproduces a run bit-for-bit (default keeps snapshot
    #: semantics).
    halo_refresh: bool = knob(False, provenance="fingerprinted")
    #: Task ids granted per Dtree request.
    max_batch: int = knob(2, provenance="scheduling")
    #: Tasks peeked ahead per Dtree request to drive field prefetching.
    prefetch_lookahead: int = knob(4, provenance="scheduling")
    #: Loaded on-disk fields kept per worker (LRU).
    field_cache_capacity: int = knob(16, provenance="scheduling")
    photo: PhotoConfig = knob(default_factory=PhotoConfig,
                              provenance="fingerprinted")
    parallel: ParallelRegionConfig = knob(
        default_factory=ParallelRegionConfig, provenance="fingerprinted")
    dtree: DtreeConfig = knob(default_factory=DtreeConfig,
                              provenance="scheduling")
    #: ELBO evaluation backend for every source optimization in the run:
    #: ``"fused"`` (compile-once analytic kernel, the production default)
    #: or ``"taylor"`` (the reference oracle).  ``None`` defers to
    #: ``parallel.joint.single.backend``, then the ``REPRO_ELBO_BACKEND``
    #: environment variable, then the front end's default.  The driver
    #: resolves this once up front and pins the result into the per-task
    #: optimizer config, so process workers and resumed runs can never pick
    #: a different backend than the checkpoint fingerprint recorded.
    elbo_backend: str | None = knob(None, provenance="fingerprinted")
    #: Sources per lockstep ELBO evaluation batch inside each Cyclades
    #: thread assignment (see ``ParallelRegionConfig.elbo_batch_size``).
    #: ``None`` defers to ``parallel.elbo_batch_size``, then the
    #: ``REPRO_ELBO_BATCH`` environment variable; the resolved value is
    #: pinned into the parallel config up front (so process workers inherit
    #: it through the pickled config) and lands in the checkpoint
    #: fingerprint alongside the backend.  Catalogs are bit-for-bit
    #: identical whatever the batch size — an invariant the test suite
    #: enforces rather than assumes, which is why the knob is fingerprinted
    #: like a result-affecting one.
    elbo_batch_size: int | None = knob(None, provenance="fingerprinted")
    #: Kernel execution target for the fused backend's stacked sweeps:
    #: ``"numpy"`` (the bit-for-bit reference and default), ``"array_api"``,
    #: or ``"numba"`` (see :mod:`repro.core.kernel_targets`).  ``None``
    #: defers to ``parallel.joint.single.kernel_target``, then the
    #: ``REPRO_KERNEL_TARGET`` environment variable, then the default.
    #: Resolved and pinned once up front like ``elbo_backend`` and
    #: checkpoint-fingerprinted: non-default targets promise tolerance
    #: parity only (their reductions re-associate), so a resumed run must
    #: never silently switch targets mid-stream.
    kernel_target: str | None = knob(None, provenance="fingerprinted")
    #: Run the whole pipeline under the shadow-transport race detector
    #: (:mod:`repro.analysis.race`): every one-sided catalog access and
    #: every Cyclades patch write is tagged with its (actor, logical epoch)
    #: and cross-checked for same-epoch overlap between different actors.
    #: Findings land in ``DriverReport.race_reports``.  ``None`` reads
    #: :data:`RACE_DETECT_ENV_VAR`.  Observational only: results are
    #: bit-identical with it on or off, so it is not fingerprinted.
    race_detect: bool | None = knob(None, provenance="observational")
    #: Statically verify every Cyclades pass's batches *before executing
    #: them* with the independent checker (:mod:`repro.analysis.schedule`),
    #: raising on any cross-thread patch overlap or split component.
    #: ``None`` reads :data:`VERIFY_SCHEDULE_ENV_VAR`.  Observational only.
    verify_schedule: bool | None = knob(None, provenance="observational")
    #: Run the whole pipeline under the runtime float sanitizer
    #: (:mod:`repro.analysis.numeric`): every ELBO evaluation and
    #: trust-region step is checked for non-finite values, overflow,
    #: asymmetric Hessian blocks, and catastrophic cancellation, with
    #: findings attributed (source, lane, term, stage, actor) in
    #: ``DriverReport.numeric_reports``.  ``None`` reads
    #: :data:`NUMERIC_CHECK_ENV_VAR`.  Observational only: results are
    #: bit-identical with it on or off, so it is not fingerprinted.
    numeric_check: bool | None = knob(None, provenance="observational")
    #: JSON checkpoint file; ``None`` disables checkpointing.  The working
    #: catalog checkpoints as ``n_nodes`` per-rank shard files.
    checkpoint_path: str | None = knob(None, provenance="scheduling")
    #: Stop (return) right after this stage completes and checkpoints —
    #: simulates a killed run for resume testing, and supports staged
    #: operation (e.g. seed on one machine, optimize on another).
    stop_after: str | None = knob(None, provenance="scheduling")


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
        return "shared_memory" if executor == "process" else "local"
    if name not in TRANSPORT_NAMES:
        raise ValueError(
            "pgas_transport must be one of %r, got %r"
            % (TRANSPORT_NAMES, name)
        )
    if executor == "process" and name == "local":
        raise ValueError(
            "the in-process 'local' transport cannot back process "
            "node-workers; use shared_memory, socket, or mpi"
        )
    return name


def _resolve_elbo_batch_size(config: DriverConfig) -> int | None:
    """The lockstep evaluation batch size a run will use: an explicit
    ``DriverConfig.elbo_batch_size`` wins, then the parallel config's own
    field, then :data:`ELBO_BATCH_ENV_VAR`; ``None``/``1`` means one lane
    per evaluation."""
    size = config.elbo_batch_size
    if size is None:
        size = config.parallel.elbo_batch_size
    if size is None:
        size = env_int(ELBO_BATCH_ENV_VAR)
    if size is not None and size < 1:
        raise ValueError(
            "elbo_batch_size must be a positive integer, got %r" % (size,)
        )
    return size


def _pin_elbo_backend(config: DriverConfig) -> DriverConfig:
    """Resolve the ELBO backend and batch size once and pin them through
    the config tree.

    Backend precedence: ``config.elbo_backend``, then the single-source
    optimizer's own ``backend`` field, then the ``REPRO_ELBO_BACKEND``
    environment variable / default.  After this the nested
    ``OptimizeConfig.backend`` is always a concrete name, so the
    fingerprint (which recurses into ``config.parallel``) records the
    backend that actually runs, and process node-workers inherit it through
    the pickled config instead of re-reading their own environment.  The
    lockstep batch size is resolved the same way
    (:func:`_resolve_elbo_batch_size`) and pinned into
    ``parallel.elbo_batch_size``, and the kernel execution target
    (``config.kernel_target``, then ``single.kernel_target``, then
    ``REPRO_KERNEL_TARGET``/default) is validated *by name* — without
    importing the target's module, so pinning never requires the optional
    dependency — and pinned into ``single.kernel_target``.
    """
    joint = config.parallel.joint
    backend = resolve_backend_name(
        config.elbo_backend
        if config.elbo_backend is not None
        else joint.single.backend
    )
    batch_size = _resolve_elbo_batch_size(config)
    explicit_target = (
        config.kernel_target
        if config.kernel_target is not None
        else joint.single.kernel_target
    )
    if explicit_target is None and not getattr(
        get_backend(backend), "supports_kernel_targets", False
    ):
        # The REPRO_KERNEL_TARGET default only applies to backends with an
        # execution-target concept; pinning it onto the Taylor oracle would
        # turn an environment default into a hard config error there.  An
        # *explicit* target with such a backend stays pinned and is
        # rejected loudly at evaluation time.
        target = None
    else:
        target = resolve_kernel_target_name(explicit_target)
    return replace(
        config,
        elbo_backend=backend,
        elbo_batch_size=batch_size,
        kernel_target=target,
        parallel=replace(
            config.parallel,
            elbo_batch_size=batch_size,
            joint=replace(joint, single=replace(
                joint.single, backend=backend, kernel_target=target)),
        ),
    )


def _resolve_opt_flag(value: bool | None, env_var: str) -> bool:
    if value is not None:
        return bool(value)
    return env_flag(env_var)


def _pin_analysis_flags(config: DriverConfig) -> DriverConfig:
    """Resolve the race-detect / verify-schedule opt-ins once (config wins,
    then environment) and pin the booleans through the config tree, so
    process node-workers inherit them through the pickled config instead of
    re-reading their own environment — the same resolve-once discipline as
    :func:`_pin_elbo_backend`."""
    race = _resolve_opt_flag(config.race_detect, RACE_DETECT_ENV_VAR)
    verify = _resolve_opt_flag(config.verify_schedule,
                               VERIFY_SCHEDULE_ENV_VAR)
    numeric = _resolve_opt_flag(config.numeric_check, NUMERIC_CHECK_ENV_VAR)
    return replace(
        config,
        race_detect=race,
        verify_schedule=verify,
        numeric_check=numeric,
        parallel=replace(config.parallel, race_detect=race,
                         verify_schedule=verify, numeric_check=numeric),
    )


@dataclass
class TaskOutcome:
    """Per-task execution record (diagnostics; not checkpointed)."""

    task_id: int
    stage: int
    worker: int
    n_sources: int
    elbo: float
    seconds: float


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


def _halo_indices(
    positions: np.ndarray, own: set, region: Region, margin: float
) -> list[int]:
    """Catalog indices inside the task's halo margin box, excluding its own
    sources.

    The box is closed on *both* sides: a neighbor sitting exactly on the
    far margin edge contributes its flux to border pixels just like one on
    the near edge, so a half-open upper bound would asymmetrically drop it.
    """
    if len(positions) == 0:
        return []
    x, y = positions[:, 0], positions[:, 1]
    mask = (
        (x >= region.x_min - margin) & (x <= region.x_max + margin)
        & (y >= region.y_min - margin) & (y <= region.y_max + margin)
    )
    return [int(j) for j in np.nonzero(mask)[0] if int(j) not in own]


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
    field, not the survey.
    """
    from repro.survey.io import load_field

    per_field = [
        run_photo(load_field(f) if isinstance(f, str) else f, config.photo)
        for f in fields
    ]
    return merge_catalogs(per_field, config.dedup_radius)


def _seed_catalog_from_store(store: _FieldStore, config: DriverConfig) -> Catalog:
    per_field = [run_photo(store.field(i), config.photo)
                 for i in range(store.n_fields)]
    return merge_catalogs(per_field, config.dedup_radius)


# ---------------------------------------------------------------------------
# Stages 2+3+4: Dtree-scheduled two-stage optimization


def _fingerprint(store: _FieldStore, config: DriverConfig) -> dict:
    """Identity of a run for checkpoint compatibility checks.

    Covers every knob that affects *results*: the inputs, the partition and
    merge parameters, the halo/image margins and refresh policy, the Photo
    thresholds, and the full parallel/joint/single optimizer configuration
    (``asdict`` recurses into nested dataclasses — including the resolved
    ELBO backend, which :func:`_pin_elbo_backend` writes into
    ``parallel.joint.single.backend`` before this runs, so a checkpoint
    taken under one backend is never resumed under the other).  Purely
    scheduling-side knobs (``n_nodes``, ``executor``, ``dtree``,
    ``max_batch``, prefetch depth) are deliberately excluded: task results
    are independent of completion order and of the memory model, so a run
    may legitimately resume with a different worker layout or executor.
    """
    return {
        "n_fields": store.n_fields,
        "field_shapes": store.field_shapes(),
        "target_weight": config.target_weight,
        "two_stage": config.two_stage,
        "dedup_radius": config.dedup_radius,
        "image_margin": config.image_margin,
        "halo_margin": config.halo_margin,
        "halo_refresh": config.halo_refresh,
        "photo": dataclasses.asdict(config.photo),
        "parallel": _parallel_fingerprint(config.parallel),
        # Also recorded inside parallel.joint.single.backend; named at the
        # top level so fingerprint mismatches across default-backend changes
        # are legible in the checkpoint file itself.
        "elbo_backend": config.elbo_backend,
        # Result-neutral by hard invariant (lanes are independent to the
        # bit, tested), but fingerprinted anyway — also inside
        # parallel.elbo_batch_size — so a resumed run's evaluation layout
        # is recorded next to its backend.
        "elbo_batch_size": config.elbo_batch_size,
        # Also recorded inside parallel.joint.single.kernel_target.
        # Result-affecting across non-default targets (they promise
        # tolerance parity only — reductions re-associate), so resume
        # refuses across targets.
        "kernel_target": config.kernel_target,
    }


def _parallel_fingerprint(parallel: ParallelRegionConfig) -> dict:
    d = dataclasses.asdict(parallel)
    # Observational-only knobs: detection and verification never change
    # results (the detector's job is to *prove* that), so a checkpointed
    # run may legitimately resume with them toggled — like the excluded
    # scheduling-side knobs.
    d.pop("race_detect", None)
    d.pop("verify_schedule", None)
    d.pop("numeric_check", None)
    # Batch coalescing is an execution strategy (bit-for-bit invariant,
    # tested): resuming with it toggled is as legitimate as resuming with
    # a different executor.
    d.pop("coalesce_batches", None)
    return d


def _task_config(config: DriverConfig) -> TaskConfig:
    """What task execution reads of the (pinned) driver config — the form
    in which it reaches :func:`_execute_task` and, pickled, the seats."""
    return TaskConfig(
        parallel=config.parallel,
        image_margin=config.image_margin,
        halo_refresh=config.halo_refresh,
        field_cache_capacity=config.field_cache_capacity,
        fault_kill_task=config.fault_kill_task,
    )


class _StageRunnerBase:
    """Shared bookkeeping of the two executors."""

    def __init__(self, store, working, priors, config, counters):
        self.store: _FieldStore = store
        self.working: ShardedCatalog = working
        self.priors = priors
        self.config: DriverConfig = config
        self.task_config = _task_config(config)
        self.counters: Counters = counters
        self.outcomes: list[TaskOutcome] = []
        #: Task-granular checkpoint journal for the stage being run; set by
        #: the driver before each ``run`` when task checkpointing is on.
        self.journal_path: str | None = None
        self._completed_in_stage = 0
        # Baseline at runner creation (i.e. after seeding): the report's
        # prefetch hit/miss numbers cover the optimization stages only, so
        # the thread executor (parent store) and the process executor
        # (per-worker stores) measure the same thing.
        self._prefetch_applied: dict = dict(store.prefetch_stats())
        # One detector for the runner's lifetime (it spans stages); the
        # report only ever receives each finding once (_sync_race_reports).
        self.race_detector = None
        self._race_synced = 0
        if config.race_detect:
            from repro.analysis.race import RaceDetector

            self.race_detector = RaceDetector()
        # Same lifetime/watermark discipline for the numeric sanitizer: one
        # sink spanning stages, findings shipped to the report exactly once.
        self.numeric_sink = None
        self._numeric_shipped: set[tuple] = set()
        if config.numeric_check:
            from repro.analysis.numeric import NumericSanitizer

            self.numeric_sink = NumericSanitizer()

    def _sync_numeric_reports(self, report: DriverReport) -> None:
        """Append sanitizer findings made since the last sync to the report
        (checkpoint-resumed reports already carry earlier stages').  The
        sink's report list is sorted rather than arrival-ordered, so the
        additive guarantee uses the dedup key, not a count watermark."""
        if self.numeric_sink is None:
            return
        for r in self.numeric_sink.reports:
            d = r.as_dict()
            key = (d["kind"], d["stage"], d["term"], d["source"], d["lane"],
                   tuple(d["actor"]))
            if key in self._numeric_shipped:
                continue
            self._numeric_shipped.add(key)
            report.numeric_reports.append(d)

    def _sync_race_reports(self, report: DriverReport) -> None:
        """Append findings made since the last sync to the report.

        A checkpoint-resumed report already carries earlier stages'
        findings; the consumed-count watermark keeps this additive."""
        if self.race_detector is None:
            return
        found = self.race_detector.reports
        new = found[self._race_synced:]
        self._race_synced = len(found)
        report.race_reports.extend(r.as_dict() for r in new)

    def _lookahead_hint(self, dtree: Dtree, worker: int, batch: list[int],
                        tasks: list[Task]) -> list[int]:
        """Field indices the current batch plus the Dtree look-ahead will
        need — the prefetch hint."""
        config = self.config
        tids = list(batch) + dtree.peek(worker, config.prefetch_lookahead)
        out: list[int] = []
        for tid in tids:
            for i in self.store.field_indices_for_region(
                tasks[tid].region, config.image_margin
            ):
                if i not in out:
                    out.append(i)
        return out

    def _apply_prefetch_stats(self, report: DriverReport, stats: dict) -> None:
        delta = _dict_delta(stats, self._prefetch_applied)
        self._prefetch_applied = dict(stats)
        report.prefetch_hits += int(delta.get("prefetch_hits", 0))
        report.prefetch_misses += int(delta.get("prefetch_misses", 0))
        report.prefetch_seconds += float(delta.get("prefetch_seconds", 0.0))

    def _apply_replay(self, tasks: list[Task], replay, report: DriverReport,
                      stage_elbo: list) -> set:
        """Apply journaled task results to the working catalog and account
        for them; returns the replayed task ids.

        MUST run *after* the stage-start snapshot was taken: remaining
        tasks read their halos from the snapshot, which has to hold
        pre-stage values for bit parity with an uninterrupted run.
        Records that do not match a task of this stage (stale journal,
        corrupt tail) are ignored — those tasks simply re-execute.
        """
        if not replay:
            return set()
        by_id = {t.task_id: t for t in tasks}
        replayed: set[int] = set()
        for rec in replay:
            tid = rec.get("task_id")
            task = by_id.get(tid)
            if task is None or tid in replayed:
                continue
            indices = [int(i) for i in rec.get("indices", [])]
            rows = rec.get("rows", [])
            if indices != [int(i) for i in task.source_indices] \
                    or len(rows) != len(indices):
                continue
            self.working.put_entries(
                indices, [entry_from_dict(r) for r in rows])
            replayed.add(tid)
            elbo = float(rec.get("elbo", 0.0))
            stage_elbo[0] += elbo
            report.n_source_updates += (
                task.n_sources * self.config.parallel.n_passes
            )
            self.outcomes.append(TaskOutcome(
                task_id=tid, stage=task.stage, worker=-1,
                n_sources=task.n_sources, elbo=elbo, seconds=0.0,
            ))
        if replayed:
            report.recoveries.append({
                "kind": "task_replay",
                "stage": int(tasks[0].stage),
                "n_tasks": len(replayed),
            })
        return replayed

    def _journal_task(self, task: Task, elbo: float) -> None:
        """Durably record one completed task: its result rows are read
        back from the working catalog (safe — only this task writes them)
        so both executors share one journaling path."""
        if self.journal_path is None:
            return
        rows = self.working.get_entries(task.source_indices)
        append_task_record(self.journal_path, {
            "task_id": int(task.task_id),
            "stage": int(task.stage),
            "n_sources": int(task.n_sources),
            "elbo": float(elbo),
            "indices": [int(i) for i in task.source_indices],
            "rows": [entry_to_dict(e) for e in rows],
        })

    def _count_completed(self) -> None:
        """Fault injection: simulate a hard crash of the run once
        ``fault_abort_after`` tasks completed in this stage."""
        self._completed_in_stage += 1
        abort_after = self.config.fault_abort_after
        if abort_after is not None and self._completed_in_stage >= abort_after:
            raise RuntimeError(
                "fault injection: simulated crash after %d completed tasks"
                % self._completed_in_stage
            )

    def close(self) -> None:  # pragma: no cover - overridden where needed
        pass


class _ThreadStageRunner(_StageRunnerBase):
    """Node-workers as threads in this address space (the PR-1 layout).

    Cheap to start and fine when the NumPy kernels release the GIL, but
    Python-level work serializes — the limitation the process executor
    removes.
    """

    def __init__(self, store, working, priors, config, counters):
        super().__init__(store, working, priors, config, counters)
        self._lock = threading.Lock()

    def run(self, tasks: list[Task], report: DriverReport,
            replay=None) -> float:
        """Run every task in ``tasks``; returns the stage's total ELBO.
        ``replay`` holds journaled records of tasks a killed run already
        completed — applied instead of re-executed."""
        if not tasks:
            return 0.0
        config = self.config
        self._completed_in_stage = 0
        # Tasks read entries and halos from the stage-start snapshot, never
        # from live results of concurrent tasks: results must not depend on
        # task completion order (and a resumed run must reproduce them).
        # The snapshot is taken *before* replayed rows land in the working
        # catalog: a re-executed task whose halo contains a replayed source
        # must see its pre-stage value, exactly as the original run did.
        base = ShardedCatalog(self.working.n_rows, self.working.n_ranks)
        base.copy_rows_from(self.working)
        positions = base.positions()
        stage_elbo = [0.0]
        replayed = self._apply_replay(tasks, replay, report, stage_elbo)
        report.n_tasks += len(tasks)
        run_tasks = [t for t in tasks if t.task_id not in replayed]
        if not run_tasks:
            return stage_elbo[0]
        tasks = run_tasks
        dtree = Dtree(config.n_nodes, len(tasks), config.dtree)
        sched_s = [0.0] * config.n_nodes
        task_s = [0.0] * config.n_nodes
        errors: list[BaseException] = []

        def node_worker(w: int) -> None:
            try:
                detector = self.race_detector
                if detector is not None:
                    base_view, base_rec, base_shadow = base.shadow_view(
                        w, detector, "cat-base")
                    work_view, work_rec, work_shadow = \
                        self.working.shadow_view(w, detector, "cat-work")
                else:
                    base_view, base_rec = base.recording_view(w)
                    work_view, work_rec = self.working.recording_view(w)
                    base_shadow = work_shadow = None
                while True:
                    t0 = time.perf_counter()
                    batch = dtree.request(w, max_batch=config.max_batch)
                    sched_s[w] += time.perf_counter() - t0
                    if not batch:
                        break
                    hinted_version = dtree.version
                    self.store.hint_fields(
                        self._lookahead_hint(dtree, w, batch, tasks)
                    )
                    for pos, tid in enumerate(batch):
                        if dtree.version != hinted_version:
                            # The schedule moved under us since the hint
                            # (a sibling's grant drained pools we peeked):
                            # re-peek at dispatch so the prefetcher tracks
                            # the fields this worker will actually need,
                            # not the ones it would have before stealing.
                            hinted_version = dtree.version
                            self.store.hint_fields(self._lookahead_hint(
                                dtree, w, batch[pos:], tasks))
                        t1 = time.perf_counter()
                        task = tasks[tid]
                        halo_idx = _halo_indices(
                            positions, set(task.source_indices),
                            task.region, config.halo_margin,
                        )
                        if base_shadow is not None:
                            # Concurrently scheduled tasks of one stage
                            # share a logical epoch: any same-epoch catalog
                            # overlap between tasks is a race.
                            actor = ("task", task.task_id)
                            epoch = ("stage", task.stage)
                            base_shadow.set_task(actor, epoch)
                            work_shadow.set_task(actor, epoch)
                        result = _execute_task(
                            task, halo_idx, base_view, work_view, self.store,
                            self.priors, self.task_config, self.counters,
                        )
                        seconds = time.perf_counter() - t1
                        task_s[w] += seconds
                        if result is None:
                            continue
                        if detector is not None:
                            detector.absorb(result.race_reports)
                        if self.numeric_sink is not None:
                            self.numeric_sink.absorb(result.numeric_reports)
                        with self._lock:
                            stage_elbo[0] += result.elbo_total
                            report.n_source_updates += (
                                task.n_sources * config.parallel.n_passes
                            )
                            self.outcomes.append(TaskOutcome(
                                task_id=task.task_id,
                                stage=task.stage,
                                worker=w,
                                n_sources=task.n_sources,
                                elbo=result.elbo_total,
                                seconds=seconds,
                            ))
                            self._journal_task(task, result.elbo_total)
                            self._count_completed()
                with self._lock:
                    comm = _comm_totals(base_rec, work_rec)
                    report.add_worker_comm(w, **comm)
            except BaseException as exc:  # noqa: BLE001 - reraised below
                with self._lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=node_worker, args=(w,), daemon=True)
            for w in range(config.n_nodes)
        ]
        t_start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        report.wall_seconds += time.perf_counter() - t_start
        report.sched_seconds += sum(sched_s)
        report.task_seconds += sum(task_s)
        report.messages += dtree.stats["messages"]
        report.hops += dtree.stats["hops"]
        self._apply_prefetch_stats(report, self.store.prefetch_stats())
        self._sync_race_reports(report)
        self._sync_numeric_reports(report)
        return stage_elbo[0]


class _ProcessStageRunner(_StageRunnerBase):
    """Node-workers as pool seats over pluggable PGAS windows.

    The parent keeps the Dtree and pumps batches to the pool's per-seat
    queues (one pump thread per seat, so the request/complete cadence
    matches the thread executor); workers access the catalog one-sidedly
    through the configured transport (shared-memory windows or socket RMA)
    and never see more of it than their tasks touch.  Seats come from an
    elastic :class:`~repro.driver.pool.WorkerPool` that :func:`run_pipeline`
    owns or was lent, already booting by the time this runner exists, and
    are re-bound to this run's state at every stage.  A seat whose process
    dies mid-stage is recovered: its undispatched leaf pool is reclaimed
    into the Dtree, its in-flight tasks are re-dispatched to survivors,
    and the event is recorded in ``DriverReport.recoveries``.
    """

    def __init__(self, store, working, priors, config, counters,
                 fields_spec: list, pool: WorkerPool, transport_name: str,
                 run_started: float):
        super().__init__(store, working, priors, config, counters)
        self._scratch_dir: str | None = None
        self._closed = False
        self.pool = pool
        self.transport_name = transport_name
        #: ``time.time()`` at the start of the run, and the largest
        #: first-bind lag past it seen so far (spawn_bind_seconds).
        self._run_started = run_started
        self._spawn_bind = 0.0
        # The snapshot is only written between stages (no tasks in flight),
        # so it needs no rank locking even in halo_refresh mode.
        self.base = ShardedCatalog(
            working.n_rows, working.n_ranks,
            transport=make_transport(transport_name),
        )
        try:
            # Scratch space for this runner: spilled field files and the
            # fault-injection kill markers (consumed-once tokens).
            self._scratch_dir = tempfile.mkdtemp(prefix="repro-driver-")
            # Workers must never hold the whole survey: spill in-memory
            # fields to temp field files once and ship paths, so each
            # worker's prefetcher loads only the fields its tasks touch
            # (on-disk fields ship as the paths they already are).
            if any(not isinstance(f, str) for f in fields_spec):
                spilled = []
                for i, spec in enumerate(fields_spec):
                    if isinstance(spec, str):
                        spilled.append(spec)
                    else:
                        path = os.path.join(
                            self._scratch_dir, "field%d.npz" % i
                        )
                        save_field(path, spec)
                        spilled.append(path)
                fields_spec = spilled
            self._fields_spec = fields_spec
        except BaseException:
            # Partial construction must not leak segments or spilled files.
            self.close()
            raise

    def run(self, tasks: list[Task], report: DriverReport,
            replay=None) -> float:
        if not tasks:
            return 0.0
        config = self.config
        self._completed_in_stage = 0
        # Stage-start snapshot, taken *before* replayed rows land in the
        # working catalog (see _ThreadStageRunner.run for why).
        self.base.copy_rows_from(self.working)
        positions = self.base.positions()
        stage_elbo = [0.0]
        replayed = self._apply_replay(tasks, replay, report, stage_elbo)
        report.n_tasks += len(tasks)
        run_tasks = [t for t in tasks if t.task_id not in replayed]
        if not run_tasks:
            return stage_elbo[0]
        tasks = run_tasks
        task_by_id = {t.task_id: t for t in tasks}

        # Elastic sizing: never bind more seats than there are tasks, and
        # respawn/grow the pool to exactly what this stage needs.
        n = max(1, min(config.n_nodes, len(tasks)))
        self.pool.ensure(n)
        epoch = next(_STAGE_EPOCH)
        metadata = self.store.metadata()

        def bind(s: int) -> None:
            self.pool.send(s, (
                "bind", epoch, s, self._fields_spec, metadata, self.priors,
                self.task_config, self.base, self.working,
                self._scratch_dir,
            ))

        for w in range(n):
            bind(w)

        dtree = Dtree(n, len(tasks), config.dtree)
        pending = [0] * n
        conds = [threading.Condition() for _ in range(n)]
        #: Per-seat map of task_id -> (task, halo_idx, hint) shipped but
        #: not yet reported done — what a dead seat's recovery re-dispatches.
        inflight: list[dict] = [{} for _ in range(n)]
        dead = [False] * n
        done_tids: set[int] = set()
        deaths = [0]
        active_pumps = [n]
        sched_s = [0.0] * n
        task_s = [0.0] * n
        errors: list[BaseException] = []
        failed = threading.Event()

        def fail(exc: BaseException) -> None:
            errors.append(exc)
            failed.set()
            for w in range(n):
                with conds[w]:
                    pending[w] = 0
                    conds[w].notify_all()

        def dispatch(s: int, task: Task, halo_idx, hint) -> None:
            with conds[s]:
                pending[s] += 1
                inflight[s][task.task_id] = (task, halo_idx, hint)
            self.pool.send(s, ("task", task, halo_idx, hint))

        def survivors_or_respawn(exclude: int | None = None) -> list[int]:
            """Live, usable seats — respawning dead ones (and re-binding
            them to this stage's state) when none survive, so a run on one
            node-worker can outlive that worker's death."""
            alive = [s for s in range(n)
                     if s != exclude and not dead[s] and self.pool.alive(s)]
            if alive:
                return alive
            for s in self.pool.ensure(n):
                dead[s] = False
                bind(s)
            return [s for s in range(n)
                    if not dead[s] and self.pool.alive(s)]

        def recover(w: int) -> None:
            """Seat ``w``'s process died: reclaim its undispatched work
            and re-dispatch its in-flight tasks to surviving seats (safe —
            a task that half-ran before the crash never reported done, so
            re-executing it against the immutable stage snapshot writes
            the same rows it would have)."""
            deaths[0] += 1
            if deaths[0] > max(2 * n, 4):
                fail(RuntimeError(
                    "process node-workers keep dying (%d deaths this "
                    "stage); giving up" % deaths[0]
                ))
                return
            dead[w] = True
            with conds[w]:
                items = list(inflight[w].items())
                inflight[w].clear()
                pending[w] = 0
                conds[w].notify_all()
            dtree.reclaim(w)
            report.recoveries.append({
                "kind": "worker_death",
                "stage": int(tasks[0].stage),
                "worker": int(w),
                "retried": sorted(tid for tid, _ in items),
            })
            survivors = survivors_or_respawn(exclude=w)
            if not survivors:
                fail(RuntimeError(
                    "process node-worker %d died and no node-workers "
                    "survive to take over its %d in-flight tasks"
                    % (w, len(items))
                ))
                return
            for i, (tid, item) in enumerate(items):
                dispatch(survivors[i % len(survivors)], *item)

        def drain_stranded() -> None:
            """Every pump exited and nothing is in flight, yet tasks
            remain: work reclaimed from a dead seat landed at the Dtree
            root *after* the surviving pumps saw an empty tree and
            returned.  Dispatch it directly, round-robin."""
            survivors = survivors_or_respawn()
            if not survivors:
                fail(RuntimeError(
                    "all process node-workers died with %d tasks "
                    "unfinished" % (len(tasks) - len(done_tids))
                ))
                return
            i = 0
            while True:
                batch = dtree.request(survivors[0],
                                      max_batch=config.max_batch)
                if not batch:
                    return
                hint = self._lookahead_hint(
                    dtree, survivors[0], batch, tasks)
                for tid in batch:
                    task = tasks[tid]
                    halo_idx = _halo_indices(
                        positions, set(task.source_indices),
                        task.region, config.halo_margin,
                    )
                    dispatch(survivors[i % len(survivors)],
                             task, halo_idx, hint)
                    i += 1

        def collect() -> None:
            total = len(tasks)
            while len(done_tids) < total and not failed.is_set():
                try:
                    msg = self.pool.result_q.get(timeout=0.2)
                except queue_mod.Empty:
                    for w in range(n):
                        if (not dead[w] and pending[w] > 0
                                and not self.pool.alive(w)):
                            recover(w)
                    if (not failed.is_set() and active_pumps[0] == 0
                            and sum(pending) == 0):
                        drain_stranded()
                    continue
                if msg[0] == "error":
                    _, w, msg_epoch, tb = msg
                    if msg_epoch == epoch:
                        fail(RuntimeError(
                            "process node-worker %d failed:\n%s" % (w, tb)
                        ))
                        return
                    continue  # pragma: no cover - stale straggler
                (_, msg_epoch, w, task_id, stage, executed, n_sources,
                 elbo, seconds, counter_delta, comm_delta, prefetch_delta,
                 region_races, accesses, region_numeric,
                 first_bind_at) = msg
                if msg_epoch != epoch:
                    # Straggler from an earlier bind (e.g. a stage that
                    # failed with results unconsumed): not this stage's.
                    continue
                if first_bind_at is not None:
                    # A seat's first result ever: how long after the run
                    # started it stood bound.  The row is the latest seat
                    # (a warm seat ships no stamp and adds nothing).
                    lag = first_bind_at - self._run_started
                    if lag > self._spawn_bind:
                        report.spawn_bind_seconds += lag - self._spawn_bind
                        self._spawn_bind = lag
                first = task_id not in done_tids
                done_tids.add(task_id)
                with conds[w]:
                    inflight[w].pop(task_id, None)
                    pending[w] = max(0, pending[w] - 1)
                    conds[w].notify_all()
                if not first:
                    # A re-dispatched task whose first execution reported
                    # after all: identical result (deterministic against
                    # the same snapshot), already accounted — drop it.
                    continue
                if self.race_detector is not None:
                    self.race_detector.absorb(region_races)
                    self.race_detector.ingest(accesses)
                if self.numeric_sink is not None:
                    self.numeric_sink.absorb(region_numeric)
                for name, value in counter_delta.items():
                    self.counters.add(name, value)
                report.add_worker_comm(w, **comm_delta)
                report.prefetch_hits += int(
                    prefetch_delta.get("prefetch_hits", 0))
                report.prefetch_misses += int(
                    prefetch_delta.get("prefetch_misses", 0))
                report.prefetch_seconds += float(
                    prefetch_delta.get("prefetch_seconds", 0.0))
                task_s[w] += seconds
                if executed:
                    stage_elbo[0] += elbo
                    report.n_source_updates += (
                        n_sources * config.parallel.n_passes
                    )
                    self.outcomes.append(TaskOutcome(
                        task_id=task_id, stage=stage, worker=w,
                        n_sources=n_sources, elbo=elbo, seconds=seconds,
                    ))
                    try:
                        self._journal_task(task_by_id[task_id], elbo)
                        self._count_completed()
                    except BaseException as exc:  # noqa: BLE001
                        fail(exc)
                        return

        def pump(w: int) -> None:
            try:
                while not failed.is_set() and not dead[w]:
                    t0 = time.perf_counter()
                    batch = dtree.request(w, max_batch=config.max_batch)
                    sched_s[w] += time.perf_counter() - t0
                    if not batch:
                        return
                    hinted_version = dtree.version
                    hint = self._lookahead_hint(dtree, w, batch, tasks)
                    for pos, tid in enumerate(batch):
                        if failed.is_set() or dead[w]:
                            return
                        if dtree.version != hinted_version:
                            # The schedule moved under us since the hint
                            # (a sibling's grant drained pools we peeked):
                            # re-peek at dispatch so the shipped hint
                            # tracks the fields this worker will actually
                            # need, not the pre-stealing guess.
                            hinted_version = dtree.version
                            hint = self._lookahead_hint(
                                dtree, w, batch[pos:], tasks)
                        task = tasks[tid]
                        halo_idx = _halo_indices(
                            positions, set(task.source_indices),
                            task.region, config.halo_margin,
                        )
                        dispatch(w, task, halo_idx, hint)
                    # Match the thread executor's cadence: request the next
                    # batch only after this one completed, so the Dtree's
                    # dynamic load balancing still sees completion times.
                    with conds[w]:
                        while (pending[w] > 0 and not failed.is_set()
                               and not dead[w]):
                            conds[w].wait(timeout=0.5)
            except BaseException as exc:  # noqa: BLE001
                fail(exc)
            finally:
                with self._pump_lock:
                    active_pumps[0] -= 1

        self._pump_lock = threading.Lock()
        collector = threading.Thread(target=collect, daemon=True)
        pumps = [
            threading.Thread(target=pump, args=(w,), daemon=True)
            for w in range(n)
        ]
        t_start = time.perf_counter()
        collector.start()
        for t in pumps:
            t.start()
        for t in pumps:
            t.join()
        collector.join()
        if errors:
            raise errors[0]
        report.wall_seconds += time.perf_counter() - t_start
        report.sched_seconds += sum(sched_s)
        report.task_seconds += sum(task_s)
        report.messages += dtree.stats["messages"]
        report.hops += dtree.stats["hops"]
        self._sync_race_reports(report)
        self._sync_numeric_reports(report)
        return stage_elbo[0]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Hand the pool back with its seats unbound so they stop pinning
        # the catalog windows unlinked below (a private pool was already
        # closed by run_pipeline, and has no seat left to tell).
        self.pool.release()
        transport = self.base.array.transport
        if hasattr(transport, "unlink"):
            transport.unlink()
        if self._scratch_dir is not None:
            shutil.rmtree(self._scratch_dir, ignore_errors=True)


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
    # Pin the ELBO backend before anything reads or fingerprints the config.
    config = _pin_elbo_backend(config)
    # Resolve the analysis opt-ins the same way (config, then environment).
    config = _pin_analysis_flags(config)
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

    store = _FieldStore(fields, config.field_cache_capacity)
    runner = working = private_pool = None
    try:
        fingerprint = _fingerprint(store, config)
        ckpt = None
        if config.checkpoint_path is not None:
            ckpt = load_checkpoint(config.checkpoint_path, fingerprint)
        resumed = list(ckpt.completed) if ckpt is not None else []
        if ckpt is None:
            ckpt = Checkpoint(fingerprint=fingerprint)
        if executor == "process" and not all(map(ckpt.done, reachable)):
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
        # resolved PGAS transport (process workers attach to its windows
        # one-sidedly; the thread executor's "local" name means in-process
        # numpy views, i.e. no transport object at all).
        start_entries = (list(ckpt.working_catalog)
                         if ckpt.working_catalog else list(seed))
        # halo_refresh makes workers read rows other workers are writing;
        # across processes that needs the transport's rank locks (snapshot
        # mode's disjoint access does not, so skip the syscall cost).
        working = ShardedCatalog.from_entries(
            start_entries, n_ranks=config.n_nodes,
            transport=(
                None if transport_name == "local"
                else make_transport(transport_name,
                                    locking=config.halo_refresh)
            ),
        )

        # -- Stages "stage0"/"stage1": Dtree-scheduled joint optimization -------
        task_checkpoint = (bool(config.task_checkpoint)
                           and config.checkpoint_path is not None)
        for stage_idx, stage_name in enumerate(stage_names):
            if not ckpt.done(stage_name):
                if runner is None:
                    runner = (
                        _ProcessStageRunner(
                            store, working, priors, config, counters, fields,
                            pool, transport_name, run_started)
                        if executor == "process" else
                        _ThreadStageRunner(
                            store, working, priors, config, counters)
                    )
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
