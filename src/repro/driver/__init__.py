"""The end-to-end multi-field inference driver.

Runs the paper's complete three-level scheme as one pipeline: Photo seeding
per field, two-stage shifted sky partitioning, Dtree dynamic scheduling of
tasks across node-workers, Cyclades conflict-free threading within each
task, and deduplicated merging into a global catalog — with per-stage ELBO
totals, FLOP/communication accounting, and JSON checkpoint/resume.

Node-workers run under one of two **executors** (``DriverConfig.executor``
or the ``REPRO_DRIVER_EXECUTOR`` environment variable):

``"thread"``
    Workers are threads sharing this address space.  Cheap to start;
    speedups are capped by what NumPy releases of the GIL.
``"process"``
    Workers are spawn-safe ``multiprocessing`` processes — the paper's
    distributed-memory node layout.  The working catalog is sharded across
    ranks as 44-wide rows of a PGAS :class:`~repro.pgas.GlobalArray`
    whose windows the driver serves over a socket, and workers do one-sided
    ``get_row``/``put_row`` for exactly the rows their tasks touch
    (:mod:`repro.driver.shards`).

Both executors share one task-execution path reading from a stage-start
snapshot of the sharded catalog, so they produce bit-for-bit identical
catalogs.  Fields given as file paths are loaded by a prefetch thread keyed
to the Dtree look-ahead (the paper's Burst Buffer pipeline), and the
working catalog checkpoints as per-rank shard files.  This is the
architectural spine future scaling work (elastic workers, task-granular
checkpointing, multiple backends) plugs into.
"""

from repro.driver.checkpoint import (
    STAGES,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
    shard_path,
)
from repro.driver.merge import dedup_catalog, merge_catalogs
from repro.driver.shards import (
    ROW_WIDTH,
    ShardedCatalog,
    entry_from_row,
    entry_to_row,
)

__all__ = [
    "STAGES",
    "Checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "shard_path",
    "dedup_catalog",
    "merge_catalogs",
    "DriverConfig",
    "DriverResult",
    "TaskOutcome",
    "images_for_region",
    "run_pipeline",
    "seed_catalog_from_fields",
    "survey_bounds",
    "ROW_WIDTH",
    "ShardedCatalog",
    "entry_from_row",
    "entry_to_row",
]

_PIPELINE_EXPORTS = (
    "DriverConfig",
    "DriverResult",
    "TaskOutcome",
    "images_for_region",
    "run_pipeline",
    "seed_catalog_from_fields",
    "survey_bounds",
)


def __getattr__(name: str):
    # The driver side resolves on first use, not at package import: a
    # spawned node-worker imports this package on its way to
    # ``repro.driver.pool`` and must not load the pipeline module, the
    # seed stage (``repro.photo``) and SciPy with it.
    if name in _PIPELINE_EXPORTS:
        from repro.driver import pipeline

        return getattr(pipeline, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
