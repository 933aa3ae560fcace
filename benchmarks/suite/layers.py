"""The per-layer replay: time calls into each layer's public functions on
the workload's own fields, seed catalog and tasks.

Counts come from the traced call's ``DriverResult.counters``/``.report``;
times from spans around public calls made here, outside the program.
Every metric of ``spec.PER_LAYER`` is produced for every workload — a
layer a workload does not use still gets replayed (its prediction is "no
change end to end"), and a ratio with an empty denominator reads 0.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import statistics
import time

import numpy as np

from repro.core import (
    canonical_to_free,
    compile_elbo_batch,
    default_priors,
    elbo,
    elbo_batch,
    make_context,
    optimize_source,
    optimize_sources_batch,
)
from repro.core.joint import RegionOptimizer
from repro.core.params import FREE
from repro.driver import (
    Checkpoint,
    ShardedCatalog,
    dedup_catalog,
    images_for_region,
    load_checkpoint,
    merge_catalogs,
    save_checkpoint,
    survey_bounds,
)
from repro.driver.checkpoint import append_task_record, entry_to_dict
from repro.driver.pool import WorkerPool
from repro.optim import solve_trust_region
from repro.parallel import (
    build_conflict_graph,
    cyclades_batches,
    optimize_region_parallel,
)
from repro.parallel.executor import conflict_radii
from repro.partition import generate_tasks
from repro.perf.counters import Counters, batch_occupancy
from repro.pgas import make_transport
from repro.photo import run_photo
from repro.sched import Dtree
from repro.survey import load_field, save_field

from spans import duration

#: Stage-0 tasks are replayed largest first until this many sources.
REGION_SAMPLE_SOURCES = 24
REGION_SAMPLE_TASKS = 8
#: Contexts sampled for the core and optim timings.
CONTEXT_SAMPLE = 16
SOLVE_SAMPLE = 8


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _halo(task, seed_catalog, margin: float) -> list:
    """The task's frozen neighbors: seed sources inside the region's
    margin box (closed on both sides, as the driver's) that are not its
    own."""
    pos = seed_catalog.positions()
    own = set(task.source_indices)
    r = task.region
    inside = ((pos[:, 0] >= r.x_min - margin) & (pos[:, 0] <= r.x_max + margin)
              & (pos[:, 1] >= r.y_min - margin)
              & (pos[:, 1] <= r.y_max + margin))
    return [seed_catalog[int(j)] for j in np.nonzero(inside)[0]
            if int(j) not in own]


def _sample_tasks(stage0: list) -> list:
    out, sources = [], 0
    for task in sorted(stage0, key=lambda t: (-t.n_sources, t.task_id)):
        if out and (sources >= REGION_SAMPLE_SOURCES
                    or len(out) >= REGION_SAMPLE_TASKS):
            break
        out.append(task)
        sources += task.n_sources
    return out


def replay(tracer, prepared, traced, every, wall_to_catalog: float,
           accuracy: dict, seed: int) -> dict:
    """Replay every layer under one ``harness/replay`` span and return
    the per-layer metrics (all of ``spec.PER_LAYER`` but the harness's own
    rows, which the caller owns).  Every time here is raw wall clock, as
    is ``wall_to_catalog``: the median untraced call, uncalibrated."""
    ctx = _Replay(tracer, prepared, traced, seed)
    metrics = {}
    with tracer.span("harness", "replay"):
        for part in (ctx.survey, ctx.photo, ctx.partition, ctx.sched,
                     ctx.pgas, ctx.parallel, ctx.core_and_optim,
                     ctx.driver):
            metrics.update(part())
    metrics.update(_from_counts(prepared, traced, every, wall_to_catalog,
                                metrics))
    metrics["validation.position_err_px"] = accuracy["position_err_px"]
    metrics["validation.brightness_err_mag"] = accuracy["brightness_err_mag"]
    return metrics


def _from_counts(prepared, traced, every, wall_to_catalog, timed) -> dict:
    """Metrics read off the traced call's counters and report."""
    config = prepared.workload.config
    c = traced.counters
    wall = traced.seconds
    n_nodes = config.n_nodes
    ops = traced.comm["rma_gets"] + traced.comm["rma_puts"]
    evals = c.get("objective_evaluations", 0.0)
    task_s = sorted(o.seconds for call in every
                    for o in call.result.outcomes)
    return {
        "survey.prefetch_hit_ratio": _ratio(
            traced.prefetch_hits,
            traced.prefetch_hits + traced.prefetch_misses),
        "survey.prefetch_misses": traced.prefetch_misses,
        "photo.sources_seeded": len(traced.result.seed_catalog),
        "sched.messages_per_task": _ratio(traced.messages,
                                          traced.tasks_completed),
        "sched.sched_seconds": traced.sched_seconds,
        "pgas.rma_gets": traced.comm["rma_gets"],
        "pgas.rma_puts": traced.comm["rma_puts"],
        "pgas.rma_bytes": traced.comm["rma_bytes"],
        "pgas.rma_remote_fraction": _ratio(traced.comm["rma_remote"], ops),
        "parallel.lanes_per_call": _ratio(c.get("elbo_batch_lanes", 0.0),
                                          c.get("elbo_batch_calls", 0.0)),
        "parallel.batch_occupancy": batch_occupancy(c),
        "core.objective_evaluations": evals,
        "core.active_pixel_visits": c.get("active_pixel_visits", 0.0),
        "core.visits_per_eval": _ratio(c.get("active_pixel_visits", 0.0),
                                       evals),
        "core.eval_share": _ratio(
            evals * timed["core.elbo_eval_ms"] / 1e3,
            n_nodes * wall_to_catalog),
        "optim.newton_solves": c.get("newton_solves", 0.0),
        "optim.newton_iterations": c.get("newton_iterations", 0.0),
        "optim.iterations_per_solve": _ratio(
            c.get("newton_iterations", 0.0), c.get("newton_solves", 0.0)),
        "driver.task_s_p50": _median(task_s),
        "driver.task_s_p95": (task_s[min(len(task_s) - 1,
                                         int(0.95 * len(task_s)))]
                              if task_s else 0.0),
        "driver.task_seconds": traced.task_seconds,
        "driver.worker_busy_fraction": _ratio(traced.task_seconds,
                                              n_nodes * wall),
        "driver.overhead_s": wall - traced.task_seconds / n_nodes,
        "driver.recoveries": traced.recoveries,
    }


class _Replay:
    """The workload's inputs and the state the layer replays share."""

    def __init__(self, tracer, prepared, traced, seed: int):
        self.tracer = tracer
        self.prepared = prepared
        self.config = prepared.workload.config
        self.fields = prepared.fields
        self.seed_catalog = traced.result.seed_catalog
        self.final_catalog = traced.result.catalog
        self.priors = default_priors()
        self.rng_seed = seed
        self.dir = os.path.join(prepared.workdir, "replay")
        os.makedirs(self.dir)
        # The driver resolves DriverConfig.elbo_batch_size into the
        # per-task parallel config; do the same.
        self.pconfig = dataclasses.replace(
            self.config.parallel,
            elbo_batch_size=self.config.elbo_batch_size)
        self.tasks = generate_tasks(
            self.seed_catalog, survey_bounds(self.fields),
            self.config.target_weight, two_stage=self.config.two_stage)
        self.sampled = _sample_tasks(
            [t for t in self.tasks if t.stage == 0])
        self.per_field_seeds: list = []

    def _timed(self, layer: str, name: str, fn, count: int = 1):
        with self.tracer.span(layer, name, count) as span:
            value = fn()
        return value, duration(span)

    def _task_inputs(self, task):
        images = images_for_region(self.fields, task.region,
                                   self.config.image_margin)
        halo = _halo(task, self.seed_catalog, self.config.halo_margin)
        return images, list(task.entries), halo

    # -- survey ---------------------------------------------------------
    def survey(self) -> dict:
        paths = [os.path.join(self.dir, "field%03d.npz" % i)
                 for i in range(len(self.fields))]
        _, save_s = self._timed(
            "survey", "save_field",
            lambda: [save_field(p, f) for p, f in zip(paths, self.fields)],
            len(paths))
        _, load_s = self._timed(
            "survey", "load_field", lambda: [load_field(p) for p in paths],
            len(paths))
        megabytes = sum(os.path.getsize(p) for p in paths) / 1e6
        return {
            "survey.save_field_s": save_s,
            "survey.load_field_s": load_s,
            "survey.load_field_mb_per_s": _ratio(megabytes, load_s),
        }

    # -- photo ----------------------------------------------------------
    def photo(self) -> dict:
        self.per_field_seeds, seconds = self._timed(
            "photo", "run_photo",
            lambda: [run_photo(f, self.config.photo) for f in self.fields],
            len(self.fields))
        return {"photo.run_photo_s": seconds}

    # -- partition ------------------------------------------------------
    def partition(self) -> dict:
        bounds = survey_bounds(self.fields)
        times = [
            self._timed("partition", "generate_tasks",
                        lambda: generate_tasks(
                            self.seed_catalog, bounds,
                            self.config.target_weight,
                            two_stage=self.config.two_stage),
                        len(self.tasks))[1]
            for _ in range(3)
        ]
        sizes = [t.n_sources for t in self.tasks]
        return {
            "partition.generate_tasks_s": _median(times),
            "partition.n_tasks": len(self.tasks),
            "partition.task_sources_cv": _ratio(
                float(np.std(sizes)), float(np.mean(sizes))),
        }

    # -- sched ----------------------------------------------------------
    def sched(self) -> dict:
        n_nodes = self.config.n_nodes

        def drain():
            dtree = Dtree(n_nodes, len(self.tasks), self.config.dtree)
            live = list(range(n_nodes))
            granted = 0
            while live:
                for w in list(live):
                    batch = dtree.request(w, max_batch=self.config.max_batch)
                    if not batch:
                        live.remove(w)
                    granted += len(batch)
            return granted

        granted, seconds = self._timed("sched", "dtree_drain", drain,
                                       len(self.tasks))
        if granted != len(self.tasks):
            raise RuntimeError("Dtree granted %d of %d tasks"
                               % (granted, len(self.tasks)))
        return {"sched.dtree_drain_s": seconds}

    # -- pgas -----------------------------------------------------------
    def pgas(self) -> dict:
        name = self.config.pgas_transport
        owner = None if name == "local" else make_transport(name)
        client = None
        gets, puts = [], []
        try:
            catalog = ShardedCatalog.from_entries(
                list(self.seed_catalog), n_ranks=self.config.n_nodes,
                transport=owner)
            if owner is not None:
                # The owning process short-circuits to its own windows;
                # node-workers hold an unpickled copy, which is a client.
                client = pickle.loads(pickle.dumps(owner))
                catalog = ShardedCatalog(catalog.n_rows, catalog.n_ranks,
                                         transport=client, allocate=False)
            with self.tracer.span("pgas", "get_put_entries",
                                  len(self.tasks)):
                for task in self.tasks:
                    t0 = time.perf_counter()
                    entries = catalog.get_entries(task.source_indices)
                    t1 = time.perf_counter()
                    catalog.put_entries(task.source_indices, entries)
                    t2 = time.perf_counter()
                    gets.append(t1 - t0)
                    puts.append(t2 - t1)
        finally:
            if client is not None:
                client.close()
            if owner is not None:
                owner.unlink()
        return {"pgas.get_entries_us": 1e6 * _median(gets),
                "pgas.put_entries_us": 1e6 * _median(puts)}

    # -- parallel -------------------------------------------------------
    def parallel(self) -> dict:
        joint = self.pconfig.joint

        def schedule():
            for task in self.tasks:
                if not task.entries:
                    continue
                images = images_for_region(self.fields, task.region,
                                           self.config.image_margin)
                radii = conflict_radii(images, task.entries, joint)
                graph = build_conflict_graph(
                    np.stack([e.position for e in task.entries]), radii)
                cyclades_batches(graph, self.pconfig.n_threads,
                                 self.pconfig.batch_size,
                                 rng=np.random.default_rng(self.rng_seed))

        _, schedule_s = self._timed("parallel", "schedule", schedule,
                                    len(self.tasks))

        def region(task, pconfig):
            images, entries, halo = self._task_inputs(task)
            return self._timed(
                "parallel", "optimize_region_parallel",
                lambda: optimize_region_parallel(
                    images, entries, self.priors, pconfig, Counters(),
                    frozen_entries=halo),
                task.n_sources)[1]

        region_times = [region(t, self.pconfig) for t in self.sampled]
        # The sample is largest first, so its head is the largest task.
        two_threads = region(self.sampled[0], dataclasses.replace(
            self.pconfig, n_threads=2))
        return {
            "parallel.schedule_s": schedule_s,
            "parallel.region_s": sum(region_times),
            "parallel.threads2_over_threads1": _ratio(two_threads,
                                                      region_times[0]),
        }

    # -- core and optim -------------------------------------------------
    def core_and_optim(self) -> dict:
        single = self.pconfig.joint.single
        counters = Counters()
        setup_ms, context_ms, eval_ms, solve_us, source_ms = [], [], [], [], []
        ctxs, inits, frees = [], [], []
        pixels = 0
        eval_seconds = 0.0
        for task in self.sampled:
            images, entries, halo = self._task_inputs(task)
            opt, seconds = self._timed(
                "core", "RegionOptimizer",
                lambda: RegionOptimizer(images, entries, self.priors,
                                        self.pconfig.joint, counters, halo),
                task.n_sources)
            setup_ms.append(1e3 * seconds)
            for s in range(opt.n_sources):
                if len(ctxs) >= CONTEXT_SAMPLE:
                    break
                backgrounds = opt.backgrounds_for(s)
                bounds = opt.patch_bounds(s)
                ctx, seconds = self._timed(
                    "core", "make_context",
                    lambda: make_context(
                        images, opt.params[s].u, self.priors,
                        backgrounds=backgrounds, counters=counters,
                        bounds_list=bounds))
                context_ms.append(1e3 * seconds)
                ctxs.append(ctx)
                inits.append(opt.params[s])
                frees.append(canonical_to_free(
                    opt.params[s].to_canonical(), ctx.u_center))

        def evaluate(ctx, free):
            return elbo(ctx, free, order=2,
                        variance_correction=single.variance_correction,
                        backend=single.backend,
                        kernel_target=single.kernel_target)

        for ctx, free in zip(ctxs, frees):
            # The first evaluation compiles the context's workspace; a
            # solve evaluates the same context ~10 times, so time the
            # steady state.
            out = evaluate(ctx, free)
            for _ in range(3):
                _, seconds = self._timed("core", "elbo",
                                         lambda: evaluate(ctx, free))
                eval_ms.append(1e3 * seconds)
                eval_seconds += seconds
                pixels += ctx.n_active_pixels
            grad = -out.gradient(FREE.size)
            hess = -out.hessian(FREE.size)
            _, seconds = self._timed(
                "optim", "solve_trust_region",
                lambda: solve_trust_region(grad, hess, single.initial_radius))
            solve_us.append(1e6 * seconds)

        def batch_eval():
            compiled = compile_elbo_batch(ctxs, backend=single.backend)
            return elbo_batch(
                ctxs, frees, order=2,
                variance_correction=single.variance_correction,
                backend=single.backend, compiled=compiled,
                kernel_target=single.kernel_target)

        _, batch_s = self._timed("core", "compile_elbo_batch+elbo_batch",
                                 batch_eval, len(ctxs))

        solved = []
        for ctx, init in list(zip(ctxs, inits))[:SOLVE_SAMPLE]:
            result, seconds = self._timed(
                "optim", "optimize_source",
                lambda: optimize_source(ctx, init, single))
            source_ms.append(1e3 * seconds)
            solved.append(result)
        n_lanes = min(len(ctxs), SOLVE_SAMPLE)
        _, lockstep_s = self._timed(
            "optim", "optimize_sources_batch",
            lambda: optimize_sources_batch(ctxs[:n_lanes], inits[:n_lanes],
                                           single),
            n_lanes)
        at_limit = sum(1 for r in solved
                       if not r.converged
                       and r.optim.n_iterations >= single.max_iter)
        return {
            "core.region_setup_ms": _median(setup_ms),
            "core.make_context_ms": _median(context_ms),
            "core.elbo_eval_ms": _median(eval_ms),
            "core.kernel_visits_per_s": _ratio(pixels, eval_seconds),
            "core.elbo_batch_ms_per_lane": _ratio(1e3 * batch_s, len(ctxs)),
            "optim.solve_trust_region_us": _median(solve_us),
            "optim.optimize_source_ms": _median(source_ms),
            "optim.optimize_sources_batch_ms_per_lane": _ratio(
                1e3 * lockstep_s, n_lanes),
            "optim.iter_limit_fraction": _ratio(at_limit, len(solved)),
        }

    # -- driver ---------------------------------------------------------
    def driver(self) -> dict:
        n_nodes = self.config.n_nodes

        def spawn_bind():
            pool = WorkerPool(self.config.mp_start_method)
            try:
                pool.ensure(2)
            finally:
                pool.close()

        _, spawn_s = self._timed("driver", "WorkerPool.ensure+close",
                                 spawn_bind, 2)

        path = os.path.join(self.dir, "ckpt.json")
        fingerprint = {"benchmark": self.prepared.workload.name}
        ckpt = Checkpoint(
            fingerprint=fingerprint, completed=["seed", "stage0"],
            seed_catalog=self.seed_catalog,
            working_catalog=self.final_catalog)
        _, save_s = self._timed(
            "driver", "save_checkpoint",
            lambda: save_checkpoint(path, ckpt, shards=n_nodes))
        written = sum(
            os.path.getsize(os.path.join(self.dir, n))
            for n in sorted(os.listdir(self.dir)) if n.startswith("ckpt.json"))
        loaded, load_s = self._timed(
            "driver", "load_checkpoint",
            lambda: load_checkpoint(path, fingerprint))
        if loaded is None or len(loaded.working_catalog) != len(
                self.final_catalog):
            raise RuntimeError("the replayed checkpoint did not load back")

        journal = os.path.join(self.dir, "journal.jsonl")
        appends = []
        with self.tracer.span("driver", "append_task_record",
                              len(self.sampled)):
            for task in self.sampled:
                record = {
                    "task_id": int(task.task_id), "stage": int(task.stage),
                    "n_sources": int(task.n_sources), "elbo": 0.0,
                    "indices": [int(i) for i in task.source_indices],
                    "rows": [entry_to_dict(e) for e in task.entries],
                }
                json.dumps(record)  # fail here, not inside the timer
                t0 = time.perf_counter()
                append_task_record(journal, record)
                appends.append(time.perf_counter() - t0)

        radius = self.config.dedup_radius
        _, merge_s = self._timed(
            "driver", "merge_catalogs+dedup_catalog",
            lambda: (merge_catalogs(self.per_field_seeds, radius),
                     dedup_catalog(self.final_catalog, radius)))
        return {
            "driver.spawn_bind_s": spawn_s,
            "driver.checkpoint_save_s": save_s,
            "driver.checkpoint_load_s": load_s,
            "driver.checkpoint_bytes": written,
            "driver.journal_append_us": 1e6 * _median(appends),
            "driver.merge_s": merge_s,
        }
