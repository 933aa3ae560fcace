#!/usr/bin/env python
"""The complete three-level pipeline over a multi-field synthetic survey.

Runs everything the paper runs, end to end: Photo seeds a catalog per field,
the sky is partitioned into two-stage shifted tasks, a Dtree scheduler hands
task batches to node-workers, each task jointly optimizes its region with
Cyclades-scheduled threads, and the results merge into one deduplicated
global catalog — scored against the injected ground truth.

Then a second run is "killed" right after stage 0 checkpoints (so its
checkpoint file is exactly what a process dying during stage 1 leaves on
disk), resumed, and checked to reproduce the same final catalog as the
uninterrupted run.

Finally the same survey runs under **process node-workers** — spawn-safe
multiprocessing over the socket-served PGAS catalog, the paper's
distributed-memory layout — and the final catalog is checked to be
bit-for-bit identical to the thread executor's.

Run:  python examples/full_pipeline.py   (a few minutes)
"""

import dataclasses
import os
import tempfile
import time

import numpy as np

from repro.core.joint import JointConfig
from repro.core.single import OptimizeConfig
from repro.driver import DriverConfig, run_pipeline
from repro.parallel import ParallelRegionConfig
from repro.survey import SyntheticSkyConfig, generate_survey_fields
from repro.validation import match_catalogs, score_catalog

N_FIELDS = 4


def make_config(checkpoint_path):
    return DriverConfig(
        n_nodes=2,
        target_weight=60.0,
        parallel=ParallelRegionConfig(
            n_threads=2,
            n_passes=1,
            joint=JointConfig(
                n_passes=1,
                single=OptimizeConfig(max_iter=15, grad_tol=1e-3),
            ),
        ),
        checkpoint_path=checkpoint_path,
    )


def catalogs_equal(a, b):
    if len(a) != len(b):
        return False
    return all(
        np.allclose(x.position, y.position)
        and np.isclose(x.flux_r, y.flux_r)
        and x.is_galaxy == y.is_galaxy
        for x, y in zip(a, b)
    )


def catalogs_identical(a, b):
    """Bit-for-bit equality (no tolerance): the executor-equivalence bar."""
    if len(a) != len(b):
        return False
    return all(
        np.array_equal(x.position, y.position)
        and x.flux_r == y.flux_r
        and x.is_galaxy == y.is_galaxy
        and np.array_equal(x.colors, y.colors)
        for x, y in zip(a, b)
    )


def main():
    rng = np.random.default_rng(11)
    sky = SyntheticSkyConfig(
        source_density=70.0, min_separation=7.0, flux_floor=15.0
    )
    print("Synthesizing %d overlapping fields..." % N_FIELDS)
    truth, fields = generate_survey_fields(
        N_FIELDS, field_shape_hw=(44, 44), overlap=8.0,
        config=sky, rng=rng, bands=(1, 2, 3),
    )
    print("  %d injected sources over a %d-field strip" % (
        len(truth), N_FIELDS))

    ckpt_path = os.path.join(tempfile.mkdtemp(), "pipeline.ckpt.json")
    config = make_config(ckpt_path)

    print("\nRunning partition -> Dtree -> Cyclades -> merge...")
    t0 = time.time()
    result = run_pipeline(fields, config)
    print("  done in %.1f s" % (time.time() - t0))

    match = match_catalogs(truth, result.catalog)
    scores = score_catalog(truth, result.catalog)
    print("\nSeed catalog: %d sources; final catalog: %d sources" % (
        len(result.seed_catalog), len(result.catalog)))
    print("Recovered %.0f%% of injected sources (false rate %.0f%%)" % (
        100 * match.completeness, 100 * match.false_detection_rate))
    print("Position error %.3f px, brightness error %.3f mag" % (
        scores.position, scores.brightness))

    print("\nDriver report:")
    for line in result.report.summary_lines():
        print("  " + line)

    # -- Kill/resume: a second run dies after stage 0, then resumes -----------
    print("\nRunning again, killed right after stage 0 checkpoints...")
    kill_path = os.path.join(tempfile.mkdtemp(), "killed.ckpt.json")
    killed_config = dataclasses.replace(
        make_config(kill_path), stop_after="stage0"
    )
    partial = run_pipeline(fields, killed_config)
    assert partial.stopped_early

    print("Resuming from the checkpoint...")
    t0 = time.time()
    resumed = run_pipeline(fields, make_config(kill_path))
    print("  resumed (skipped %s) and finished in %.1f s" % (
        resumed.resumed_stages, time.time() - t0))

    same = catalogs_equal(result.catalog, resumed.catalog)
    print("Resumed catalog identical to uninterrupted run: %s" % same)
    assert same, "kill/resume must reproduce the same final catalog"
    assert match.completeness >= 0.9, "driver must recover >=90% of sources"

    # -- Process node-workers over the socket-served PGAS catalog -------------
    print("\nRunning again with process node-workers (spawn + PGAS windows)...")
    t0 = time.time()
    process_config = dataclasses.replace(make_config(None), executor="process")
    process_result = run_pipeline(fields, process_config)
    print("  done in %.1f s" % (time.time() - t0))
    print("  catalog RMA: %d gets / %d puts (%.1f KB one-sided)" % (
        process_result.report.rma_gets, process_result.report.rma_puts,
        process_result.report.rma_bytes / 1024.0))
    identical = catalogs_identical(result.catalog, process_result.catalog)
    print("Process-executor catalog bit-for-bit identical: %s" % identical)
    assert identical, "executors must produce identical catalogs"
    print("\nOK")


if __name__ == "__main__":
    main()
