"""End-to-end driver throughput and scheduling overhead.

The paper's headline numbers are for the *complete* three-level run —
partition, Dtree scheduling, Cyclades threads — not isolated kernels.  This
benchmark runs the multi-field driver on a small synthetic strip and reports
its throughput (sources/sec), sustained model FLOP rate, and the share of
worker time spent in the scheduler (which the paper keeps negligible via
Dtree's O(log N) request path).
"""

import numpy as np
import pytest

from repro.core.joint import JointConfig
from repro.core.single import OptimizeConfig
from repro.driver import DriverConfig, run_pipeline
from repro.envvars import env_flag
from repro.parallel import ParallelRegionConfig
from repro.survey import SyntheticSkyConfig, generate_survey_fields
from repro.validation import match_catalogs

from conftest import print_header

pytestmark = pytest.mark.slow

SMOKE = env_flag("REPRO_BENCH_SMOKE")


def _survey(rng):
    sky = SyntheticSkyConfig(
        source_density=60.0, min_separation=7.0, flux_floor=15.0
    )
    return generate_survey_fields(
        2 if SMOKE else 3, field_shape_hw=(40, 40), overlap=8.0,
        config=sky, rng=rng, bands=(2,) if SMOKE else (1, 2, 3),
    )


def _config():
    return DriverConfig(
        n_nodes=2,
        target_weight=60.0,
        parallel=ParallelRegionConfig(
            n_threads=2,
            n_passes=1,
            joint=JointConfig(
                n_passes=1,
                single=OptimizeConfig(max_iter=12, grad_tol=1e-3),
            ),
        ),
    )


def test_driver_throughput(benchmark, rng):
    truth, fields = _survey(rng)

    def run():
        return run_pipeline(fields, _config())

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report = result.report
    match = match_catalogs(truth, result.catalog)

    print_header("Driver: %d fields, %d injected sources" % (
        len(fields), len(truth)))
    for line in report.summary_lines():
        print("  " + line)
    print("  recovery              %8.0f%%" % (100 * match.completeness))

    # A grant's tasks run as one lockstep: each outcome's seconds is its
    # grant's wall clock split evenly across the grant's tasks.
    per_task = [o.seconds for o in result.outcomes]
    if per_task:
        print("  grant s / task        min %.2f / median %.2f / max %.2f" % (
            min(per_task), float(np.median(per_task)), max(per_task)))

    assert report.n_tasks > 0
    assert report.sources_per_second > 0
    # Dtree keeps scheduling a sliver of worker time even at toy scale.
    assert report.scheduling_overhead_fraction < 0.2
    assert report.messages_per_task < 20


def test_driver_executor_modes(benchmark, rng):
    """Thread vs process node-workers: identical catalogs, and the process
    executor's queue/socket plumbing must cost little — single-worker
    throughput within 10% of the thread executor."""
    import dataclasses

    truth, fields = _survey(rng)

    def run():
        out = {}
        for executor in ("thread", "process"):
            config = dataclasses.replace(
                _config(), n_nodes=1, executor=executor
            )
            out[executor] = run_pipeline(fields, config)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Driver executor modes (1 node-worker)")
    for executor, res in results.items():
        line = "  %-8s %.2f s wall, %8.2f sources/s" % (
            executor, res.report.wall_seconds,
            res.report.sources_per_second)
        if executor == "process":
            line += ", %d RMA gets / %d puts (%.1f KB)" % (
                res.report.rma_gets, res.report.rma_puts,
                res.report.rma_bytes / 1024.0)
        print(line)

    thread_res = results["thread"]
    process_res = results["process"]
    # The executors must agree exactly — same tasks, same seeds, same rows.
    assert len(thread_res.catalog) == len(process_res.catalog)
    for a, b in zip(thread_res.catalog, process_res.catalog):
        assert np.array_equal(a.position, b.position)
        assert a.flux_r == b.flux_r
    # Acceptance: process mode within 10% of thread throughput at 1 worker.
    assert (
        process_res.report.sources_per_second
        >= 0.9 * thread_res.report.sources_per_second
    )


def test_driver_race_detect_overhead(benchmark, rng):
    """Cost of the determinism instrumentation: the same run with shadow
    RMA recording, Cyclades shadow writes, and pre-execution schedule
    verification enabled.  It is purely observational — identical catalog,
    zero reports — and must stay cheap enough to leave on in CI."""
    import dataclasses

    truth, fields = _survey(rng)

    def run():
        out = {}
        for detect in (False, True):
            config = _config()
            config = dataclasses.replace(
                config, parallel=dataclasses.replace(
                    config.parallel, race_detect=detect,
                    verify_schedule=detect))
            out[detect] = run_pipeline(fields, config)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    plain, shadowed = results[False], results[True]
    overhead = (shadowed.report.wall_seconds / plain.report.wall_seconds
                - 1.0) if plain.report.wall_seconds > 0 else 0.0
    print_header("Shadow race detector + schedule verifier overhead")
    print("  detection off         %8.2f s wall" % plain.report.wall_seconds)
    print("  detection on          %8.2f s wall  (%+.1f%%)" % (
        shadowed.report.wall_seconds, 100.0 * overhead))
    print("  races reported        %8d" % len(shadowed.report.race_reports))

    assert shadowed.report.race_reports == []
    assert len(plain.catalog) == len(shadowed.catalog)
    for a, b in zip(plain.catalog, shadowed.catalog):
        assert np.array_equal(a.position, b.position)
        assert a.flux_r == b.flux_r
    # Acceptance: instrumentation costs a fraction of the run, not a
    # multiple (generous bound — toy-scale wall clocks are noisy).
    assert shadowed.report.wall_seconds < plain.report.wall_seconds * 1.75


def test_driver_numeric_check_overhead(benchmark, rng):
    """Cost of the runtime numeric sanitizer: the same run with every ELBO
    evaluation and trust-region step checked for non-finite values,
    overflow, Hessian asymmetry, and cancellation.  Purely observational —
    identical catalog, zero reports on a healthy run — and the hot-path
    cost when a check fires nothing is one thread-local read plus a few
    finiteness scans, so it must stay cheap enough to leave on in CI."""
    import dataclasses

    truth, fields = _survey(rng)

    def run():
        out = {}
        for check in (False, True):
            config = _config()
            config = dataclasses.replace(
                config, parallel=dataclasses.replace(
                    config.parallel, numeric_check=check))
            out[check] = run_pipeline(fields, config)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    plain, checked = results[False], results[True]
    overhead = (checked.report.wall_seconds / plain.report.wall_seconds
                - 1.0) if plain.report.wall_seconds > 0 else 0.0
    print_header("Runtime numeric sanitizer overhead")
    print("  checking off          %8.2f s wall" % plain.report.wall_seconds)
    print("  checking on           %8.2f s wall  (%+.1f%%)" % (
        checked.report.wall_seconds, 100.0 * overhead))
    print("  findings reported     %8d" % len(checked.report.numeric_reports))

    assert checked.report.numeric_reports == []
    assert len(plain.catalog) == len(checked.catalog)
    for a, b in zip(plain.catalog, checked.catalog):
        assert np.array_equal(a.position, b.position)
        assert a.flux_r == b.flux_r
    # Acceptance: sanitizing costs a fraction of the run, not a multiple
    # (generous bound — toy-scale wall clocks are noisy).
    assert checked.report.wall_seconds < plain.report.wall_seconds * 1.75


def test_driver_node_scaling(benchmark, rng):
    """Wall time should not degrade when node-workers are added."""
    truth, fields = _survey(rng)

    def run():
        out = {}
        for n_nodes in (1, 2):
            import dataclasses

            config = dataclasses.replace(_config(), n_nodes=n_nodes)
            out[n_nodes] = run_pipeline(fields, config)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Driver wall time vs node-workers")
    for n_nodes, res in results.items():
        print("  %d node(s): %.2f s wall, %.2f sources/s" % (
            n_nodes, res.report.wall_seconds,
            res.report.sources_per_second))
    # Tasks are independent, so more nodes must not make the run much
    # slower (GIL-bound kernels limit the speedup, not correctness).
    assert (
        results[2].report.wall_seconds
        < results[1].report.wall_seconds * 1.35
    )
