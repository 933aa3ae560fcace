"""A seat runs every task it holds in one rolling lockstep.

Each task keeps its own region setup, schedule and result, while one ELBO
call carries lanes of every task the seat holds, across grants: the seat
asks for more work whenever its tasks in flight hold fewer sources than
the lane limit.  That must be invisible in the catalog: a run whose seats
hold many tasks has the bits of one that hands seats one task at a time,
on thread and process seats, under every schedule-shaped option.  A seat
that dies between the reports of a grant has every unreported task of it
re-dispatched.  Each task reports its own span.  And the request rule
itself: every task granted once, no grant above the cap, and a makespan
with equal-cost tasks no worse than at a cap of two.
"""

import dataclasses
import queue

import numpy as np
import pytest

from repro.core.catalog import CatalogEntry
from repro.core.joint import JointConfig
from repro.core.priors import default_priors
from repro.core.single import OptimizeConfig
from repro.driver import DriverConfig, run_pipeline
from repro.driver.pool import WorkerPool
from repro.driver.shards import ShardedCatalog
from repro.driver.worker import TaskConfig, _FieldStore, _WorkerState
from repro.parallel import ParallelRegionConfig
from repro.parallel.executor import DEFAULT_LANE_LIMIT
from repro.partition import Region, Task
from repro.psf import default_psf
from repro.sched import Dtree, DtreeConfig
from repro.survey import (
    AffineWCS,
    ImageMeta,
    SyntheticSkyConfig,
    generate_survey_fields,
    render_image,
)

from test_fault_injection import _kill_task
from test_golden_pipeline import catalog_bits_digest


@pytest.fixture(scope="module")
def survey():
    return generate_survey_fields(
        3, field_shape_hw=(32, 32), overlap=8.0,
        config=SyntheticSkyConfig(source_density=60.0, min_separation=8.0,
                                  flux_floor=20.0),
        rng=np.random.default_rng(21), bands=(2,),
    )[1]


def _config(executor, n_nodes=1, **parallel):
    base = dict(n_threads=1, n_passes=1, joint=JointConfig(
        n_passes=1, single=OptimizeConfig(max_iter=6, grad_tol=2e-3)))
    base.update(parallel)
    return DriverConfig(
        n_nodes=n_nodes, executor=executor, target_weight=30.0,
        parallel=ParallelRegionConfig(**base),
    )


#: Variant -> (driver overrides, parallel overrides).  Every variant runs
#: on one seat, whose grants are the largest (a stage of this survey is
#: about eight tasks; with two seats the drain rule grants them one or two
#: at a time).  One seat also fixes the completion order ``halo_refresh``
#: results depend on (arrival order is task order), so a seat running one
#: task at a time must reproduce one-task grants exactly.
_VARIANTS = {
    "n_threads2": ({}, dict(n_threads=2)),
    "n_passes2": ({}, dict(n_passes=2)),
    "race_detect": ({}, dict(race_detect=True)),
    "verify_schedule": ({}, dict(verify_schedule=True)),
    "halo_refresh": (dict(halo_refresh=True), {}),
}


def _variant_config(executor, variant):
    driver, parallel = _VARIANTS[variant]
    return dataclasses.replace(_config(executor, **parallel), **driver)


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_grant_lockstep_matches_one_task_at_a_time(survey, executor,
                                                   variant, monkeypatch):
    config = _variant_config(executor, variant)
    grant = run_pipeline(survey, config)
    # One task per grant, and at lane limit one a seat asks for the next
    # only once nothing is in flight: one task, one lane at a time.
    monkeypatch.setattr(DriverConfig, "max_batch", 1)
    single = run_pipeline(survey, dataclasses.replace(config,
                                                      elbo_batch_size=1))
    assert (catalog_bits_digest(grant.catalog)
            == catalog_bits_digest(single.catalog))
    assert grant.report.race_reports == single.report.race_reports == []
    for name in ("objective_evaluations", "newton_iterations",
                 "active_pixel_visits"):
        assert grant.counters[name] == single.counters[name], name
    if variant != "halo_refresh":
        # Lanes of several tasks really shared calls.
        assert (grant.counters["elbo_batch_calls"]
                < single.counters["elbo_batch_calls"])


def test_seat_killed_mid_grant_redispatches_the_unreported_rest(
        survey, monkeypatch):
    """One process seat; the kill token names the second task of its
    first grant, so the seat reports the first task and dies before the
    second.  Exactly the tasks of that grant from the second on are
    retried, and the catalog keeps its bits."""
    grants = []
    send = WorkerPool.send

    def recording_send(self, seat, item):
        if item[0] == "grant":
            grants.append([task.task_id for task, _ in item[1]])
        return send(self, seat, item)

    monkeypatch.setattr(WorkerPool, "send", recording_send)
    config = _config("process", n_nodes=1)
    reference = run_pipeline(survey, config)
    first = grants[0]
    assert len(first) >= 3
    grants.clear()
    with _kill_task(first[1]):
        result = run_pipeline(survey, config)
    assert grants[0] == first
    deaths = [rec for rec in result.report.recoveries
              if rec["kind"] == "worker_death"]
    assert [rec["retried"] for rec in deaths] == [sorted(first[1:])]
    assert (catalog_bits_digest(result.catalog)
            == catalog_bits_digest(reference.catalog))


@pytest.mark.parametrize(
    "executor,n_nodes,n_fields,seed,n_tasks,n_solves", [
        ("thread", 1, 4, 8, 30, 60),
        ("process", 2, 8, 12, 62, 124),
    ])
def test_single_source_tasks_fill_calls_on_one_seat(
        executor, n_nodes, n_fields, seed, n_tasks, n_solves):
    """Default config, every task a single source (two passes, so two
    solves a task): the lanes of a call come from other tasks, and a call
    carries eight or more.  On one seat
    each stage of four fields is one grant of 15 tasks.  Two process
    seats share a stage of eight fields, and the drain rule grants them a
    few tasks at a time: each seat's lockstep stays open across its
    grants."""
    _, fields = generate_survey_fields(
        n_fields, field_shape_hw=(40, 40), overlap=8.0,
        config=SyntheticSkyConfig(source_density=50.0, min_separation=12.0,
                                  flux_floor=20.0),
        rng=np.random.default_rng(seed), bands=(2,),
    )
    config = DriverConfig(n_nodes=n_nodes, executor=executor,
                          target_weight=1.0)
    result = run_pipeline(fields, config)
    counters = result.counters
    assert result.report.n_tasks == n_tasks
    assert (counters["newton_solves"] == result.report.n_source_updates
            == n_solves)
    assert counters["elbo_batch_lanes"] / counters["elbo_batch_calls"] >= 8


def test_each_task_reports_its_own_span():
    """Two tasks of one grant, with one and six sources: the six overlap
    in a row, so they run one after another, and the task holding them
    reports a longer span than the one-source task beside it."""
    row = [CatalogEntry([10.0 + 6.0 * i, 16.0], False, 300.0,
                        [1.0, 0.8, 0.3, 0.1]) for i in range(6)]
    lone = CatalogEntry([80.0, 16.0], False, 300.0, [1.0, 0.8, 0.3, 0.1])
    entries = row + [lone]
    meta = ImageMeta(band=2, wcs=AffineWCS.translation(0.0, 0.0),
                     psf=default_psf(3.0), sky_level=100.0,
                     calibration=100.0)
    image = render_image(entries, meta, (32, 96),
                         rng=np.random.default_rng(0))
    catalog = ShardedCatalog.from_entries(entries, n_ranks=1)
    config = TaskConfig(
        parallel=ParallelRegionConfig(
            n_threads=1, n_passes=1, joint=JointConfig(
                n_passes=1, single=OptimizeConfig(max_iter=6))),
        image_margin=16.0, halo_refresh=False)
    tasks = [Task(0, 0, Region(0.0, 64.0, 0.0, 32.0), list(range(6)), row),
             Task(1, 0, Region(64.0, 96.0, 0.0, 32.0), [6], [lone])]
    seat = _WorkerState(0, 0, _FieldStore([[image]]), None, default_priors(),
                        config, catalog, catalog, in_process=True)
    done = queue.Queue()
    seat.take([(task, []) for task in tasks], [])
    while seat.busy:
        seat.step(done)
    records = {r.task_id: r for r in (done.get_nowait(), done.get_nowait())}
    assert records[0].executed and records[1].executed
    assert records[0].seconds > 2 * records[1].seconds > 0.0
    assert records[0].counters["newton_solves"] == 6.0


# ---------------------------------------------------------------------------
# The grant rule


def _drain(n_seats, n_tasks, cap, lanes=DEFAULT_LANE_LIMIT):
    """One-source tasks of equal cost on ``n_seats`` seats: a seat runs up
    to ``lanes`` tasks at a time, each taking one time step, and asks for
    a grant whenever the tasks it holds are fewer than ``lanes``.
    ``(grants, makespan)``."""
    dtree = Dtree(n_seats, n_tasks, DtreeConfig())
    held = [0] * n_seats
    grants, now, makespan = [], 0, 0
    while True:
        for seat in range(n_seats):
            while held[seat] < lanes:
                grant = dtree.request(seat, max_batch=cap)
                if not grant:
                    break
                grants.append(grant)
                held[seat] += len(grant)
        if not any(held):
            return grants, makespan
        now += 1
        for seat in range(n_seats):
            if held[seat]:
                held[seat] -= min(lanes, held[seat])
                makespan = now


@pytest.mark.parametrize("n_seats,n_tasks", [
    (1, 38), (2, 27), (2, 38), (4, 38), (8, 200), (3, 5), (8, 3)])
@pytest.mark.parametrize("cap", [1, 2, 16])
def test_each_task_granted_once_and_no_grant_above_the_cap(n_seats,
                                                           n_tasks, cap):
    grants, _ = _drain(n_seats, n_tasks, cap)
    assert sorted(t for g in grants for t in g) == list(range(n_tasks))
    assert max(len(g) for g in grants) <= cap


def test_one_seat_grants_are_full():
    grants, _ = _drain(1, 38, 16)
    assert [len(g) for g in grants] == [16, 16, 6]


@pytest.mark.parametrize("n_seats,n_tasks", [(2, 27), (4, 38), (8, 200)])
def test_makespan_at_cap_16_no_worse_than_at_cap_2(n_seats, n_tasks):
    _, at_16 = _drain(n_seats, n_tasks, DriverConfig.max_batch)
    _, at_2 = _drain(n_seats, n_tasks, 2)
    assert DriverConfig.max_batch == 16
    assert at_16 <= at_2
