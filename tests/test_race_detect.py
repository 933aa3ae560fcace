"""Tests for the shadow-transport race detector (:mod:`repro.analysis.race`):
detector semantics, the transport wrapper, the Cyclades executor's shadow
write recording (including a seeded real race), and full driver pipelines
under ``race_detect`` — which must stay silent and bit-identical."""

import dataclasses

import numpy as np
import pytest

import repro.parallel.executor as executor_mod
from repro.analysis.race import (
    AccessLog,
    RaceDetector,
    RaceReport,
    ShadowAccess,
    ShadowTransport,
)
from repro.core.catalog import CatalogEntry
from repro.core.joint import JointConfig
from repro.core.priors import default_priors
from repro.core.single import OptimizeConfig
from repro.driver import DriverConfig, run_pipeline
from repro.driver.pipeline import _pin_config
from repro.parallel.executor import (
    ParallelRegionConfig,
    optimize_region_parallel,
)
from repro.pgas import LocalTransport
from repro.survey import SyntheticSkyConfig, generate_survey_fields


def _access(op="put", actor=("task", 0), epoch=("stage", 0),
            window=("w", 0), x0=0, x1=10, tag=None):
    return ShadowAccess(window=window, op=op, x0=x0, x1=x1, y0=0, y1=1,
                        actor=actor, epoch=epoch, tag=tag)


class TestShadowAccess:
    def test_is_write(self):
        assert _access(op="put").is_write
        assert not _access(op="get").is_write

    def test_overlaps_half_open(self):
        assert _access(x0=0, x1=10).overlaps(_access(x0=9, x1=12))
        assert not _access(x0=0, x1=10).overlaps(_access(x0=10, x1=12))


class TestRaceDetector:
    def test_write_write_overlap_reported(self):
        det = RaceDetector()
        det.record(_access(actor=("task", 0)))
        det.record(_access(actor=("task", 1), x0=5, x1=15))
        assert det.n_reports == 1
        (r,) = det.reports
        assert r.kind == "write/write"
        assert (r.actor_a, r.actor_b) == (("task", 0), ("task", 1))
        assert r.extent == (5, 10, 0, 1)

    def test_read_write_overlap_reported(self):
        det = RaceDetector()
        det.record(_access(op="get", actor=("task", 0)))
        det.record(_access(op="put", actor=("task", 1)))
        assert [r.kind for r in det.reports] == ["read/write"]

    def test_read_read_is_fine(self):
        det = RaceDetector()
        det.record(_access(op="get", actor=("task", 0)))
        det.record(_access(op="get", actor=("task", 1)))
        assert det.n_reports == 0

    def test_same_actor_never_races_itself(self):
        det = RaceDetector()
        det.record(_access(actor=("task", 0)))
        det.record(_access(actor=("task", 0)))
        assert det.n_reports == 0

    def test_epoch_boundary_is_synchronization(self):
        det = RaceDetector()
        det.record(_access(actor=("task", 0), epoch=("stage", 0)))
        det.record(_access(actor=("task", 1), epoch=("stage", 1)))
        assert det.n_reports == 0

    def test_different_windows_independent(self):
        det = RaceDetector()
        det.record(_access(actor=("task", 0), window=("cat-base", 0)))
        det.record(_access(actor=("task", 1), window=("cat-work", 0)))
        assert det.n_reports == 0

    def test_disjoint_extents_are_fine(self):
        det = RaceDetector()
        det.record(_access(actor=("task", 0), x0=0, x1=10))
        det.record(_access(actor=("task", 1), x0=10, x1=20))
        assert det.n_reports == 0

    def test_repeated_conflict_dedups_to_one_report(self):
        det = RaceDetector()
        for _ in range(3):
            det.record(_access(actor=("task", 0)))
            det.record(_access(actor=("task", 1)))
        assert det.n_reports == 1

    def test_actor_order_is_canonical(self):
        fwd, rev = RaceDetector(), RaceDetector()
        a = _access(actor=("task", 0))
        b = _access(actor=("task", 1))
        fwd.record(a), fwd.record(b)
        rev.record(b), rev.record(a)
        assert fwd.reports == rev.reports

    def test_ingest_matches_direct_recording(self):
        direct, shipped = RaceDetector(), RaceDetector()
        accesses = [_access(actor=("task", 0)), _access(actor=("task", 1))]
        for acc in accesses:
            direct.record(acc)
        shipped.ingest(accesses)  # the process-worker path
        assert shipped.reports == direct.reports

    def test_absorb_dedups_against_own_findings(self):
        det = RaceDetector()
        det.record(_access(actor=("task", 0)))
        det.record(_access(actor=("task", 1)))
        det.absorb(list(det.reports))  # same finding from a worker
        assert det.n_reports == 1

    def test_retire_drops_a_published_actor(self):
        det = RaceDetector()
        det.record(_access(actor=("task", 0)))
        det.retire(("task", 0))
        # Task 0's writes are published: a later overlapping access in the
        # same epoch finds no peer.
        det.record(_access(actor=("task", 1)))
        det.record(_access(actor=("task", 2), x0=20, x1=30))
        assert det.n_reports == 0
        det.record(_access(actor=("task", 3)))
        assert det.n_reports == 1


class TestRaceReport:
    def test_describe_names_both_parties(self):
        det = RaceDetector()
        det.record(_access(actor=("task", 0), tag=("source", 3)))
        det.record(_access(actor=("task", 1), tag=("source", 4)))
        text = det.reports[0].describe()
        assert "write/write" in text
        assert "('source', 3)" in text and "('source', 4)" in text

    def test_as_dict_is_json_shaped(self):
        r = RaceReport(kind="write/write", window=("w", 0),
                       epoch=("stage", 1), actor_a=("task", 0),
                       actor_b=("task", 1), extent=(0, 5, 0, 1))
        d = r.as_dict()
        assert d["kind"] == "write/write"
        assert d["window"] == ["w", 0]
        assert d["tag_a"] is None


class TestAccessLog:
    def test_record_then_drain(self):
        log = AccessLog()
        log.record(_access())
        log.record(_access(op="get"))
        assert len(log) == 2
        drained = log.drain()
        assert [a.op for a in drained] == ["put", "get"]
        assert len(log) == 0 and log.drain() == []


class TestShadowTransport:
    def _wrapped(self):
        inner = LocalTransport()
        inner.allocate(0, 8)
        det = RaceDetector()
        shadow = ShadowTransport(inner, det, "cat-work")
        return inner, det, shadow

    def test_operations_forward_unchanged(self):
        inner, _, shadow = self._wrapped()
        shadow.put(0, 2, [1.0, 2.0])
        np.testing.assert_array_equal(shadow.get(0, 2, 2), [1.0, 2.0])
        shadow.put(0, 2, [2.0, 3.0])
        np.testing.assert_array_equal(inner.get(0, 2, 2), [2.0, 3.0])

    def test_accesses_land_in_sink_with_task_identity(self):
        _, det, shadow = self._wrapped()
        shadow.set_task(actor=("task", 7), epoch=("stage", 1))
        shadow.put(0, 2, [1.0, 2.0])
        shadow.get(0, 4, 3)
        shadow.put(0, 0, [1.0])
        (key,) = det._accesses
        assert key == (("stage", 1), ("cat-work", 0))
        ops = [(a.op, a.x0, a.x1, a.actor) for a in det._accesses[key]]
        assert ops == [("put", 2, 4, ("task", 7)),
                       ("get", 4, 7, ("task", 7)),
                       ("put", 0, 1, ("task", 7))]

    def test_two_wrapped_views_race_through_shared_sink(self):
        inner = LocalTransport()
        inner.allocate(0, 8)
        det = RaceDetector()
        a = ShadowTransport(inner, det, "cat-work", actor=("task", 0),
                            epoch=("stage", 0))
        b = ShadowTransport(inner, det, "cat-work", actor=("task", 1),
                            epoch=("stage", 0))
        a.put(0, 0, [1.0, 2.0])
        b.put(0, 1, [3.0])  # overlapping row range, same epoch
        assert det.n_reports == 1
        assert det.reports[0].kind == "write/write"


@pytest.fixture(scope="module")
def small_field():
    rng = np.random.default_rng(7)
    sky = SyntheticSkyConfig(source_density=30.0, min_separation=10.0)
    _, fields = generate_survey_fields(
        1, field_shape_hw=(40, 40), overlap=0.0, config=sky, rng=rng,
        bands=(2,),
    )
    return fields[0]


class TestCycladesShadowWrites:
    def test_healthy_schedule_is_silent_and_unchanged(self, small_field):
        entries = [
            CatalogEntry(position=np.array([10.0, 10.0]), is_galaxy=False,
                         flux_r=40.0, colors=np.zeros(4)),
            CatalogEntry(position=np.array([30.0, 30.0]), is_galaxy=False,
                         flux_r=35.0, colors=np.zeros(4)),
        ]
        cfg = ParallelRegionConfig(
            n_threads=2, n_passes=1,
            joint=JointConfig(n_passes=1, single=OptimizeConfig(max_iter=4)),
        )
        plain = optimize_region_parallel(
            small_field, entries, default_priors(), cfg)
        shadowed = optimize_region_parallel(
            small_field, entries, default_priors(),
            dataclasses.replace(cfg, race_detect=True))
        assert shadowed.race_reports == []
        for a, b in zip(plain.catalog, shadowed.catalog):
            assert tuple(a.position) == tuple(b.position)
            assert a.flux_r == b.flux_r
        assert shadowed.elbo_total == plain.elbo_total

    def test_seeded_radius_bug_fires_exactly_once(self, small_field,
                                                  monkeypatch):
        # Revert the PR-1 conflict-radius fix in effigy: radii shrunk to
        # 0.5 make the scheduler pair two pixel-overlapping sources across
        # threads, and the shadow writes must name exactly that pair.
        entries = [
            CatalogEntry(position=np.array([18.0, 20.0]), is_galaxy=False,
                         flux_r=40.0, colors=np.zeros(4)),
            CatalogEntry(position=np.array([22.0, 20.0]), is_galaxy=False,
                         flux_r=35.0, colors=np.zeros(4)),
        ]
        monkeypatch.setattr(
            executor_mod, "conflict_radii",
            lambda *a, **k: np.full(len(entries), 0.5))
        cfg = ParallelRegionConfig(
            n_threads=2, n_passes=1, batch_size=2, race_detect=True,
            joint=JointConfig(n_passes=1, single=OptimizeConfig(max_iter=4)),
        )
        result = optimize_region_parallel(
            small_field, entries, default_priors(), cfg)
        assert len(result.race_reports) == 1
        (r,) = result.race_reports
        assert r.kind == "write/write"
        assert r.window[0] == "model"
        assert {r.tag_a, r.tag_b} == {("source", 0), ("source", 1)}
        assert {r.actor_a[0], r.actor_b[0]} == {"cyclades-thread"}

    def test_seeded_radius_bug_across_rounds_fires(self, small_field,
                                                   monkeypatch):
        # The same bug with one source per round: the pair lands in
        # different rounds, and the lockstep, which keeps no round
        # barrier, runs it in one call.  The detector must name it, with
        # both schedule slots; at lane limit one the pair never shares a
        # call, and nothing is reported.
        entries = [
            CatalogEntry(position=np.array([18.0, 20.0]), is_galaxy=False,
                         flux_r=40.0, colors=np.zeros(4)),
            CatalogEntry(position=np.array([22.0, 20.0]), is_galaxy=False,
                         flux_r=35.0, colors=np.zeros(4)),
        ]
        monkeypatch.setattr(
            executor_mod, "conflict_radii",
            lambda *a, **k: np.full(len(entries), 0.5))
        cfg = ParallelRegionConfig(
            n_threads=2, n_passes=1, batch_size=1, race_detect=True,
            joint=JointConfig(n_passes=1, single=OptimizeConfig(max_iter=4)),
        )
        result = optimize_region_parallel(
            small_field, entries, default_priors(), cfg)
        (r,) = result.race_reports
        assert r.kind == "write/write"
        assert {r.tag_a, r.tag_b} == {("source", 0), ("source", 1)}
        assert {r.actor_a[0], r.actor_b[0]} == {"cyclades-thread"}
        assert {r.actor_a[5], r.actor_b[5]} == {0, 1}  # two rounds
        serial = optimize_region_parallel(
            small_field, entries, default_priors(),
            dataclasses.replace(cfg, elbo_batch_size=1))
        assert serial.race_reports == []


@pytest.fixture(scope="module")
def tiny_survey():
    rng = np.random.default_rng(5)
    sky = SyntheticSkyConfig(
        source_density=50.0, min_separation=8.0, flux_floor=20.0
    )
    return generate_survey_fields(
        2, field_shape_hw=(32, 32), overlap=8.0,
        config=sky, rng=rng, bands=(2,),
    )


def _driver_config(race_detect=None, verify_schedule=None, **overrides):
    config = DriverConfig(
        n_nodes=2,
        target_weight=60.0,
        parallel=ParallelRegionConfig(
            n_threads=2,
            n_passes=1,
            joint=JointConfig(
                n_passes=1,
                single=OptimizeConfig(max_iter=8, grad_tol=2e-3),
            ),
            race_detect=race_detect,
            verify_schedule=verify_schedule,
        ),
    )
    return dataclasses.replace(config, **overrides)


def _identical_catalogs(a, b):
    if len(a) != len(b):
        return False
    return all(
        tuple(x.position) == tuple(y.position)
        and x.flux_r == y.flux_r
        and x.is_galaxy == y.is_galaxy
        and np.array_equal(x.colors, y.colors)
        for x, y in zip(a, b)
    )


@pytest.fixture(scope="module")
def baseline_run(tiny_survey):
    _, fields = tiny_survey
    return run_pipeline(fields, _driver_config())


class TestPipelineRaceDetection:
    @pytest.mark.parametrize("executor,batch", [
        ("thread", None),
        ("thread", 4),
        ("process", None),
        ("process", 4),
    ])
    def test_full_pipeline_silent_and_identical(self, tiny_survey,
                                                baseline_run, executor,
                                                batch):
        """Both executors, scalar and batched evaluation: a correct run
        under full detection (RMA shadowing + Cyclades shadow writes +
        pre-execution schedule verification) reports nothing and publishes
        the same catalog as a plain run."""
        _, fields = tiny_survey
        result = run_pipeline(fields, _driver_config(
            executor=executor, elbo_batch_size=batch,
            race_detect=True, verify_schedule=True,
        ))
        assert result.report.race_reports == []
        assert _identical_catalogs(result.catalog, baseline_run.catalog)

    def test_env_var_enables_detection(self, monkeypatch):
        monkeypatch.setenv("REPRO_RACE_DETECT", "1")
        monkeypatch.setenv("REPRO_VERIFY_SCHEDULE", "yes")
        pinned = _pin_config(_driver_config())
        assert pinned.parallel.race_detect is True
        assert pinned.parallel.verify_schedule is True

    def test_explicit_config_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RACE_DETECT", "1")
        pinned = _pin_config(_driver_config(race_detect=False))
        assert pinned.parallel.race_detect is False

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_RACE_DETECT", raising=False)
        monkeypatch.delenv("REPRO_VERIFY_SCHEDULE", raising=False)
        pinned = _pin_config(_driver_config())
        assert pinned.parallel.race_detect is False
        assert pinned.parallel.verify_schedule is False
