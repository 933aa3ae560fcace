"""Tests for the end-to-end multi-field driver: merging, checkpointing
(including working-catalog shards), geometry, the survey synthesis helper,
the driver report, the sharded catalog row codec, halo selection and
refresh, the thread/process executors (the two kinds of seat of the one
stage loop), seat failure, transport resolution, the elastic worker pool,
task-granular journals, on-disk fields with prefetch, and the full
pipeline (smoke + kill/resume)."""

import dataclasses
import json
import multiprocessing
import os
import pickle
import queue
import subprocess
import sys
import time
import zipfile

import numpy as np
import pytest

from repro.core.catalog import Catalog, CatalogEntry
from repro.core.joint import JointConfig
from repro.core.priors import default_priors
from repro.core.single import OptimizeConfig
from repro.driver import (
    ROW_WIDTH,
    Checkpoint,
    DriverConfig,
    ShardedCatalog,
    dedup_catalog,
    entry_from_row,
    entry_to_row,
    images_for_region,
    load_checkpoint,
    merge_catalogs,
    run_pipeline,
    save_checkpoint,
    seed_catalog_from_fields,
    shard_path,
    survey_bounds,
)
from repro.driver.checkpoint import (
    append_task_record,
    entry_from_dict,
    entry_to_dict,
    load_task_journal,
    task_journal_path,
)
from repro.driver.pipeline import (
    _resolve_executor,
    _resolve_pgas_transport,
)
from repro.driver.pool import InProcessPool, WorkerPool
from repro.driver.stage import StageRunner, _halo_indices, _task_config
from repro.driver.worker import TaskDone, _FieldStore, _WorkerState
from repro.parallel import ParallelRegionConfig
from repro.sched import DtreeConfig
from repro.partition import Region, Task, generate_tasks
from repro.perf.counters import Counters
from repro.perf.driver import DriverReport
from repro.survey import (
    SyntheticSkyConfig,
    generate_survey_fields,
    save_field,
)

COLORS = [1.0, 0.8, 0.3, 0.1]


def entry(x, y, flux=20.0, is_galaxy=False):
    return CatalogEntry([float(x), float(y)], is_galaxy, float(flux), COLORS)


class TestDedup:
    def test_duplicates_collapse_to_brightest(self):
        cat = Catalog([entry(10, 10, 5.0), entry(10.5, 10.2, 50.0),
                       entry(40, 40, 8.0)])
        out = dedup_catalog(cat, radius=2.0)
        assert len(out) == 2
        assert {e.flux_r for e in out} == {50.0, 8.0}

    def test_far_sources_survive(self):
        cat = Catalog([entry(0, 0), entry(10, 0), entry(0, 10)])
        assert len(dedup_catalog(cat, radius=2.0)) == 3

    def test_chain_collapses_through_brightest(self):
        # 0 -- 1.5 -- 3.0: ends are within radius of the middle only.
        cat = Catalog([entry(0, 0, 10.0), entry(1.5, 0, 30.0),
                       entry(3.0, 0, 20.0)])
        out = dedup_catalog(cat, radius=2.0)
        # Brightest (middle) claims both neighbors.
        assert len(out) == 1
        assert out[0].flux_r == 30.0

    def test_survivors_keep_original_order(self):
        cat = Catalog([entry(0, 0, 1.0), entry(50, 0, 99.0), entry(90, 0, 5.0)])
        out = dedup_catalog(cat, radius=2.0)
        assert [e.flux_r for e in out] == [1.0, 99.0, 5.0]

    def test_merge_catalogs_across_fields(self):
        a = Catalog([entry(10, 10, 20.0), entry(30, 10, 10.0)])
        b = Catalog([entry(10.4, 10.1, 15.0), entry(60, 10, 9.0)])
        out = merge_catalogs([a, b], radius=2.0)
        assert len(out) == 3
        assert 15.0 not in {e.flux_r for e in out}

    def test_empty_and_singleton(self):
        assert len(dedup_catalog(Catalog([]), 2.0)) == 0
        assert len(dedup_catalog(Catalog([entry(1, 1)]), 2.0)) == 1

    def test_symmetric_duplicates_resolve_order_independently(self):
        # Two equally bright detections of one source: whichever order the
        # pipeline assembled them in (task completion order differs between
        # runs), the *same* detection must survive — a tie broken by input
        # position would publish different catalogs for identical surveys.
        a = entry(10.0, 10.0, flux=50.0)
        b = entry(10.8, 10.3, flux=50.0)
        fwd = dedup_catalog(Catalog([a, b]), radius=2.0)
        rev = dedup_catalog(Catalog([b, a]), radius=2.0)
        assert len(fwd) == len(rev) == 1
        assert tuple(fwd[0].position) == tuple(rev[0].position)

    def test_merge_catalogs_field_order_independent_under_ties(self):
        a = Catalog([entry(10.0, 10.0, 50.0), entry(40, 10, 9.0)])
        b = Catalog([entry(10.8, 10.3, 50.0), entry(70, 10, 7.0)])
        fwd = merge_catalogs([a, b], radius=2.0)
        rev = merge_catalogs([b, a], radius=2.0)
        assert ({tuple(e.position) for e in fwd}
                == {tuple(e.position) for e in rev})
        assert len(fwd) == 3

    def test_tie_break_prefers_stable_content_key(self):
        # Equal flux: the lower (x, y) position claims the group, however
        # the inputs were permuted.
        entries = [entry(5.5, 5.0, 20.0), entry(5.0, 5.0, 20.0),
                   entry(5.0, 6.0, 20.0)]
        survivors = set()
        for perm in ([0, 1, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]):
            out = dedup_catalog(Catalog([entries[i] for i in perm]), 2.0)
            assert len(out) == 1
            survivors.add(tuple(out[0].position))
        assert survivors == {(5.0, 5.0)}


class TestCheckpoint:
    def test_entry_roundtrip(self):
        e = CatalogEntry([3.0, 4.0], True, 12.0, COLORS,
                         gal_frac_dev=0.3, gal_axis_ratio=0.6,
                         gal_angle=1.1, gal_radius_px=2.2,
                         prob_galaxy=0.9, flux_r_sd=0.5,
                         color_sd=np.array([0.1, 0.2, 0.3, 0.4]))
        back = entry_from_dict(entry_to_dict(e))
        np.testing.assert_allclose(back.position, e.position)
        np.testing.assert_allclose(back.colors, e.colors)
        np.testing.assert_allclose(back.color_sd, e.color_sd)
        assert back.is_galaxy == e.is_galaxy
        assert back.prob_galaxy == e.prob_galaxy
        assert back.flux_r_sd == e.flux_r_sd

    def test_entry_roundtrip_none_fields(self):
        back = entry_from_dict(entry_to_dict(entry(1, 2)))
        assert back.prob_galaxy is None
        assert back.flux_r_sd is None
        assert back.color_sd is None

    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        fp = {"n_fields": 2}
        ckpt = Checkpoint(fingerprint=fp)
        ckpt.seed_catalog = Catalog([entry(1, 2), entry(3, 4)])
        ckpt.working_catalog = Catalog([entry(1.1, 2.1)])
        ckpt.stage_elbo = {"stage0": 12.5}
        ckpt.counters = {"active_pixel_visits": 100.0}
        ckpt.mark_done("seed")
        ckpt.mark_done("stage0")
        save_checkpoint(path, ckpt)

        back = load_checkpoint(path, fp)
        assert back is not None
        assert back.done("seed") and back.done("stage0")
        assert not back.done("stage1")
        assert len(back.seed_catalog) == 2
        assert len(back.working_catalog) == 1
        assert back.stage_elbo == {"stage0": 12.5}
        assert back.counters == {"active_pixel_visits": 100.0}
        assert back.final_catalog is None

    def test_fingerprint_mismatch_ignored(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, Checkpoint(fingerprint={"n_fields": 2}))
        assert load_checkpoint(path, {"n_fields": 3}) is None

    def test_corrupt_file_ignored(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        with open(path, "w") as f:
            f.write('{"version": 1, "fingerpri')  # killed mid-write
        assert load_checkpoint(path, {}) is None

    def test_missing_file(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "nope.json"), {}) is None

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            Checkpoint(fingerprint={}).mark_done("stage7")

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, Checkpoint(fingerprint={}))
        save_checkpoint(path, Checkpoint(fingerprint={}))
        assert os.listdir(str(tmp_path)) == ["ckpt.json"]


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


class TestSurveyFields:
    def test_layout(self, tiny_survey):
        truth, fields = tiny_survey
        assert len(fields) == 2
        assert all(len(images) == 1 for images in fields)
        # Adjacent fields overlap on the sky.
        b0 = fields[0][0].sky_bounds()
        b1 = fields[1][0].sky_bounds()
        assert b1[0] < b0[1]

    @pytest.mark.parametrize("name,bad", [
        ("calibration", np.nan), ("sky_level", np.inf),
        ("calibration", np.inf)])
    def test_non_finite_image_metadata_is_refused(self, tiny_survey, name,
                                                  bad):
        # Such a field used to run: run_pipeline returned half the sources
        # with NaN stage ELBOs and nothing raised.
        _, fields = tiny_survey
        image = fields[1][0]
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(image.meta, **{name: bad})

    def test_truth_inside_survey(self, tiny_survey):
        truth, fields = tiny_survey
        bounds = survey_bounds(fields)
        for e in truth:
            assert bounds.contains(e.position)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_survey_fields(0)
        with pytest.raises(ValueError):
            generate_survey_fields(2, field_shape_hw=(16, 16), overlap=20.0)


class TestGeometry:
    def test_survey_bounds_covers_all_fields(self, tiny_survey):
        _, fields = tiny_survey
        bounds = survey_bounds(fields)
        for images in fields:
            for im in images:
                x0, x1, y0, y1 = im.sky_bounds()
                assert bounds.x_min <= x0 and bounds.x_max >= x1
                assert bounds.y_min <= y0 and bounds.y_max >= y1

    def test_survey_bounds_empty(self):
        with pytest.raises(ValueError):
            survey_bounds([])

    def test_images_for_region_selects_covering_fields(self, tiny_survey):
        _, fields = tiny_survey
        # A region well inside field 0 and outside field 1 (field 1 starts
        # at x=24 and the margin is 2).
        region = Region(2.0, 10.0, 2.0, 10.0)
        images = images_for_region(fields, region, margin=2.0)
        assert images == fields[0]
        # The overlap column sees both fields.
        overlap = Region(25.0, 30.0, 2.0, 10.0)
        assert len(images_for_region(fields, overlap, margin=2.0)) == 2


class TestDriverReport:
    def test_throughput_and_overhead(self):
        r = DriverReport(wall_seconds=10.0, task_seconds=18.0,
                         sched_seconds=2.0, n_source_updates=40)
        assert r.sources_per_second == pytest.approx(4.0)
        assert r.scheduling_overhead_fraction == pytest.approx(0.1)

    def test_zero_safe(self):
        r = DriverReport()
        assert r.sources_per_second == 0.0
        assert r.scheduling_overhead_fraction == 0.0
        assert r.flop_rate == 0.0
        assert r.messages_per_task == 0.0

    def test_dict_roundtrip(self):
        r = DriverReport(wall_seconds=3.0, n_tasks=5, messages=7,
                         stage_elbo={"stage0": 1.5})
        back = DriverReport.from_dict(r.as_dict())
        assert back.as_dict() == r.as_dict()

    def test_report_without_spawn_bind_row_still_loads(self):
        # A checkpoint written before the ledger had a spawn/bind row.
        old = DriverReport(wall_seconds=3.0, n_tasks=5).as_dict()
        del old["spawn_bind_seconds"]
        back = DriverReport.from_dict(old)
        assert back.spawn_bind_seconds == 0.0 and back.n_tasks == 5

    def test_summary_lines_render(self):
        lines = DriverReport(wall_seconds=1.0, stage_elbo={"stage0": 2.0}
                             ).summary_lines()
        assert any("throughput" in ln for ln in lines)
        assert any("stage0" in ln for ln in lines)


def _driver_config(checkpoint_path=None, **overrides):
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
        ),
        checkpoint_path=checkpoint_path,
    )
    return dataclasses.replace(config, **overrides)


def _same_catalog(a, b):
    if len(a) != len(b):
        return False
    return all(
        np.allclose(x.position, y.position)
        and np.isclose(x.flux_r, y.flux_r)
        and x.is_galaxy == y.is_galaxy
        for x, y in zip(a, b)
    )


class TestPipelineEndToEnd:
    def test_smoke_two_fields(self, tiny_survey):
        truth, fields = tiny_survey
        result = run_pipeline(fields, _driver_config())
        assert not result.stopped_early
        assert result.resumed_stages == []
        assert len(result.catalog) > 0
        # Every detected source is optimized in both stages.
        n_seed = len(result.seed_catalog)
        assert result.report.n_source_updates == 2 * n_seed
        assert result.report.n_tasks > 0
        assert result.report.active_pixel_visits > 0
        assert set(result.stage_elbo) == {"stage0", "stage1"}
        assert all(np.isfinite(v) for v in result.stage_elbo.values())
        # The final catalog tracks truth reasonably even at smoke scale.
        from repro.validation import match_catalogs

        match = match_catalogs(truth, result.catalog)
        assert match.completeness >= 0.6
        assert match.false_detection_rate <= 0.4

    def test_kill_resume_reproduces_catalog(self, tiny_survey, tmp_path):
        _, fields = tiny_survey
        path = str(tmp_path / "ckpt.json")

        uninterrupted = run_pipeline(fields, _driver_config())

        partial = run_pipeline(
            fields, _driver_config(path, stop_after="stage0")
        )
        assert partial.stopped_early
        ckpt_size = os.path.getsize(path)
        assert ckpt_size > 0

        resumed = run_pipeline(fields, _driver_config(path))
        assert "stage0" in resumed.resumed_stages
        assert "stage1" not in resumed.resumed_stages
        assert not resumed.stopped_early
        assert _same_catalog(uninterrupted.catalog, resumed.catalog)
        assert resumed.stage_elbo["stage0"] == pytest.approx(
            uninterrupted.stage_elbo["stage0"]
        )

    def test_finished_checkpoint_short_circuits(self, tiny_survey, tmp_path):
        _, fields = tiny_survey
        path = str(tmp_path / "ckpt.json")
        first = run_pipeline(fields, _driver_config(path))
        again = run_pipeline(fields, _driver_config(path))
        assert again.resumed_stages == ["seed", "stage0", "stage1", "final"]
        assert _same_catalog(first.catalog, again.catalog)

    def test_bad_stop_after_rejected(self, tiny_survey):
        _, fields = tiny_survey
        with pytest.raises(ValueError):
            run_pipeline(fields, _driver_config(stop_after="stage9"))
        with pytest.raises(ValueError):
            run_pipeline(fields, _driver_config(
                stop_after="stage1", two_stage=False))

    def test_changed_optimizer_config_invalidates_checkpoint(
        self, tiny_survey, tmp_path
    ):
        # A checkpoint written under one optimizer configuration must not be
        # resumed under another — results would silently mix configs.
        _, fields = tiny_survey
        path = str(tmp_path / "ckpt.json")
        run_pipeline(fields, _driver_config(path, stop_after="stage0"))
        stronger = _driver_config(
            path,
            parallel=ParallelRegionConfig(
                n_threads=2, n_passes=1,
                joint=JointConfig(
                    n_passes=1,
                    single=OptimizeConfig(max_iter=20, grad_tol=2e-3),
                ),
            ),
        )
        result = run_pipeline(fields, stronger)
        assert result.resumed_stages == []  # checkpoint ignored, fresh run

    def test_single_stage_mode(self, tiny_survey):
        _, fields = tiny_survey
        result = run_pipeline(
            fields, _driver_config(two_stage=False)
        )
        assert set(result.stage_elbo) == {"stage0"}

    def test_checkpoint_file_is_json(self, tiny_survey, tmp_path):
        _, fields = tiny_survey
        path = str(tmp_path / "ckpt.json")
        run_pipeline(fields, _driver_config(path, stop_after="seed"))
        with open(path) as f:
            data = json.load(f)
        assert data["completed"] == ["seed"]
        assert data["seed_catalog"] is not None

    @pytest.mark.slow
    def test_four_field_recovery_and_resume(self, tmp_path):
        """Driver-scale acceptance run (excluded from tier-1 by the slow
        marker): >=90% recovery over 4 fields and kill/resume fidelity."""
        from repro.validation import match_catalogs

        rng = np.random.default_rng(11)
        sky = SyntheticSkyConfig(
            source_density=70.0, min_separation=7.0, flux_floor=15.0
        )
        truth, fields = generate_survey_fields(
            4, field_shape_hw=(44, 44), overlap=8.0,
            config=sky, rng=rng, bands=(1, 2, 3),
        )
        config = _driver_config(
            parallel=ParallelRegionConfig(
                n_threads=2, n_passes=1,
                joint=JointConfig(
                    n_passes=1,
                    single=OptimizeConfig(max_iter=15, grad_tol=1e-3),
                ),
            ),
        )
        result = run_pipeline(fields, config)
        match = match_catalogs(truth, result.catalog)
        assert match.completeness >= 0.9
        assert match.false_detection_rate <= 0.1

        path = str(tmp_path / "ckpt.json")
        killed = dataclasses.replace(
            config, checkpoint_path=path, stop_after="stage0"
        )
        assert run_pipeline(fields, killed).stopped_early
        resumed = run_pipeline(
            fields, dataclasses.replace(config, checkpoint_path=path)
        )
        assert _same_catalog(result.catalog, resumed.catalog)

    def test_seed_catalog_positions_are_global(self, tiny_survey):
        truth, fields = tiny_survey
        seed = seed_catalog_from_fields(fields, DriverConfig())
        bounds = survey_bounds(fields)
        for e in seed:
            assert bounds.contains(e.position)
        # Field 1 starts at x=24; detections there must not collapse onto
        # field-0 pixel coordinates.
        if len(seed) > 1:
            assert seed.positions()[:, 0].max() > 24.0

    @pytest.mark.parametrize("layout", ["middle", "leading", "trailing"])
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_empty_field_contributes_nothing(self, tiny_survey, executor,
                                             layout):
        """A field with no images seeds nothing and covers no sky: the
        survey with it, in any position, has the catalog of the survey
        without it, to the bit."""
        _, (f0, f1) = tiny_survey
        config = _driver_config(executor=executor)
        ref = run_pipeline([f0, f1], config).catalog
        assert len(ref) > 0
        result = run_pipeline(_with_empty_field(f0, f1, layout), config)
        assert _identical_catalogs(result.catalog, ref)
        assert result.report.n_fields == 2

    @pytest.mark.parametrize("layout", ["middle", "leading", "trailing"])
    def test_seed_catalog_skips_empty_fields(self, tiny_survey, layout):
        # The public Photo front end takes the same skip as the driver's
        # seed stage.
        _, (f0, f1) = tiny_survey
        ref = seed_catalog_from_fields([f0, f1], DriverConfig())
        assert len(ref) > 0
        seed = seed_catalog_from_fields(_with_empty_field(f0, f1, layout),
                                        DriverConfig())
        assert _identical_catalogs(seed, ref)

    def test_empty_field_resumes_from_checkpoint(self, tiny_survey,
                                                 tmp_path):
        """The seed stage's skip survives a restart: a run over a survey
        with an empty field, killed after stage 0 and resumed, lands on
        the uninterrupted catalog."""
        _, (f0, f1) = tiny_survey
        fields = [f0, [], f1]
        config = _driver_config()
        ref = run_pipeline(fields, config).catalog
        path = str(tmp_path / "ckpt.json")
        killed = dataclasses.replace(
            config, checkpoint_path=path, stop_after="stage0")
        assert run_pipeline(fields, killed).stopped_early
        resumed = run_pipeline(
            fields, dataclasses.replace(config, checkpoint_path=path))
        assert "seed" in resumed.resumed_stages
        assert _identical_catalogs(resumed.catalog, ref)


class TestRowCodec:
    def test_roundtrip_exact(self):
        e = CatalogEntry([3.25, 4.125], True, 12.5, COLORS,
                         gal_frac_dev=0.3, gal_axis_ratio=0.6,
                         gal_angle=1.1, gal_radius_px=2.2,
                         prob_galaxy=0.9, flux_r_sd=0.5,
                         color_sd=np.array([0.1, 0.2, 0.3, 0.4]))
        row = entry_to_row(e)
        assert row.shape == (ROW_WIDTH,)
        back = entry_from_row(row)
        # Bit-for-bit: float64 in, float64 out, no text roundtrip.
        assert np.array_equal(back.position, e.position)
        assert back.flux_r == e.flux_r
        assert np.array_equal(back.colors, e.colors)
        assert back.is_galaxy == e.is_galaxy
        assert back.prob_galaxy == e.prob_galaxy
        assert back.flux_r_sd == e.flux_r_sd
        assert np.array_equal(back.color_sd, e.color_sd)
        assert back.gal_radius_px == e.gal_radius_px

    def test_none_fields_roundtrip_as_nan(self):
        back = entry_from_row(entry_to_row(entry(1, 2)))
        assert back.prob_galaxy is None
        assert back.flux_r_sd is None
        assert back.color_sd is None

    def test_bad_row_width_rejected(self):
        with pytest.raises(ValueError):
            entry_from_row(np.zeros(ROW_WIDTH - 1))

    def test_sharded_catalog_roundtrip(self):
        entries = [entry(float(i), 2.0 * i, 10.0 + i) for i in range(7)]
        cat = ShardedCatalog.from_entries(entries, n_ranks=3)
        back = cat.to_catalog()
        assert len(back) == 7
        for a, b in zip(entries, back):
            assert np.array_equal(a.position, b.position)
            assert a.flux_r == b.flux_r
        np.testing.assert_allclose(
            cat.positions(), np.stack([e.position for e in entries])
        )

    def test_sharded_catalog_snapshot_copy(self):
        entries = [entry(float(i), 0.0) for i in range(4)]
        a = ShardedCatalog.from_entries(entries, n_ranks=2)
        b = ShardedCatalog(4, 2)
        b.copy_rows_from(a)
        a.put_entry(0, entry(99.0, 99.0))
        # The snapshot is decoupled from later writes.
        assert b.get_entry(0).position[0] == 0.0


class TestHaloSelection:
    """Regression tests for the halo margin box (closed on both sides)."""

    def _positions(self):
        # Region [10, 20) x [10, 20), margin 4: candidates on and around
        # every edge of the [6, 24] x [6, 24] margin box.
        return np.array([
            [24.0, 15.0],   # exactly on the far x edge -> in
            [6.0, 15.0],    # exactly on the near x edge -> in
            [15.0, 24.0],   # exactly on the far y edge -> in
            [24.001, 15.0],  # just past the far x edge -> out
            [15.0, 5.999],   # just past the near y edge -> out
            [15.0, 15.0],   # inside the region but owned -> out
        ])

    def test_margin_box_closed_on_both_sides(self):
        region = Region(10.0, 20.0, 10.0, 20.0)
        idx = _halo_indices(self._positions(), {5}, region, margin=4.0)
        # The old half-open upper bound (< x_max + m) dropped index 0 and 2
        # while keeping index 1 — asymmetric treatment of the same geometry.
        assert idx == [0, 1, 2]

    def test_empty_positions(self):
        assert _halo_indices(np.zeros((0, 2)), set(), Region(0, 1, 0, 1), 1.0) == []


class TestExecutorResolution:
    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_DRIVER_EXECUTOR", raising=False)
        assert _resolve_executor(DriverConfig()) == "thread"

    def test_env_var_forces_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_DRIVER_EXECUTOR", "process")
        assert _resolve_executor(DriverConfig()) == "process"
        # An explicit config value beats the environment.
        assert _resolve_executor(DriverConfig(executor="thread")) == "thread"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            _resolve_executor(DriverConfig(executor="mpi"))


def _with_empty_field(f0, f1, layout):
    """The two-field survey ``[f0, f1]`` with an image-less field added."""
    return {"middle": [f0, [], f1], "leading": [[], f0, f1],
            "trailing": [f0, f1, []]}[layout]


def _identical_catalogs(a, b):
    """Bit-for-bit equality — the thread/process equivalence guarantee."""
    if len(a) != len(b):
        return False
    return all(
        np.array_equal(x.position, y.position)
        and x.flux_r == y.flux_r
        and x.is_galaxy == y.is_galaxy
        and np.array_equal(x.colors, y.colors)
        and x.gal_radius_px == y.gal_radius_px
        and x.prob_galaxy == y.prob_galaxy
        and x.flux_r_sd == y.flux_r_sd
        for x, y in zip(a, b)
    )


class TestProcessExecutor:
    @pytest.fixture(scope="class")
    def both(self, tiny_survey):
        _, fields = tiny_survey
        return (run_pipeline(fields, _driver_config(executor="thread")),
                run_pipeline(fields, _driver_config(executor="process")))

    def test_identical_catalog_and_comm_counters(self, both):
        """The process executor must reproduce the thread executor's
        catalog bit-for-bit, and both must account their one-sided catalog
        traffic."""
        threaded, processed = both
        assert _identical_catalogs(threaded.catalog, processed.catalog)
        assert processed.stage_elbo["stage0"] == pytest.approx(
            threaded.stage_elbo["stage0"]
        )
        # The ledger's pool spawn/bind row: cold seats cost something,
        # threads nothing.
        assert threaded.report.spawn_bind_seconds == 0.0
        assert processed.report.spawn_bind_seconds > 0.0
        for result in (threaded, processed):
            assert result.report.rma_puts > 0
            assert result.report.rma_bytes > 0
            workers = {rec["worker"] for rec in result.report.worker_comm}
            assert workers <= {0, 1} and workers
        # Process workers really read rows one-sidedly (thread workers get
        # their snapshot rows the same way).
        assert processed.report.rma_gets > 0
        # Counters crossed the process boundary.
        assert processed.report.active_pixel_visits > 0
        assert processed.counters == pytest.approx(threaded.counters)

    def test_accounting_identical_across_seat_kinds(self, both):
        """One loop, one collector: the ledger does not depend on the kind
        of seat that did the work."""
        threaded, processed = both
        for name in ("n_tasks", "n_source_updates", "rma_gets", "rma_puts",
                     "rma_bytes"):
            assert (getattr(threaded.report, name)
                    == getattr(processed.report, name)), name
        for name in ("objective_evaluations", "active_pixel_visits",
                     "newton_iterations"):
            assert threaded.counters[name] == processed.counters[name], name
        assert (
            sorted((o.task_id, o.stage, o.n_sources, o.elbo)
                   for o in threaded.outcomes)
            == sorted((o.task_id, o.stage, o.n_sources, o.elbo)
                      for o in processed.outcomes))


class TestDiskFields:
    def test_prefetched_disk_fields_match_memory(self, tiny_survey, tmp_path):
        _, fields = tiny_survey
        paths = []
        for i, images in enumerate(fields):
            p = str(tmp_path / ("field%d.npz" % i))
            save_field(p, images)
            paths.append(p)
        mem = run_pipeline(fields, _driver_config())
        disk = run_pipeline(paths, _driver_config())
        assert _identical_catalogs(mem.catalog, disk.catalog)
        # The look-ahead prefetcher saw traffic.
        assert disk.report.prefetch_hits + disk.report.prefetch_misses > 0

    def test_mixed_memory_and_disk_fields(self, tiny_survey, tmp_path):
        _, fields = tiny_survey
        p = str(tmp_path / "field1.npz")
        save_field(p, fields[1])
        mixed = run_pipeline([fields[0], p], _driver_config())
        mem = run_pipeline(fields, _driver_config())
        assert _identical_catalogs(mem.catalog, mixed.catalog)


def _shard_files(path):
    """(generation, per-rank shard paths) of the checkpoint at ``path``."""
    with open(path) as f:
        manifest = json.load(f)["working_manifest"]
    return manifest, [
        shard_path(path, rank, manifest["n_shards"], manifest["generation"])
        for rank in range(manifest["n_shards"])
    ]


class TestShardCheckpoint:
    def test_working_catalog_saved_as_shards(self, tiny_survey, tmp_path):
        _, fields = tiny_survey
        path = str(tmp_path / "ckpt.json")
        run_pipeline(fields, _driver_config(path, stop_after="stage0"))
        manifest, paths = _shard_files(path)
        assert manifest["n_shards"] == 2  # n_nodes=2 in _driver_config
        for p in paths:
            assert os.path.exists(p)
        # The main JSON carries the manifest, not the inline working catalog.
        with open(path) as f:
            assert json.load(f)["working_catalog"] is None

    def test_stale_generations_cleaned_up(self, tiny_survey, tmp_path):
        # Each save writes a fresh generation and removes superseded shard
        # files once its main JSON landed — no unbounded accumulation, and
        # a crash mid-save can never mix generations (the manifest names
        # exactly one).
        _, fields = tiny_survey
        path = str(tmp_path / "ckpt.json")
        run_pipeline(fields, _driver_config(path))  # saves after every stage
        _, paths = _shard_files(path)
        on_disk = sorted(f for f in os.listdir(str(tmp_path)) if "shard" in f)
        assert on_disk == sorted(os.path.basename(p) for p in paths)

    def test_resume_from_shards_reproduces_catalog(self, tiny_survey, tmp_path):
        _, fields = tiny_survey
        path = str(tmp_path / "ckpt.json")
        uninterrupted = run_pipeline(fields, _driver_config())
        run_pipeline(fields, _driver_config(path, stop_after="stage0"))
        resumed = run_pipeline(fields, _driver_config(path))
        assert "stage0" in resumed.resumed_stages
        assert _identical_catalogs(uninterrupted.catalog, resumed.catalog)

    def test_missing_shard_invalidates_checkpoint(self, tiny_survey, tmp_path):
        _, fields = tiny_survey
        path = str(tmp_path / "ckpt.json")
        run_pipeline(fields, _driver_config(path, stop_after="stage0"))
        os.unlink(_shard_files(path)[1][0])
        result = run_pipeline(fields, _driver_config(path))
        assert result.resumed_stages == []  # fresh run, not a bad resume

    def test_corrupt_shard_invalidates_checkpoint(self, tiny_survey, tmp_path):
        _, fields = tiny_survey
        path = str(tmp_path / "ckpt.json")
        run_pipeline(fields, _driver_config(path, stop_after="stage0"))
        with open(_shard_files(path)[1][1], "w") as f:
            f.write('{"version": 1, "ro')  # killed mid-write
        assert run_pipeline(fields, _driver_config(path)).resumed_stages == []

    def test_wrong_generation_shards_invalidate_checkpoint(self, tmp_path):
        # The crash window the generation nonce closes: shard content from
        # a different save generation than the one the main JSON references
        # must not be accepted, even though every rank/count check passes.
        path = str(tmp_path / "ckpt.json")
        fp = {"n_fields": 1}
        ckpt = Checkpoint(fingerprint=fp)
        ckpt.working_catalog = Catalog([entry(i, i) for i in range(4)])
        ckpt.mark_done("seed")
        save_checkpoint(path, ckpt, shards=2)
        _, paths = _shard_files(path)
        with open(paths[0]) as f:
            shard = json.load(f)
        shard["generation"] = "deadbeef0000"
        with open(paths[0], "w") as f:
            json.dump(shard, f)
        assert load_checkpoint(path, fp) is None

    def test_sharded_save_load_direct(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        fp = {"n_fields": 1}
        ckpt = Checkpoint(fingerprint=fp)
        ckpt.working_catalog = Catalog([entry(i, i) for i in range(5)])
        ckpt.mark_done("seed")
        save_checkpoint(path, ckpt, shards=3)
        back = load_checkpoint(path, fp)
        assert back is not None
        assert len(back.working_catalog) == 5
        assert [e.position[0] for e in back.working_catalog] == list(range(5))


def _two_task_scene(**overrides):
    """Two sources either side of the region boundary at x=16, one task
    each: ``(truth, images, working catalog, tasks, config)``."""
    from repro.survey.synth import generate_field_images

    rng = np.random.default_rng(3)
    truth = Catalog([entry(14.0, 16.0, 300.0), entry(18.0, 16.0, 300.0)])
    images = generate_field_images(
        truth, (0.0, 0.0), (32, 32), config=SyntheticSkyConfig(),
        rng=rng, bands=(2,),
    )
    # Seeds offset from truth: each source's fit is dragged by its
    # (also mis-seeded) neighbor across the region boundary.
    seed = [entry(13.2, 16.6, 200.0), entry(18.8, 15.4, 200.0)]
    config = DriverConfig(
        n_nodes=1,
        parallel=ParallelRegionConfig(
            n_threads=1, n_passes=1,
            joint=JointConfig(
                n_passes=1,
                single=OptimizeConfig(max_iter=20, grad_tol=1e-3),
            ),
        ),
    )
    tasks = [
        Task(0, 0, Region(0.0, 16.0, 0.0, 32.0), [0], [seed[0]]),
        Task(1, 0, Region(16.0, 32.0, 0.0, 32.0), [1], [seed[1]]),
    ]
    working = ShardedCatalog.from_entries(seed, n_ranks=1)
    return (truth, images, working, tasks,
            dataclasses.replace(config, **overrides))


def _run_two_task_stage(report=None, counters=None, **overrides):
    """The scene through the one stage loop, built by hand on in-process
    seats; returns ``(truth, working catalog)``."""
    truth, images, working, tasks, config = _two_task_scene(**overrides)
    pool = InProcessPool()
    runner = None
    try:
        runner = StageRunner(
            _FieldStore([images]), working, default_priors(), config,
            counters if counters is not None else Counters(), pool, [images],
        )
        runner.run(tasks, report if report is not None else DriverReport())
    finally:
        pool.close()
        if runner is not None:
            runner.close()
    return truth, working


class TestHaloRefresh:
    """The halo-refresh quality follow-on: with ``halo_refresh=True`` a
    task re-reads its frozen halo from the live working catalog, so a
    boundary source fit later in the stage sees its neighbor's freshest
    parameters instead of the stage-start snapshot."""

    def _run_stage(self, halo_refresh):
        truth, working = _run_two_task_stage(halo_refresh=halo_refresh)
        out = working.to_catalog()
        return [
            float(np.linalg.norm(out[i].position - truth[i].position))
            for i in range(2)
        ]

    def test_boundary_source_improves(self):
        snapshot_err = self._run_stage(halo_refresh=False)
        refresh_err = self._run_stage(halo_refresh=True)
        # Task 0 runs first either way: its halo (the stage-start seed of
        # source 1) is identical under both policies.
        assert refresh_err[0] == pytest.approx(snapshot_err[0])
        # Task 1 runs second: under refresh its halo holds source 0's
        # *optimized* parameters, and the boundary fit lands closer to
        # truth.
        assert refresh_err[1] < snapshot_err[1]

    def test_halo_refresh_in_fingerprint(self, tiny_survey, tmp_path):
        # A checkpoint written under one halo policy must not resume under
        # the other — the policies produce different results.
        _, fields = tiny_survey
        path = str(tmp_path / "ckpt.json")
        run_pipeline(fields, _driver_config(path, stop_after="stage0"))
        result = run_pipeline(
            fields, _driver_config(path, halo_refresh=True)
        )
        assert result.resumed_stages == []


def _never_reuse(monkeypatch):
    """Make every seat's contribution store render on every lookup: the
    region setup of a tree without the store."""
    from repro.core import joint

    def render(self, params, image, image_key, bounds, counters):
        return joint._render(params, image, bounds, counters)

    monkeypatch.setattr(joint.ContributionStore, "contribution", render)


class TestContributionStore:
    """Each seat renders a snapshot source once per stage bind, not once
    per task (``repro.core.joint.ContributionStore``).  On one seat the
    counts are exact; the catalog never depends on the store."""

    #: ``tiny_survey`` on one seat: (contribution_renders,
    #: contribution_reuses) through stage 0, and through both stages.
    STAGE0 = (14.0, 12.0)
    BOTH = (28.0, 19.0)

    @staticmethod
    def _counts(result):
        return (result.counters.get("contribution_renders"),
                result.counters.get("contribution_reuses"))

    def test_counts_on_one_seat_are_pinned(self, tiny_survey):
        _, fields = tiny_survey
        config = _driver_config(n_nodes=1)
        stage0 = run_pipeline(
            fields, dataclasses.replace(config, stop_after="stage0"))
        assert self._counts(stage0) == self.STAGE0
        assert self._counts(run_pipeline(fields, config)) == self.BOTH

    def test_one_store_per_stage_bind(self, tiny_survey, tmp_path,
                                      monkeypatch):
        """Nothing is reused across stages: a run that resumes stage 1 on
        a cold seat counts what the straight-through run counts."""
        from repro.driver import worker

        stores = []

        class Recorded(worker.ContributionStore):
            def __init__(self):
                super().__init__()
                stores.append(self)

        monkeypatch.setattr(worker, "ContributionStore", Recorded)
        _, fields = tiny_survey
        config = _driver_config(n_nodes=1, executor="thread")
        straight = run_pipeline(fields, config)
        assert len(stores) == 2
        # Each stage's store holds that stage's distinct snapshot renders;
        # the other 7 renders of each stage are fold-backs, never stored.
        assert [len(s) for s in stores] == [7, 7]
        path = str(tmp_path / "ckpt.json")
        run_pipeline(fields, dataclasses.replace(
            config, checkpoint_path=path, stop_after="stage0"))
        resumed = run_pipeline(fields, dataclasses.replace(
            config, checkpoint_path=path))
        assert resumed.resumed_stages == ["seed", "stage0"]
        assert self._counts(resumed) == self._counts(straight) == self.BOTH
        assert _identical_catalogs(resumed.catalog, straight.catalog)

    def test_warm_pool_starts_every_run_cold(self, tiny_survey):
        _, fields = tiny_survey
        config = _driver_config(n_nodes=1, executor="process")
        pool = WorkerPool()
        try:
            first = run_pipeline(fields, config, pool=pool)
            second = run_pipeline(fields, config, pool=pool)
        finally:
            pool.close()
        assert self._counts(first) == self._counts(second) == self.BOTH
        assert _identical_catalogs(first.catalog, second.catalog)

    def test_catalog_does_not_depend_on_the_store(self, tiny_survey,
                                                  monkeypatch):
        _, fields = tiny_survey
        # A patch reaches in-process seats only.
        config = _driver_config(executor="thread")
        stored = run_pipeline(fields, config)
        assert stored.counters["contribution_reuses"] > 0
        _never_reuse(monkeypatch)
        rendered = run_pipeline(fields, config)
        assert "contribution_reuses" not in rendered.counters
        assert (rendered.counters["contribution_renders"]
                == sum(self._counts(stored)))
        assert _identical_catalogs(stored.catalog, rendered.catalog)
        assert stored.stage_elbo == rendered.stage_elbo

    def test_halo_refresh_is_bit_identical(self, monkeypatch):
        """Under ``halo_refresh`` the halo comes from the mutable working
        catalog; a store keyed by values still returns only what a render
        of the same values would."""
        counters = Counters()
        _, stored = _run_two_task_stage(counters=counters, halo_refresh=True)
        # Task 1's own source was task 0's halo, at the same values.
        assert counters.get("contribution_reuses") == 1.0
        _never_reuse(monkeypatch)
        _, rendered = _run_two_task_stage(halo_refresh=True)
        assert _identical_catalogs(stored.to_catalog(),
                                   rendered.to_catalog())


class TestPgasTransportResolution:
    def test_defaults_track_executor(self, monkeypatch):
        monkeypatch.delenv("REPRO_PGAS_TRANSPORT", raising=False)
        assert _resolve_pgas_transport(DriverConfig(), "thread") == "local"
        assert _resolve_pgas_transport(DriverConfig(), "process") == "socket"

    def test_env_var_forces_transport(self, monkeypatch):
        monkeypatch.setenv("REPRO_PGAS_TRANSPORT", "socket")
        assert _resolve_pgas_transport(DriverConfig(), "thread") == "socket"
        assert _resolve_pgas_transport(DriverConfig(), "process") == "socket"
        # An explicit config value beats the environment.
        config = DriverConfig(pgas_transport="local")
        assert _resolve_pgas_transport(config, "thread") == "local"

    def test_unknown_transport_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_PGAS_TRANSPORT", raising=False)
        # The retired names are unknown like any other (the first is
        # spelled in two pieces so a tree-wide grep for it stays empty).
        for name in ("infiniband", "shared" "_memory", "mpi"):
            with pytest.raises(ValueError, match=r"pgas_transport must be "
                               r"one of \('local', 'socket'\)"):
                _resolve_pgas_transport(
                    DriverConfig(pgas_transport=name), "process"
                )

    def test_local_cannot_back_process_workers(self):
        with pytest.raises(ValueError, match="process"):
            _resolve_pgas_transport(
                DriverConfig(pgas_transport="local"), "process"
            )


class TestSocketPipeline:
    def test_socket_matches_thread_bit_for_bit(self, tiny_survey):
        """Process node-workers talking to the catalog over TCP produce the
        thread executor's catalog bit-for-bit — the multi-node claim at
        tier-1 scale."""
        _, fields = tiny_survey
        threaded = run_pipeline(fields, _driver_config(executor="thread"))
        socketed = run_pipeline(
            fields,
            _driver_config(executor="process", pgas_transport="socket"),
        )
        assert _identical_catalogs(threaded.catalog, socketed.catalog)
        # The catalog traffic really crossed the socket server.
        assert socketed.report.rma_gets > 0
        assert socketed.report.rma_puts > 0
        assert socketed.counters == pytest.approx(threaded.counters)


class TestWorkerPool:
    def test_warm_pool_spawns_zero_new_workers(self, tiny_survey):
        """The elastic-pool claim: a second run on a caller-owned pool
        reuses the persistent seats instead of paying spawn cost again."""
        _, fields = tiny_survey
        pool = WorkerPool()
        try:
            config = _driver_config(executor="process")
            first = run_pipeline(fields, config, pool=pool)
            spawned = pool.spawned_total
            assert spawned >= 2  # n_nodes=2
            second = run_pipeline(fields, config, pool=pool)
            assert pool.spawned_total == spawned
            assert _identical_catalogs(first.catalog, second.catalog)
            # Seats stamp their first bind once in their life: the cold run
            # has a spawn/bind row, the warm one none.
            assert first.report.spawn_bind_seconds > 0.0
            assert second.report.spawn_bind_seconds == 0.0
        finally:
            pool.close()

    def test_ensure_grows_and_respawns_dead_seats(self):
        pool = WorkerPool()
        try:
            assert pool.ensure(2) == [0, 1]
            assert pool.ensure(2) == []  # already satisfied
            assert pool.ensure(3) == [2]
            assert pool.spawned_total == 3
            pool.procs[1].terminate()
            pool.procs[1].join()
            assert not pool.alive(1)
            assert pool.ensure(3) == [1]  # dead seat respawned in place
            assert all(pool.alive(seat) for seat in range(3))
            pool.shrink(1)
            assert pool.size == 1 and pool.alive(0)
        finally:
            pool.close()

    def test_closed_pool_rejects_ensure(self):
        pool = WorkerPool()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.ensure(1)

    def test_shutdown_tells_every_seat_before_waiting_on_any(self):
        """Teardown is sentinel-all, join-all, terminate-stragglers: a hung
        seat neither delays the others' sentinel nor survives."""
        events = []

        class FakeQueue:
            def __init__(self, seat):
                self.seat = seat

            def put(self, item):
                assert item is None
                events.append(("sentinel", self.seat))

            def close(self):
                events.append(("queue_closed", self.seat))

        class FakeSeat:
            def __init__(self, seat, hung):
                self.seat, self.hung, self.terminated = seat, hung, False

            def join(self, timeout=None):
                events.append(("join", self.seat))

            def is_alive(self):
                return self.hung and not self.terminated

            def terminate(self):
                self.terminated = True
                events.append(("terminate", self.seat))

        pool = WorkerPool()
        pool.procs = [FakeSeat(0, hung=True), FakeSeat(1, hung=False),
                      FakeSeat(2, hung=False)]
        pool.task_qs = [FakeQueue(seat) for seat in range(3)]
        pool.close()
        assert pool.size == 0
        kinds = [kind for kind, _ in events]
        assert sorted(s for k, s in events if k == "sentinel") == [0, 1, 2]
        first_join = kinds.index("join")
        assert kinds[:first_join] == ["sentinel"] * 3
        assert [e for e in events if e[0] == "terminate"] == [("terminate", 0)]
        # Nobody is terminated before everybody had the chance to exit.
        last_first_round_join = max(
            i for i, e in enumerate(events) if e in {("join", 1), ("join", 2)})
        assert kinds.index("terminate") > last_first_round_join


def _corrupt_pixels(path):
    """Flip bytes in the middle of a field file: the zip directory and the
    array headers still read (metadata, fingerprint), loading the pixels
    fails their checksum."""
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.seek(size // 2)
        chunk = f.read(16)
        f.seek(size // 2)
        f.write(bytes(b ^ 0xFF for b in chunk))


class TestEarlyPoolBoot:
    """``run_pipeline`` asks for its seats before the serial prologue, so
    every way out of that prologue has to account for them."""

    def _broken_survey(self, tiny_survey, tmp_path):
        _, fields = tiny_survey
        paths = []
        for i, images in enumerate(fields):
            paths.append(str(tmp_path / ("field%d.npz" % i)))
            save_field(paths[-1], images)
        _corrupt_pixels(paths[-1])
        return paths

    def test_failure_after_boot_closes_a_private_pool(
            self, tiny_survey, tmp_path, driver_scratch_dirs):
        paths = self._broken_survey(tiny_survey, tmp_path)
        before = driver_scratch_dirs()
        with pytest.raises(zipfile.BadZipFile):
            run_pipeline(paths, _driver_config(executor="process"))
        assert multiprocessing.active_children() == []
        assert driver_scratch_dirs() == before

    def test_failure_after_boot_leaves_a_callers_pool_alone(
            self, tiny_survey, tmp_path, driver_scratch_dirs):
        paths = self._broken_survey(tiny_survey, tmp_path)
        before = driver_scratch_dirs()
        pool = WorkerPool()
        try:
            with pytest.raises(zipfile.BadZipFile):
                run_pipeline(paths, _driver_config(executor="process"),
                             pool=pool)
            # The seats were asked for before the seed stage hit the bad
            # file, and they are still the caller's, alive.
            assert pool.spawned_total == 2
            assert all(pool.alive(seat) for seat in range(2))
            assert driver_scratch_dirs() == before
        finally:
            pool.close()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("keep", [0.0, 0.5])
    def test_truncated_field_file_is_named_before_any_task(
            self, tiny_survey, tmp_path, monkeypatch, keep):
        """An empty or truncated field file is a ``ValueError`` naming the
        file, raised from the metadata pass: no task runs and no seat is
        asked for."""
        _, fields = tiny_survey
        paths = []
        for i, images in enumerate(fields):
            paths.append(str(tmp_path / ("field%d.npz" % i)))
            save_field(paths[-1], images)
        with open(paths[-1], "r+b") as f:
            f.truncate(int(os.path.getsize(paths[-1]) * keep))
        started = []
        monkeypatch.setattr("repro.driver.worker._TaskRun.start",
                            lambda task_run, state: started.append(task_run))
        with pytest.raises(ValueError, match="truncated or corrupt") as err:
            run_pipeline(paths, _driver_config(executor="thread"))
        assert paths[-1] in str(err.value)
        assert started == []
        pool = WorkerPool()
        try:
            with pytest.raises(ValueError, match="truncated or corrupt"):
                run_pipeline(paths, _driver_config(executor="process"),
                             pool=pool)
            assert pool.spawned_total == 0
        finally:
            pool.close()

    def test_bad_arguments_are_rejected_before_any_seat_boots(self,
                                                              tiny_survey):
        _, fields = tiny_survey
        pool = WorkerPool()
        try:
            for bad in (dict(stop_after="nope"),
                        dict(pgas_transport="local"),
                        dict(pgas_transport="carrier-pigeon")):
                with pytest.raises(ValueError):
                    run_pipeline(fields, _driver_config(executor="process",
                                                        **bad), pool=pool)
            assert pool.spawned_total == 0
        finally:
            pool.close()

    def test_nothing_left_to_optimize_spawns_nothing(self, tiny_survey,
                                                     tmp_path):
        """A checkpoint with every optimization stage done (or a run that
        stops at the seed) needs no seats, and gets none."""
        _, fields = tiny_survey
        ckpt = str(tmp_path / "ckpt.json")
        run_pipeline(fields, _driver_config(ckpt, executor="thread",
                                            stop_after="stage1"))
        pool = WorkerPool()
        try:
            resumed = run_pipeline(
                fields, _driver_config(ckpt, executor="process"), pool=pool)
            assert resumed.resumed_stages == ["seed", "stage0", "stage1"]
            run_pipeline(fields, _driver_config(executor="process",
                                                stop_after="seed"), pool=pool)
            assert pool.spawned_total == 0
        finally:
            pool.close()


class TestSeatFailure:
    """A seat that fails — binding or executing — fails the stage at once,
    with its own traceback, whichever kind of seat it is.  Run on
    in-process seats, where a monkeypatch reaches the seat."""

    def test_bind_failure_surfaces_the_seats_traceback(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("cannot attach catalog window")

        monkeypatch.setattr("repro.driver.pool._WorkerState", refuse)
        report = DriverReport()
        with pytest.raises(RuntimeError) as err:
            _run_two_task_stage(report)
        assert "cannot attach catalog window" in str(err.value)
        assert "node-worker 0 failed" in str(err.value)
        assert not [rec for rec in report.recoveries
                    if rec["kind"] == "worker_death"]

    def test_a_failing_task_stops_every_worker(self, monkeypatch):
        rng = np.random.default_rng(11)
        _, fields = generate_survey_fields(
            4, field_shape_hw=(48, 48), overlap=8.0,
            config=SyntheticSkyConfig(source_density=60.0,
                                      min_separation=8.0, flux_floor=20.0),
            rng=rng, bands=(2,),
        )
        config = _driver_config(executor="thread", target_weight=1.0)
        stage0 = [t for t in generate_tasks(
            seed_catalog_from_fields(fields, config), survey_bounds(fields),
            config.target_weight) if t.stage == 0]
        assert len(stage0) >= 12
        bad = stage0[0].task_id
        started = []

        def start(task_run, state):
            started.append(task_run.task.task_id)
            if task_run.task.task_id == bad:
                raise ValueError("injected task failure")
            time.sleep(0.02)
            return None

        monkeypatch.setattr("repro.driver.worker._TaskRun.start", start)
        # A seat asks for work while its tasks in flight hold fewer sources
        # than the lane limit, so it holds at most ``lane limit - 1 +
        # max_batch`` one-source tasks.  Lane limit and grants of two keep
        # that bound well under stage 0's size, so a driver that kept
        # dispatching after the failure would exceed it.
        monkeypatch.setattr(DriverConfig, "max_batch", 2)
        config = dataclasses.replace(config, elbo_batch_size=2)
        with pytest.raises(RuntimeError, match=r"node-worker \d+ failed") \
                as err:
            run_pipeline(fields, config)
        message = str(err.value)
        assert "Traceback" in message and "injected task failure" in message
        assert "process node-worker" not in message
        after = started[started.index(bad) + 1:]
        assert len(after) <= config.n_nodes * (1 + DriverConfig.max_batch)


class TestDoneRecord:
    def test_a_real_record_survives_the_queue(self):
        """What a seat reports is one named record; it crosses a process
        boundary pickled, so every field must come back equal."""
        _, images, working, tasks, config = _two_task_scene()
        config = dataclasses.replace(config, parallel=dataclasses.replace(
            config.parallel, race_detect=True))
        state = _WorkerState(
            7, 0, _FieldStore([images]), None, default_priors(),
            _task_config(config), working, working, in_process=True)
        results = queue.Queue()
        state.take([(tasks[0], [1])], [], first_bind_at=12.5)
        while state.busy:
            state.step(results)
        record = results.get_nowait()
        assert isinstance(record, TaskDone)
        assert (record.epoch, record.worker, record.task_id) == (7, 0, 0)
        assert record.executed and record.seconds > 0.0
        assert record.comm["rma_puts"] == 1 and record.accesses
        assert record.counters["objective_evaluations"] > 0
        assert record.first_bind_at == 12.5
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is TaskDone and back == record


_SEAT_PROBE = """
import json, queue, sys
import repro.driver.pool
print(json.dumps(sorted(sys.modules)))

# One real task, two overlapping sources, through the seat's own code path.
import numpy as np
from repro.core.catalog import CatalogEntry
from repro.core.priors import default_priors
from repro.core.joint import JointConfig
from repro.core.single import OptimizeConfig
from repro.driver.shards import ShardedCatalog
from repro.driver.worker import TaskConfig, _FieldStore, _WorkerState
from repro.parallel import ParallelRegionConfig
from repro.partition import Region, Task
from repro.psf import default_psf
from repro.survey import AffineWCS, ImageMeta, render_image

entries = [CatalogEntry([12.0, 16.0], False, 300.0, [1.0, 0.8, 0.3, 0.1]),
           CatalogEntry([19.0, 16.0], False, 300.0, [1.0, 0.8, 0.3, 0.1])]
meta = ImageMeta(band=2, wcs=AffineWCS.translation(0.0, 0.0),
                 psf=default_psf(3.0), sky_level=100.0, calibration=100.0)
image = render_image(entries, meta, (32, 32), rng=np.random.default_rng(0))
catalog = ShardedCatalog.from_entries(entries, n_ranks=1)
config = TaskConfig(
    parallel=ParallelRegionConfig(n_threads=1, n_passes=1, joint=JointConfig(
        n_passes=1, single=OptimizeConfig(max_iter=2))),
    image_margin=16.0, halo_refresh=False)
task = Task(0, 0, Region(0.0, 32.0, 0.0, 32.0), [0, 1], entries)
seat = _WorkerState(0, 0, _FieldStore([[image]]), None, default_priors(),
                    config, catalog, catalog, in_process=True)
done = queue.Queue()
seat.take([(task, [])], [])
while seat.busy:
    seat.step(done)
assert done.get_nowait().executed and done.empty()
print(json.dumps(sorted(sys.modules)))
"""


class TestSeatImportGraph:
    def test_a_seat_loads_no_scipy_and_no_driver_side(self):
        """The rule of docs/scaling.md ("Fixed cost of a process run"):
        what a spawned seat imports — and what executing a task then pulls
        in lazily — contains no SciPy, no seed stage, no scoring, not the
        pipeline module, and none of the static-analysis passes (the
        optimizer needs only ``repro.analysis.numeric``).  A module-set
        assertion, no timing."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _SEAT_PROBE], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout.strip().splitlines()
        at_import, after_task = (set(json.loads(line)) for line in out[-2:])
        assert "repro.driver.worker" in at_import
        for modules in (at_import, after_task):
            offenders = sorted(
                m for m in modules
                if m.split(".")[0] == "scipy"
                or m.startswith(("repro.photo", "repro.validation"))
                or m in ("repro.driver.pipeline", "repro.analysis.lint",
                         "repro.analysis.provenance"))
            assert offenders == []


class TestTaskJournal:
    def test_path_names_stage_and_generation(self):
        assert (task_journal_path("ck.json", "stage0", None)
                == "ck.json.tasks.stage0.root")
        assert (task_journal_path("ck.json", "stage1", "abc123")
                == "ck.json.tasks.stage1.abc123")

    def test_append_load_roundtrip(self, tmp_path):
        journal = str(tmp_path / "ck.json.tasks.stage0.root")
        records = [
            {"task_id": 3, "rows": [], "elbo": 1.5},
            {"task_id": 1, "rows": [[0, [1.0, 2.0]]], "elbo": -2.0},
        ]
        for rec in records:
            append_task_record(journal, rec)
        assert load_task_journal(journal) == records

    def test_truncated_tail_dropped(self, tmp_path):
        # A run killed mid-append leaves a partial last line; that task
        # simply re-executes.
        journal = str(tmp_path / "journal")
        append_task_record(journal, {"task_id": 0})
        with open(journal, "a") as f:
            f.write('{"task_id": 1, "ro')
        assert load_task_journal(journal) == [{"task_id": 0}]

    def test_missing_journal_is_empty(self, tmp_path):
        assert load_task_journal(str(tmp_path / "absent")) == []


class TestShardGenerationGC:
    """Regression for the shard-generation leak: a save that stops
    sharding (or a completed run) must collect the superseded generation's
    shard files *and* task journals once the main JSON landed."""

    def test_inline_save_collects_previous_generation(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        fp = {"n_fields": 1}
        ckpt = Checkpoint(fingerprint=fp)
        ckpt.working_catalog = Catalog([entry(i, i) for i in range(4)])
        ckpt.mark_done("seed")
        save_checkpoint(path, ckpt, shards=2)
        assert any("shard" in name for name in os.listdir(str(tmp_path)))
        # A task journal extending that generation is stale with it.
        append_task_record(
            task_journal_path(path, "stage0", ckpt.generation),
            {"task_id": 0},
        )
        save_checkpoint(path, ckpt)  # inline: references no shard set
        assert os.listdir(str(tmp_path)) == ["ckpt.json"]

    def test_completed_run_leaves_no_journals(self, tiny_survey, tmp_path):
        _, fields = tiny_survey
        path = str(tmp_path / "ckpt.json")
        run_pipeline(
            fields, _driver_config(path, task_checkpoint=True)
        )
        leftovers = [f for f in os.listdir(str(tmp_path)) if ".tasks." in f]
        assert leftovers == []


class TestPrefetchUnderStealing:
    """Satellite regression: peek hints are re-validated at dispatch time,
    so the look-ahead prefetcher keeps hitting even when the Dtree
    rebalances work between the hint and the execution."""

    def test_hit_rate_stays_high_in_stealing_heavy_run(self, tmp_path,
                                                       monkeypatch):
        rng = np.random.default_rng(5)
        sky = SyntheticSkyConfig(
            source_density=50.0, min_separation=8.0, flux_floor=20.0
        )
        _, fields = generate_survey_fields(
            6, field_shape_hw=(32, 32), overlap=8.0,
            config=sky, rng=rng, bands=(2,),
        )
        paths = []
        for i, images in enumerate(fields):
            p = str(tmp_path / ("field%d.npz" % i))
            save_field(p, images)
            paths.append(p)
        # Nothing is pre-distributed and requests drain single tasks, so
        # every batch is effectively stolen from the shared root.
        monkeypatch.setattr(DriverConfig, "max_batch", 1)
        monkeypatch.setattr(DriverConfig, "dtree", DtreeConfig(
            initial_fraction=0.0, drain_fraction=0.05, min_batch=1))
        result = run_pipeline(paths, _driver_config(target_weight=30.0))
        report = result.report
        assert report.messages > report.n_tasks  # work really moved around
        hits, misses = report.prefetch_hits, report.prefetch_misses
        assert hits > 0
        # Stale hints would send the prefetcher to fields the worker never
        # touches; revalidated hints keep the hit rate high (measured 1.0
        # at this configuration — 0.5 leaves slack for scheduling jitter).
        assert hits / (hits + misses) >= 0.5

