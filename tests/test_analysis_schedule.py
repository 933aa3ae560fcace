"""Tests for the static schedule verifier (:mod:`repro.analysis.schedule`):
box geometry, every violation kind, the seeded audit of the real scheduler,
and the executor's pre-execution verification hook."""

import dataclasses

import numpy as np
import pytest

import repro.parallel.executor as executor_mod
from repro.analysis.schedule import (
    PatchBox,
    ScheduleError,
    ScheduleViolation,
    audit_random_schedule,
    boxes_from_plan,
    verify_batches,
    verify_conflict_edges,
    verify_plan,
)
from repro.core.catalog import CatalogEntry
from repro.core.joint import JointConfig
from repro.core.priors import default_priors
from repro.core.single import OptimizeConfig
from repro.parallel.executor import (
    ParallelRegionConfig,
    optimize_region_parallel,
)
from repro.survey import SyntheticSkyConfig, generate_survey_fields


class TestPatchBox:
    def test_overlap_is_open_at_the_edge(self):
        a = PatchBox(image=0, x0=0, x1=10, y0=0, y1=10)
        # Shares only the half-open boundary: no common pixel.
        b = PatchBox(image=0, x0=10, x1=20, y0=0, y1=10)
        c = PatchBox(image=0, x0=9, x1=20, y0=9, y1=20)
        assert not a.overlaps(b) and not b.overlaps(a)
        assert a.overlaps(c) and c.overlaps(a)

    def test_different_images_never_overlap(self):
        a = PatchBox(image=0, x0=0, x1=10, y0=0, y1=10)
        b = PatchBox(image=1, x0=0, x1=10, y0=0, y1=10)
        assert not a.overlaps(b)

    def test_area(self):
        assert PatchBox(image=0, x0=2, x1=5, y0=1, y1=3).area() == 6
        assert PatchBox(image=0, x0=5, x1=2, y0=1, y1=3).area() == 0


class TestBoxesFromPlan:
    def test_rounding_matches_source_patch_rule(self):
        # x0 = floor(px - r), x1 = ceil(px + r) + 1, half-open.
        (boxes,) = boxes_from_plan([(10.0, 20.0)], [2.5])
        assert boxes == [PatchBox(image=0, x0=7, x1=14, y0=17, y1=24)]

    def test_one_box_per_image(self):
        (boxes,) = boxes_from_plan([(1.0, 1.0)], [1.0], n_images=3)
        assert [b.image for b in boxes] == [0, 1, 2]

    def test_diagonal_neighbors_round_into_contact(self):
        # The PR-1 bug geometry: Euclidean distance exceeds the radius sum
        # but the rounded integer boxes still share pixels.
        boxes = boxes_from_plan([(10.2, 10.2), (16.8, 16.8)], [3.0, 3.0])
        assert boxes[0][0].overlaps(boxes[1][0])


class TestVerifyPlan:
    def test_disjoint_plan_is_safe(self):
        positions = [(5.0, 5.0), (50.0, 5.0), (5.0, 50.0)]
        radii = [3.0, 3.0, 3.0]
        batches = [[[0, 2], [1]]]
        assert verify_plan(positions, radii, batches) == []

    def test_cross_thread_overlap_reported(self):
        positions = [(10.0, 10.0), (14.0, 10.0)]
        radii = [3.0, 3.0]
        out = verify_plan(positions, radii, [[[0], [1]]])
        # A touching cross-thread pair is both an overlap and (necessarily)
        # a component spanning two threads.
        assert sorted(v.kind for v in out) == ["overlap", "split-component"]
        overlap = next(v for v in out if v.kind == "overlap")
        assert overlap.sources == (0, 1)
        assert "threads 0/1" in overlap.detail

    def test_same_thread_overlap_is_fine(self):
        # Conflicting sources serialized on one thread are the *point* of
        # Cyclades — only cross-thread contact is a violation.
        positions = [(10.0, 10.0), (14.0, 10.0)]
        radii = [3.0, 3.0]
        assert verify_plan(positions, radii, [[[0, 1], []]]) == []

    def test_split_component_reported(self):
        # Chain 0-1-2: thread 0 takes {0, 1}, thread 1 takes {2}.  The 1-2
        # contact is an overlap, and the whole component spans two threads.
        positions = [(10.0, 10.0), (16.0, 10.0), (22.0, 10.0)]
        radii = [4.0, 4.0, 4.0]
        out = verify_plan(positions, radii, [[[0, 1], [2]]])
        kinds = sorted(v.kind for v in out)
        assert kinds == ["overlap", "split-component"]
        split = next(v for v in out if v.kind == "split-component")
        assert split.sources == (0, 1, 2)

    def test_duplicate_assignment_reported(self):
        positions = [(10.0, 10.0), (50.0, 50.0)]
        radii = [2.0, 2.0]
        out = verify_plan(positions, radii, [[[0, 1], [1]]])
        # The duplicate is also (trivially) an overlap with itself across
        # threads; the dedicated kind names the source once.
        dup = [v for v in out if v.kind == "duplicate"]
        assert len(dup) == 1
        assert dup[0].sources == (1,)
        assert "threads 0 and 1" in dup[0].detail

    def test_batch_index_recorded(self):
        positions = [(10.0, 10.0), (14.0, 10.0)]
        radii = [3.0, 3.0]
        out = verify_plan(positions, radii,
                          [[[0], []], [[0], [1]]])
        assert out and all(v.batch == 1 for v in out)

    def test_empty_plan(self):
        assert verify_batches([], []) == []
        assert verify_batches([], [[[], []]]) == []

    def test_off_image_source_still_checked(self):
        # A source present on fewer images must still be compared against
        # every image of its peers (cross product, not positional zip).
        boxes = [
            [PatchBox(image=1, x0=0, x1=10, y0=0, y1=10)],
            [PatchBox(image=0, x0=90, x1=95, y0=0, y1=5),
             PatchBox(image=1, x0=5, x1=15, y0=0, y1=10)],
        ]
        out = verify_batches(boxes, [[[0], [1]]])
        assert "overlap" in {v.kind for v in out}


class TestConflictEdges:
    def test_every_touching_pair_needs_an_edge(self):
        boxes = boxes_from_plan([(10.0, 10.0), (14.0, 10.0), (60.0, 60.0)],
                                [3.0, 3.0, 3.0])
        assert verify_conflict_edges(boxes, [{1}, {0}, set()]) == []
        # A conservative extra edge is fine; a missing one is not.
        assert verify_conflict_edges(boxes, [{1, 2}, {0}, {0}]) == []
        (v,) = verify_conflict_edges(boxes, [set(), set(), set()])
        assert (v.kind, v.sources, v.batch) == ("missing-edge", (0, 1), -1)


class TestScheduleError:
    def test_message_lists_violations(self):
        v = ScheduleViolation(kind="overlap", batch=3, sources=(1, 2),
                              detail="threads 0/1 touch")
        err = ScheduleError([v])
        assert "1 violation(s)" in str(err)
        assert v.render() in str(err)
        assert err.violations == [v]


class TestRandomAudit:
    def test_real_scheduler_proven_safe(self):
        # The production conflict graph + Cyclades sampler, re-verified by
        # this module's independent geometry, over seeded random skies.
        n_batches = audit_random_schedule(seed=20180131, n_rounds=2)
        assert n_batches > 0

    def test_audit_is_deterministic(self):
        assert (audit_random_schedule(seed=7, n_rounds=1)
                == audit_random_schedule(seed=7, n_rounds=1))


@pytest.fixture(scope="module")
def small_field():
    rng = np.random.default_rng(7)
    sky = SyntheticSkyConfig(source_density=30.0, min_separation=10.0)
    _, fields = generate_survey_fields(
        1, field_shape_hw=(40, 40), overlap=0.0, config=sky, rng=rng,
        bands=(2,),
    )
    return fields[0]


def _close_pair():
    return [
        CatalogEntry(position=np.array([18.0, 20.0]), is_galaxy=False,
                     flux_r=40.0, colors=np.zeros(4)),
        CatalogEntry(position=np.array([22.0, 20.0]), is_galaxy=False,
                     flux_r=35.0, colors=np.zeros(4)),
    ]


def _parallel_config(**overrides):
    return ParallelRegionConfig(
        n_threads=2, n_passes=1, batch_size=2,
        joint=JointConfig(n_passes=1, single=OptimizeConfig(max_iter=4)),
        **overrides,
    )


class TestExecutorVerificationHook:
    def test_healthy_run_verifies_and_matches_unverified(self, small_field):
        entries = _close_pair()
        plain = optimize_region_parallel(
            small_field, entries, default_priors(), _parallel_config())
        checked = optimize_region_parallel(
            small_field, entries, default_priors(),
            _parallel_config(verify_schedule=True))
        # Verification is purely observational: bit-identical results.
        for a, b in zip(plain.catalog, checked.catalog):
            assert tuple(a.position) == tuple(b.position)
            assert a.flux_r == b.flux_r
        assert checked.elbo_total == plain.elbo_total

    def test_broken_radii_caught_before_execution(self, small_field,
                                                  monkeypatch):
        # Revert the PR-1 class of bug: conflict radii far smaller than the
        # patches actually written.  The scheduler now believes the close
        # pair conflict-free; the verifier must refuse to run the pass.
        entries = _close_pair()
        monkeypatch.setattr(
            executor_mod, "conflict_radii",
            lambda *a, **k: np.full(len(entries), 0.5))
        with pytest.raises(ScheduleError) as exc:
            optimize_region_parallel(
                small_field, entries, default_priors(),
                _parallel_config(verify_schedule=True))
        kinds = {v.kind for v in exc.value.violations}
        assert "overlap" in kinds

    def test_missing_edge_across_rounds_caught_before_execution(
            self, small_field, monkeypatch):
        # The same bug with one source per round: no round holds both,
        # so every round's check passes, but the rolling lockstep would
        # still run the pair together.  The graph check refuses it.
        entries = _close_pair()
        monkeypatch.setattr(
            executor_mod, "conflict_radii",
            lambda *a, **k: np.full(len(entries), 0.5))
        with pytest.raises(ScheduleError) as exc:
            optimize_region_parallel(
                small_field, entries, default_priors(),
                dataclasses.replace(_parallel_config(verify_schedule=True),
                                    batch_size=1))
        assert [(v.kind, v.sources) for v in exc.value.violations] == [
            ("missing-edge", (0, 1))]
