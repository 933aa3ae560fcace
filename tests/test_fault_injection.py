"""Fault-injection suite: node-workers killed mid-stage, simulated
crashes resumed from the task-granular journal, and dropped/duplicated
socket frames (transport-level injection lives in
``test_socket_transport.py``) — in every case the final catalog must be
bit-identical to an undisturbed run, and the recovery must be recorded in
the :class:`~repro.perf.driver.DriverReport`.

The faults are injected from here, not configured: no production config
carries a fault knob.  A seat dies on a kill token this suite plants in the
run's scratch directory (:func:`_kill_task`), and a run crashes when this
suite's wrapper around the journal step raises (:func:`_abort_after`).

Catalogs are compared by :func:`catalog_bits_digest`, which hashes every
field's float64 bytes.  The fast half runs at tier-1 scale; the
``slow``-marked half re-asserts the same invariants on the golden survey,
against an undisturbed golden-config run's digest and the rounded golden
pin."""

import contextlib
import dataclasses
import os

import numpy as np
import pytest

from repro.core.joint import JointConfig
from repro.core.single import OptimizeConfig
from repro.driver import DriverConfig, run_pipeline
from repro.driver.pool import WorkerPool
from repro.driver.stage import StageRunner
from repro.parallel import ParallelRegionConfig
from repro.survey import SyntheticSkyConfig, generate_survey_fields

from test_golden_pipeline import (
    GOLDEN_CATALOG_SHA256,
    _golden_config,
    _golden_fields,
    catalog_bits_digest,
    catalog_content_hash,
)


@pytest.fixture(scope="module")
def small_survey():
    rng = np.random.default_rng(5)
    sky = SyntheticSkyConfig(
        source_density=50.0, min_separation=8.0, flux_floor=20.0
    )
    return generate_survey_fields(
        2, field_shape_hw=(32, 32), overlap=8.0,
        config=sky, rng=rng, bands=(2,),
    )


def _config(checkpoint_path=None, **overrides):
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


def _journals(directory):
    return sorted(f for f in os.listdir(directory) if ".tasks." in f)


@contextlib.contextmanager
def _kill_task(task_id):
    """Process runs started inside find a kill token for ``task_id`` in
    their scratch directory: the seat executing that task hard-exits right
    before reporting it — after the catalog write, the worst window — and
    consumes the token, so the retry on a surviving worker completes."""
    spill = WorkerPool.field_source

    def field_source(self, fields, store):
        paths, scratch = spill(self, fields, store)
        open(os.path.join(scratch, "kill.%d" % task_id), "w").close()
        return paths, scratch

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WorkerPool, "field_source", field_source)
        yield


@contextlib.contextmanager
def _abort_after(n_tasks):
    """Runs started inside crash (a simulated hard kill of the whole run)
    once ``n_tasks`` tasks completed and were journaled — the setup half
    of every resume-from-mid-stage test."""
    journal = StageRunner._journal_task
    completed = []

    def journal_then_crash(self, task, elbo):
        journal(self, task, elbo)
        completed.append(task.task_id)
        if len(completed) >= n_tasks:
            raise RuntimeError(
                "fault injection: simulated crash after %d completed tasks"
                % len(completed))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StageRunner, "_journal_task", journal_then_crash)
        yield


class TestWorkerDeath:
    """A process node-worker hard-killed mid-stage (``os._exit``, no
    cleanup) is respawned or its work re-dispatched; the catalog is
    bit-identical and the death is on the record."""

    @pytest.fixture(scope="class")
    def reference(self, small_survey):
        _, fields = small_survey
        return run_pipeline(fields, _config(executor="process"))

    def test_killed_worker_recovers_bit_for_bit(
        self, small_survey, reference
    ):
        _, fields = small_survey
        with _kill_task(0):
            result = run_pipeline(fields, _config(executor="process"))
        assert (catalog_bits_digest(result.catalog)
                == catalog_bits_digest(reference.catalog))
        deaths = [rec for rec in result.report.recoveries
                  if rec["kind"] == "worker_death"]
        assert deaths, "worker death left no trace in the report"
        assert all("retried" in rec for rec in deaths)

    def test_unkilled_run_records_no_recoveries(self, reference):
        assert reference.report.recoveries == []


class TestCrashResume:
    """A run aborted mid-stage resumes from the task-granular journal:
    finished tasks replay from disk, the rest re-execute, and the merged
    catalog is bit-identical to an uninterrupted run."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_resume_replays_completed_tasks(
        self, small_survey, tmp_path, executor
    ):
        _, fields = small_survey
        reference = run_pipeline(fields, _config(executor=executor))
        path = str(tmp_path / "ckpt.json")
        with pytest.raises(RuntimeError, match="fault injection"), \
                _abort_after(1):
            run_pipeline(fields, _config(path, executor=executor))
        assert _journals(str(tmp_path)), "crash left no task journal"
        resumed = run_pipeline(fields, _config(path, executor=executor))
        assert (catalog_bits_digest(resumed.catalog)
                == catalog_bits_digest(reference.catalog))
        replays = [rec for rec in resumed.report.recoveries
                   if rec["kind"] == "task_replay"]
        assert replays and all(rec["n_tasks"] > 0 for rec in replays)
        # The completed run superseded the journal's generation.
        assert _journals(str(tmp_path)) == []

    def test_task_checkpoint_off_leaves_no_journal(
        self, small_survey, tmp_path
    ):
        _, fields = small_survey
        path = str(tmp_path / "ckpt.json")
        with pytest.raises(RuntimeError, match="fault injection"), \
                _abort_after(1):
            run_pipeline(fields, _config(path, task_checkpoint=False))
        assert _journals(str(tmp_path)) == []
        # The run still resumes — just from the last stage boundary.
        reference = run_pipeline(fields, _config())
        resumed = run_pipeline(fields, _config(path, task_checkpoint=False))
        assert (catalog_bits_digest(resumed.catalog)
                == catalog_bits_digest(reference.catalog))


@pytest.mark.slow
class TestGoldenUnderFaults:
    """Every recovery path gives the undisturbed golden run's bits: the
    socket transport, a worker killed mid-stage, and a crash resumed
    mid-stage all reproduce its unrounded digest, and land on the rounded
    ``GOLDEN_CATALOG_SHA256``."""

    @pytest.fixture(scope="class")
    def golden_bits(self):
        """The unrounded digest of the undisturbed golden-config run."""
        _, fields = _golden_fields()
        return catalog_bits_digest(
            run_pipeline(fields, _golden_config()).catalog)

    def _process_golden_config(self, **overrides):
        return dataclasses.replace(
            _golden_config(), executor="process", **overrides
        )

    @staticmethod
    def _assert_golden(catalog, golden_bits):
        assert catalog_bits_digest(catalog) == golden_bits
        assert catalog_content_hash(catalog) == GOLDEN_CATALOG_SHA256

    def test_socket_process_run_matches_pin(self, golden_bits):
        _, fields = _golden_fields()
        result = run_pipeline(fields, self._process_golden_config(
            pgas_transport="socket",
        ))
        self._assert_golden(result.catalog, golden_bits)

    def test_killed_worker_matches_pin(self, golden_bits):
        _, fields = _golden_fields()
        with _kill_task(1):
            result = run_pipeline(fields, self._process_golden_config())
        self._assert_golden(result.catalog, golden_bits)
        assert any(rec["kind"] == "worker_death"
                   for rec in result.report.recoveries)

    def test_crash_resume_matches_pin(self, tmp_path, golden_bits):
        _, fields = _golden_fields()
        path = str(tmp_path / "ckpt.json")
        with pytest.raises(RuntimeError, match="fault injection"), \
                _abort_after(2):
            run_pipeline(fields, self._process_golden_config(
                checkpoint_path=path,
            ))
        result = run_pipeline(fields, self._process_golden_config(
            checkpoint_path=path,
        ))
        self._assert_golden(result.catalog, golden_bits)
        assert any(rec["kind"] == "task_replay"
                   for rec in result.report.recoveries)
