"""Tests for the runtime numeric sanitizer (:mod:`repro.analysis.numeric`):
report/sanitizer semantics, thread-local context binding, seeded overflow
fixtures that must be attributed to an exact (source, lane, term), and full
driver pipelines under ``numeric_check`` — which must stay silent and
bit-identical."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.numeric import (
    NumericReport,
    NumericSanitizer,
    current_check,
    numeric_checking,
    numeric_source,
)
from repro.core.catalog import CatalogEntry
from repro.core.elbo import elbo, elbo_batch, elbo_kl
from repro.core.joint import JointConfig
from repro.core.params import FREE
from repro.core.priors import default_priors
from repro.core.single import OptimizeConfig
from repro.driver import DriverConfig, run_pipeline
from repro.driver.pipeline import _pin_config
from repro.parallel.executor import (
    ParallelRegionConfig,
    optimize_region_parallel,
)
from repro.perf.driver import DriverReport
from repro.survey import SyntheticSkyConfig, generate_survey_fields


def _eval(val=0.0, grad=None, hess=None):
    """A minimal object exposing the backend evaluation surface."""
    return SimpleNamespace(val=val, grad=grad, hess=hess)


class TestNumericReport:
    def test_describe_names_the_finding(self):
        r = NumericReport(kind="overflow", stage="elbo", term="value",
                          source=3, lane=1, actor=("cyclades-thread", 2),
                          detail="1 inf / 0 nan of 1 entries (first at flat)")
        text = r.describe()
        assert "overflow" in text and "elbo/value" in text
        assert "source=3" in text and "lane=1" in text

    def test_as_dict_is_json_shaped(self):
        r = NumericReport(kind="non-finite", stage="kl", term="gradient",
                          source=None, lane=None, actor=("serial", 0),
                          detail="d")
        d = r.as_dict()
        assert d["kind"] == "non-finite"
        assert d["actor"] == ["serial", 0]
        assert d["source"] is None


class TestSanitizerChecks:
    def test_finite_eval_silent(self):
        san = NumericSanitizer()
        san.check_eval(_eval(1.5, np.ones(3), np.eye(3)), stage="elbo")
        assert san.n_reports == 0

    def test_nan_value_is_non_finite(self):
        san = NumericSanitizer()
        san.check_eval(_eval(float("nan")), stage="elbo")
        (r,) = san.reports
        assert (r.kind, r.term) == ("non-finite", "value")

    def test_inf_value_is_overflow(self):
        san = NumericSanitizer()
        san.check_eval(_eval(float("inf")), stage="elbo")
        (r,) = san.reports
        assert (r.kind, r.term) == ("overflow", "value")

    def test_bad_gradient_reported_with_location(self):
        san = NumericSanitizer()
        g = np.zeros(5)
        g[3] = np.nan
        san.check_eval(_eval(0.0, g), stage="elbo", source=2, lane=None,
                       actor=("t", 0))
        (r,) = san.reports
        assert (r.kind, r.term, r.source) == ("non-finite", "gradient", 2)
        assert "(3,)" in r.detail

    def test_asymmetric_hessian_reported(self):
        h = np.eye(4)
        h[0, 1] = 1e-3  # far beyond rounding at scale 1
        san = NumericSanitizer()
        san.check_eval(_eval(0.0, np.zeros(4), h), stage="elbo")
        (r,) = san.reports
        assert (r.kind, r.term) == ("asymmetric-hessian", "hessian")

    def test_rounding_level_asymmetry_silent(self):
        h = np.eye(4)
        h[0, 1] = h[1, 0] = 0.5
        h[0, 1] += 1e-13  # a few ulps of skew: assembly rounding, not a bug
        san = NumericSanitizer()
        san.check_eval(_eval(0.0, np.zeros(4), h), stage="elbo")
        assert san.n_reports == 0

    def test_step_and_trial_objective_checked(self):
        san = NumericSanitizer()
        san.check_step(np.array([1.0, np.inf]), 3.0)
        san.check_step(np.zeros(2), float("nan"))
        kinds = {(r.kind, r.term) for r in san.reports}
        assert kinds == {("overflow", "step"), ("non-finite", "value")}

    def test_reduction_cancellation_fires(self):
        san = NumericSanitizer()
        f = 1.0e12
        # At |f| = 1e12 float64 resolves ~2e-4; a predicted decrease of 1e4
        # is far above that noise floor, yet the actual reduction is zero.
        san.check_reduction(f, f, predicted=1.0e4)
        (r,) = san.reports
        assert (r.kind, r.term) == ("cancellation", "actual-reduction")

    def test_healthy_convergence_silent(self):
        san = NumericSanitizer()
        # Near convergence both the actual and predicted decrease are tiny.
        san.check_reduction(1.0e12, 1.0e12, predicted=1e-9)
        # An ordinary accepted step has a real decrease.
        san.check_reduction(100.0, 99.0, predicted=1.1)
        assert san.n_reports == 0

    def test_accumulation_cancellation_fires(self):
        san = NumericSanitizer()
        san.check_accumulation(1e-9, [1e9, -1e9])
        (r,) = san.reports
        assert (r.kind, r.stage, r.term) == (
            "cancellation", "elbo-accumulation", "total")

    def test_same_signed_accumulation_silent(self):
        san = NumericSanitizer()
        san.check_accumulation(-3e6, [-1e6, -2e6])
        assert san.n_reports == 0


class TestSanitizerSink:
    def test_dedup_on_identity(self):
        san = NumericSanitizer()
        for _ in range(5):
            san.check_eval(_eval(float("inf")), stage="elbo", source=1,
                           actor=("t", 0))
        assert san.n_reports == 1

    def test_distinct_sources_kept_apart(self):
        san = NumericSanitizer()
        san.check_eval(_eval(float("inf")), stage="elbo", source=1)
        san.check_eval(_eval(float("inf")), stage="elbo", source=2)
        assert san.n_reports == 2

    def test_reports_order_is_deterministic(self):
        a, b = NumericSanitizer(), NumericSanitizer()
        bad_val = _eval(float("inf"))
        bad_grad = _eval(0.0, np.full(3, np.nan))
        a.check_eval(bad_val, stage="elbo", source=1)
        a.check_eval(bad_grad, stage="elbo", source=0)
        b.check_eval(bad_grad, stage="elbo", source=0)
        b.check_eval(bad_val, stage="elbo", source=1)
        assert a.reports == b.reports

    def test_absorb_dedups_against_own_findings(self):
        san = NumericSanitizer()
        san.check_eval(_eval(float("inf")), stage="elbo", source=1)
        san.absorb(list(san.reports))  # same finding back from a worker
        assert san.n_reports == 1


class TestContextBinding:
    def test_off_by_default(self):
        assert current_check() is None

    def test_checking_binds_and_restores(self):
        san = NumericSanitizer()
        with numeric_checking(san, ("worker", 3)) as ctx:
            assert current_check() is ctx
            assert ctx.actor == ("worker", 3)
        assert current_check() is None

    def test_none_sanitizer_is_noop(self):
        with numeric_checking(None, ("worker", 0)) as ctx:
            assert ctx is None
            assert current_check() is None

    def test_source_scoping_attributes_reports(self):
        san = NumericSanitizer()
        with numeric_checking(san, ("worker", 1)):
            with numeric_source(5):
                current_check().check_eval(_eval(float("inf")), stage="elbo")
            assert current_check().source is None  # scope restored
        (r,) = san.reports
        assert (r.source, r.lane, r.actor) == (5, None, ("worker", 1))

    def test_batch_sources_map_lane_to_source(self):
        san = NumericSanitizer()
        with numeric_checking(san, ("worker", 0)):
            with numeric_source([7, 11]):
                current_check().check_eval(
                    _eval(float("inf")), stage="elbo", lane=1)
        (r,) = san.reports
        assert (r.source, r.lane) == (11, 1)

    def test_source_scope_noop_when_checking_off(self):
        with numeric_source(3) as ctx:
            assert ctx is None
            assert current_check() is None


class TestSeededOverflowFixtures:
    """A free vector with a huge log-brightness makes the flux moment
    ``exp(r1 + r2/2)`` overflow; the sanitizer must attribute the blowup to
    the exact evaluation surface, source id, and lane."""

    def _bad_free(self, free):
        bad = free.copy()
        bad[FREE["r1"]] = 800.0  # exp(800) overflows float64
        return bad

    def test_scalar_elbo_overflow_attributed(self, make_random_context):
        ctx, free = make_random_context("star", seed=3)
        san = NumericSanitizer()
        with np.errstate(all="ignore"):
            with numeric_checking(san, ("test", 0)), numeric_source(7):
                elbo(ctx, self._bad_free(free))
        assert san.n_reports > 0
        value_reports = [r for r in san.reports if r.term == "value"]
        assert value_reports, san.reports
        for r in san.reports:
            assert r.stage == "elbo"
            assert r.source == 7
            assert r.lane is None
            assert r.actor == ("test", 0)
            assert r.kind in ("overflow", "non-finite")

    def test_one_problem_newton_solve_attributed(self):
        """The single-problem solver is the lockstep driver's batch of
        one: a non-finite trial objective under a one-source scope still
        names that source (and no lane)."""
        from repro.optim import newton_trust_region

        def fgh(x):  # finite at the start, NaN at every trial point
            f = 1.0 if x[0] == 0.0 else float("nan")
            return f, np.ones(1), np.eye(1)

        san = NumericSanitizer()
        with numeric_checking(san, ("test", 0)), numeric_source(7):
            newton_trust_region(fgh, np.zeros(1), max_iter=2)
        (r,) = san.reports
        assert (r.stage, r.term, r.kind) == (
            "trust-region-step", "value", "non-finite")
        assert (r.source, r.lane, r.actor) == (7, None, ("test", 0))

    def test_batched_overflow_names_the_lane(self, make_random_context):
        ctx0, free0 = make_random_context("star", seed=3)
        ctx1, free1 = make_random_context("star", seed=4)
        san = NumericSanitizer()
        with np.errstate(all="ignore"):
            with numeric_checking(san, ("test", 0)), numeric_source([4, 9]):
                elbo_batch([ctx0, ctx1], [free0, self._bad_free(free1)])
        assert san.n_reports > 0
        for r in san.reports:
            assert r.stage == "elbo"
            assert (r.source, r.lane) == (9, 1)  # never the healthy lane

    def test_healthy_evaluations_silent(self, make_random_context):
        ctx, free = make_random_context("galaxy", seed=5)
        san = NumericSanitizer()
        with numeric_checking(san, ("test", 0)), numeric_source(0):
            elbo(ctx, free)
            elbo_kl(ctx, free)
            elbo_batch([ctx], [free])
        assert san.reports == []

    def test_checking_does_not_change_values(self, make_random_context):
        ctx, free = make_random_context("star", seed=6)
        plain = elbo(ctx, free)
        san = NumericSanitizer()
        with numeric_checking(san, ("test", 0)):
            checked = elbo(ctx, free)
        assert float(checked.val) == float(plain.val)
        np.testing.assert_array_equal(checked.gradient(41),
                                      plain.gradient(41))
        np.testing.assert_array_equal(checked.hessian(41), plain.hessian(41))


@pytest.fixture(scope="module")
def small_field():
    rng = np.random.default_rng(7)
    sky = SyntheticSkyConfig(source_density=30.0, min_separation=10.0)
    _, fields = generate_survey_fields(
        1, field_shape_hw=(40, 40), overlap=0.0, config=sky, rng=rng,
        bands=(2,),
    )
    return fields[0]


class TestRegionNumericCheck:
    def test_healthy_region_is_silent_and_unchanged(self, small_field):
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
        checked = optimize_region_parallel(
            small_field, entries, default_priors(),
            dataclasses.replace(cfg, numeric_check=True))
        assert checked.numeric_reports == []
        for a, b in zip(plain.catalog, checked.catalog):
            assert tuple(a.position) == tuple(b.position)
            assert a.flux_r == b.flux_r
        assert checked.elbo_total == plain.elbo_total


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


def _driver_config(numeric_check=None, **overrides):
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
            numeric_check=numeric_check,
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


class TestPipelineNumericCheck:
    @pytest.mark.parametrize("executor,batch", [
        ("thread", None),
        ("thread", 4),
        ("process", None),
        ("process", 4),
    ])
    def test_full_pipeline_silent_and_identical(self, tiny_survey,
                                                baseline_run, executor,
                                                batch):
        """Both executors, scalar and batched evaluation: a healthy run
        under full numeric checking reports nothing and publishes the same
        catalog as a plain run — the sanitizer is observational."""
        _, fields = tiny_survey
        result = run_pipeline(fields, _driver_config(
            executor=executor, elbo_batch_size=batch, numeric_check=True,
        ))
        assert result.report.numeric_reports == []
        assert _identical_catalogs(result.catalog, baseline_run.catalog)

    def test_env_var_enables_checking(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUMERIC_CHECK", "1")
        pinned = _pin_config(_driver_config())
        assert pinned.parallel.numeric_check is True

    def test_explicit_config_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUMERIC_CHECK", "1")
        pinned = _pin_config(_driver_config(numeric_check=False))
        assert pinned.parallel.numeric_check is False

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUMERIC_CHECK", raising=False)
        pinned = _pin_config(_driver_config())
        assert pinned.parallel.numeric_check is False

    def test_driver_report_round_trips_numeric_findings(self):
        finding = NumericReport(
            kind="overflow", stage="elbo", term="value", source=3, lane=None,
            actor=("cyclades-thread", 1), detail="d",
        ).as_dict()
        report = DriverReport(numeric_reports=[finding])
        back = DriverReport.from_dict(report.as_dict())
        assert back.numeric_reports == [finding]
        assert any("NUMERIC" in line for line in report.summary_lines())
