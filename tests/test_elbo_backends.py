"""Backend parity: the fused analytic kernel against the Taylor oracle.

The fused backend (:mod:`repro.core.kernel`) hand-derives every pixel-term
derivative; the Taylor backend gets them mechanically from the autodiff
engine (itself validated against finite differences).  These tests pin the
two together — value, full 41-gradient, and full 41x41 Hessian — over
randomized sources, parameter vectors, WCS solutions, and evaluation modes,
then check the plumbing: accounting parity, workspace reuse, backend
selection, and driver-level agreement across executors and backends.

Randomized contexts and the d012 comparator come from the shared harness in
``tests/conftest.py`` (``make_random_context`` / ``assert_d012_close``), the
same generator the batched-parity and KL-parity suites draw from.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    JointConfig,
    OptimizeConfig,
    available_backends,
    default_priors,
    elbo,
    optimize_source,
    resolve_backend_name,
)
from repro.core.elbo import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    ElboEval,
    SourceContext,
    elbo_kl,
)
from repro.core.params import FREE
from repro.core.single import initial_params, to_catalog_entry
from repro.driver import DriverConfig, run_pipeline
from repro.parallel import ParallelRegionConfig
from repro.perf.counters import Counters
from repro.survey import SyntheticSkyConfig, generate_survey_fields


def _agree(check, ctx, free, order, variance_correction, rtol=1e-9):
    """Evaluate both backends on one context and require d012 agreement."""
    ref = elbo(ctx, free, order=order,
               variance_correction=variance_correction, backend="taylor")
    out = elbo(ctx, free, order=order,
               variance_correction=variance_correction, backend="fused")
    check(out, ref, order, rtol=rtol)


class TestPixelTermParity:
    """Randomized value/gradient/Hessian agreement, both orders and modes."""

    @pytest.mark.parametrize("entry", ["star", "galaxy"])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("variance_correction", [True, False],
                             ids=["vc", "novc"])
    def test_randomized_parity(self, make_random_context, assert_d012_close,
                               entry, order, variance_correction):
        ctx, free0 = make_random_context(entry, seed=3)
        rng = np.random.default_rng(20180131 + order)
        for _ in range(4):
            free = free0 + 0.2 * rng.standard_normal(free0.shape)
            _agree(assert_d012_close, ctx, free, order, variance_correction)

    def test_all_five_bands_and_masked_pixels(self, make_random_context,
                                              assert_d012_close):
        ctx, free = make_random_context("galaxy", bands=(0, 1, 2, 3, 4),
                                        seed=9, mask=True)
        assert ctx.n_active_pixels < sum(
            (b[1] - b[0]) * (b[3] - b[2]) for b in (p.bounds for p in ctx.patches)
        )
        _agree(assert_d012_close, ctx, free, 2, True)

    def test_parity_far_from_initialization(self, make_random_context,
                                            assert_d012_close):
        # Large perturbations exercise the bijector chains away from their
        # comfortable mid-range (saturating logits, near-circular and
        # near-edge-on shapes).
        ctx, free0 = make_random_context("galaxy", seed=11)
        rng = np.random.default_rng(77)
        for _ in range(3):
            free = free0 + rng.uniform(-1.5, 1.5, size=free0.shape)
            _agree(assert_d012_close, ctx, free, 2, True, rtol=1e-8)

    def test_order1_value_gradient_match_order2(self, make_random_context):
        ctx, free = make_random_context("star", seed=5)
        o1 = elbo(ctx, free, order=1, backend="fused")
        o2 = elbo(ctx, free, order=2, backend="fused")
        np.testing.assert_allclose(float(o1.val), float(o2.val), rtol=1e-12)
        np.testing.assert_allclose(o1.gradient(FREE.size),
                                   o2.gradient(FREE.size), rtol=1e-10)


def _kl_only_context(priors):
    """KL terms never see pixels, so a patchless context suffices."""
    return SourceContext(patches=[], priors=priors, u_center=np.zeros(2),
                         counters=Counters())


class TestKlParity:
    """The fused closed-form KL kernel against the Taylor KL oracle."""

    @pytest.mark.parametrize("priors_seed", [None, 1, 2],
                             ids=["default", "perturbed1", "perturbed2"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_randomized_kl_parity(self, assert_d012_close, perturbed_priors,
                                  order, priors_seed):
        priors = (default_priors() if priors_seed is None
                  else perturbed_priors(priors_seed))
        ctx = _kl_only_context(priors)
        rng = np.random.default_rng(20180131 + order + 100 * (priors_seed or 0))
        for _ in range(5):
            # Wide draws exercise both types' blocks: saturating type
            # logits, near-floor variances, lopsided responsibilities.
            free = rng.uniform(-2.0, 2.0, FREE.size)
            ref = elbo_kl(ctx, free, order=order, backend="taylor")
            out = elbo_kl(ctx, free, order=order, backend="fused")
            assert_d012_close(out, ref, order, rtol=1e-9)

    def test_full_objective_on_patchless_context_is_pure_kl(self):
        # With no patches the whole objective *is* the KL sum: the fused
        # full evaluation must never fall back to Taylor mode for it.
        ctx = _kl_only_context(default_priors())
        free = np.random.default_rng(3).uniform(-1.0, 1.0, FREE.size)
        full = elbo(ctx, free, order=2, backend="fused")
        kl = elbo_kl(ctx, free, order=2, backend="fused")
        np.testing.assert_allclose(float(full.val), float(kl.val), rtol=1e-13)
        np.testing.assert_array_equal(full.gradient(FREE.size),
                                      kl.gradient(FREE.size))
        np.testing.assert_array_equal(full.hessian(FREE.size),
                                      kl.hessian(FREE.size))

    def test_kl_evaluations_counted_backend_neutrally(self):
        ctx = _kl_only_context(default_priors())
        free = np.zeros(FREE.size)
        for name in ("taylor", "fused"):
            ctx.counters.reset()
            elbo_kl(ctx, free, order=1, backend=name)
            snap = ctx.counters.snapshot()
            assert snap["kl_evaluations"] == 1.0
            assert snap["kl_evaluations_" + name] == 1.0
            # KL work never counts active-pixel visits (the FLOP unit).
            assert "active_pixel_visits" not in snap

    def test_kl_workspace_compiled_once_per_priors(self, make_random_context):
        from repro.core.kernel import _kl_workspace

        priors = default_priors()
        assert _kl_workspace(priors) is _kl_workspace(priors)
        # Two source contexts under the same priors share one compiled KL
        # workspace (the pixel workspaces stay per-context).
        ctx_a, free = make_random_context("star", seed=2)
        ctx_b, _ = make_random_context("galaxy", seed=3)
        ctx_b = dataclasses.replace(ctx_b, priors=ctx_a.priors)
        elbo(ctx_a, free, order=1, backend="fused")
        elbo(ctx_b, free, order=1, backend="fused")
        assert (ctx_a.workspaces["fused"].kl
                is ctx_b.workspaces["fused"].kl)

    def test_distinct_priors_get_distinct_workspaces(self, perturbed_priors):
        ctx = _kl_only_context(default_priors())
        other = _kl_only_context(perturbed_priors(7))
        free = np.zeros(FREE.size)
        a = elbo_kl(ctx, free, order=0, backend="fused")
        b = elbo_kl(other, free, order=0, backend="fused")
        assert float(a.val) != float(b.val)


class TestScratchReleasedOnFailure:
    @pytest.mark.parametrize("method", ["newton", "lbfgs"])
    def test_raising_evaluation_releases_thread_scratch(
            self, monkeypatch, make_random_context, star_entry, method):
        from repro.core import kernel

        # Pinned to the numpy execution target: the scratch pool and the
        # patched-in failure are that target's own machinery, so the test
        # must not follow a REPRO_KERNEL_TARGET override.
        config = OptimizeConfig(max_iter=2, method=method, backend="fused",
                                kernel_target="numpy")
        ctx, _ = make_random_context("star", seed=6)
        optimize_source(ctx, star_entry, config)
        baseline_pool = getattr(kernel._TLS, "pool", None)
        assert baseline_pool  # successful solves leave buffers pooled...

        def boom(*args, **kwargs):
            raise RuntimeError("kernel exploded mid-iteration")

        monkeypatch.setattr(kernel, "_patch_pixel_term", boom)
        with pytest.raises(RuntimeError):
            optimize_source(ctx, star_entry, config)
        pool = getattr(kernel._TLS, "pool", None)
        assert not pool  # ...but a raising solve restores the baseline


class TestAccountingAndWorkspace:
    def test_visits_counted_identically(self, make_random_context):
        ctx, free = make_random_context("star", seed=2)
        per_backend = {}
        for name in ("taylor", "fused"):
            ctx.counters.reset()
            elbo(ctx, free, order=2, backend=name)
            per_backend[name] = ctx.counters.snapshot()
        for name, snap in per_backend.items():
            assert snap["active_pixel_visits"] == ctx.n_active_pixels
            assert snap["objective_evaluations"] == 1.0
            assert snap["objective_evaluations_" + name] == 1.0

    def test_workspace_compiled_once_and_reused(self, make_random_context):
        ctx, free = make_random_context("star", seed=2)
        assert "fused" not in ctx.workspaces
        elbo(ctx, free, order=2, backend="fused")
        ws = ctx.workspaces["fused"]
        elbo(ctx, free + 0.1, order=2, backend="fused")
        assert ctx.workspaces["fused"] is ws

    def test_elbo_eval_surface(self, make_random_context):
        ctx, free = make_random_context("star", seed=2)
        out = elbo(ctx, free, order=2, backend="fused")
        assert isinstance(out, ElboEval)
        assert out.val.shape == ()
        assert out.gradient(FREE.size).shape == (41,)
        assert out.hessian(FREE.size).shape == (41, 41)
        # Wider dense spaces zero-pad, exactly like the Taylor scatter.
        wide = out.gradient(50)
        assert wide.shape == (50,)
        assert np.all(wide[41:] == 0.0)
        np.testing.assert_array_equal(wide[:41], out.gradient(FREE.size))
        assert np.all(out.hessian(50)[41:, :] == 0.0)
        with pytest.raises(ValueError):
            out.gradient(7)
        with pytest.raises(ValueError):
            out.hessian(7)

    def test_gradient_extraction_returns_fresh_arrays(self,
                                                      make_random_context):
        ctx, free = make_random_context("star", seed=2)
        out = elbo(ctx, free, order=2, backend="fused")
        g = out.gradient(FREE.size)
        g[:] = 0.0
        assert np.any(out.gradient(FREE.size) != 0.0)


class TestBackendSelection:
    def test_available_and_resolve(self):
        assert set(available_backends()) >= {"taylor", "fused"}
        assert resolve_backend_name("fused") == "fused"
        with pytest.raises(ValueError):
            resolve_backend_name("vectorized-cobol")

    def test_env_var_selects_backend(self, monkeypatch, make_random_context):
        monkeypatch.setenv(BACKEND_ENV_VAR, "taylor")
        assert resolve_backend_name(None) == "taylor"
        monkeypatch.setenv(BACKEND_ENV_VAR, "fused")
        ctx, free = make_random_context("star", seed=2)
        out = elbo(ctx, free, order=2)          # backend=None -> env var
        assert isinstance(out, ElboEval)
        monkeypatch.delenv(BACKEND_ENV_VAR)
        # The production default since the KL terms went closed-form.
        assert resolve_backend_name(None) == DEFAULT_BACKEND == "fused"

    def test_optimize_source_backend_knob(self, make_random_context,
                                          star_entry):
        # The full Newton solve must converge to the same catalog entry
        # under either backend at the same tolerances.
        ctx_t, _ = make_random_context("star", bands=(0, 1, 2, 3, 4), seed=1)
        ctx_f, _ = make_random_context("star", bands=(0, 1, 2, 3, 4), seed=1)
        res_t = optimize_source(
            ctx_t, star_entry, OptimizeConfig(max_iter=60, backend="taylor"))
        res_f = optimize_source(
            ctx_f, star_entry, OptimizeConfig(max_iter=60, backend="fused"))
        assert res_t.converged and res_f.converged
        est_t = to_catalog_entry(res_t.params)
        est_f = to_catalog_entry(res_f.params)
        np.testing.assert_allclose(est_f.position, est_t.position, atol=1e-4)
        np.testing.assert_allclose(est_f.flux_r, est_t.flux_r, rtol=1e-3)
        assert est_t.is_galaxy == est_f.is_galaxy
        assert res_f.elbo == pytest.approx(res_t.elbo, rel=1e-8)

    def test_lbfgs_solves_counted(self, make_random_context, star_entry):
        ctx, _ = make_random_context("star", seed=4)
        optimize_source(ctx, star_entry,
                        OptimizeConfig(max_iter=5, method="lbfgs"))
        assert ctx.counters.get("lbfgs_solves") == 1.0
        assert ctx.counters.get("lbfgs_iterations") > 0
        optimize_source(ctx, star_entry, OptimizeConfig(max_iter=5))
        assert ctx.counters.get("newton_solves") == 1.0


class TestInitialParamsAngle:
    def test_e_angle_normalized_and_idempotent(self, galaxy_entry):
        priors = default_priors()
        entry = dataclasses.replace(galaxy_entry, gal_angle=0.8 + 2.0 * np.pi)
        params = initial_params(entry, priors)
        assert 0.0 <= params.e_angle < np.pi
        assert params.e_angle == pytest.approx(0.8 + 2.0 * np.pi - np.pi * 2)
        # Round-tripping through a catalog entry and re-seeding is a fixed
        # point: to_catalog_entry already reduces mod pi, so a merged
        # catalog re-seeds to exactly the same variational initialization.
        round_trip = initial_params(to_catalog_entry(params), priors)
        assert round_trip.e_angle == params.e_angle


# ---------------------------------------------------------------------------
# Driver level: executors x backends


@pytest.fixture(scope="module")
def backend_survey():
    rng = np.random.default_rng(5)
    sky = SyntheticSkyConfig(
        source_density=50.0, min_separation=8.0, flux_floor=20.0
    )
    return generate_survey_fields(
        2, field_shape_hw=(32, 32), overlap=8.0,
        config=sky, rng=rng, bands=(2,),
    )


def _driver_config(backend, executor):
    return DriverConfig(
        n_nodes=2,
        executor=executor,
        target_weight=60.0,
        parallel=ParallelRegionConfig(
            n_threads=2,
            n_passes=1,
            joint=JointConfig(
                n_passes=1,
                single=OptimizeConfig(max_iter=8, grad_tol=2e-3,
                                      backend=backend),
            ),
        ),
    )


def _entry_tuple(e):
    return (tuple(e.position), e.is_galaxy, e.flux_r, tuple(e.colors),
            e.gal_frac_dev, e.gal_axis_ratio, e.gal_angle, e.gal_radius_px)


class TestDriverBackends:
    def test_executors_identical_backends_comparable(self, backend_survey):
        """Thread and process executors must produce bit-for-bit identical
        catalogs under *each* backend, and the two backends must produce
        the same catalog up to optimizer tolerance."""
        _, fields = backend_survey
        catalogs = {}
        for backend in ("taylor", "fused"):
            for executor in ("thread", "process"):
                result = run_pipeline(
                    fields, _driver_config(backend, executor))
                assert len(result.catalog) > 0
                assert result.counters[
                    "objective_evaluations_" + backend] > 0
                assert ("objective_evaluations_taylor" not in result.counters
                        or backend == "taylor")
                catalogs[(backend, executor)] = result.catalog

        for backend in ("taylor", "fused"):
            a = catalogs[(backend, "thread")]
            b = catalogs[(backend, "process")]
            assert [_entry_tuple(e) for e in a] == [_entry_tuple(e) for e in b]

        ref = catalogs[("taylor", "thread")]
        out = catalogs[("fused", "thread")]
        assert len(ref) == len(out)
        for e_ref, e_out in zip(ref, out):
            assert e_ref.is_galaxy == e_out.is_galaxy
            np.testing.assert_allclose(e_out.position, e_ref.position,
                                       atol=0.02)
            np.testing.assert_allclose(e_out.flux_r, e_ref.flux_r, rtol=0.02)

    def test_backend_is_fingerprinted(self, backend_survey, tmp_path):
        """A checkpoint written under one backend must not be resumed by a
        run configured for the other."""
        _, fields = backend_survey
        path = str(tmp_path / "ckpt.json")
        config = dataclasses.replace(
            _driver_config("taylor", "thread"),
            checkpoint_path=path, stop_after="stage0",
        )
        first = run_pipeline(fields, config)
        assert first.stopped_early

        resumed_same = run_pipeline(fields, dataclasses.replace(
            _driver_config("taylor", "thread"), checkpoint_path=path))
        assert "stage0" in resumed_same.resumed_stages

        resumed_other = run_pipeline(fields, dataclasses.replace(
            _driver_config("fused", "thread"), checkpoint_path=path))
        assert resumed_other.resumed_stages == []

    def test_env_var_reaches_driver(self, backend_survey, monkeypatch):
        _, fields = backend_survey
        monkeypatch.setenv(BACKEND_ENV_VAR, "fused")
        result = run_pipeline(fields, _driver_config(None, "thread"))
        assert result.counters["objective_evaluations_fused"] > 0
        assert "objective_evaluations_taylor" not in result.counters

    def test_default_backend_is_fused_in_driver(self, backend_survey,
                                                monkeypatch):
        _, fields = backend_survey
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        result = run_pipeline(fields, _driver_config(None, "thread"))
        assert result.counters["objective_evaluations_fused"] > 0
        assert "objective_evaluations_taylor" not in result.counters

    def test_old_default_checkpoint_refuses_resume_under_new_default(
            self, backend_survey, tmp_path, monkeypatch):
        """A checkpoint fingerprinted under the old default backend
        (explicit ``"taylor"``, what pre-flip runs recorded) must refuse
        resume under the new default resolution (``None`` -> fused) and
        restart fresh, rather than silently continue on a different
        kernel."""
        _, fields = backend_survey
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        path = str(tmp_path / "ckpt.json")
        first = run_pipeline(fields, dataclasses.replace(
            _driver_config("taylor", "thread"),
            checkpoint_path=path, stop_after="stage0"))
        assert first.stopped_early

        fresh = run_pipeline(fields, dataclasses.replace(
            _driver_config(None, "thread"), checkpoint_path=path))
        assert fresh.resumed_stages == []
        assert fresh.counters["objective_evaluations_fused"] > 0

        # The fresh run re-fingerprinted the checkpoint under the new
        # default; a second default-resolved run resumes it cleanly.
        again = run_pipeline(fields, dataclasses.replace(
            _driver_config(None, "thread"), checkpoint_path=path))
        assert "final" in again.resumed_stages
