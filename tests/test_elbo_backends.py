"""Kernel parity: the fused analytic kernel against the Taylor oracle.

The fused kernel (:mod:`repro.core.kernel`) hand-derives every derivative;
the Taylor-mode reference ELBO (``tests/taylor_oracle/``) gets them
mechanically from its autodiff engine (itself validated against finite
differences).  These tests pin the two together — value, full 41-gradient,
and full 41x41 Hessian — over randomized sources, parameter vectors, WCS
solutions, and evaluation modes, then check the plumbing: accounting,
workspace reuse, the removed ``backend``/``kernel_target`` selectors, and
thread-vs-process agreement of a driver run.

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
    default_priors,
    elbo,
    optimize_source,
)
from repro.core.elbo import (
    ElboEval,
    SourceContext,
    compile_elbo_batch,
    elbo_batch,
    elbo_kl,
)
from repro.core.params import FREE
from repro.core.single import initial_params, to_catalog_entry
from repro.driver import DriverConfig, run_pipeline
from repro.parallel import ParallelRegionConfig
from repro.perf.counters import Counters
from repro.survey import SyntheticSkyConfig, generate_survey_fields

from taylor_oracle.elbo import elbo_kl_taylor, elbo_taylor


def _agree(check, ctx, free, order, variance_correction, rtol=1e-9):
    """Evaluate the kernel and the oracle on one context and require d012
    agreement."""
    ref = elbo_taylor(ctx, free, order=order,
                      variance_correction=variance_correction)
    out = elbo(ctx, free, order=order,
               variance_correction=variance_correction)
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
        o1 = elbo(ctx, free, order=1)
        o2 = elbo(ctx, free, order=2)
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
            ref = elbo_kl_taylor(ctx, free, order=order)
            out = elbo_kl(ctx, free, order=order)
            assert_d012_close(out, ref, order, rtol=1e-9)

    def test_full_objective_on_patchless_context_is_pure_kl(self):
        # With no patches the whole objective *is* the KL sum: the full
        # evaluation and the KL-only one run the same closed forms.
        ctx = _kl_only_context(default_priors())
        free = np.random.default_rng(3).uniform(-1.0, 1.0, FREE.size)
        full = elbo(ctx, free, order=2)
        kl = elbo_kl(ctx, free, order=2)
        np.testing.assert_allclose(float(full.val), float(kl.val), rtol=1e-13)
        np.testing.assert_array_equal(full.gradient(FREE.size),
                                      kl.gradient(FREE.size))
        np.testing.assert_array_equal(full.hessian(FREE.size),
                                      kl.hessian(FREE.size))

    def test_kl_evaluations_counted_without_visits(self):
        ctx = _kl_only_context(default_priors())
        elbo_kl(ctx, np.zeros(FREE.size), order=1)
        # KL work never counts active-pixel visits (the FLOP unit).
        assert ctx.counters.snapshot() == {"kl_evaluations": 1.0}

    def test_kl_workspace_compiled_once_per_priors(self, make_random_context):
        from repro.core.kernel import _kl_workspace

        priors = default_priors()
        assert _kl_workspace(priors) is _kl_workspace(priors)
        # Two source contexts under the same priors share one compiled KL
        # workspace (the pixel workspaces stay per-context).
        ctx_a, free = make_random_context("star", seed=2)
        ctx_b, _ = make_random_context("galaxy", seed=3)
        ctx_b = dataclasses.replace(ctx_b, priors=ctx_a.priors)
        elbo(ctx_a, free, order=1)
        elbo(ctx_b, free, order=1)
        assert ctx_a.workspace.kl is ctx_b.workspace.kl

    def test_distinct_priors_get_distinct_workspaces(self, perturbed_priors):
        ctx = _kl_only_context(default_priors())
        other = _kl_only_context(perturbed_priors(7))
        free = np.zeros(FREE.size)
        a = elbo_kl(ctx, free, order=0)
        b = elbo_kl(other, free, order=0)
        assert float(a.val) != float(b.val)


class TestScratchReleasedOnFailure:
    def test_raising_evaluation_releases_thread_scratch(
            self, monkeypatch, make_random_context, star_entry):
        from repro.core import kernel

        config = OptimizeConfig(max_iter=2)
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
    def test_visits_and_evaluations_counted(self, make_random_context):
        ctx, free = make_random_context("star", seed=2)
        ctx.counters.reset()
        elbo(ctx, free, order=2)
        snap = ctx.counters.snapshot()
        assert snap["active_pixel_visits"] == ctx.n_active_pixels
        assert snap["objective_evaluations"] == 1.0

    @pytest.mark.parametrize("order", [1, 2])
    def test_visits_counted_identically(self, make_random_context, order):
        # The scalar front end is a batch of one: each lane of a batched
        # call counts what a scalar call on its context counts, at either
        # derivative order.
        ctxs, frees = zip(*(make_random_context(kind, seed=seed)
                            for kind, seed in (("star", 2), ("galaxy", 3))))
        keys = ("active_pixel_visits", "objective_evaluations")
        scalar = []
        for ctx, free in zip(ctxs, frees):
            ctx.counters.reset()
            elbo(ctx, free, order=order)
            scalar.append([ctx.counters.get(k) for k in keys])
        for ctx in ctxs:
            ctx.counters.reset()
        elbo_batch(list(ctxs), list(frees), order=order)
        batched = [[ctx.counters.get(k) for k in keys] for ctx in ctxs]
        assert batched == scalar
        assert scalar == [[float(ctx.n_active_pixels), 1.0] for ctx in ctxs]

    def test_newton_solves_counted(self, make_random_context, star_entry):
        ctx, _ = make_random_context("star", seed=4)
        res = optimize_source(ctx, star_entry, OptimizeConfig(max_iter=5))
        assert ctx.counters.get("newton_solves") == 1.0
        assert ctx.counters.get("newton_iterations") == res.optim.n_iterations
        assert res.optim.n_iterations > 0

    def test_workspace_compiled_once_and_reused(self, make_random_context):
        ctx, free = make_random_context("star", seed=2)
        assert ctx.workspace is None
        elbo(ctx, free, order=2)
        ws = ctx.workspace
        elbo(ctx, free + 0.1, order=2)
        assert ctx.workspace is ws

    def test_elbo_eval_surface(self, make_random_context):
        ctx, free = make_random_context("star", seed=2)
        out = elbo(ctx, free, order=2)
        assert isinstance(out, ElboEval)
        assert out.val.shape == ()
        assert out.gradient(FREE.size).shape == (41,)
        assert out.hessian(FREE.size).shape == (41, 41)
        # Wider dense spaces zero-pad.
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
        out = elbo(ctx, free, order=2)
        g = out.gradient(FREE.size)
        g[:] = 0.0
        assert np.any(out.gradient(FREE.size) != 0.0)


class TestRemovedSelectors:
    """``backend`` and ``kernel_target`` survive only as ``None``: class
    constants on :class:`OptimizeConfig` and parameters of the front end,
    behind one guard, for the benchmark suite's layer replay."""

    @pytest.mark.parametrize("entry,selector,value", [
        ("elbo", "backend", "fused"), ("elbo", "backend", "taylor"),
        ("elbo", "kernel_target", "numpy"), ("elbo", "kernel_target", "cuda"),
        ("elbo", "kernel_target", ""),
        ("elbo_batch", "backend", "fused"),
        ("elbo_batch", "backend", "taylor"),
        ("elbo_batch", "kernel_target", "numpy"),
        ("elbo_batch", "kernel_target", "cuda"),
        ("elbo_batch", "kernel_target", ""),
        ("compile_elbo_batch", "backend", "fused"),
        ("compile_elbo_batch", "backend", "taylor"),
        ("elbo_kl", "backend", "fused"), ("elbo_kl", "backend", "taylor"),
    ])
    def test_selector_other_than_none_is_rejected(
            self, entry, selector, value, make_random_context):
        ctx, free = make_random_context("star", seed=7)
        call = {
            "elbo": lambda **kw: elbo(ctx, free, **kw),
            "elbo_batch": lambda **kw: elbo_batch([ctx], [free], **kw),
            "compile_elbo_batch": lambda **kw: compile_elbo_batch([ctx], **kw),
            "elbo_kl": lambda **kw: elbo_kl(ctx, free, **kw),
        }[entry]
        with pytest.raises(ValueError, match="were removed"):
            call(**{selector: value})
        call(**{selector: None})

    @pytest.mark.parametrize("selector,value", [
        ("backend", "fused"), ("kernel_target", "numpy"),
    ])
    def test_selector_is_not_a_config_field(self, selector, value):
        with pytest.raises(TypeError):
            OptimizeConfig(**{selector: value})
        with pytest.raises(TypeError):
            dataclasses.replace(OptimizeConfig(), **{selector: value})
        assert getattr(OptimizeConfig(), selector) is None

    @pytest.mark.parametrize("kind", ["star", "galaxy"])
    def test_explicit_none_selectors_are_bit_for_bit(
            self, kind, make_random_context):
        # The benchmark's layer replay passes both through as None; that
        # is the default evaluation exactly, not to a tolerance.
        ctx, free = make_random_context(kind, seed=23, perturb=0.05)
        single = OptimizeConfig()
        ref = elbo(ctx, free, order=2)
        out = elbo(ctx, free, order=2, backend=single.backend,
                   kernel_target=single.kernel_target)
        (batched,) = elbo_batch(
            [ctx], [free], order=2, backend=single.backend,
            compiled=compile_elbo_batch([ctx], backend=single.backend),
            kernel_target=single.kernel_target)
        for got in (out, batched):
            assert float(got.val) == float(ref.val)
            np.testing.assert_array_equal(got.gradient(free.size),
                                          ref.gradient(free.size))
            np.testing.assert_array_equal(got.hessian(free.size),
                                          ref.hessian(free.size))

    def test_stale_backend_env_var_is_inert(self, monkeypatch,
                                            make_random_context):
        # A shell that still exports the removed variable gets the one
        # kernel, bit for bit; the variable is no longer registered.
        from repro.envvars import env_raw

        ctx, free = make_random_context("galaxy", seed=23, perturb=0.05)
        ref = elbo(ctx, free, order=2)
        monkeypatch.setenv("REPRO_ELBO_BACKEND", "taylor")
        out = elbo(ctx, free, order=2)
        assert float(out.val) == float(ref.val)
        np.testing.assert_array_equal(out.hessian(free.size),
                                      ref.hessian(free.size))
        with pytest.raises(KeyError):
            env_raw("REPRO_ELBO_BACKEND")

    @pytest.mark.parametrize("selector", ["backend", "kernel_target"])
    def test_selectors_are_constants_outside_the_fingerprint(self, selector):
        from repro.analysis.provenance import knob_inventory
        from repro.driver.pipeline import _FieldStore, _fingerprint, \
            _pin_config

        assert getattr(OptimizeConfig, selector) is None
        names = {f.name for f in dataclasses.fields(OptimizeConfig)}
        assert selector not in names
        quals = {k.qualname for k in knob_inventory()}
        assert "OptimizeConfig." + selector not in quals
        assert "REPRO_ELBO_BACKEND" not in quals
        _, fields = generate_survey_fields(
            1, field_shape_hw=(30, 30), overlap=6.0,
            config=SyntheticSkyConfig(source_density=60.0),
            rng=np.random.default_rng(3), bands=(2,))
        config = _pin_config(DriverConfig(n_nodes=1))
        assert getattr(config.parallel.joint.single, selector) is None
        single = _fingerprint(_FieldStore(fields), config)[
            "parallel"]["joint"]["single"]
        assert selector not in single


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
# Driver level: executors


@pytest.fixture(scope="module")
def driver_survey():
    rng = np.random.default_rng(5)
    sky = SyntheticSkyConfig(
        source_density=50.0, min_separation=8.0, flux_floor=20.0
    )
    return generate_survey_fields(
        2, field_shape_hw=(32, 32), overlap=8.0,
        config=sky, rng=rng, bands=(2,),
    )


def _driver_config(executor):
    return DriverConfig(
        n_nodes=2,
        executor=executor,
        target_weight=60.0,
        parallel=ParallelRegionConfig(
            n_threads=2,
            n_passes=1,
            joint=JointConfig(
                n_passes=1,
                single=OptimizeConfig(max_iter=8, grad_tol=2e-3),
            ),
        ),
    )


def _entry_tuple(e):
    return (tuple(e.position), e.is_galaxy, e.flux_r, tuple(e.colors),
            e.gal_frac_dev, e.gal_axis_ratio, e.gal_angle, e.gal_radius_px)


class TestDriverExecutors:
    def test_thread_and_process_catalogs_identical(self, driver_survey):
        """Thread and process executors must produce bit-for-bit identical
        catalogs."""
        _, fields = driver_survey
        catalogs = {}
        for executor in ("thread", "process"):
            result = run_pipeline(fields, _driver_config(executor))
            assert len(result.catalog) > 0
            assert result.counters["objective_evaluations"] > 0
            catalogs[executor] = result.catalog
        assert ([_entry_tuple(e) for e in catalogs["thread"]]
                == [_entry_tuple(e) for e in catalogs["process"]])
