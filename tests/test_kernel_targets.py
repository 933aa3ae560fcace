"""Kernel execution targets: registry, parity, plumbing, fingerprinting.

The fused backend's stacked sweeps run behind the
:class:`repro.core.kernel.KernelTarget` seam.  The ``numpy`` target is the
bit-for-bit reference (batched == scalar exactly); non-default targets
promise *tolerance* parity only — their reductions re-associate — which is
why the selected target is pinned by the driver and checkpoint-fingerprinted
like the ELBO backend, and why parity here is asserted with the randomized
harness at a tolerance rather than with array equality.
"""

import dataclasses
import importlib.util

import numpy as np
import pytest

from repro.core import default_priors
from repro.core.elbo import elbo, elbo_batch, elbo_kl
from repro.core.joint import JointConfig
from repro.core.kernel import (
    _MOMENT_BLOCK,
    DEFAULT_KERNEL_TARGET,
    KERNEL_TARGET_ENV_VAR,
    _group_curvature,
    _group_features,
    _GroupWorkspace,
    available_kernel_targets,
    get_kernel_target,
    resolve_kernel_target_name,
)
from repro.core.kernel_targets import _group_features_xp
from repro.core.single import OptimizeConfig, optimize_source
from repro.driver import DriverConfig, run_pipeline
from repro.driver.pipeline import _fingerprint, _pin_config
from repro.parallel import ParallelRegionConfig
from repro.survey import SyntheticSkyConfig, generate_survey_fields

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

#: Non-default targets available on any host (array_api needs only NumPy).
ALT_TARGETS = ["array_api"] + (["numba"] if HAVE_NUMBA else [])

#: Randomized-parity shapes: star/galaxy, masked, multi-visit, perturbed.
PARITY_SPECS = [
    dict(entry="star", seed=11, perturb=0.05),
    dict(entry="galaxy", seed=12, perturb=0.05),
    dict(entry="galaxy", seed=13, mask=True, perturb=0.1),
    dict(entry="star", seed=14, n_visits=5, patch_shape=(20, 24)),
]


class TestRegistry:
    def test_known_targets(self):
        assert available_kernel_targets() == ["array_api", "numba", "numpy"]

    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv(KERNEL_TARGET_ENV_VAR, raising=False)
        assert resolve_kernel_target_name() == DEFAULT_KERNEL_TARGET
        monkeypatch.setenv(KERNEL_TARGET_ENV_VAR, "array_api")
        assert resolve_kernel_target_name() == "array_api"
        # An explicit name always beats the environment.
        assert resolve_kernel_target_name("numpy") == "numpy"

    def test_unknown_name_rejected_without_import(self):
        with pytest.raises(ValueError, match="unknown kernel target"):
            resolve_kernel_target_name("cuda")

    def test_get_target_instances(self):
        assert get_kernel_target("numpy").name == "numpy"
        assert get_kernel_target("array_api").name == "array_api"

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed here")
    def test_missing_dependency_is_a_clear_error(self):
        # The name stays *known* (resolution and fingerprinting work
        # everywhere) but loading it without the dependency must say why.
        assert resolve_kernel_target_name("numba") == "numba"
        with pytest.raises(ValueError, match="known but unavailable"):
            get_kernel_target("numba")

    def test_taylor_backend_rejects_explicit_target(self,
                                                    make_random_context):
        ctx, free = make_random_context("star", seed=0)
        with pytest.raises(ValueError, match="does not support kernel"):
            elbo(ctx, free, order=1, backend="taylor",
                 kernel_target="numpy")
        # None passes through: the scalar default never needs the seam.
        elbo(ctx, free, order=1, backend="taylor")


class TestRandomizedParity:
    """The tentpole contract: every selectable target agrees with the
    numpy reference on value/gradient/Hessian at both orders, across the
    randomized context family, scalar and batched."""

    @pytest.mark.parametrize("target", ALT_TARGETS)
    @pytest.mark.parametrize("order", [1, 2])
    def test_scalar_parity_both_orders(self, target, order,
                                       make_random_context,
                                       assert_d012_close):
        for spec in PARITY_SPECS:
            ctx, free = make_random_context(**spec)
            ref = elbo(ctx, free, order=order, backend="fused")
            out = elbo(ctx, free, order=order, backend="fused",
                       kernel_target=target)
            assert_d012_close(out, ref, order, rtol=1e-7)

    @pytest.mark.parametrize("target", ALT_TARGETS)
    @pytest.mark.parametrize("order", [1, 2])
    def test_batched_parity_both_orders(self, target, order,
                                        make_random_context,
                                        assert_d012_close):
        pairs = [make_random_context(**spec) for spec in PARITY_SPECS]
        ctxs = [c for c, _ in pairs]
        frees = [f for _, f in pairs]
        refs = elbo_batch(ctxs, frees, order=order, backend="fused")
        outs = elbo_batch(ctxs, frees, order=order, backend="fused",
                          kernel_target=target)
        for out, ref in zip(outs, refs):
            assert_d012_close(out, ref, order, rtol=1e-7)

    @pytest.mark.parametrize("target", ALT_TARGETS)
    def test_variance_correction_off_parity(self, target,
                                            make_random_context,
                                            assert_d012_close):
        ctx, free = make_random_context("galaxy", seed=21, perturb=0.05)
        ref = elbo(ctx, free, order=2, variance_correction=False,
                   backend="fused")
        out = elbo(ctx, free, order=2, variance_correction=False,
                   backend="fused", kernel_target=target)
        assert_d012_close(out, ref, 2, rtol=1e-7)

    @pytest.mark.parametrize("target", ALT_TARGETS)
    def test_kl_term_parity(self, target, make_random_context,
                            assert_d012_close):
        ctx, free = make_random_context("galaxy", seed=22, perturb=0.1)
        ref = elbo_kl(ctx, free, order=2, backend="fused")
        out = elbo_kl(ctx, free, order=2, backend="fused",
                      kernel_target=target)
        assert_d012_close(out, ref, 2, rtol=1e-7)

    def test_numpy_target_is_bit_for_bit(self, make_random_context):
        # Selecting the default explicitly is a no-op, not a tolerance.
        ctx, free = make_random_context("galaxy", seed=23, perturb=0.05)
        ref = elbo(ctx, free, order=2, backend="fused")
        out = elbo(ctx, free, order=2, backend="fused",
                   kernel_target="numpy")
        assert float(out.val) == float(ref.val)
        np.testing.assert_array_equal(out.gradient(free.size),
                                      ref.gradient(free.size))
        np.testing.assert_array_equal(out.hessian(free.size),
                                      ref.hessian(free.size))


def _random_group(rng, n_lanes, n_comp, n_pix, near_singular):
    """A lane-stacked galaxy group on a raster of ``n_pix`` pixels with its
    per-lane position and shape inputs.  ``near_singular`` makes lane 0's
    first component a needle (covariance condition number ~1e5)."""
    side = int(np.ceil(np.sqrt(n_pix)))
    py, px = np.divmod(np.arange(n_pix), side)
    lanes = []
    for lane in range(n_lanes):
        w = rng.uniform(0.05, 1.0, (n_comp, 1))
        var = rng.uniform(0.1, 4.0, (n_comp, 1))
        mux, muy = rng.normal(0.0, 0.5, (2, n_comp, 1))
        pxx, pyy = rng.uniform(0.8, 3.0, (2, n_comp, 1))
        pxy = rng.uniform(-0.6, 0.6, (n_comp, 1))
        if near_singular and lane == 0:
            var[0], pxx[0], pxy[0], pyy[0] = 1e-3, 1.0, 0.99999, 1.0
        lanes.append(_GroupWorkspace((w, var, mux, muy, pxx, pxy, pyy),
                                     px.astype(float), py.astype(float)))
    upx = side / 2.0 + rng.normal(0.0, 0.5, n_lanes)
    upy = side / 2.0 + rng.normal(0.0, 0.5, n_lanes)
    s1, s3 = rng.uniform(0.5, 3.0, (2, n_lanes))
    s2 = rng.uniform(-0.5, 0.5, n_lanes) * np.sqrt(s1 * s3)
    if near_singular:
        s1[0], s2[0], s3[0] = 1.0, 0.9999, 1.0
    return lanes, (upx, upy, s1, s2, s3)


class TestContractedCurvature:
    """The reference target contracts the galaxy Hessian rows over pixels
    from Hermite moments and never builds them per pixel; this module's
    per-pixel targets still do, which makes ``_group_features_xp`` the
    independent oracle of that algebra."""

    @pytest.mark.parametrize("near_singular", [False, True])
    @pytest.mark.parametrize("n_pix", [1, 7, _MOMENT_BLOCK - 1,
                                       _MOMENT_BLOCK, _MOMENT_BLOCK + 1,
                                       3 * _MOMENT_BLOCK + 5])
    @pytest.mark.parametrize("n_comp", [8, 14])
    @pytest.mark.parametrize("n_lanes", [1, 3])
    def test_matches_contracted_per_pixel_rows(self, n_lanes, n_comp, n_pix,
                                               near_singular):
        rng = np.random.default_rng(1000 * n_lanes + 10 * n_comp + n_pix)
        lanes, args = _random_group(rng, n_lanes, n_comp, n_pix,
                                    near_singular)
        gws = _GroupWorkspace._concat(lanes)
        wts = rng.standard_normal((n_lanes, n_pix, 2))   # both signs
        _, _, rows = _group_features_xp(np, gws, *args, 2)
        _, _, keep = _group_features(gws, *args, 2, "t")
        # "Relative" is to the sum of absolute per-pixel contributions —
        # the yardstick a reordered floating-point sum is held to.
        for cols in (wts, wts[:, :, :1]):   # with / without the variance
            out = _group_curvature(keep, cols)          # correction column
            assert out.shape == (n_lanes, 15, cols.shape[2])
            scale = np.matmul(np.abs(rows), np.abs(cols))
            assert np.all(np.abs(out - np.matmul(rows, cols))
                          <= 1e-11 * scale)

    def test_lane_alone_equals_lane_in_stack(self):
        rng = np.random.default_rng(5)
        n_pix = 2 * _MOMENT_BLOCK + 3
        lanes, args = _random_group(rng, 3, 14, n_pix, near_singular=True)
        wts = rng.standard_normal((3, n_pix, 2))
        _, _, keep = _group_features(_GroupWorkspace._concat(lanes), *args,
                                     2, "t")
        stacked = _group_curvature(keep, wts)
        for i, lane in enumerate(lanes):
            _, _, keep = _group_features(
                lane, *(a[i:i + 1] for a in args), 2, "t")
            np.testing.assert_array_equal(
                _group_curvature(keep, wts[i:i + 1])[0], stacked[i])


class TestOptimizerPlumbing:
    @pytest.mark.parametrize("target", ALT_TARGETS)
    def test_optimize_source_agrees_to_tolerance(self, target,
                                                 make_random_context):
        config = OptimizeConfig(max_iter=8, grad_tol=1e-3, backend="fused")
        ctx, _, entry = make_random_context("star", seed=31, with_entry=True)
        ref = optimize_source(ctx, entry, config)
        ctx2, _, entry2 = make_random_context("star", seed=31,
                                              with_entry=True)
        out = optimize_source(
            ctx2, entry2,
            dataclasses.replace(config, kernel_target=target))
        # Tolerance parity, not bit parity: the optimizer walks the same
        # basin but the target's re-associated reductions can move floats.
        np.testing.assert_allclose(out.free, ref.free, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(out.elbo, ref.elbo, rtol=1e-6)


@pytest.fixture(scope="module")
def target_survey():
    rng = np.random.default_rng(7)
    sky = SyntheticSkyConfig(
        source_density=120.0, min_separation=7.0, flux_floor=20.0
    )
    return generate_survey_fields(
        2, field_shape_hw=(40, 40), overlap=8.0,
        config=sky, rng=rng, bands=(2,),
    )


def _driver_config(kernel_target=None):
    return DriverConfig(
        n_nodes=2,
        target_weight=200.0,
        parallel=ParallelRegionConfig(
            n_threads=2,
            n_passes=1,
            joint=JointConfig(
                n_passes=1,
                single=OptimizeConfig(max_iter=8, grad_tol=2e-3,
                                      backend="fused",
                                      kernel_target=kernel_target),
            ),
        ),
    )


class TestDriverPlumbing:
    def test_target_is_pinned_through_config_tree(self, monkeypatch):
        monkeypatch.delenv(KERNEL_TARGET_ENV_VAR, raising=False)
        def pinned(**kwargs):
            config = _pin_config(_driver_config(**kwargs))
            return config.parallel.joint.single.kernel_target

        assert pinned() == "numpy"
        assert pinned(kernel_target="array_api") == "array_api"

        # Env fills in only when the config names no target; it never
        # needs the target's dependency to be importable (the name is
        # validated without import, so "numba" pins on any host).
        monkeypatch.setenv(KERNEL_TARGET_ENV_VAR, "numba")
        assert pinned() == "numba"
        assert pinned(kernel_target="numpy") == "numpy"

        monkeypatch.setenv(KERNEL_TARGET_ENV_VAR, "hexagonal")
        with pytest.raises(ValueError, match="unknown kernel target"):
            pinned()

    def test_fingerprint_records_target(self, monkeypatch):
        monkeypatch.delenv(KERNEL_TARGET_ENV_VAR, raising=False)
        from repro.driver.pipeline import _FieldStore

        rng = np.random.default_rng(3)
        _, fields = generate_survey_fields(
            1, field_shape_hw=(30, 30), overlap=6.0,
            config=SyntheticSkyConfig(source_density=60.0), rng=rng,
            bands=(2,),
        )
        store = _FieldStore(fields)
        fp = _fingerprint(store, _pin_config(_driver_config()))
        assert (fp["parallel"]["joint"]["single"]["kernel_target"]
                == "numpy")

    @pytest.mark.parametrize("target", ALT_TARGETS)
    def test_driver_run_agrees_to_optimizer_tolerance(self, target,
                                                      target_survey):
        _, fields = target_survey
        ref = run_pipeline(fields, _driver_config(kernel_target="numpy"))
        out = run_pipeline(fields, _driver_config(kernel_target=target))
        assert len(ref.catalog) == len(out.catalog)
        for a, b in zip(ref.catalog, out.catalog):
            assert a.is_galaxy == b.is_galaxy
            np.testing.assert_allclose(a.position, b.position, atol=1e-3)
            np.testing.assert_allclose(a.flux_r, b.flux_r, rtol=1e-3)

    def test_checkpoint_refuses_resume_across_targets(self, target_survey,
                                                      tmp_path):
        """The fingerprint contract: a checkpoint written under one
        execution target refuses resume under another (non-default targets
        are tolerance-parity only, so mixing them across a resume boundary
        would splice two float streams into one catalog)."""
        _, fields = target_survey
        path = str(tmp_path / "ckpt.json")
        first = run_pipeline(fields, dataclasses.replace(
            _driver_config(kernel_target="array_api"),
            checkpoint_path=path, stop_after="stage0"))
        assert first.stopped_early

        same = run_pipeline(fields, dataclasses.replace(
            _driver_config(kernel_target="array_api"),
            checkpoint_path=path))
        assert "stage0" in same.resumed_stages

        other = run_pipeline(fields, dataclasses.replace(
            _driver_config(kernel_target="numpy"), checkpoint_path=path))
        assert other.resumed_stages == []
