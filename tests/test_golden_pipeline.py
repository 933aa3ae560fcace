"""Golden end-to-end regression: a pinned catalog content hash.

A tiny deterministic two-field synthetic survey runs through
:func:`run_pipeline` under the production configuration (thread executor)
and the resulting catalog's *content hash* is pinned.  Every
layer of the system feeds this number — Photo seeding, partitioning, Dtree
scheduling, Cyclades execution, the fused kernel, merging — so a refactor
that silently shifts end-to-end results (rather than merely reorganizing
code) fails here even if every unit test still passes.

The pinned hash is computed over catalog rows *rounded to 1e-3* (positions
in pixels, fluxes, colors, shape parameters), which is far coarser than any
real regression and far finer than the optimizer's own tolerance, so the
pin is robust to last-ulp BLAS/libm differences across machines while still
catching genuine result shifts.  That is the cross-commit, cross-machine
check.

Within one run of the suite the comparison is exact:
:func:`catalog_bits_digest` hashes every field's float64 bytes, and every
path that must give the golden run's result (batched, race-detected,
numeric-checked, process seats, the socket transport) has to reproduce the
thread run's digest bit for bit.  Bits are only promised within one
(NumPy, BLAS library, BLAS kernel) stamp — see ``docs/determinism.md`` —
so the pinned test prints the unrounded digest next to that stamp.

Three input pathologies run through the same survey and configuration
(``test_input_pathology_gives_the_right_catalog``): a fully masked field, a
field that shows only sky, and a PSF component that is a near-singular
needle.  Each must give a correct catalog on both executors and from field
files.

If this test fails after an *intentional* change to inference behavior
(new default, better optimizer, changed priors), regenerate the pin by
copying the digest the failing assertion prints into
``GOLDEN_CATALOG_SHA256`` — and say why in the commit message.
"""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from repro.core import JointConfig, OptimizeConfig
from repro.driver import DriverConfig, run_pipeline
from repro.parallel import ParallelRegionConfig
from repro.psf import MixturePSF
from repro.survey import (
    Image,
    SyntheticSkyConfig,
    generate_survey_fields,
    render_image,
    save_field,
)
from repro.validation import match_catalogs

pytestmark = pytest.mark.slow

#: Pinned content hash of the golden run's final catalog (see module
#: docstring for the regeneration protocol).
GOLDEN_CATALOG_SHA256 = (
    "7ce46d9a844ccf84f2bd48be76545b936a26886f32b3a686fa802165d9dc9c55"
)


def _golden_fields():
    # min_separation is generous so several sources per region are
    # conflict-free: the batched run must actually exercise lockstep
    # batches, not degenerate to singleton chunks.
    rng = np.random.default_rng(20180131)
    sky = SyntheticSkyConfig(
        source_density=90.0, min_separation=13.0, flux_floor=25.0
    )
    return generate_survey_fields(
        2, field_shape_hw=(48, 48), overlap=8.0,
        config=sky, rng=rng, bands=(1, 2),
    )


def _golden_config(elbo_batch_size=1):
    # Everything result-affecting is pinned explicitly so the golden run is
    # identical under every CI matrix cell (the executor env var is
    # overridden by the explicit config).
    return DriverConfig(
        n_nodes=2,
        executor="thread",
        target_weight=150.0,
        elbo_batch_size=elbo_batch_size,
        parallel=ParallelRegionConfig(
            n_threads=2,
            n_passes=1,
            joint=JointConfig(
                n_passes=1,
                single=OptimizeConfig(max_iter=12, grad_tol=1e-3),
            ),
        ),
    )


def _entry_row(e) -> np.ndarray:
    """Every field of one catalog entry as float64, ``None`` as NaN."""
    def opt(v, n=1):
        return np.full(n, np.nan) if v is None else np.ravel(v)

    return np.concatenate([
        e.position, [float(e.is_galaxy), e.flux_r], e.colors,
        [e.gal_frac_dev, e.gal_axis_ratio, e.gal_angle, e.gal_radius_px],
        opt(e.prob_galaxy), opt(e.flux_r_sd), opt(e.color_sd, len(e.colors)),
    ]).astype("<f8")


def catalog_bits_digest(catalog) -> str:
    """SHA-256 over the catalog's unrounded content: each entry's fields as
    little-endian float64 bytes, rows in canonical (byte-sorted) order."""
    rows = sorted(_entry_row(e).tobytes() for e in catalog)
    return hashlib.sha256(b"".join(rows)).hexdigest()


def bits_stamp() -> str:
    """What the bit contract is scoped to: NumPy's version, the BLAS it
    was built against, and the BLAS kernel (``OPENBLAS_CORETYPE``)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "numpy %s, blas %s %s, OPENBLAS_CORETYPE=%s" % (
        np.__version__, blas.get("name"), blas.get("version"),
        os.environ.get("OPENBLAS_CORETYPE", "auto"))


def catalog_content_hash(catalog) -> str:
    """SHA-256 over the catalog's rounded, canonically-ordered content."""
    rows = []
    for e in catalog:
        rows.append((
            round(float(e.position[0]), 3), round(float(e.position[1]), 3),
            bool(e.is_galaxy), round(float(e.flux_r), 3),
            tuple(round(float(c), 3) for c in e.colors),
            round(float(e.gal_frac_dev), 3),
            round(float(e.gal_axis_ratio), 3),
            round(float(e.gal_angle), 3),
            round(float(e.gal_radius_px), 3),
        ))
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


@pytest.fixture(scope="module")
def thread_catalog():
    """The golden run on the thread executor, once per module: the
    baseline every other leg must match bit for bit."""
    _, fields = _golden_fields()
    return run_pipeline(fields, _golden_config()).catalog


def _with_parallel(config, **kw):
    return dataclasses.replace(
        config, parallel=dataclasses.replace(config.parallel, **kw))


class TestGoldenPipeline:
    def test_catalog_hash_pinned(self, thread_catalog):
        assert len(thread_catalog) >= 8  # the scene is non-trivial
        digest = catalog_content_hash(thread_catalog)
        bits = "unrounded digest %s (%s)" % (
            catalog_bits_digest(thread_catalog), bits_stamp())
        print("\ngolden run: " + bits)
        assert digest == GOLDEN_CATALOG_SHA256, (
            "End-to-end catalog content changed (got %s; %s). If this is "
            "an intentional inference change, make that digest the pin "
            "and document why; otherwise a refactor has shifted results."
            % (digest, bits)
        )

    def _assert_same_bits(self, catalog, thread_catalog):
        assert catalog_content_hash(catalog) == GOLDEN_CATALOG_SHA256
        assert (catalog_bits_digest(catalog)
                == catalog_bits_digest(thread_catalog))

    def test_batched_run_matches_same_pin(self, thread_catalog):
        """The batched evaluation path must land on the thread run's exact
        bits — the bit-for-bit invariant, asserted end to end."""
        _, fields = _golden_fields()
        result = run_pipeline(fields, _golden_config(elbo_batch_size=8))
        assert result.counters["elbo_batch_calls"] > 0
        self._assert_same_bits(result.catalog, thread_catalog)

    def test_race_detected_run_matches_same_pin(self, thread_catalog):
        """Full determinism instrumentation (shadow-transport race
        detection + static schedule verification) is observational: the
        golden run under it reports no races and lands on the same bits."""
        _, fields = _golden_fields()
        config = _with_parallel(
            _golden_config(), race_detect=True, verify_schedule=True)
        result = run_pipeline(fields, config)
        assert result.report.race_reports == []
        self._assert_same_bits(result.catalog, thread_catalog)

    def test_numeric_checked_run_matches_same_pin(self, thread_catalog):
        """The runtime numeric sanitizer is observational: the golden run
        under full checking (scalar and batched paths both feed the same
        pin) reports no findings and lands on the same bits."""
        _, fields = _golden_fields()
        config = _with_parallel(
            _golden_config(elbo_batch_size=8), numeric_check=True)
        result = run_pipeline(fields, config)
        assert result.report.numeric_reports == []
        self._assert_same_bits(result.catalog, thread_catalog)

    def test_process_run_matches_thread_bits(self, thread_catalog):
        """Process seats (which always read and write the catalog over the
        socket transport) give the thread run's exact bits."""
        _, fields = _golden_fields()
        config = dataclasses.replace(_golden_config(), executor="process")
        self._assert_same_bits(
            run_pipeline(fields, config).catalog, thread_catalog)

    def test_socket_transport_run_matches_thread_bits(self, thread_catalog):
        """Thread seats over the socket transport (every row moved through
        the TCP server rather than the in-process store) give the thread
        run's exact bits."""
        _, fields = _golden_fields()
        config = dataclasses.replace(
            _golden_config(), pgas_transport="socket")
        self._assert_same_bits(
            run_pipeline(fields, config).catalog, thread_catalog)


# ---------------------------------------------------------------------------
# Input pathologies through the driver


def _fully_masked(images):
    """Every pixel masked, and NaN underneath: no evidence at all."""
    return [Image(pixels=np.full(im.pixels.shape, np.nan), meta=im.meta,
                  mask=np.ones(im.pixels.shape, dtype=bool))
            for im in images]


def _sky_only(images):
    """A fresh Poisson draw of the sky alone: the field shows no source."""
    rng = np.random.default_rng(0)
    return [render_image([], im.meta, im.pixels.shape, rng=rng)
            for im in images]


#: Correlation of the near-singular PSF component: ``MixturePSF`` accepts
#: it (the determinant is still positive), yet the component is a needle.
_NEEDLE_RHO = 1.0 - 1e-12


def _needle_psf(images):
    """Each image's first PSF component made near-singular (the pixels
    stay as drawn): the kernel inverts a covariance with determinant
    ~2e-12 of its diagonal product."""
    out = []
    for im in images:
        psf = im.meta.psf
        covs = psf.covs.copy()
        off = _NEEDLE_RHO * np.sqrt(covs[0, 0, 0] * covs[0, 1, 1])
        covs[0, 0, 1] = covs[0, 1, 0] = off
        meta = dataclasses.replace(
            im.meta, psf=MixturePSF(psf.weights, psf.means, covs))
        out.append(Image(pixels=im.pixels, meta=meta, mask=im.mask))
    return out


#: name -> (the golden fields -> the pathological fields, the field whose
#: pixels carry no evidence or None, the catalog size the golden survey
#: gives).
PATHOLOGIES = {
    "fully_masked_field": (
        lambda fields: [_fully_masked(fields[0]), fields[1]], 0, 6),
    "sky_only_field": (
        lambda fields: [fields[0], _sky_only(fields[1])], 1, 8),
    "near_singular_psf": (
        lambda fields: [_needle_psf(images) for images in fields], None, 13),
}

#: (pathology) -> the first leg's unrounded digest; every leg must match.
_PATHOLOGY_BITS = {}


def _outside(images, position):
    """Whether ``position`` lies outside every image of one field."""
    return not any(im.contains_sky(position) for im in images)


@pytest.mark.parametrize("leg", ["thread", "process", "disk"])
@pytest.mark.parametrize("pathology", sorted(PATHOLOGIES))
def test_input_pathology_gives_the_right_catalog(pathology, leg, tmp_path):
    """Each pathology runs to a correct catalog, with no error, hang or
    leak, on thread seats, on process seats, and from field files
    (``save_field`` / ``load_field``, read by process seats).

    Correct means: every entry is finite and matches a true source (none
    stands on pixels that carry no evidence); every true source outside the
    evidence-free field is found; the catalog has the size the survey
    gives; and the three legs agree bit for bit."""
    truth, fields = _golden_fields()
    transform, blind, expect_n = PATHOLOGIES[pathology]
    fields = transform(fields)
    config = _golden_config()
    if leg != "thread":
        config = dataclasses.replace(config, executor="process")
    source = fields
    if leg == "disk":
        source = [str(tmp_path / ("field%d.npz" % i))
                  for i in range(len(fields))]
        for path, images in zip(source, fields):
            save_field(path, images)
    catalog = run_pipeline(source, config).catalog

    for e in catalog:
        assert np.isfinite(e.position).all() and np.isfinite(e.flux_r)
        assert np.isfinite(e.colors).all()
        assert np.isfinite([e.gal_frac_dev, e.gal_axis_ratio, e.gal_angle,
                            e.gal_radius_px]).all()
    match = match_catalogs(truth, catalog)
    assert match.unmatched_estimate == []
    expected = [t for t in truth
                if blind is None or _outside(fields[blind], t.position)]
    found = {id(t) for t, _ in match.pairs}
    assert all(id(t) in found for t in expected)
    if blind is not None:
        # Sources seen only by the evidence-free field are not invented.
        others = [im for k, images in enumerate(fields) if k != blind
                  for im in images]
        assert all(any(im.contains_sky(e.position) for im in others)
                   for e in catalog)
    assert len(catalog) == expect_n
    bits = catalog_bits_digest(catalog)
    assert _PATHOLOGY_BITS.setdefault(pathology, bits) == bits


@pytest.mark.xfail(strict=True, reason=(
    "photo/detect.py drops peaks within 2 px of any image border: with "
    "field 0 fully masked, the truth at x = 40.9 lies 1.4 px inside field "
    "1 (which spans x in [39.5, 87.5]) and no other field sees it, so it "
    "gets no entry, while the truth at x = 43.3 and the 5 beyond field 0 "
    "do"))
def test_fully_masked_field_finds_what_the_other_field_sees():
    """With field 0 fully masked (thread seats), every true source that
    field 1 covers is found — the overlap's too, which only field 1 still
    sees."""
    truth, fields = _golden_fields()
    fields = PATHOLOGIES["fully_masked_field"][0](fields)
    catalog = run_pipeline(fields, _golden_config()).catalog
    found = {id(t) for t, _ in match_catalogs(truth, catalog).pairs}
    seen = [t for t in truth if not _outside(fields[1], t.position)]
    assert [tuple(map(float, t.position)) for t in seen
            if id(t) not in found] == []
