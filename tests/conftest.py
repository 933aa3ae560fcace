"""Shared randomized test harness for the objective and optimizer suites.

Every backend- and optimizer-correctness test wants the same two things: a
reproducible, non-trivial :class:`~repro.core.elbo.SourceContext` (rendered
images with noise, a deliberately awkward WCS, optional masked pixels, a
perturbable free vector) and a way to compare two evaluations' value /
gradient / Hessian surfaces.  They are built once here — as the
``make_random_context`` factory and the ``assert_d012_close`` comparator —
so the pixel-parity, KL-parity, batched-parity, and lockstep-optimizer
tests all draw from one generator instead of each re-growing its own
ad-hoc copy.

Test modules consume these through fixtures (pytest injects them by name),
which sidesteps the two-``conftest.py``-modules import ambiguity that a
plain ``from conftest import ...`` would hit in this layout.

Also here: the driver and transport suites' leak fixture
(``no_driver_leaks``).
"""

import dataclasses
import glob
import multiprocessing
import os
import tempfile
import threading

import numpy as np
import pytest

from repro.core import CatalogEntry, default_priors, make_context
from repro.core.params import FREE, canonical_to_free
from repro.core.single import initial_params
from repro.perf.counters import Counters
from repro.psf import default_psf
from repro.survey import AffineWCS, ImageMeta, render_image

#: Canonical randomized-test sources: a bright-ish star and a structured
#: galaxy, positioned for the default (28, 28) patch.
STAR_ENTRY = CatalogEntry(position=[14.0, 13.0], is_galaxy=False, flux_r=25.0,
                          colors=[1.5, 1.1, 0.25, 0.05])
GAL_ENTRY = CatalogEntry(position=[14.0, 13.0], is_galaxy=True, flux_r=60.0,
                         colors=[0.7, 0.45, 0.6, 0.45], gal_radius_px=2.0,
                         gal_axis_ratio=0.6, gal_angle=0.8, gal_frac_dev=0.4)

#: Deliberately non-trivial WCS solutions: rotation, shear, anisotropic
#: scale, and plain offsets — the fused backend chains positions through
#: the affine map and must agree on all of them.
WCS_LIST = [
    AffineWCS.translation(0.0, 0.0),
    AffineWCS(np.array([[0.9, 0.2], [-0.15, 1.1]]),
              np.array([1.0, -0.5]), np.array([3.0, 2.0])),
    AffineWCS(np.array([[1.1, 0.0], [0.0, 0.95]]),
              np.zeros(2), np.array([0.3, 0.1])),
    AffineWCS.translation(0.5, -0.25),
    AffineWCS.translation(-1.0, 1.0),
]

_ENTRIES = {"star": STAR_ENTRY, "galaxy": GAL_ENTRY}


def _random_context(
    entry="star",
    seed: int = 0,
    n_visits: int = 3,
    bands=None,
    patch_shape: tuple = (28, 28),
    mask: bool = False,
    priors=None,
    perturb: float = 0.0,
    psf_width: float = 3.0,
    with_entry: bool = False,
):
    """Build a seeded ``(SourceContext, free_vector)`` pair.

    Parameters
    ----------
    entry:
        ``"star"``, ``"galaxy"``, or an explicit :class:`CatalogEntry`; the
        source is re-centered for ``patch_shape``.
    n_visits / bands:
        Number of images covering the source (``bands`` overrides the
        band assignment; visits may repeat a band, as real surveys do).
    patch_shape:
        ``(h, w)`` of each rendered image — and therefore of the source's
        active patch.
    mask:
        Mask a strided subset of pixels, exercising ragged active-pixel
        sets.
    priors:
        Model priors (default :func:`default_priors`); pair with the
        ``perturbed_priors`` fixture for randomized prior configurations.
    perturb:
        Scale of a seeded Gaussian perturbation added to the free vector,
        moving it off the initialization manifold.
    with_entry:
        Also return the (re-centered) catalog entry, for tests that feed
        the context into a full optimization.
    """
    if isinstance(entry, str):
        entry = _ENTRIES[entry]
    h, w = patch_shape
    entry = dataclasses.replace(entry, position=[w / 2.0, h / 2.0 - 1.0])
    if bands is None:
        bands = tuple((1 + i) % 5 for i in range(n_visits))
    if priors is None:
        priors = default_priors()
    rng = np.random.default_rng(seed)
    images = []
    for band in bands:
        meta = ImageMeta(band=band, wcs=WCS_LIST[band % len(WCS_LIST)],
                         psf=default_psf(psf_width), sky_level=100.0,
                         calibration=100.0)
        im = render_image([entry], meta, patch_shape, rng=rng)
        if mask:
            m = np.zeros(im.pixels.shape, dtype=bool)
            m[::7, ::5] = True
            im = dataclasses.replace(im, mask=m)
        images.append(im)
    ctx = make_context(images, entry.position, priors, counters=Counters())
    free = canonical_to_free(
        initial_params(entry, ctx.priors).to_canonical(), ctx.u_center
    )
    if perturb:
        free = free + perturb * rng.standard_normal(free.shape)
    if with_entry:
        return ctx, free, entry
    return ctx, free


def _perturbed_priors(seed: int):
    """A randomized prior configuration: non-uniform mixture weights,
    shifted component means, rescaled variances, asymmetric type prior."""
    rng = np.random.default_rng(seed)
    p = default_priors()
    kw = rng.uniform(0.2, 1.0, p.k_weights.shape)
    kw /= kw.sum(axis=0, keepdims=True)
    return dataclasses.replace(
        p,
        prob_galaxy=float(rng.uniform(0.05, 0.95)),
        r_loc=p.r_loc + rng.normal(0.0, 0.5, p.r_loc.shape),
        r_var=p.r_var * rng.uniform(0.5, 2.0, p.r_var.shape),
        k_weights=kw,
        c_mean=p.c_mean + rng.normal(0.0, 0.3, p.c_mean.shape),
        c_var=p.c_var * rng.uniform(0.5, 2.0, p.c_var.shape),
    )


def _d012_close(out, ref, order: int, rtol: float = 1e-9,
                n_params: int = FREE.size) -> None:
    """Assert two evaluations agree on value, dense gradient, and dense
    Hessian to ``rtol`` (derivative tolerances are scaled by the reference
    magnitude), that the Hessian is symmetric, and that both are honest
    about the requested ``order`` (no Hessian below order 2)."""
    np.testing.assert_allclose(float(out.val), float(ref.val), rtol=rtol)
    if order >= 1:
        g_ref = ref.gradient(n_params)
        g_out = out.gradient(n_params)
        np.testing.assert_allclose(g_out, g_ref, rtol=rtol,
                                   atol=rtol * (1.0 + np.abs(g_ref).max()))
    if order >= 2:
        h_ref = ref.hessian(n_params)
        h_out = out.hessian(n_params)
        np.testing.assert_allclose(h_out, h_ref, rtol=rtol,
                                   atol=rtol * (1.0 + np.abs(h_ref).max()))
        np.testing.assert_allclose(h_out, h_out.T, atol=1e-10)
    else:
        assert out.hess is None
        assert ref.hess is None


@pytest.fixture
def make_random_context():
    """The seeded random-context factory (see :func:`_random_context`)."""
    return _random_context


@pytest.fixture
def perturbed_priors():
    """Seeded randomized prior configurations for KL-term tests."""
    return _perturbed_priors


@pytest.fixture
def assert_d012_close():
    """Value/gradient/Hessian comparator (see :func:`_d012_close`)."""
    return _d012_close


@pytest.fixture
def star_entry():
    return dataclasses.replace(STAR_ENTRY)


@pytest.fixture
def galaxy_entry():
    return dataclasses.replace(GAL_ENTRY)


def _driver_scratch_dirs():
    """The spill directories process pools make for a run."""
    return set(glob.glob(os.path.join(tempfile.gettempdir(),
                                      "repro-driver-*")))


@pytest.fixture
def driver_scratch_dirs():
    return _driver_scratch_dirs


def _listening_sockets():
    """Inodes of the TCP sockets this process holds in LISTEN state (from
    ``/proc``; empty where there is none)."""
    listening = set()
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            with open(table) as f:
                rows = [line.split() for line in f.readlines()[1:]]
        except OSError:
            continue
        listening.update(row[9] for row in rows if row[3] == "0A")
    held = set()
    for fd in glob.glob("/proc/self/fd/*"):
        try:
            target = os.readlink(fd)
        except OSError:  # the fd glob itself opened and closed one
            continue
        if target.startswith("socket:["):
            held.add(target[len("socket:["):-1])
    return listening & held


@pytest.fixture
def no_driver_leaks():
    """After the test — however it ended — nothing of the driver is left
    running or lying around: no seat, pump, collector or PGAS socket-server
    thread (they are all named ``repro-*``), no child process (a test that
    owns a ``WorkerPool`` closes it first), no new spill directory, no new
    listening socket (a ``SocketTransport`` nobody ``unlink()``ed)."""
    before = _driver_scratch_dirs()
    listening = _listening_sockets()
    yield
    assert [t.name for t in threading.enumerate()
            if t.name.startswith("repro-")] == []
    assert multiprocessing.active_children() == []
    assert _driver_scratch_dirs() <= before
    assert _listening_sockets() <= listening
