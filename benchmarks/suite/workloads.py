"""The four workloads: pinned surveys, driver configs, set-up.

**What ``--seed`` draws.**  The sky (source positions, fluxes, shapes) and
the per-field observing conditions (seeing, sky level, calibration) are
pinned with :data:`spec.DEFAULT_SEED`; ``--seed`` draws the photon noise
of every pixel.  Seeding the whole generator instead lets the Poisson
source count (+-10%) and the PSF jitter (+-8% active pixels) set the wall
clock, and no bound a benchmark may declare resolves over that.  With the
layout pinned and every source bright (``FLUX_FLOOR``), ten seeds do the
same amount of work to within half a percent, and what is left is the
machine.  The program sees only the generated fields either way.

Optimizer settings are the issue's and the surveys half its size (see
README.md); ``smoke`` swaps in surveys small enough for the whole suite to
finish in seconds.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import time

import numpy as np

from repro.core.joint import JointConfig
from repro.core.single import OptimizeConfig
from repro.driver import DriverConfig, run_pipeline
from repro.parallel import ParallelRegionConfig
from repro.psf import default_psf
from repro.survey import (
    AffineWCS,
    ImageMeta,
    SyntheticSkyConfig,
    generate_catalog,
    render_image,
    save_field,
)

import spec

OVERLAP = 8.0
EDGE_MARGIN = 6.0
BANDS = (2,)
#: Every source is bright.  At the issue's floor of 20, noise decides
#: whether ``photo`` detects the faint sources and calls them galaxies, and
#: through the patch radius how many pixels each costs: ten noise seeds
#: spread 5-10% in active-pixel visits, as much as the machine adds.  At 250
#: they spread 0.4% (one seed in six of the wide survey deblends a galaxy
#: in two, +15%), and the time per visit is the same.
FLUX_FLOOR = 250.0

_WIDE_SKY = dict(n_fields=2, shape_hw=(96, 96), source_density=40.0,
                 min_separation=20.0)
_SPARSE_SKY = dict(n_fields=6, shape_hw=(40, 40), source_density=90.0,
                   min_separation=8.0)
_SMOKE_SKY = dict(n_fields=2, shape_hw=(32, 32), source_density=120.0,
                  min_separation=8.0)


@dataclasses.dataclass
class Workload:
    """One workload's inputs and how to run it."""

    name: str
    sky: dict
    config: DriverConfig
    #: Pass ``save_field`` paths to the driver instead of image lists.
    on_disk: bool = False
    #: Give every timed call its own ``checkpoint_path``.
    checkpoint: bool = False
    #: Set-up pre-runs ``stop_after="stage0"``; timed calls resume from it.
    resume: bool = False
    #: ``correct`` is false outside these (floors for "higher" metrics,
    #: ceilings for the error metrics); twice the worst seed of ten.
    gates: dict = dataclasses.field(default_factory=dict)


def _config(max_iter: int, target_weight: float, *, elbo_batch_size=None,
            cyclades_batch=None, **driver) -> DriverConfig:
    parallel = ParallelRegionConfig(
        n_threads=1, n_passes=1, batch_size=cyclades_batch,
        joint=JointConfig(
            n_passes=1,
            single=OptimizeConfig(max_iter=max_iter, grad_tol=1e-3),
        ),
    )
    driver.setdefault("executor", "thread")
    driver.setdefault("n_nodes", 1)
    driver.setdefault("pgas_transport", "local")
    return DriverConfig(
        target_weight=target_weight, two_stage=True,
        elbo_batch_size=elbo_batch_size, parallel=parallel, **driver,
    )


def get(name: str, smoke: bool = False) -> Workload:
    """The named workload (its tiny stand-in under ``smoke``)."""
    sparse_cfg = _config(8, 30.0)
    sparse_gates = {"completeness": 0.80, "position_err_px": 0.30,
                    "brightness_err_mag": 0.80}
    table = {
        "wide_batched": Workload(
            "wide_batched", _WIDE_SKY,
            _config(12, 4000.0, elbo_batch_size=16, cyclades_batch=32),
            gates={"completeness": 0.95, "position_err_px": 0.04,
                   "brightness_err_mag": 0.02},
        ),
        "sparse_scalar": Workload(
            "sparse_scalar", _SPARSE_SKY, sparse_cfg, gates=sparse_gates),
        "process_disk": Workload(
            "process_disk", _SPARSE_SKY,
            dataclasses.replace(
                sparse_cfg, executor="process", n_nodes=2,
                pgas_transport="socket", task_checkpoint=True),
            on_disk=True, checkpoint=True, gates=sparse_gates,
        ),
        "resume_stage1": Workload(
            "resume_stage1", _SPARSE_SKY,
            dataclasses.replace(sparse_cfg, task_checkpoint=True),
            on_disk=True, checkpoint=True, resume=True, gates=sparse_gates,
        ),
    }
    if name not in table:
        raise KeyError("unknown workload %r (have %s)"
                       % (name, ", ".join(sorted(table))))
    w = table[name]
    if smoke:
        # Four sources prove nothing about accuracy; keep only a floor
        # that a broken pipeline (empty catalog) fails.
        w = dataclasses.replace(w, sky=_SMOKE_SKY,
                                gates={"completeness": 0.5})
    return w


def generate_survey(sky: dict, seed: int):
    """``(truth, fields)``: the pinned strip of overlapping fields with
    photon noise drawn from ``seed``.

    Same layout as :func:`repro.survey.generate_survey_fields` (fields
    shifted by ``width - overlap`` along a row, one truth catalog over the
    union footprint), composed from its public parts so that the sky and
    the conditions draw from one generator and the noise from another.
    """
    n_fields = sky["n_fields"]
    h, w = sky["shape_hw"]
    config = SyntheticSkyConfig(
        source_density=sky["source_density"],
        min_separation=sky["min_separation"], flux_floor=FLUX_FLOOR,
    )
    pinned = np.random.default_rng(spec.DEFAULT_SEED)
    noise = np.random.default_rng(seed)
    step = w - OVERLAP
    x_max = (n_fields - 1) * step + w
    truth = generate_catalog(
        (EDGE_MARGIN, x_max - EDGE_MARGIN), (EDGE_MARGIN, h - EDGE_MARGIN),
        config, pinned,
    )

    def jitter() -> float:
        return float(np.exp(pinned.normal(0.0, config.condition_jitter)))

    fields = []
    for f in range(n_fields):
        images = []
        for band in BANDS:
            meta = ImageMeta(
                band=band,
                wcs=AffineWCS.translation(f * step, 0.0),
                psf=default_psf(fwhm=config.psf_fwhm * jitter()),
                sky_level=config.sky_level * jitter(),
                calibration=config.calibration * jitter(),
                field_id=(1, 1, f),
            )
            images.append(render_image(truth, meta, (h, w), rng=noise))
        fields.append(images)
    return truth, fields


@dataclasses.dataclass
class Prepared:
    """A workload after set-up, ready for timed calls."""

    workload: Workload
    truth: object
    #: In-memory image lists (always; the layer replay reads them).
    fields: list
    #: What ``run_pipeline`` is given: ``fields`` or their file paths.
    inputs: list
    workdir: str
    #: Seconds at the reference box's speed (see ``prepare``).
    setup_s: float
    #: Counters and report of the stage-0 pre-run a resumed call starts
    #: from (empty otherwise): subtracted to get *this call's* work.
    baseline_counters: dict = dataclasses.field(default_factory=dict)
    baseline_report: dict = dataclasses.field(default_factory=dict)
    _stage0_dir: str | None = None
    _calls: int = 0

    def call_config(self) -> DriverConfig:
        """The config for one more timed call: a fresh checkpoint
        directory each time, primed with the stage-0 files on resume (a
        finished call leaves a *final* checkpoint behind, which a second
        call would simply load)."""
        w = self.workload
        if not w.checkpoint:
            return w.config
        self._calls += 1
        ckpt_dir = os.path.join(self.workdir, "ckpt-%d" % self._calls)
        if w.resume:
            shutil.copytree(self._stage0_dir, ckpt_dir)
        else:
            os.makedirs(ckpt_dir)
        return dataclasses.replace(
            w.config, checkpoint_path=os.path.join(ckpt_dir, "ckpt.json"))


def _write_fields(fields: list, directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, images in enumerate(fields):
        path = os.path.join(directory, "field%03d.npz" % i)
        save_field(path, images)
        paths.append(path)
    return paths


def prepare(workload: Workload, seed: int, workdir: str, probe,
            setup_repeats: int = 15) -> Prepared:
    """Set the workload up ``setup_repeats`` times (same seed, same
    files) and once more for the stage-0 pre-run where there is one.

    ``setup_s`` is the median generate-and-write time plus the pre-run
    (a whole optimization stage, done once), each at the reference box's
    speed: divided by the slowdown ``probe`` (a ``machine.SpeedProbe``)
    measures right before and after it.  A set-up takes tens of
    milliseconds and the machine changes pace several times a second, so
    one reference chunk runs between every two set-ups: over 24 runs
    that figure spreads 2.5% (IQR/median) where the median set-up over
    one window on either side of them all spreads 8%, and raw 12-17%.
    """
    ratios = []
    probe.sample(1)
    for _ in range(setup_repeats):
        t0 = time.perf_counter()
        truth, fields = generate_survey(workload.sky, seed)
        inputs = fields
        if workload.on_disk:
            inputs = _write_fields(fields, os.path.join(workdir, "fields"))
        seconds = time.perf_counter() - t0
        probe.sample(1)
        ratios.append(seconds / probe.around())
    prepared = Prepared(workload, truth, fields, inputs, workdir,
                        setup_s=statistics.median(ratios))
    if workload.resume:
        stage0_dir = os.path.join(workdir, "stage0")
        os.makedirs(stage0_dir)
        config = dataclasses.replace(
            workload.config, stop_after="stage0",
            checkpoint_path=os.path.join(stage0_dir, "ckpt.json"))
        probe.sample()
        t0 = time.perf_counter()
        pre = run_pipeline(inputs, config)
        seconds = time.perf_counter() - t0
        probe.sample()
        prepared.setup_s += seconds / probe.around()
        prepared.baseline_counters = dict(pre.counters)
        prepared.baseline_report = pre.report.as_dict()
        prepared._stage0_dir = stage0_dir
    return prepared
