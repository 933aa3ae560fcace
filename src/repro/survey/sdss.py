"""Survey layout: stripes, runs, and overlapping fields.

SDSS scans the sky in *stripes* along great circles; each night's scan is a
*run* consisting of consecutive *fields* (Figure 3 of the paper).  Adjacent
fields within a run overlap by ~10%, adjacent runs overlap laterally, and
Stripe 82 was imaged ~80 times.  This module reproduces that geometry on the
flat synthetic sky so that (a) most sources appear in several images and (b)
coverage is non-uniform — both load-bearing facts for the paper's task
decomposition and scaling story.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.catalog import Catalog
from repro.survey.image import Image
from repro.survey.synth import SyntheticSkyConfig, generate_catalog, generate_field_images

__all__ = ["FieldSpec", "SurveyConfig", "SurveyLayout", "build_survey", "stripe82"]


@dataclass(frozen=True)
class FieldSpec:
    """Geometry of one field: where it sits on the sky."""

    run: int
    camcol: int
    field: int
    epoch: int
    origin: tuple[float, float]
    shape_hw: tuple[int, int]

    @property
    def field_id(self) -> tuple:
        return (self.run, self.camcol, self.field)

    def bounds(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) sky bounds."""
        return (
            self.origin[0], self.origin[0] + self.shape_hw[1],
            self.origin[1], self.origin[1] + self.shape_hw[0],
        )


@dataclass
class SurveyConfig:
    """Layout parameters of a synthetic survey region.

    Defaults give a small but structurally faithful survey: two overlapping
    runs of overlapping fields.  Field sizes are kept modest so tests run
    quickly; the geometry (overlap fractions) matches SDSS.
    """

    field_width: int = 100
    field_height: int = 80
    fields_per_run: int = 3
    n_runs: int = 2
    overlap_frac: float = 0.1
    run_overlap_frac: float = 0.25
    sky: SyntheticSkyConfig = field(default_factory=SyntheticSkyConfig)


@dataclass
class SurveyLayout:
    """A generated survey: geometry, ground truth, and pixel data."""

    config: SurveyConfig
    field_specs: list[FieldSpec]
    truth: Catalog
    images: list[Image]

    def sky_bounds(self) -> tuple[float, float, float, float]:
        xs0 = [s.bounds()[0] for s in self.field_specs]
        xs1 = [s.bounds()[1] for s in self.field_specs]
        ys0 = [s.bounds()[2] for s in self.field_specs]
        ys1 = [s.bounds()[3] for s in self.field_specs]
        return min(xs0), max(xs1), min(ys0), max(ys1)

    def images_covering(self, position: np.ndarray, margin: float = 5.0) -> list[Image]:
        """All images whose footprint contains the sky position."""
        return [im for im in self.images if im.contains_sky(position, margin=margin)]

    def coverage_counts(self) -> np.ndarray:
        """Number of images covering each source — between 5 and 480 in real
        SDSS (paper Section IV-A); non-uniform here too."""
        return np.array([
            len(self.images_covering(e.position)) for e in self.truth
        ])


def plan_fields(config: SurveyConfig, epoch: int = 0, run_offset: int = 0) -> list[FieldSpec]:
    """Lay out field origins for every run of a survey epoch."""
    specs = []
    step_x = config.field_width * (1.0 - config.overlap_frac)
    step_y = config.field_height * (1.0 - config.run_overlap_frac)
    for run in range(config.n_runs):
        for f in range(config.fields_per_run):
            specs.append(FieldSpec(
                run=run + 1000 * epoch + run_offset,
                camcol=1,
                field=f,
                epoch=epoch,
                origin=(f * step_x, run * step_y),
                shape_hw=(config.field_height, config.field_width),
            ))
    return specs


def build_survey(
    config: SurveyConfig | None = None,
    rng: np.random.Generator | None = None,
    n_epochs: int = 1,
) -> SurveyLayout:
    """Generate a full synthetic survey: truth catalog + all field images.

    With ``n_epochs > 1`` every field is imaged repeatedly under varying
    conditions (the Stripe-82 situation).
    """
    if config is None:
        config = SurveyConfig()
    if rng is None:
        rng = np.random.default_rng()

    specs: list[FieldSpec] = []
    for epoch in range(n_epochs):
        specs.extend(plan_fields(config, epoch=epoch))

    # Ground truth spans the union footprint plus a margin, so edge sources
    # half-off every image still exist.
    x_max = max(s.bounds()[1] for s in specs)
    y_max = max(s.bounds()[3] for s in specs)
    truth = generate_catalog((0.0, x_max), (0.0, y_max), config.sky, rng=rng)

    images: list[Image] = []
    for spec in specs:
        images.extend(generate_field_images(
            truth,
            origin=spec.origin,
            shape_hw=spec.shape_hw,
            config=config.sky,
            rng=rng,
            field_id=spec.field_id,
            epoch=spec.epoch,
        ))
    return SurveyLayout(config=config, field_specs=specs, truth=truth, images=images)


def stripe82(
    config: SurveyConfig | None = None,
    n_epochs: int = 20,
    rng: np.random.Generator | None = None,
) -> SurveyLayout:
    """A Stripe-82-style survey: the same sky imaged ``n_epochs`` times.

    The real Stripe 82 has ~80 epochs; 20 is enough to make the stacked
    epochs' signal-to-noise dominate single-epoch imaging while keeping
    tests fast.
    """
    if config is None:
        config = SurveyConfig(n_runs=1, fields_per_run=2)
    return build_survey(config=config, rng=rng, n_epochs=n_epochs)
