"""Synthetic SDSS-like survey substrate.

The paper processes 55 TB of real SDSS imaging.  This package provides the
equivalent code path on synthetic data: a survey layout of stripes, runs and
fields (with overlapping coverage, per-field PSF/sky/calibration), a renderer
that draws Poisson pixels from the generative model, Stripe-82-style repeated
imaging, and on-disk field files.
"""

from repro.survey.wcs import AffineWCS
from repro.survey.image import Image, ImageMeta
from repro.survey.render import (
    expected_image,
    render_image,
    source_patch,
    source_radius,
)
from repro.survey.synth import (
    SyntheticSkyConfig,
    generate_catalog,
    generate_field_images,
    generate_survey_fields,
)
from repro.survey.sdss import SurveyConfig, SurveyLayout, FieldSpec, build_survey, stripe82
from repro.survey.io import (
    save_field,
    load_field,
    field_metadata,
    field_file_size,
    FieldPrefetcher,
)

__all__ = [
    "AffineWCS",
    "Image",
    "ImageMeta",
    "expected_image",
    "render_image",
    "source_patch",
    "source_radius",
    "SyntheticSkyConfig",
    "generate_catalog",
    "generate_field_images",
    "generate_survey_fields",
    "SurveyConfig",
    "SurveyLayout",
    "FieldSpec",
    "build_survey",
    "stripe82",
    "save_field",
    "load_field",
    "field_metadata",
    "field_file_size",
    "FieldPrefetcher",
]
