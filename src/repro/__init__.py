"""repro — a Python reproduction of Celeste (Regier et al., IPDPS 2018):
cataloging the visible universe through Bayesian inference at petascale.

Top-level convenience exports cover the primary user journey: generate or
load survey imagery, run joint variational inference, and read out a
catalog with calibrated posterior uncertainty.  Each subsystem (the ELBO
kernel, optimization, scheduling, cluster simulation, ...) lives in its
own subpackage; see the package docstrings and DESIGN.md for the map from
paper sections to modules.
"""

from repro.core import (
    Catalog,
    CatalogEntry,
    JointConfig,
    OptimizeConfig,
    Priors,
    default_priors,
    fit_priors,
    make_context,
    optimize_region,
    optimize_source,
    posterior_summary,
)

__version__ = "1.0.0"

__all__ = [
    "Catalog",
    "CatalogEntry",
    "JointConfig",
    "OptimizeConfig",
    "Priors",
    "default_priors",
    "fit_priors",
    "make_context",
    "optimize_region",
    "optimize_source",
    "posterior_summary",
    "match_catalogs",
    "score_catalog",
    "__version__",
]


def __getattr__(name: str):
    # ``match_catalogs``/``score_catalog`` resolve on first use: every
    # spawned node-worker imports this package and never scores a catalog.
    if name in ("match_catalogs", "score_catalog"):
        from repro import validation

        return getattr(validation, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
