"""The Celeste variational-inference core.

This package implements the paper's primary contribution: the generative
model over astronomical images (Section III), the per-source evidence lower
bound with exact gradients and Hessians, Newton/trust-region single-source
optimization, and block-coordinate joint optimization over sky regions
(Section IV-D).
"""

from repro.core.params import (
    FREE,
    CANONICAL,
    ParamLayout,
    SourceParams,
    canonical_to_free,
    free_to_canonical,
)
from repro.core.priors import Priors, default_priors
from repro.core.catalog import CatalogEntry, Catalog
from repro.core.elbo import (
    ElboEval,
    SourceContext,
    compile_elbo_batch,
    elbo,
    elbo_batch,
    make_context,
)
from repro.core.single import (
    OptimizeConfig,
    SourceResult,
    optimize_source,
    optimize_sources_batch,
)
from repro.core.joint import JointConfig, optimize_region
from repro.core.uncertainty import posterior_summary

__all__ = [
    "FREE",
    "CANONICAL",
    "ParamLayout",
    "SourceParams",
    "canonical_to_free",
    "free_to_canonical",
    "Priors",
    "default_priors",
    "CatalogEntry",
    "Catalog",
    "ElboEval",
    "SourceContext",
    "compile_elbo_batch",
    "elbo",
    "elbo_batch",
    "make_context",
    "OptimizeConfig",
    "SourceResult",
    "optimize_source",
    "optimize_sources_batch",
    "JointConfig",
    "optimize_region",
    "posterior_summary",
]
