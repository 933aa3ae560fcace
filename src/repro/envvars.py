"""The central registry of ``REPRO_*`` environment variables.

Every knob the reproduction reads from the environment is declared here —
name, type, default, provenance class, and the one-line contract a run can
rely on — and every read goes through this module (:func:`env_raw` /
:func:`env_flag` / :func:`env_int`).  The DET109 lint rule rejects any other
``os.environ`` access to a ``REPRO_*`` name, so a grep of this file *is* the
complete inventory, and the table in ``docs/determinism.md`` is generated
from it (:func:`registry_markdown`; a test keeps the two in sync).

Each entry declares its provenance class (see :mod:`repro.knobs`):
``fingerprinted`` variables resolve into a checkpoint-fingerprinted config
field; the rest are statically checked (KNOB3xx, ``python -m
repro.analysis``) and fuzzer-pinned to be result-neutral.  When a variable
is just the environment face of a config field, ``resolves_to`` names that
field (``"ClassName.field"``) and the KNOB301 rule holds the two
declarations in lockstep.

Reading a name that is not registered raises ``KeyError`` — an unregistered
variable is a contract violation, not a feature.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "ENV_REGISTRY",
    "EnvVar",
    "env_flag",
    "env_int",
    "env_raw",
    "registry_markdown",
]

#: Strings accepted as "on" for flag-typed variables (case-insensitive,
#: surrounding whitespace ignored).  Anything else — including unset — is off.
TRUTHY = ("1", "true", "yes", "on")


@dataclass(frozen=True)
class EnvVar:
    """One registered environment variable."""

    name: str
    #: "flag" (truthy strings enable), "int", or "str".
    kind: str
    #: Rendered in the generated table; the *effective* default when unset.
    default: str
    #: One-line contract, used verbatim in the generated docs table.
    doc: str
    #: Provenance class (:data:`repro.knobs.PROVENANCE_CLASSES`):
    #: "fingerprinted", "neutral", "observational", or "scheduling".
    provenance: str
    #: The config field this variable is the environment face of
    #: ("ClassName.field"), when there is one; KNOB301 cross-checks its
    #: declared provenance against that field's.
    resolves_to: str | None = None


_VARS = (
    EnvVar(
        "REPRO_ELBO_BACKEND", "str", "fused",
        "ELBO backend when no config pins one: `fused` (production closed "
        "forms) or `taylor` (the correctness oracle).",
        provenance="fingerprinted", resolves_to="OptimizeConfig.backend",
    ),
    EnvVar(
        "REPRO_DRIVER_EXECUTOR", "str", "thread",
        "Node-worker executor when `DriverConfig.executor` is unset: "
        "`thread` or `process`.",
        provenance="scheduling", resolves_to="DriverConfig.executor",
    ),
    EnvVar(
        "REPRO_PGAS_TRANSPORT", "str", "local (thread) / socket (process)",
        "PGAS transport backing the sharded catalog when "
        "`DriverConfig.pgas_transport` is unset: `local` (in-process) or "
        "`socket` (TCP one-sided RMA over loopback; the only choice for "
        "process workers).  Catalogs are bit-identical across transports.",
        provenance="scheduling", resolves_to="DriverConfig.pgas_transport",
    ),
    EnvVar(
        "REPRO_ELBO_BATCH", "int", "unset (one lane)",
        "Lane limit of a lockstep evaluation batch when no config sets one "
        "(every source optimization runs the one batched path at any limit).",
        provenance="fingerprinted",
        resolves_to="DriverConfig.elbo_batch_size",
    ),
    EnvVar(
        "REPRO_RACE_DETECT", "flag", "off",
        "Shadow-transport race detection when "
        "`ParallelRegionConfig.race_detect` is unset; findings surface in "
        "`DriverReport.race_reports`.",
        provenance="observational",
        resolves_to="ParallelRegionConfig.race_detect",
    ),
    EnvVar(
        "REPRO_VERIFY_SCHEDULE", "flag", "off",
        "Pre-execution static verification of every Cyclades schedule when "
        "`ParallelRegionConfig.verify_schedule` is unset (`ScheduleError` "
        "on violation).",
        provenance="observational",
        resolves_to="ParallelRegionConfig.verify_schedule",
    ),
    EnvVar(
        "REPRO_NUMERIC_CHECK", "flag", "off",
        "Runtime float sanitizer over ELBO evaluations and trust-region "
        "steps when `ParallelRegionConfig.numeric_check` is unset; findings "
        "surface in `DriverReport.numeric_reports`.",
        provenance="observational",
        resolves_to="ParallelRegionConfig.numeric_check",
    ),
    EnvVar(
        "REPRO_KERNEL_TARGET", "str", "numpy",
        "Fused-kernel execution target when no config pins one: `numpy` "
        "(the bit-for-bit reference), `array_api` (namespace-generic "
        "stacked sweeps), or `numba` (JIT loops; requires numba).",
        provenance="fingerprinted",
        resolves_to="OptimizeConfig.kernel_target",
    ),
    EnvVar(
        "REPRO_BENCH_SMOKE", "flag", "off",
        "Benchmark smoke mode: exercise every benchmark code path on CI "
        "hardware without trusting timings or rewriting committed JSON.",
        provenance="observational",
    ),
)

#: Registered variables by name, in declaration order.
ENV_REGISTRY: dict[str, EnvVar] = {v.name: v for v in _VARS}


def env_raw(name: str) -> str | None:
    """The raw string value of a registered variable (None when unset)."""
    if name not in ENV_REGISTRY:
        raise KeyError(
            "unregistered environment variable %r; declare it in "
            "repro.envvars.ENV_REGISTRY" % (name,)
        )
    return os.environ.get(name)


def env_flag(name: str) -> bool:
    """True when a registered flag variable is set to a truthy string."""
    raw = env_raw(name)
    return raw is not None and raw.strip().lower() in TRUTHY


def env_int(name: str) -> int | None:
    """A registered integer variable, or None when unset/empty."""
    raw = env_raw(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            "environment variable %s must be an integer, got %r"
            % (name, raw)
        ) from None


def registry_markdown() -> str:
    """The docs table, one row per registered variable (generated, so the
    documentation cannot drift from the registry)."""
    lines = [
        "| Variable | Type | Default | Provenance | Meaning |",
        "|----------|------|---------|------------|---------|",
    ]
    for v in ENV_REGISTRY.values():
        lines.append(
            "| `%s` | %s | %s | %s | %s |"
            % (v.name, v.kind, v.default, v.provenance, v.doc)
        )
    return "\n".join(lines)
