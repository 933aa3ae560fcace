"""The knob-provenance vocabulary: how a config field declares its class.

Every result-relevant decision in this repo is a *knob* — a dataclass field
of one of the driver-facing config classes (``DriverConfig``,
``ParallelRegionConfig``, ``JointConfig``, ``OptimizeConfig``,
``PhotoConfig``) or a registered ``REPRO_*`` environment
variable.  The checkpoint/resume story hangs on every knob being correctly
partitioned into *fingerprinted* vs *not*.  That partition is written
down once, as a declaration carried by the knob itself, and the fingerprint
is *derived* from it (:func:`fingerprinted_values`) — there is no second
list to keep in step:

``fingerprinted``
    Result-affecting (or conservatively recorded as such): the knob's
    resolved value is part of the checkpoint fingerprint, and a checkpoint
    refuses to resume under a different value.

``neutral``
    Result-neutral *by hard invariant*: any value produces bit-for-bit
    identical results (an execution strategy — batching layout, cache
    blocking, occupancy tuning).  Excluded from the fingerprint, and the
    invariant is empirically pinned by the neutrality fuzzer
    (``tests/test_provenance.py``).  No knob holds this class today (the
    three that did had one value in use and became constants); it stays
    in the vocabulary for KNOB302's carve-out and for ``elbo_batch_size``,
    which is to move here (ROADMAP 3c).

``observational``
    Detection/diagnostic instrumentation (race detector, schedule
    verifier, numeric sanitizer, bench smoke modes): results are
    bit-identical with it on or off; its job is to *prove* that.
    Excluded from the fingerprint; also fuzzer-pinned.

``scheduling``
    Worker layout and work-distribution knobs (node counts, executors,
    transports, checkpoint cadence): results are independent
    of completion order and memory model, so a run may legitimately
    resume under a different value.  Excluded from the fingerprint;
    fuzzer-pinned where a toggle keeps the run comparable.

A knob can therefore not be declared ``fingerprinted`` and be missing from
the fingerprint, nor be in it undeclared.  What a declaration can still get
wrong is the *class*, and that is cross-checked: the static pass in
:mod:`repro.analysis.provenance` (KNOB3xx rules, ``python -m
repro.analysis``) verifies every declaration against where the knob's
value flows, and the neutrality fuzzer verifies every "not fingerprinted"
claim dynamically.  See the "Knob provenance" section of
``docs/determinism.md``.
"""

from __future__ import annotations

from dataclasses import MISSING, field, fields, is_dataclass

__all__ = ["PROVENANCE_CLASSES", "fingerprinted_values", "knob",
           "provenance_of"]

#: The four provenance classes, in decreasing order of result impact.
PROVENANCE_CLASSES = ("fingerprinted", "neutral", "observational",
                      "scheduling")


def knob(default=MISSING, *, provenance: str, default_factory=MISSING):
    """A dataclass field carrying an explicit provenance declaration.

    Drop-in for ``dataclasses.field``: ``knob(2, provenance="scheduling")``
    or ``knob(default_factory=PhotoConfig, provenance="fingerprinted")``.
    The declaration lands in ``field.metadata["provenance"]``, where both
    the runtime manifest and the static KNOB3xx analyzer read it.
    """
    if provenance not in PROVENANCE_CLASSES:
        raise ValueError(
            "provenance must be one of %r, got %r"
            % (PROVENANCE_CLASSES, provenance)
        )
    if default_factory is not MISSING:
        return field(default_factory=default_factory,
                     metadata={"provenance": provenance})
    return field(default=default, metadata={"provenance": provenance})


def provenance_of(dataclass_field) -> str | None:
    """The declared provenance of one ``dataclasses.Field`` (None when the
    field carries no declaration — which the KNOB300 lint rejects for the
    knob config classes)."""
    return dataclass_field.metadata.get("provenance")


def fingerprinted_values(config) -> dict:
    """What a config dataclass contributes to the checkpoint fingerprint:
    the value of every field declared ``fingerprinted``, recursing into
    dataclass-valued fields (whose own declarations decide what they
    contribute)."""
    out = {}
    for f in fields(config):
        if provenance_of(f) == "fingerprinted":
            value = getattr(config, f.name)
            out[f.name] = (fingerprinted_values(value)
                           if is_dataclass(value) else value)
    return out
