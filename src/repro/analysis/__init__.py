"""Machine-checked determinism contract.

The reproduction's headline invariants — conflict-free Cyclades scheduling
and order-independent, bit-reproducible results — have each been broken and
re-fixed at least once (the PR-1 diagonal patch-box race, the PR-4
input-order dedup tie-break, the PR-5 padded-reduction discovery).  This
package turns those hard-won rules into checks that run by machine instead
of being rediscovered one regression at a time:

``lint``
    A custom AST lint pass (:mod:`repro.analysis.lint`, CLI
    ``python -m repro.analysis``) encoding the determinism contract as
    per-module rules: seeded generators only, no unordered iteration in
    scheduling paths, pairwise-safe summation, explicit reduction axes on
    lane-stacked arrays, no wall clock or entropy in fingerprinted paths,
    paired acquire/release of scratch and shared memory.

``schedule``
    A static schedule verifier (:mod:`repro.analysis.schedule`) that takes
    a Cyclades assignment plan and *independently* proves the two
    properties execution relies on: concurrently scheduled patch boxes are
    pixel-disjoint, and no conflict-connected component spans two threads.
    Runs pre-execution from the driver (``REPRO_VERIFY_SCHEDULE=1``) and as
    a standalone audit.

``provenance``
    The knob-provenance contract (:mod:`repro.analysis.provenance`, the
    KNOB3xx rules): every config dataclass field and registered ``REPRO_*``
    variable carries a declared provenance class
    (:mod:`repro.knobs`), statically cross-checked against the actual
    checkpoint fingerprint schema and against where each knob's value
    flows — and dynamically pinned by the neutrality fuzzer in
    ``tests/test_provenance.py``.

``race``
    A shadow-transport race detector (:mod:`repro.analysis.race`): an
    opt-in wrapper (``REPRO_RACE_DETECT=1``) that tags every one-sided
    ``get``/``put``/``accumulate`` and every Cyclades patch write with its
    (window, extent, actor, logical epoch) and reports write/write or
    read/write overlap between concurrently scheduled work.

``numeric``
    A runtime numerical sanitizer (:mod:`repro.analysis.numeric`): an
    opt-in wrapper (``REPRO_NUMERIC_CHECK=1``) around ELBO/KL evaluation
    and Newton trust-region stepping that reports non-finite values,
    overflow-to-inf, asymmetric Hessian blocks, and catastrophic
    cancellation in ELBO accumulation, each pinned to (source, lane,
    term, stage, actor).  The static side of the same contract is the
    ``NUM2xx`` lint rule family.

See ``docs/determinism.md`` for the contract itself: every rule, the
invariant it guards, and the PR that motivated it.
"""

import importlib

#: Public name -> submodule.  Resolved on first use (PEP 562): the optimizer's
#: hot path imports ``repro.analysis.numeric`` from every process seat, and
#: importing this package must not drag the lint, provenance, schedule and
#: race modules in with it.
_EXPORTS = {
    "lint": ("RULES", "LintViolation", "lint_paths", "lint_source"),
    "provenance": ("Knob", "analyze_provenance", "knob_inventory",
                   "render_inventory"),
    "schedule": ("PatchBox", "ScheduleError", "ScheduleViolation",
                 "audit_random_schedule", "boxes_from_plan",
                 "verify_batches", "verify_plan"),
    "race": ("AccessLog", "RaceDetector", "RaceReport", "ShadowAccess",
             "ShadowTransport"),
    "numeric": ("NumericReport", "NumericSanitizer", "current_check",
                "numeric_checking", "numeric_source"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("%s.%s" % (__name__, _MODULE_OF[name]))
    return getattr(module, name)
