"""Runtime float sanitizer for the ELBO/optimizer spine.

The static NUM rules (:mod:`repro.analysis.lint`) reject *idioms* that can
overflow or cancel; this module watches the numbers themselves — an
ASan/UBSan analogue for float math.  When enabled, every ELBO evaluation
(at any lane count, and KL-only) and every trust-region step is checked for

- non-finite values (NaN anywhere in a value, gradient, or Hessian block),
- overflow-to-inf (the distinct signature of an unguarded ``exp``),
- non-symmetric Hessian blocks (a broken closed-form derivative),
- catastrophic cancellation in ELBO accumulation and in the trust-region
  acceptance ratio's actual-reduction numerator.

Findings are :class:`NumericReport` records carrying (source id, lane, term,
stage, actor) so a single bad flux moment in one lane of one batched solve is
attributable from the driver report.  Like the race detector, the sanitizer
is **observational**: it never changes a value, raises, or reorders work, so
a run is bit-identical with checking on or off, and the knobs stay out of
checkpoint fingerprints.

Wiring mirrors ``analysis.race``: the Cyclades executor installs a sanitizer
per region (:func:`numeric_checking` binds it to the worker thread together
with a deterministic actor label); the ELBO front ends and the lockstep
Newton driver consult :func:`current_check` — a single thread-local read
when checking is off.  Reports travel on ``RegionResult.numeric_reports``,
process workers ship them back on the done message, and the driver surfaces
them in ``DriverReport.numeric_reports``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "NumericContext",
    "NumericReport",
    "NumericSanitizer",
    "current_check",
    "numeric_checking",
    "numeric_source",
]

#: Relative asymmetry above which a Hessian block is reported: closed-form
#: blocks are assembled symmetric, so anything past accumulated rounding
#: (a few hundred ulps on 41x41 blocks) means a broken derivative formula.
HESSIAN_ASYMMETRY_RTOL = 1e-8

#: An accumulated total whose magnitude is below this fraction of the sum of
#: its parts' magnitudes has lost ~12 decimal digits to cancellation.
CANCELLATION_RTOL = 1e-12

#: Actual reduction smaller than this multiple of eps*|f| is below float64
#: resolution — meaningless digits — while the model still predicted a real
#: decrease.  (Near convergence the *predicted* decrease is tiny too, so
#: healthy solves never trip this; see :meth:`NumericSanitizer.check_reduction`.)
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class NumericReport:
    """One numeric finding.  All fields are primitives, so reports pickle
    across process workers and serialize into driver-report JSON."""

    #: "non-finite" | "overflow" | "asymmetric-hessian" | "cancellation"
    kind: str
    #: Evaluation surface: "elbo" | "kl" | "trust-region-step"
    #: | "elbo-accumulation"
    stage: str
    #: Which piece went bad: "value" | "gradient" | "hessian" | "step" |
    #: "actual-reduction" | "total"
    term: str
    #: Source id within the run's region (None when not attributable).
    source: int | None
    #: Lane index within a lockstep evaluation batch (None under a
    #: one-source :class:`numeric_source` scope).
    lane: int | None
    #: Who was evaluating, e.g. ("cyclades-thread", 2) or ("serial", 0).
    actor: tuple
    #: Human-readable specifics (offending indices, magnitudes).
    detail: str

    def describe(self) -> str:
        where = "source=%s" % (self.source,)
        if self.lane is not None:
            where += " lane=%d" % self.lane
        return "%s in %s/%s [%s, actor=%r]: %s" % (
            self.kind, self.stage, self.term, where, self.actor, self.detail
        )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "stage": self.stage,
            "term": self.term,
            "source": self.source,
            "lane": self.lane,
            "actor": list(self.actor),
            "detail": self.detail,
        }


def _sort_key(r: NumericReport) -> tuple:
    return (
        r.stage, r.kind, r.term,
        -1 if r.source is None else r.source,
        -1 if r.lane is None else r.lane,
        tuple(str(a) for a in r.actor), r.detail,
    )


def _classify(arr: np.ndarray) -> tuple[str, str] | None:
    """(kind, detail) when an array holds non-finite entries, else None.
    Infs are classified as overflow (the unguarded-exp signature); NaNs as
    plain non-finite."""
    finite = np.isfinite(arr)
    if bool(finite.all()):
        return None
    bad = np.argwhere(~finite)
    n_inf = int(np.isinf(arr).sum())
    n_nan = int(np.isnan(arr).sum())
    at = bad[0]
    loc = "flat" if arr.ndim == 0 else "index %s" % (tuple(int(i) for i in at),)
    detail = "%d inf / %d nan of %d entries (first at %s)" % (
        n_inf, n_nan, arr.size, loc
    )
    return ("overflow" if n_nan == 0 else "non-finite", detail)


class NumericSanitizer:
    """Thread-safe sink and checker for numeric findings.

    Deduplicates on (kind, stage, term, source, lane, actor): a source whose
    flux moment overflows reports once per surface, not once per Newton
    iteration, which keeps report lists small and deterministic.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._reports: list[NumericReport] = []
        self._seen: set[tuple] = set()

    # -- recording --------------------------------------------------------

    def record(self, report: NumericReport) -> None:
        key = (report.kind, report.stage, report.term, report.source,
               report.lane, report.actor)
        with self._lock:
            if key in self._seen:
                return
            self._seen.add(key)
            self._reports.append(report)

    def absorb(self, reports) -> None:
        """Merge pre-made reports (from a region result or a process
        worker's done message) through the same dedup."""
        for r in reports:
            self.record(r)

    @property
    def reports(self) -> list[NumericReport]:
        """Findings in a deterministic order (sorted, not arrival order —
        arrival order depends on thread interleaving)."""
        with self._lock:
            return sorted(self._reports, key=_sort_key)

    @property
    def n_reports(self) -> int:
        with self._lock:
            return len(self._reports)

    # -- checks -----------------------------------------------------------

    def _emit(self, kind, stage, term, detail, *, source, lane, actor):
        self.record(NumericReport(
            kind=kind, stage=stage, term=term, source=source, lane=lane,
            actor=actor, detail=detail,
        ))

    def check_eval(self, out, *, stage: str, source=None, lane=None,
                   actor=()) -> None:
        """Check one ELBO evaluation result.

        Duck-typed over the evaluation surface: an
        :class:`~repro.core.kernel.ElboEval` exposes ``val`` / ``grad`` /
        ``hess`` (the latter two possibly None at lower orders).
        """
        ctx = dict(source=source, lane=lane, actor=actor)
        val = getattr(out, "val", None)
        if val is not None:
            v = np.asarray(val, dtype=float)
            hit = _classify(v)
            if hit is not None:
                self._emit(hit[0], stage, "value", hit[1], **ctx)
        for term in ("grad", "hess"):
            arr = getattr(out, term, None)
            if not isinstance(arr, np.ndarray):
                continue
            name = "gradient" if term == "grad" else "hessian"
            hit = _classify(arr)
            if hit is not None:
                self._emit(hit[0], stage, name, hit[1], **ctx)
            elif term == "hess" and arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
                scale = max(1.0, float(np.max(np.abs(arr))))
                skew = float(np.max(np.abs(arr - arr.T)))
                if skew > HESSIAN_ASYMMETRY_RTOL * scale:
                    self._emit(
                        "asymmetric-hessian", stage, "hessian",
                        "max |H - H^T| = %.3g at scale %.3g" % (skew, scale),
                        **ctx,
                    )

    def check_step(self, step, f_new: float, *, stage: str = "trust-region-step",
                   source=None, lane=None, actor=()) -> None:
        """Check a proposed trust-region step and its trial objective."""
        ctx = dict(source=source, lane=lane, actor=actor)
        arr = np.asarray(step, dtype=float)
        hit = _classify(arr)
        if hit is not None:
            self._emit(hit[0], stage, "step", hit[1], **ctx)
        if not np.isfinite(f_new):
            kind = "overflow" if np.isinf(f_new) else "non-finite"
            self._emit(kind, stage, "value",
                       "trial objective %r" % (f_new,), **ctx)

    def check_reduction(self, f: float, f_new: float, predicted: float, *,
                        stage: str = "trust-region-step", source=None,
                        lane=None, actor=()) -> None:
        """Flag an actual reduction that drowned in rounding while the
        quadratic model predicted a decrease far above float resolution:
        the acceptance ratio rho is then pure noise.  Healthy convergence
        (tiny predicted *and* tiny actual) stays silent."""
        if not (np.isfinite(f) and np.isfinite(f_new) and predicted > 0.0):
            return
        scale = _EPS * max(1.0, abs(f))
        if abs(f - f_new) < 16.0 * scale and predicted > 1e6 * scale:
            self._emit(
                "cancellation", stage, "actual-reduction",
                "f=%.17g f_new=%.17g differ below float resolution but "
                "predicted decrease %.3g" % (f, f_new, predicted),
                source=source, lane=lane, actor=actor,
            )

    def check_accumulation(self, total: float, parts, *,
                           stage: str = "elbo-accumulation", source=None,
                           lane=None, actor=()) -> None:
        """Flag catastrophic cancellation in a sum: the total's magnitude is
        a vanishing fraction of its parts' combined magnitude (per-source
        ELBOs are all large and same-signed, so a healthy region never
        trips this)."""
        mass = float(np.sum(np.abs(np.asarray(list(parts), dtype=float))))
        if mass > 0.0 and abs(total) < CANCELLATION_RTOL * mass:
            self._emit(
                "cancellation", stage, "total",
                "|total| = %.3g vs sum |parts| = %.3g" % (abs(total), mass),
                source=source, lane=lane, actor=actor,
            )


@dataclass(frozen=True)
class NumericContext:
    """The sanitizer + attribution bound to the current thread."""

    sanitizer: NumericSanitizer
    actor: tuple
    source: int | None = None
    #: Source ids per lane of the batch being evaluated, when known.
    batch_sources: tuple | None = None

    def _attribute(self, lane) -> dict:
        """Who a finding on ``lane`` belongs to: that lane's entry of a
        batch scope (``numeric_source([...])``), else the scope's single
        source — under which a lane index says nothing and is dropped, so
        a one-source scope reports the same whichever front end (``elbo``
        or a one-lane ``elbo_batch``) did the evaluation."""
        source = self.source
        if lane is not None and self.batch_sources is not None \
                and lane < len(self.batch_sources):
            source = self.batch_sources[lane]
        elif source is not None:
            lane = None
        return dict(source=source, lane=lane, actor=self.actor)

    def check_eval(self, out, *, stage, lane=None):
        self.sanitizer.check_eval(out, stage=stage, **self._attribute(lane))

    def check_step(self, step, f_new, *, lane=None):
        self.sanitizer.check_step(step, f_new, **self._attribute(lane))

    def check_reduction(self, f, f_new, predicted, *, lane=None):
        self.sanitizer.check_reduction(f, f_new, predicted,
                                       **self._attribute(lane))

    def check_accumulation(self, total, parts):
        self.sanitizer.check_accumulation(total, parts, source=self.source,
                                          actor=self.actor)


_TLS = threading.local()


def current_check() -> NumericContext | None:
    """The thread's active numeric context, or None (the common, fast case:
    one thread-local attribute read on every hot-path call site)."""
    return getattr(_TLS, "ctx", None)


class numeric_checking:
    """Context manager binding a sanitizer + actor to the current thread.

    Re-entrant in the nesting sense: the previous binding (usually None) is
    restored on exit, so serial code under an executor that already installed
    a context keeps the outer attribution.
    """

    def __init__(self, sanitizer: NumericSanitizer | None, actor: tuple):
        self._ctx = (
            None if sanitizer is None
            else NumericContext(sanitizer=sanitizer, actor=tuple(actor))
        )

    def __enter__(self):
        self._prev = getattr(_TLS, "ctx", None)
        if self._ctx is not None:
            _TLS.ctx = self._ctx
        return self._ctx

    def __exit__(self, *exc):
        _TLS.ctx = self._prev
        return False


class numeric_source:
    """Context manager scoping the current thread's checks to one source (or,
    with a list, to the lanes of one lockstep batch).  No-op when checking is
    off."""

    def __init__(self, source):
        self._source = source

    def __enter__(self):
        self._prev = getattr(_TLS, "ctx", None)
        if self._prev is not None:
            if isinstance(self._source, (list, tuple)):
                _TLS.ctx = replace(
                    self._prev,
                    batch_sources=tuple(int(s) for s in self._source),
                )
            else:
                _TLS.ctx = replace(self._prev, source=int(self._source))
        return _TLS.ctx if self._prev is not None else None

    def __exit__(self, *exc):
        _TLS.ctx = self._prev
        return False
