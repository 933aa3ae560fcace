"""The determinism lint: AST rules encoding the repo's determinism contract.

Every rule here guards an invariant that was broken (or nearly broken) by a
past change and is now required for bit-reproducible, order-independent
results.  The rules, the invariant each guards, and the motivating PR are
catalogued in ``docs/determinism.md``; the short version:

========  ==================================================================
DET100    Suppression hygiene: every inline suppression carries a
          justification and actually suppresses something.
DET101    No global-state ``np.random.*`` — randomness flows through
          explicitly passed, seeded ``Generator`` objects.
DET102    No iteration over ``set``s or raw ``dict.values()`` in
          scheduling / merge / catalog-assembly modules (the PR-4 dedup
          bug class: results must not depend on hash-iteration order).
DET103    No builtin ``sum()`` over float data in numeric modules —
          sequential accumulation is not bit-compatible with NumPy's
          pairwise reductions (the PR-5 discovery); use ``np.sum`` or
          ``math.fsum``.
DET104    Reductions in lane-stacked modules must pass an explicit
          ``axis=`` (``axis=None`` when a full reduction is intended) —
          a silent full reduction over a lane-stacked array is the
          batched-evaluation bug class.
DET105    No wall clock (``time.time``/``datetime.now``) in fingerprinted
          paths — results must be functions of inputs and seeds only.
DET106    Resource acquisitions (ELBO scratch loops, ``tempfile``) pair
          with their release in a ``finally`` (or a
          re-raising handler), or hand ownership to ``self`` (the PR-4
          lifecycle bug class).
DET107    Filesystem listings (``os.listdir``/``glob``) are sorted before
          use — directory order is not deterministic across filesystems.
DET108    No stdlib entropy (``random``, ``uuid.uuid1/uuid4``,
          ``os.urandom``, ``secrets``) in fingerprinted paths.
DET109    ``REPRO_*`` environment variables are read only through the
          :mod:`repro.envvars` registry — one documented, typed source
          of truth per knob.
========  ==================================================================

The NUM rules are the *static* half of the numerical-safety contract
(:mod:`repro.analysis.numeric` is the runtime half): they reject float
idioms whose failure modes — overflow-to-inf, log-of-zero, catastrophic
cancellation — the sanitizer would otherwise only catch at runtime.

========  ==================================================================
NUM200    ``exp`` on a model-parameter path must bound its argument above
          (a negated/clipped argument, or the max-shift idiom).
NUM201    ``log`` of a difference or ratio must guard its argument away
          from zero (clip/maximum/abs, directly or via a guarded name).
NUM202    No bare magic epsilon literals (powers of ten at or below 1e-3)
          in guards, comparisons, or module constants — name them in
          ``constants.py``.
NUM203    A softmax implementation must max-shift its logits before
          exponentiating.
NUM204    No dtype-narrowing float casts (``float32``/``float16``) in
          lane-stacked modules — batched lanes must carry full float64.
NUM205    No exact float equality/inequality in convergence logic.
NUM206    Division by a difference (or by an ``exp``) must guard the
          denominator away from zero.
========  ==================================================================

The KNOB rules (KNOB300–KNOB303, :mod:`repro.analysis.provenance`) are the
knob-provenance contract: every config field and registered env var
declares its provenance class, and the declarations are cross-checked
against each other and against where each knob's value flows (the
checkpoint fingerprint is derived from them, so there is no schema to
compare with).  They are whole-package properties, so the provenance
pass runs them once per tree rather than per file; suppression works the
same way.

Suppression syntax (line-scoped, justification mandatory)::

    return list(groups.values())  # det: ignore[DET102] -- keyed in nodes order

A suppression with no justification, or one that suppresses nothing, is
itself a violation (DET100): the inventory of intentional exceptions stays
exact.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass

__all__ = ["LintViolation", "RULES", "lint_source", "lint_file", "lint_paths"]


@dataclass(frozen=True)
class LintViolation:
    """One finding: where, which rule, and what to do about it."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return "%s:%d: %s %s" % (self.path, self.line, self.rule, self.message)


#: rule id -> (one-line contract, scope).  A scope of ``None`` applies the
#: rule to every linted file; otherwise it is a tuple of path prefixes
#: (relative to the ``repro`` package root) the rule is confined to —
#: rules are per-invariant, and each invariant lives in specific layers.
_SCHEDULING_MODULES = ("parallel/", "sched/", "driver/", "partition/")
_NUMERIC_MODULES = (
    "core/", "optim/", "partition/", "profiles/", "transforms/", "psf/",
    "survey/", "gaussians.py", "driver/merge.py",
)
_LANE_STACKED_MODULES = ("core/kernel.py", "optim/lockstep.py")
_FINGERPRINTED_MODULES = (
    "core/", "optim/", "parallel/", "partition/", "transforms/",
    "profiles/", "psf/", "gaussians.py", "driver/",
)
#: Modules whose floats are (transforms of) model parameters the optimizer
#: steps in — the paths where an unguarded exp/log/divide turns one bad
#: Newton trial point into inf/nan.  Deliberately narrower than
#: ``_NUMERIC_MODULES``: diagnostic/IO layers compute on bounded inputs,
#: and scoping them in would only breed rote suppressions.
_MODEL_PARAM_MODULES = (
    "core/elbo.py", "core/kernel.py",
    "core/fluxes.py", "core/single.py", "transforms/", "optim/",
    "gaussians.py",
)
#: Modules holding convergence/acceptance logic (NUM205).
_CONVERGENCE_MODULES = ("optim/", "core/single.py")
#: Modules where a bare epsilon literal belongs in ``constants.py``
#: (which is itself outside every scope here — that is where the named
#: tolerances live).
_EPSILON_MODULES = (
    "core/", "optim/", "transforms/", "profiles/", "psf/", "gaussians.py",
)

RULES: dict[str, tuple[str, tuple | None]] = {
    "DET100": ("inline suppressions must justify themselves and match a "
               "real finding", None),
    "DET101": ("use a passed np.random.Generator, never global np.random "
               "state", None),
    "DET102": ("no iteration over sets / raw dict.values() in scheduling, "
               "merge, or catalog-assembly modules", _SCHEDULING_MODULES),
    "DET103": ("no builtin sum() over float data; use np.sum (pairwise) or "
               "math.fsum (exact)", _NUMERIC_MODULES),
    "DET104": ("reductions on lane-stacked arrays must pass an explicit "
               "axis= (axis=None for a full reduction)",
               _LANE_STACKED_MODULES),
    "DET105": ("no wall clock in fingerprinted paths", _FINGERPRINTED_MODULES),
    "DET106": ("resource acquisitions must pair with their release in a "
               "finally (or re-raising handler) or hand ownership to self",
               None),
    "DET107": ("sort filesystem listings before iterating them", None),
    "DET108": ("no stdlib entropy (random / uuid1 / uuid4 / urandom / "
               "secrets) in fingerprinted paths", _FINGERPRINTED_MODULES),
    "DET109": ("read REPRO_* environment variables through repro.envvars, "
               "never os.environ/os.getenv directly", None),
    "NUM200": ("exp on a model-parameter path must bound its argument "
               "above (negate, clip, or max-shift)", _MODEL_PARAM_MODULES),
    "NUM201": ("log of a difference or ratio must guard its argument away "
               "from zero", _MODEL_PARAM_MODULES),
    "NUM202": ("bare magic epsilon literal; give it a name in constants.py",
               _EPSILON_MODULES),
    "NUM203": ("softmax implementations must max-shift logits before "
               "exponentiating", None),
    "NUM204": ("no dtype-narrowing float casts in lane-stacked modules",
               _LANE_STACKED_MODULES),
    "NUM205": ("no exact float equality/inequality in convergence logic",
               _CONVERGENCE_MODULES),
    "NUM206": ("division by a difference or by an exp must guard the "
               "denominator away from zero", _MODEL_PARAM_MODULES),
    # The KNOB rules are whole-package properties (inventory, cross-module
    # dataflow), checked by the provenance pass
    # (:mod:`repro.analysis.provenance`) rather than per file; they are
    # registered here so the suppression machinery and the docs catalogue
    # speak one rule vocabulary.
    "KNOB300": ("every config field and registered env var declares a "
                "provenance class via repro.knobs.knob / "
                "EnvVar(provenance=...)", None),
    "KNOB301": ("an env var's provenance declaration agrees with the "
                "config field it resolves_to", None),
    "KNOB302": ("scheduling/observational knob values must not flow into "
                "evaluation modules", None),
    "KNOB303": ("no dead fingerprinted knobs: a fingerprinted knob nothing "
                "reads poisons resume compatibility for free", None),
}

_SUPPRESSION_RE = re.compile(
    r"#\s*det:\s*ignore\[([A-Z0-9,\s]+)\]\s*(?:--\s*(\S.*))?"
)


def _rule_applies(rule: str, rel_path: str) -> bool:
    scope = RULES[rule][1]
    if scope is None:
        return True
    return any(rel_path == p or rel_path.startswith(p) for p in scope)


def _relative_to_package(path: str) -> str:
    """Path relative to the ``repro`` package root (used for rule scopes)."""
    parts = path.replace(os.sep, "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1:])
    return "/".join(parts)


# ---------------------------------------------------------------------------
# Shared AST helpers


def _call_name(node: ast.Call) -> str | None:
    """Bare callee name (``sum`` in ``sum(...)``), None for attributes."""
    return node.func.id if isinstance(node.func, ast.Name) else None


def _attr_chain(node: ast.AST) -> list[str]:
    """``np.random.seed`` -> ["np", "random", "seed"]; [] when not a plain
    dotted name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _assigned_names(target: ast.AST) -> list[str]:
    """Plain names bound by an assignment target (handles tuple unpack)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_assigned_names(elt))
        return out
    return []


class _ParentAnnotator(ast.NodeVisitor):
    """Attach ``_det_parent`` to every node (the lint's only tree pass)."""

    def generic_visit(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            child._det_parent = node  # type: ignore[attr-defined]
        super().generic_visit(node)


def _ancestors(node: ast.AST):
    node = getattr(node, "_det_parent", None)
    while node is not None:
        yield node
        node = getattr(node, "_det_parent", None)


def _violation(path: str, node: ast.AST, rule: str, message: str
               ) -> LintViolation:
    return LintViolation(path=path, line=node.lineno, rule=rule,
                         message=message)


# ---------------------------------------------------------------------------
# DET101 — global numpy random state


_NP_RANDOM_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}


def _check_global_numpy_random(tree, path):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if (len(chain) >= 3 and chain[0] in ("np", "numpy")
                and chain[1] == "random"
                and chain[2] not in _NP_RANDOM_ALLOWED):
            out.append(_violation(
                path, node, "DET101",
                "np.random.%s uses process-global RNG state; thread a "
                "seeded np.random.Generator through instead" % chain[2],
            ))
    return out


# ---------------------------------------------------------------------------
# DET102 — unordered iteration in scheduling/merge/assembly modules


def _set_annotations(tree) -> tuple[set[str], set[str]]:
    """Names/attrs annotated as sets (``seen: set``) vs as *containers of*
    sets (``adjacency: list[set]`` — the container iterates in order, but
    subscripting it yields a set)."""
    direct: set[str] = set()
    container: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and node.annotation is not None:
            ann = ast.unparse(node.annotation).strip()
            names = _assigned_names(node.target)
            if isinstance(node.target, ast.Attribute):
                names.append(node.target.attr)
            if re.match(r"(set|frozenset)\b", ann):
                direct.update(names)
            elif re.search(r"\b(set|frozenset)\b", ann):
                container.update(names)
    return direct, container


def _is_set_expr(node: ast.AST, direct: set[str], container: set[str],
                 local_sets: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and _call_name(node) in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and (node.id in local_sets
                                       or node.id in direct):
        return True
    if isinstance(node, ast.Attribute) and node.attr in direct:
        return True
    if isinstance(node, ast.Subscript):
        value = node.value
        if isinstance(value, ast.Attribute) and value.attr in container:
            return True
        if isinstance(value, ast.Name) and value.id in container:
            return True
    return False


def _is_dict_values_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "values" and not node.args
            and not node.keywords)


def _check_unordered_iteration(tree, path):
    direct, container = _set_annotations(tree)
    local_sets: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_set_expr(
                node.value, direct, container, set()):
            for target in node.targets:
                local_sets.update(_assigned_names(target))

    def iter_exprs():
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                yield node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    yield gen.iter
            elif isinstance(node, ast.Call) and _call_name(node) in (
                    "list", "tuple", "iter", "enumerate") and node.args:
                yield node.args[0]

    out = []
    for expr in iter_exprs():
        if _is_set_expr(expr, direct, container, local_sets):
            out.append(_violation(
                path, expr, "DET102",
                "iterating a set: order is hash-dependent; sort first or "
                "restructure so results cannot depend on visit order",
            ))
        elif _is_dict_values_call(expr):
            out.append(_violation(
                path, expr, "DET102",
                "iterating dict.values(): order is insertion order; sort, "
                "or justify that insertion order is itself deterministic",
            ))
    return out


# ---------------------------------------------------------------------------
# DET103 — builtin sum over float data


def _summand_is_int_like(node: ast.AST) -> bool:
    """Heuristic proof that a sum's elements are integers (exact and
    order-independent, so builtin sum is fine)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return True
    if isinstance(node, ast.Call) and _call_name(node) in ("len", "int"):
        return True
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return True
    return False


def _check_builtin_sum(tree, path):
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _call_name(node) == "sum"
                and node.args):
            continue
        arg = node.args[0]
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)) \
                and _summand_is_int_like(arg.elt):
            continue
        out.append(_violation(
            path, node, "DET103",
            "builtin sum() accumulates sequentially, which is not "
            "bit-compatible with NumPy's pairwise reductions; use np.sum, "
            "math.fsum, or justify integer/exact arithmetic",
        ))
    return out


# ---------------------------------------------------------------------------
# DET104 — explicit axis in lane-stacked modules


_NP_REDUCERS = {"sum", "nansum", "mean", "average", "prod", "median",
                "std", "var"}
_METHOD_REDUCERS = {"sum", "mean", "prod", "std", "var"}


def _has_axis_kwarg(node: ast.Call) -> bool:
    return any(kw.arg == "axis" for kw in node.keywords) or len(node.args) > 1


def _check_missing_axis(tree, path):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        is_np_reducer = (len(chain) == 2 and chain[0] in ("np", "numpy")
                         and chain[1] in _NP_REDUCERS)
        is_method_reducer = (isinstance(node.func, ast.Attribute)
                             and not is_np_reducer
                             and node.func.attr in _METHOD_REDUCERS
                             and not node.args)
        if (is_np_reducer or is_method_reducer) and not _has_axis_kwarg(node):
            out.append(_violation(
                path, node, "DET104",
                "reduction without an explicit axis= in a lane-stacked "
                "module; write axis=None if the full reduction is intended",
            ))
    return out


# ---------------------------------------------------------------------------
# DET105 — wall clock in fingerprinted paths


_WALL_CLOCK = {
    ("time", "time"), ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}


def _check_wall_clock(tree, path):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if len(chain) >= 2 and (chain[-2], chain[-1]) in _WALL_CLOCK:
            out.append(_violation(
                path, node, "DET105",
                "%s reads the wall clock in a fingerprinted path; results "
                "must be functions of inputs and seeds (time.perf_counter "
                "is fine for durations)" % ".".join(chain),
            ))
    return out


# ---------------------------------------------------------------------------
# DET106 — acquire/release pairing


#: callee name -> release callee names that discharge it.
_ACQUIRE_RELEASE = {
    "mkstemp": {"close", "fdopen", "unlink", "remove", "rmtree"},
    "mkdtemp": {"rmtree"},
    # The ELBO scratch contract: loops driving per-source optimization
    # borrow per-thread scratch that must be returned via release_scratch
    # in a finally (idle pool threads must not pin evaluation buffers).
    "update_source": {"release_scratch"},
}
#: acquirers that only matter when driven repeatedly (a loop is what
#: accumulates scratch worth releasing).
_LOOP_ONLY_ACQUIRERS = {"update_source"}


def _calls_release(body: list[ast.stmt], releases: set[str]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                attr = (node.func.attr
                        if isinstance(node.func, ast.Attribute) else None)
                if name in releases or attr in releases:
                    return True
    return False


def _handler_rereleases(try_node: ast.Try, releases: set[str]) -> bool:
    """A handler that releases and re-raises also discharges the pairing
    (the checkpoint temp-file pattern: success consumes, failure cleans)."""
    for handler in try_node.handlers:
        if _calls_release(handler.body, releases) and any(
                isinstance(n, ast.Raise) for stmt in handler.body
                for n in ast.walk(stmt)):
            return True
    return False


def _stored_into_self(func: ast.AST, names: set[str]) -> bool:
    """Ownership handoff: the acquired value (or a name bound to it) is
    stored into ``self.<attr>`` or ``self.<attr>[...]``."""
    if not names:
        return False
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        rhs_names = {n.id for n in ast.walk(node.value)
                     if isinstance(n, ast.Name)}
        if not rhs_names & names:
            continue
        for target in node.targets:
            base = target.value if isinstance(target, ast.Subscript) else target
            if isinstance(base, ast.Attribute):
                root = base.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id == "self":
                    return True
    return False


def _acquired_names(call: ast.Call) -> set[str]:
    parent = getattr(call, "_det_parent", None)
    if isinstance(parent, ast.Assign):
        out: set[str] = set()
        for target in parent.targets:
            out.update(_assigned_names(target))
        return out
    return set()


def _is_self_attr_target(target: ast.AST) -> bool:
    base = target.value if isinstance(target, ast.Subscript) else target
    if not isinstance(base, ast.Attribute):
        return False
    root = base.value
    while isinstance(root, ast.Attribute):
        root = root.value
    return isinstance(root, ast.Name) and root.id == "self"


def _directly_self_assigned(call: ast.Call) -> bool:
    """``self.x = acquire()`` / ``self.x[k] = acquire()`` hand ownership
    to the instance at the acquisition site itself."""
    parent = getattr(call, "_det_parent", None)
    if isinstance(parent, ast.Assign):
        return any(_is_self_attr_target(t) for t in parent.targets)
    if isinstance(parent, ast.AnnAssign):
        return _is_self_attr_target(parent.target)
    return False


def _check_acquire_release(tree, path):
    out = []
    funcs = [n for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for func in funcs:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = _call_name(node) or (
                node.func.attr if isinstance(node.func, ast.Attribute)
                else None)
            if callee not in _ACQUIRE_RELEASE:
                continue
            releases = _ACQUIRE_RELEASE[callee]
            ancestors = list(_ancestors(node))
            if callee in _LOOP_ONLY_ACQUIRERS and not any(
                    isinstance(a, (ast.For, ast.While)) for a in ancestors):
                continue
            if any(isinstance(a, ast.With) for a in ancestors):
                continue
            # Paired when a Try guards the acquired resource with a
            # releasing finally (or re-raising handler).  The Try may
            # enclose the acquisition, or — the acquire-then-guard idiom —
            # immediately follow it in the same function.
            ancestor_set = set(map(id, ancestors))
            paired = any(
                isinstance(t, ast.Try)
                and (id(t) in ancestor_set or t.lineno >= node.lineno)
                and (_calls_release(t.finalbody, releases)
                     or _handler_rereleases(t, releases))
                for t in ast.walk(func))
            if not paired and _directly_self_assigned(node):
                paired = True
            if not paired and _stored_into_self(func, _acquired_names(node)):
                paired = True
            if not paired:
                out.append(_violation(
                    path, node, "DET106",
                    "%s() acquires a resource with no paired release "
                    "(%s) in a finally/re-raising handler, and ownership "
                    "is not handed to self" % (callee,
                                               "/".join(sorted(releases))),
                ))
    return out


# ---------------------------------------------------------------------------
# DET107 — unsorted filesystem listings


_FS_LISTERS = {"listdir", "scandir", "glob", "iglob", "iterdir", "rglob"}


def _check_fs_order(tree, path):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _call_name(node) or (
            node.func.attr if isinstance(node.func, ast.Attribute) else None)
        if callee not in _FS_LISTERS:
            continue
        parent = getattr(node, "_det_parent", None)
        if isinstance(parent, ast.Call) and _call_name(parent) == "sorted":
            continue
        out.append(_violation(
            path, node, "DET107",
            "%s() returns entries in filesystem order, which is not "
            "deterministic; wrap in sorted()" % callee,
        ))
    return out


# ---------------------------------------------------------------------------
# DET108 — stdlib entropy in fingerprinted paths


_ENTROPY_CALLS = {
    ("uuid", "uuid1"), ("uuid", "uuid4"), ("os", "urandom"),
}


def _check_entropy(tree, path):
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            names = [a.name for a in node.names]
            if module == "secrets" or "secrets" in names:
                out.append(_violation(
                    path, node, "DET108",
                    "secrets is cryptographic entropy; fingerprinted paths "
                    "must be replayable from seeds",
                ))
            continue
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if len(chain) >= 2 and (chain[-2], chain[-1]) in _ENTROPY_CALLS:
            out.append(_violation(
                path, node, "DET108",
                "%s draws OS entropy in a fingerprinted path; derive ids "
                "from seeds, or justify why uniqueness (not replay) is the "
                "point" % ".".join(chain),
            ))
        elif len(chain) >= 2 and chain[0] == "random" \
                and chain[-1] != "Random":
            out.append(_violation(
                path, node, "DET108",
                "stdlib random.%s uses global, platform-sensitive state; "
                "use a seeded np.random.Generator" % chain[-1],
            ))
    return out


# ---------------------------------------------------------------------------
# DET109 — REPRO_* environment reads outside the registry


def _check_env_reads(tree, path):
    """Direct ``os.environ``/``os.getenv`` reads of a ``REPRO_*`` name —
    by string literal or by a module constant bound to one."""
    repro_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str) \
                and node.value.value.startswith("REPRO_"):
            for target in node.targets:
                repro_names.update(_assigned_names(target))

    def is_repro(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Constant):
            return (isinstance(expr.value, str)
                    and expr.value.startswith("REPRO_"))
        return isinstance(expr, ast.Name) and expr.id in repro_names

    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            reads = (chain[-2:] == ["os", "getenv"]
                     or (len(chain) >= 3 and chain[-3] == "os"
                         and chain[-2] == "environ" and chain[-1] == "get"))
            if reads and node.args and is_repro(node.args[0]):
                out.append(_violation(
                    path, node, "DET109",
                    "direct environment read of a REPRO_* variable; go "
                    "through repro.envvars (env_raw/env_flag/env_int) so "
                    "every knob stays registered, typed, and documented",
                ))
        elif isinstance(node, ast.Subscript):
            chain = _attr_chain(node.value)
            if chain[-2:] == ["os", "environ"] and is_repro(node.slice):
                out.append(_violation(
                    path, node, "DET109",
                    "direct os.environ[] read of a REPRO_* variable; go "
                    "through repro.envvars instead",
                ))
    return out


# ---------------------------------------------------------------------------
# NUM200-NUM206 — the numerical-safety contract's static side


#: Calls that bound a value (the guard idioms NUM200/201/206 look for).
_GUARD_CALLEES = {"clip", "maximum", "minimum", "max", "min", "amax", "amin"}
_ABS_CALLEES = {"abs", "absolute", "fabs"}


def _callee_name(node: ast.Call) -> str | None:
    return _call_name(node) or (
        node.func.attr if isinstance(node.func, ast.Attribute) else None)


def _contains_call_to(node: ast.AST, names: set[str]) -> bool:
    return any(
        isinstance(n, ast.Call) and _callee_name(n) in names
        for n in ast.walk(node)
    )


def _enclosing_scope(node: ast.AST, tree: ast.AST) -> ast.AST:
    for a in _ancestors(node):
        if isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return a
    return tree


def _names_assigned_from(scope: ast.AST, callees: set[str]) -> set[str]:
    """Names bound anywhere in ``scope`` to an expression containing a call
    to one of ``callees`` — the mini-dataflow behind the max-shift and
    clip-guard idioms (``m = max(...)``, ``frac = np.clip(...)``)."""
    out: set[str] = set()
    for n in ast.walk(scope):
        if isinstance(n, ast.Assign) and _contains_call_to(n.value, callees):
            for target in n.targets:
                out.update(_assigned_names(target))
    return out


def _is_exp_call(node: ast.Call) -> bool:
    chain = _attr_chain(node.func)
    if len(chain) == 2 and chain[0] in ("np", "numpy", "math") \
            and chain[1] == "exp":
        return True
    return _call_name(node) == "texp"


def _is_log_call(node: ast.Call) -> bool:
    chain = _attr_chain(node.func)
    if len(chain) == 2 and chain[0] in ("np", "numpy", "math") \
            and chain[1] == "log":
        return True
    return _call_name(node) == "tlog"


def _exp_arg_guarded(arg: ast.AST, shift_names: set[str]) -> bool:
    """Is an exp argument provably bounded above?  Negations, clipped/
    max-shifted expressions, and constants are; a raw model parameter (or
    a sum of them) is not."""
    if isinstance(arg, ast.Constant):
        return True
    if isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.USub):
        return True
    if isinstance(arg, ast.Name) and arg.id in shift_names:
        return True
    if _contains_call_to(arg, _GUARD_CALLEES):
        return True
    if isinstance(arg, ast.BinOp):
        if isinstance(arg.op, ast.Mult):
            return any(
                isinstance(side, ast.UnaryOp)
                and isinstance(side.op, ast.USub)
                for side in (arg.left, arg.right)
            )
        if isinstance(arg.op, ast.Sub):
            right = arg.right
            if isinstance(right, ast.Name) and right.id in shift_names:
                return True
            return _exp_arg_guarded(arg.left, shift_names)
    return False


def _check_unguarded_exp(tree, path):
    out = []
    cache: dict[int, set[str]] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _is_exp_call(node)
                and node.args):
            continue
        scope = _enclosing_scope(node, tree)
        names = cache.get(id(scope))
        if names is None:
            names = cache[id(scope)] = _names_assigned_from(
                scope, _GUARD_CALLEES)
        if _exp_arg_guarded(node.args[0], names):
            continue
        out.append(_violation(
            path, node, "NUM200",
            "exp of an unbounded model-parameter expression overflows to "
            "inf past ~709; negate, clip, or max-shift the argument (or "
            "justify why the argument is bounded by construction)",
        ))
    return out


def _log_arg_guarded(arg: ast.AST, guard_names: set[str]) -> bool:
    if _contains_call_to(arg, _GUARD_CALLEES | _ABS_CALLEES):
        return True
    return any(
        isinstance(n, ast.Name) and n.id in guard_names
        for n in ast.walk(arg)
    )


def _check_unguarded_log(tree, path):
    out = []
    cache: dict[int, set[str]] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _is_log_call(node)
                and node.args):
            continue
        arg = node.args[0]
        if not (isinstance(arg, ast.BinOp)
                and isinstance(arg.op, (ast.Sub, ast.Div))):
            continue
        scope = _enclosing_scope(node, tree)
        names = cache.get(id(scope))
        if names is None:
            names = cache[id(scope)] = _names_assigned_from(
                scope, _GUARD_CALLEES | _ABS_CALLEES)
        if _log_arg_guarded(arg, names):
            continue
        out.append(_violation(
            path, node, "NUM201",
            "log of a difference/ratio hits -inf (or nan) when the "
            "argument reaches zero; clip or bound it away from zero (or "
            "justify the domain)",
        ))
    return out


def _check_unguarded_division(tree, path):
    out = []
    cache: dict[int, set[str]] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
            continue
        den = node.right
        is_sub = isinstance(den, ast.BinOp) and isinstance(den.op, ast.Sub)
        is_exp = isinstance(den, ast.Call) and _is_exp_call(den)
        if not (is_sub or is_exp):
            continue
        scope = _enclosing_scope(node, tree)
        names = cache.get(id(scope))
        if names is None:
            names = cache[id(scope)] = _names_assigned_from(
                scope, _GUARD_CALLEES | _ABS_CALLEES)
        if _log_arg_guarded(den, names):
            continue
        out.append(_violation(
            path, node, "NUM206",
            "denominator is a difference (or an exp that can underflow to "
            "zero); guard it away from zero or justify why it cannot "
            "vanish",
        ))
    return out


#: Exact powers of ten from 1e-3 down — the magic-guard literals NUM202
#: wants named in constants.py.
_EPSILON_LITERALS = {float("1e-%d" % k) for k in range(3, 17)}


def _is_epsilon_literal(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value in _EPSILON_LITERALS)


def _check_magic_epsilon(tree, path):
    out = []

    def flag(node):
        out.append(_violation(
            path, node, "NUM202",
            "bare epsilon literal %r used as a guard; name it in "
            "constants.py so every tolerance has one documented source "
            "of truth" % (node.value,),
        ))

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and _callee_name(node) in _GUARD_CALLEES:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if _is_epsilon_literal(arg):
                    flag(arg)
        elif isinstance(node, ast.Compare):
            for operand in [node.left] + node.comparators:
                if _is_epsilon_literal(operand):
                    flag(operand)
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _is_epsilon_literal(stmt.value):
            flag(stmt.value)
    return out


def _check_softmax_shift(tree, path):
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if "softmax" not in func.name:
            continue
        exp_calls = [n for n in ast.walk(func)
                     if isinstance(n, ast.Call) and _is_exp_call(n)]
        if not exp_calls or _contains_call_to(func, _GUARD_CALLEES):
            continue
        for n in exp_calls:
            out.append(_violation(
                path, n, "NUM203",
                "softmax without a max-shift overflows on large logits; "
                "subtract the max logit before exponentiating",
            ))
    return out


_NARROW_FLOATS = {"float32", "float16", "single", "half"}


def _is_narrow_dtype(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in ("float32", "float16")
    chain = _attr_chain(node)
    return (len(chain) == 2 and chain[0] in ("np", "numpy")
            and chain[1] in _NARROW_FLOATS)


def _check_dtype_narrowing(tree, path):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        narrowing = False
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "astype" and node.args:
            narrowing = _is_narrow_dtype(node.args[0])
        if not narrowing:
            chain = _attr_chain(node.func)
            narrowing = (len(chain) == 2 and chain[0] in ("np", "numpy")
                         and chain[1] in _NARROW_FLOATS)
        if not narrowing:
            narrowing = any(
                kw.arg == "dtype" and _is_narrow_dtype(kw.value)
                for kw in node.keywords
            )
        if narrowing:
            out.append(_violation(
                path, node, "NUM204",
                "dtype-narrowing cast in a lane-stacked module: lanes must "
                "stay float64 to remain bit-identical at any lane limit",
            ))
    return out


def _check_float_equality(tree, path):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left] + node.comparators
        if any(isinstance(o, ast.Constant) and isinstance(o.value, float)
               for o in operands):
            out.append(_violation(
                path, node, "NUM205",
                "exact float equality in convergence logic is one ulp away "
                "from flipping; compare against a named tolerance (or "
                "justify the exact-zero sentinel)",
            ))
    return out


_CHECKS = {
    "DET101": _check_global_numpy_random,
    "DET102": _check_unordered_iteration,
    "DET103": _check_builtin_sum,
    "DET104": _check_missing_axis,
    "DET105": _check_wall_clock,
    "DET106": _check_acquire_release,
    "DET107": _check_fs_order,
    "DET108": _check_entropy,
    "DET109": _check_env_reads,
    "NUM200": _check_unguarded_exp,
    "NUM201": _check_unguarded_log,
    "NUM202": _check_magic_epsilon,
    "NUM203": _check_softmax_shift,
    "NUM204": _check_dtype_narrowing,
    "NUM205": _check_float_equality,
    "NUM206": _check_unguarded_division,
}


# ---------------------------------------------------------------------------
# Engine: parse, run scoped rules, apply suppressions


def _parse_suppressions(source: str) -> dict[int, tuple[list[str], str | None]]:
    """line number -> (rule ids, justification or None).

    Tokenized, not regexed over raw lines, so suppression syntax quoted in
    strings and docstrings (like the one in this module's docstring) is
    not mistaken for a live suppression.
    """
    out: dict[int, tuple[list[str], str | None]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESSION_RE.search(tok.string)
            if m:
                rules = [r.strip() for r in m.group(1).split(",")
                         if r.strip()]
                out[tok.start[0]] = (rules, m.group(2))
    except tokenize.TokenError:  # pragma: no cover - unparsable tail
        pass
    return out


def lint_source(source: str, path: str = "<string>",
                rel_path: str | None = None) -> list[LintViolation]:
    """Lint one module's source text; returns surviving violations.

    ``rel_path`` positions the module for rule scoping (defaults to the
    path's tail relative to the ``repro`` package root).
    """
    if rel_path is None:
        rel_path = _relative_to_package(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [LintViolation(path=path, line=exc.lineno or 1, rule="DET100",
                              message="file does not parse: %s" % exc.msg)]
    _ParentAnnotator().visit(tree)

    raw: list[LintViolation] = []
    for rule, check in _CHECKS.items():
        if _rule_applies(rule, rel_path):
            raw.extend(check(tree, path))

    suppressions = _parse_suppressions(source)
    used: dict[int, set[str]] = {line: set() for line in suppressions}
    surviving: list[LintViolation] = []
    for v in raw:
        entry = suppressions.get(v.line)
        if entry is not None and v.rule in entry[0]:
            used[v.line].add(v.rule)
        else:
            surviving.append(v)

    for line, (rules, justification) in suppressions.items():
        if justification is None:
            surviving.append(LintViolation(
                path=path, line=line, rule="DET100",
                message="suppression without justification; write "
                        "`# det: ignore[RULE] -- why`",
            ))
        # Rules not in _CHECKS (the KNOB3xx family) are verified by the
        # whole-package provenance pass, which does its own staleness
        # accounting — a per-file lint cannot tell whether they fire.
        stale = [r for r in rules if r not in used[line] and r in _CHECKS]
        if stale:
            surviving.append(LintViolation(
                path=path, line=line, rule="DET100",
                message="stale suppression: %s no longer fires here; "
                        "delete it" % ",".join(stale),
            ))
    surviving.sort(key=lambda v: (v.path, v.line, v.rule))
    return surviving


def lint_file(path: str) -> list[LintViolation]:
    with open(path, encoding="utf-8") as f:
        return lint_source(f.read(), path=path)


def lint_paths(paths: list[str]) -> list[LintViolation]:
    """Lint every ``.py`` file under the given files/directories (sorted
    walk — the lint's own output order is part of the contract)."""
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs.sort()
                files.extend(os.path.join(root, n) for n in sorted(names)
                             if n.endswith(".py"))
        else:
            files.append(p)
    out: list[LintViolation] = []
    for f in files:
        out.extend(lint_file(f))
    return out
