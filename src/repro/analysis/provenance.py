"""Static knob-provenance analysis: the KNOB3xx rules.

The checkpoint/resume story hangs on the checkpoint fingerprint covering
*every result-affecting knob* — and on every excluded knob being excluded
on purpose.  Each knob (a dataclass field of one of the
:data:`KNOB_CONFIG_CLASSES` or a registered ``REPRO_*`` variable) carries
a machine-readable provenance declaration (:func:`repro.knobs.knob` /
``EnvVar.provenance``), and the fingerprint is *derived* from those
declarations (:func:`repro.knobs.fingerprinted_values`), so "declared
fingerprinted" and "in the fingerprint" cannot disagree.  What a
declaration can still get wrong is its class, and this module is the
static half of the contract that keeps the classes honest.  It never
imports the analyzed code: the whole pass — inventory, read sites, dataflow
— is built from the AST of a source tree, so tests can run it against
deliberately broken copies of the package.

The pass:

1. **Inventories** every knob and requires a valid declaration (KNOB300).
2. **Holds an env var to its config field**: a variable that is the
   environment face of a field (``resolves_to``) must name a declared
   field and share its class, and a ``fingerprinted`` variable must
   resolve into one — otherwise its value would never reach the
   fingerprint (KNOB301).
3. **Traces each knob's reads** through the tree: attribute loads of the
   field name, registry reads of the variable name, and — via per-function
   taint over assignments plus import-resolved call arguments — values
   flowing into the evaluation layers.  A ``scheduling``/``observational``
   knob whose value reaches ``core/``, ``optim/``, ``transforms/``,
   ``profiles/``, ``psf/``, or ``gaussians.py`` contradicts its declaration
   (KNOB302; ``neutral`` knobs *are* allowed there — cache blocking lives
   inside the kernels).  A ``fingerprinted`` knob nothing reads is a dead
   knob (KNOB303).

========  ==================================================================
KNOB300   Every knob declares a provenance class ("fingerprinted",
          "neutral", "observational", "scheduling") via
          ``repro.knobs.knob`` / ``EnvVar(provenance=...)``.
KNOB301   An env var's declaration agrees with the config field it
          resolves to, and a fingerprinted env var resolves to one.
KNOB302   A scheduling/observational knob's value must not flow into the
          evaluation modules — if results can depend on it, it is not a
          scheduling knob.
KNOB303   A fingerprinted knob with no read site anywhere is dead — it
          poisons resume compatibility without affecting results.
========  ==================================================================

Suppression uses the shared ``# det: ignore[KNOB30x] -- why`` machinery;
the dynamic half of the contract is the neutrality fuzzer in
``tests/test_provenance.py``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass

from repro.analysis.lint import LintViolation, _parse_suppressions
from repro.knobs import PROVENANCE_CLASSES

__all__ = [
    "KNOB_CONFIG_CLASSES",
    "Knob",
    "analyze_provenance",
    "knob_inventory",
    "render_inventory",
]

#: The config dataclasses whose fields are knobs, in manifest order.
KNOB_CONFIG_CLASSES = (
    "DriverConfig",
    "ParallelRegionConfig",
    "JointConfig",
    "OptimizeConfig",
    "PhotoConfig",
    "DtreeConfig",
)

#: Modules that *evaluate the model* — where a scheduling/observational
#: knob's value must never land (KNOB302).  Deliberately the numeric core
#: only: containers like ``core/catalog.py``/``core/params.py`` carry
#: results around without computing them, and scoping them in would flag
#: every checkpoint/result handoff.
_EVAL_MODULES = ("core/elbo", "core/kernel", "core/single.py",
                 "core/joint.py", "core/fluxes.py", "core/priors.py",
                 "core/uncertainty.py", "optim/", "transforms/",
                 "profiles/", "psf/", "gaussians.py")

#: Files never scanned for read sites: declaration sites and the analysis
#: package itself (rule tables and fixtures mention every knob by name).
_READ_EXEMPT = ("analysis/", "envvars.py", "knobs.py")

#: The typed read functions of the env registry.
_ENV_READERS = {"env_raw", "env_flag", "env_int"}


@dataclass(frozen=True)
class Knob:
    """One entry of the knob manifest."""

    #: "field" (config dataclass field) or "env" (registered variable).
    kind: str
    #: Defining class name, or "env".
    owner: str
    name: str
    #: Declared provenance class, None when the declaration is missing.
    provenance: str | None
    #: Defining file (absolute) and package-relative path, and line.
    path: str
    rel_path: str
    line: int
    #: For env vars: the "ClassName.field" this variable resolves into.
    resolves_to: str | None
    #: Package-relative paths with a read site for this knob.
    read_paths: tuple[str, ...]

    @property
    def qualname(self) -> str:
        return self.name if self.kind == "env" else \
            "%s.%s" % (self.owner, self.name)


def _is_eval_module(rel_path: str) -> bool:
    return any(rel_path == p or rel_path.startswith(p)
               for p in _EVAL_MODULES)


def _is_read_exempt(rel_path: str) -> bool:
    return any(rel_path == p or rel_path.startswith(p)
               for p in _READ_EXEMPT)


def _callee_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _field_provenance(value: ast.AST | None) -> str | None:
    """Declared provenance of a dataclass field default expression: a
    ``knob(..., provenance="...")`` call or a ``field(metadata={...})``
    carrying a ``"provenance"`` entry."""
    if not isinstance(value, ast.Call):
        return None
    callee = _callee_name(value)
    if callee == "knob":
        for kw in value.keywords:
            if kw.arg == "provenance" and isinstance(kw.value, ast.Constant):
                return kw.value.value
        return None
    if callee == "field":
        for kw in value.keywords:
            if kw.arg == "metadata" and isinstance(kw.value, ast.Dict):
                for k, v in zip(kw.value.keys, kw.value.values):
                    if isinstance(k, ast.Constant) \
                            and k.value == "provenance" \
                            and isinstance(v, ast.Constant):
                        return v.value
    return None


class _Analysis:
    """One scan of a package source tree; everything else reads from it."""

    def __init__(self, root: str):
        self.root = root
        #: rel_path -> (abs path, source, parsed tree)
        self.modules: dict[str, tuple[str, str, ast.AST]] = {}
        for dirpath, dirs, names in os.walk(root):
            dirs.sort()
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as f:
                    source = f.read()
                try:
                    tree = ast.parse(source)
                except SyntaxError:
                    continue  # the lint reports unparsable files
                self.modules[rel] = (path, source, tree)

        self._import_maps = {
            rel: self._build_import_map(tree)
            for rel, (_, _, tree) in self.modules.items()
        }
        # Module constants bound to REPRO_* names (EXECUTOR_ENV_VAR and
        # friends): registry reads go through these, not string literals.
        self._env_constants: dict[str, str] = {}
        for rel, (_, _, tree) in sorted(self.modules.items()):
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) \
                        and isinstance(node.value, ast.Constant) \
                        and isinstance(node.value.value, str) \
                        and node.value.value.startswith("REPRO_"):
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            self._env_constants[t.id] = node.value.value
        self.config_fields = self._collect_config_fields()
        self.env_vars = self._collect_env_vars()
        self._read_paths = self._collect_read_paths()

    # -- inventory ---------------------------------------------------------

    def _collect_config_fields(self):
        """class name -> list of (field name, provenance, rel, path, line)."""
        out: dict[str, list] = {}
        for rel, (path, _, tree) in sorted(self.modules.items()):
            for node in ast.walk(tree):
                if not (isinstance(node, ast.ClassDef)
                        and node.name in KNOB_CONFIG_CLASSES
                        and node.name not in out):
                    continue
                fields = []
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) \
                            and isinstance(stmt.target, ast.Name):
                        fields.append((
                            stmt.target.id,
                            _field_provenance(stmt.value),
                            rel, path, stmt.lineno,
                        ))
                out[node.name] = fields
        return out

    def _collect_env_vars(self):
        """var name -> (provenance, resolves_to, rel, path, line)."""
        out: dict[str, tuple] = {}
        for rel, (path, _, tree) in sorted(self.modules.items()):
            if not rel.endswith("envvars.py"):
                continue
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and _callee_name(node) == "EnvVar"
                        and node.args
                        and isinstance(node.args[0], ast.Constant)):
                    continue
                name = node.args[0].value
                provenance = resolves_to = None
                for kw in node.keywords:
                    if isinstance(kw.value, ast.Constant):
                        if kw.arg == "provenance":
                            provenance = kw.value.value
                        elif kw.arg == "resolves_to":
                            resolves_to = kw.value.value
                out.setdefault(
                    name, (provenance, resolves_to, rel, path, node.lineno))
        return out

    # -- read sites and dataflow -------------------------------------------

    def _env_call_name(self, call: ast.Call) -> str | None:
        """Registry variable a call reads, resolving name arguments
        through the REPRO_* module constants; None for other calls."""
        if _callee_name(call) not in _ENV_READERS or not call.args:
            return None
        arg = call.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.Name):
            return self._env_constants.get(arg.id)
        return None

    def _collect_read_paths(self):
        """('field', name) / ('env', name) -> sorted rel paths reading it."""
        out: dict[tuple[str, str], set[str]] = {}
        field_names = {
            f[0] for fields in self.config_fields.values() for f in fields
        }
        for rel, (_, _, tree) in sorted(self.modules.items()):
            if _is_read_exempt(rel):
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load) \
                        and node.attr in field_names:
                    out.setdefault(("field", node.attr), set()).add(rel)
                elif isinstance(node, ast.Call):
                    env_name = self._env_call_name(node)
                    if env_name in self.env_vars:
                        out.setdefault(("env", env_name), set()).add(rel)
        return {k: tuple(sorted(v)) for k, v in out.items()}

    def read_paths(self, kind: str, name: str) -> tuple[str, ...]:
        return self._read_paths.get((kind, name), ())

    def _build_import_map(self, tree) -> dict[str, str]:
        """imported name -> package-relative path of the module defining it
        (repro-internal ``from`` imports only; ``from repro.a import b``
        maps ``b`` to ``a/b.py`` when that module exists, else ``a.py``)."""
        out: dict[str, str] = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                continue
            base = "/".join(node.module.split(".")[1:])
            for alias in node.names:
                bound = alias.asname or alias.name
                as_module = ("%s/%s.py" % (base, alias.name)) if base \
                    else ("%s.py" % alias.name)
                if as_module in self.modules:
                    out[bound] = as_module
                elif base:
                    out[bound] = "%s.py" % base
        return out

    def _resolve_callee(self, rel: str, call: ast.Call) -> str | None:
        """Defining module of a call's callee, by import-map lookup: a bare
        imported name, or an attribute on an imported module alias."""
        imap = self._import_maps.get(rel, {})
        func = call.func
        if isinstance(func, ast.Name):
            target = imap.get(func.id)
            if target in self.modules:
                return target
            return None
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            target = imap.get(func.value.id)
            if target in self.modules:
                return target
        return None

    def _knob_read_nodes(self, scope: ast.AST, attr_name: str | None,
                         env_names: frozenset[str]) -> list[ast.AST]:
        reads: list[ast.AST] = []
        for n in ast.walk(scope):
            if attr_name is not None and isinstance(n, ast.Attribute) \
                    and isinstance(n.ctx, ast.Load) and n.attr == attr_name:
                reads.append(n)
            elif isinstance(n, ast.Call) \
                    and self._env_call_name(n) in env_names:
                reads.append(n)
        return reads

    def eval_flows(self, attr_name: str | None,
                   env_names: frozenset[str] = frozenset()
                   ) -> list[tuple[str, int, str]]:
        """(rel, line, detail) sites where the knob's value reaches an
        evaluation module: a direct read inside one, or — per-function
        taint over assignments — a read whose value is passed as an
        argument to a call resolving into one."""
        out: list[tuple[str, int, str]] = []
        for rel, (_, _, tree) in sorted(self.modules.items()):
            if _is_read_exempt(rel):
                continue
            if _is_eval_module(rel):
                for n in self._knob_read_nodes(tree, attr_name, env_names):
                    out.append((rel, n.lineno, "read in %s" % rel))
                continue
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                reads = self._knob_read_nodes(func, attr_name, env_names)
                if not reads:
                    continue
                read_ids = set(map(id, reads))
                tainted = self._tainted_names(func, read_ids)
                for call in ast.walk(func):
                    if not isinstance(call, ast.Call):
                        continue
                    callee_mod = self._resolve_callee(rel, call)
                    if callee_mod is None \
                            or not _is_eval_module(callee_mod):
                        continue
                    args = list(call.args) + [kw.value
                                              for kw in call.keywords]
                    if any(self._expr_tainted(a, read_ids, tainted)
                           for a in args):
                        out.append((
                            rel, call.lineno,
                            "flows into %s via call in %s"
                            % (callee_mod, rel),
                        ))
        return out

    @staticmethod
    def _expr_tainted(expr: ast.AST, read_ids: set[int],
                      tainted: set[str]) -> bool:
        for n in ast.walk(expr):
            if id(n) in read_ids:
                return True
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) \
                    and n.id in tainted:
                return True
        return False

    @classmethod
    def _tainted_names(cls, func: ast.AST, read_ids: set[int]) -> set[str]:
        """Names bound (transitively, to a fixpoint) from an expression
        containing a knob read within one function."""
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for n in ast.walk(func):
                targets: list[ast.AST] = []
                value = None
                if isinstance(n, ast.Assign):
                    targets, value = n.targets, n.value
                elif isinstance(n, ast.AnnAssign) and n.value is not None:
                    targets, value = [n.target], n.value
                if value is None \
                        or not cls._expr_tainted(value, read_ids, tainted):
                    continue
                for target in targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Name) \
                                and t.id not in tainted:
                            tainted.add(t.id)
                            changed = True
        return tainted


def _package_root(root: str | None) -> str:
    if root is None:
        return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return root


def knob_inventory(root: str | None = None) -> list[Knob]:
    """The full knob manifest of a source tree (default: this package):
    every config field and registered env var, with declared provenance
    and read sites."""
    a = _Analysis(_package_root(root))
    out: list[Knob] = []
    for cls in KNOB_CONFIG_CLASSES:
        for name, provenance, rel, path, line in a.config_fields.get(cls, []):
            out.append(Knob(
                kind="field", owner=cls, name=name, provenance=provenance,
                path=path, rel_path=rel, line=line,
                resolves_to=None,
                read_paths=a.read_paths("field", name),
            ))
    for name in a.env_vars:
        provenance, resolves_to, rel, path, line = a.env_vars[name]
        out.append(Knob(
            kind="env", owner="env", name=name, provenance=provenance,
            path=path, rel_path=rel, line=line,
            resolves_to=resolves_to,
            read_paths=a.read_paths("env", name),
        ))
    return out


def render_inventory(knobs: list[Knob]) -> str:
    """The human-readable manifest (``--list-knobs``)."""
    lines = [
        "%-40s %-14s %s" % ("knob", "provenance", "declared at"),
        "-" * 85,
    ]
    for k in knobs:
        lines.append("%-40s %-14s %s:%d" % (
            k.qualname, k.provenance or "UNDECLARED", k.rel_path, k.line,
        ))
    counts = dict.fromkeys(PROVENANCE_CLASSES, 0)
    for k in knobs:
        key = k.provenance or "UNDECLARED"
        counts[key] = counts.get(key, 0) + 1
    lines.append("-" * 85)
    lines.append("%d knobs: %s" % (
        len(knobs),
        ", ".join("%d %s" % (n, c) for c, n in counts.items()),
    ))
    return "\n".join(lines)


def _raw_violations(a: _Analysis) -> list[LintViolation]:
    out: list[LintViolation] = []
    field_index: dict[str, dict[str, str | None]] = {}

    # KNOB300 + KNOB303 over config fields.
    for cls in KNOB_CONFIG_CLASSES:
        field_index[cls] = {}
        for name, provenance, rel, path, line in a.config_fields.get(cls, []):
            field_index[cls][name] = provenance
            qual = "%s.%s" % (cls, name)
            if provenance not in PROVENANCE_CLASSES:
                out.append(LintViolation(
                    path=path, line=line, rule="KNOB300",
                    message="%s has no valid provenance declaration; "
                            "declare it with repro.knobs.knob(..., "
                            "provenance=one of %r)"
                            % (qual, list(PROVENANCE_CLASSES)),
                ))
            elif provenance == "fingerprinted" \
                    and not a.read_paths("field", name):
                out.append(LintViolation(
                    path=path, line=line, rule="KNOB303",
                    message="%s is fingerprinted but nothing reads it: a "
                            "dead knob poisons resume compatibility "
                            "without affecting results; wire it up or "
                            "delete it" % qual,
                ))

    # KNOB300/301/303 over env vars.
    for name in a.env_vars:
        provenance, resolves_to, rel, path, line = a.env_vars[name]
        if provenance not in PROVENANCE_CLASSES:
            out.append(LintViolation(
                path=path, line=line, rule="KNOB300",
                message="%s has no valid provenance declaration; pass "
                        "EnvVar(..., provenance=one of %r)"
                        % (name, list(PROVENANCE_CLASSES)),
            ))
            continue
        if resolves_to is not None:
            cls, _, field_name = resolves_to.partition(".")
            declared = field_index.get(cls, {}).get(field_name)
            if cls not in field_index or field_name not in field_index[cls]:
                out.append(LintViolation(
                    path=path, line=line, rule="KNOB301",
                    message="%s resolves_to %r, which names no declared "
                            "config knob" % (name, resolves_to),
                ))
            elif declared is not None and declared != provenance:
                out.append(LintViolation(
                    path=path, line=line, rule="KNOB301",
                    message="%s declares provenance '%s' but resolves to "
                            "%s, declared '%s'; the variable is just that "
                            "knob's environment face, so the declarations "
                            "must agree"
                            % (name, provenance, resolves_to, declared),
                ))
        elif provenance == "fingerprinted":
            out.append(LintViolation(
                path=path, line=line, rule="KNOB301",
                message="%s declares provenance 'fingerprinted' but names "
                        "no resolves_to config field; a fingerprinted env "
                        "var must resolve into a fingerprinted knob"
                        % name,
            ))
        if provenance == "fingerprinted" and not a.read_paths("env", name):
            out.append(LintViolation(
                path=path, line=line, rule="KNOB303",
                message="%s is fingerprinted but no module reads it "
                        "through the registry; wire it up or delete it"
                        % name,
            ))

    # KNOB302: scheduling/observational values reaching evaluation modules.
    # Read sites match by *field name* (an over-approximation), so check
    # per name and only when every config class declaring the name agrees
    # it is scheduling/observational — a name shared with a fingerprinted
    # knob is ambiguous and stays out.
    by_name: dict[str, list[tuple[str, str]]] = {}
    for cls in KNOB_CONFIG_CLASSES:
        for name, provenance, rel, path, line in a.config_fields.get(cls, []):
            if provenance in PROVENANCE_CLASSES:
                by_name.setdefault(name, []).append((cls, provenance))
    for name, decls in sorted(by_name.items()):
        if not all(p in ("scheduling", "observational") for _, p in decls):
            continue
        quals = ", ".join("%s.%s (%s)" % (cls, name, p) for cls, p in decls)
        for flow_rel, flow_line, detail in a.eval_flows(name):
            flow_path, _, _ = a.modules[flow_rel]
            out.append(LintViolation(
                path=flow_path, line=flow_line, rule="KNOB302",
                message="%s is declared non-result-affecting but its "
                        "value %s — an evaluation path; if results can "
                        "depend on it, re-declare it (and fingerprint it)"
                        % (quals, detail),
            ))
    for name in a.env_vars:
        provenance, resolves_to, rel, path, line = a.env_vars[name]
        if provenance not in ("scheduling", "observational"):
            continue
        for flow_rel, flow_line, detail in a.eval_flows(
                None, frozenset((name,))):
            flow_path, _, _ = a.modules[flow_rel]
            out.append(LintViolation(
                path=flow_path, line=flow_line, rule="KNOB302",
                message="%s is declared '%s' but its value %s — an "
                        "evaluation path; if results can depend on it, "
                        "re-declare it (and fingerprint it)"
                        % (name, provenance, detail),
            ))

    return out


def analyze_provenance(root: str | None = None) -> list[LintViolation]:
    """Run the KNOB3xx pass over a package source tree (default: this
    package); returns violations surviving ``# det: ignore[...]``
    suppressions, plus DET100 findings for stale KNOB suppressions."""
    a = _Analysis(_package_root(root))
    raw = _raw_violations(a)

    surviving: list[LintViolation] = []
    used: dict[tuple[str, int], set[str]] = {}
    suppressions: dict[str, dict[int, tuple[list[str], str | None]]] = {}
    for rel, (path, source, _) in a.modules.items():
        suppressions[path] = _parse_suppressions(source)
    for v in raw:
        entry = suppressions.get(v.path, {}).get(v.line)
        if entry is not None and v.rule in entry[0]:
            used.setdefault((v.path, v.line), set()).add(v.rule)
        else:
            surviving.append(v)
    for path, per_file in suppressions.items():
        for line, (rules, _) in per_file.items():
            stale = [r for r in rules if r.startswith("KNOB")
                     and r not in used.get((path, line), set())]
            if stale:
                surviving.append(LintViolation(
                    path=path, line=line, rule="DET100",
                    message="stale suppression: %s no longer fires here; "
                            "delete it" % ",".join(stale),
                ))
    surviving.sort(key=lambda v: (v.path, v.line, v.rule))
    return surviving
