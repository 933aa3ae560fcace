"""Dead-code guard: every ``def`` and ``class`` under ``src/repro`` must be
referenced somewhere outside its own definition.

A reference is a use of the name in code — a load (``f()``, ``x.f``), an
import under another name, a decorator — in any file under ``src/``,
``tests/``, ``benchmarks/`` or ``examples/``, or a string that names it
outright (``getattr(obj, "f")``, ``monkeypatch.setattr("pkg.mod.f",
...)``).  What does not count:

- uses inside the definition itself (recursion, a method calling itself);
- the package re-export (``from pkg.mod import f`` and the ``__all__``
  string): a name that is only re-exported is still unreached;
- docstrings and comments.

Dunder names are exempt (the language calls them), and so are the hooks
``ast.NodeVisitor`` dispatches to by name (``generic_visit``,
``visit_<node class>``).  One test id per ``repro`` subpackage, so a
failure names the package; the top-level modules are the ``repro`` id.
"""

import ast
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "repro")
SEARCHED = ("src", "tests", "benchmarks", "examples")

#: A string that names something: ``"f"`` or a dotted path ``"pkg.mod.f"``.
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _called_by_name(name):
    """Whether Python or ``ast.NodeVisitor`` calls ``name`` itself."""
    if name.startswith("__") and name.endswith("__"):
        return True
    if hasattr(ast.NodeVisitor, name):
        return True
    return (name.startswith("visit_")
            and isinstance(getattr(ast, name[len("visit_"):], None), type))


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _docstring_ids(tree):
    """ids of the Constant nodes that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _all_string_ids(tree):
    """ids of the string Constants listed in a module's ``__all__``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                out.update(id(c) for c in ast.walk(node.value)
                           if isinstance(c, ast.Constant))
    return out


def _references(tree):
    """``(name, line)`` of every reference in one parsed file."""
    skip = _docstring_ids(tree) | _all_string_ids(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # Importing a name is not using it, unless it is renamed (the
            # uses then carry the new name).
            for alias in node.names:
                if alias.asname:
                    yield alias.name.rsplit(".", 1)[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip and _DOTTED.fullmatch(node.value)):
            for word in node.value.split("."):
                yield word, node.lineno


def _index():
    """Every definition under ``src/repro`` and every reference in the
    searched trees, parsed once."""
    definitions = []  # (subpackage, relpath, name, first line, last line)
    references = {}   # name -> {(relpath, line)}
    for top in SEARCHED:
        for path in _python_files(os.path.join(ROOT, top)):
            rel = os.path.relpath(path, ROOT)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=rel)
            for name, line in _references(tree):
                references.setdefault(name, set()).add((rel, line))
            if top != "src":
                continue
            parts = os.path.relpath(path, SRC).split(os.sep)
            package = parts[0] if len(parts) > 1 else "repro"
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    definitions.append((package, rel, node.name,
                                        node.lineno, node.end_lineno))
    return definitions, references


_DEFINITIONS, _REFERENCES = _index()
PACKAGES = sorted(["repro"] + [
    d for d in os.listdir(SRC)
    if os.path.isfile(os.path.join(SRC, d, "__init__.py"))])


def _unreferenced(package):
    dead = []
    for pkg, rel, name, first, last in _DEFINITIONS:
        if pkg != package:
            continue
        if _called_by_name(name):
            continue
        outside = [where for where in _REFERENCES.get(name, ())
                   if not (where[0] == rel and first <= where[1] <= last)]
        if not outside:
            dead.append("%s:%d %s" % (rel, first, name))
    return dead


@pytest.mark.parametrize("package", PACKAGES)
def test_no_unreferenced_definitions(package):
    dead = _unreferenced(package)
    assert not dead, (
        "defined under src/repro but referenced nowhere outside their own "
        "definition in %s (delete them, or use them):\n  %s"
        % ("/".join(SEARCHED), "\n  ".join(dead)))
