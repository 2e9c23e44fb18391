"""Import hygiene: every name a module of the package imports is used there,
and every private name and public function it defines is read by the package.
No module takes a determinant with linalg.det. Every third-party module the
tests import is declared in pyproject.toml. The package's __all__ holds its
exports and no submodule.

No linter ships with the project, so this test stands in for the unused-import
check. `__init__.py` is exempt, since its imports are the package's
re-exports, and so is `from __future__ import annotations`.
"""

import ast
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

import hartogslab

MODULES = sorted(p for p in Path(hartogslab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree):
    """(name bound by the import, line) for each imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree):
    """(name, line) of each top-level function, class and constant whose
    name starts with an underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def _references(tree):
    """Every name that a module reads: loaded names, attributes and the
    names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_name_is_used(path):
    # a private helper that no code of the package reads is dead code
    package = Path(hartogslab.__file__).parent.glob("*.py")
    read = {name for p in package for name in _references(ast.parse(p.read_text()))}
    dead = [f"{name} (line {line})"
            for name, line in _private_definitions(ast.parse(path.read_text()))
            if name.startswith("_") and name not in read]
    assert not dead, f"{path.name} defines private names it never uses: {dead}"


def _public_functions(tree):
    """(name, line) of each top-level function and each method of a
    top-level class whose name starts with no underscore."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in body:
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                yield f.name, f.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_public_function_is_used(path):
    # a public function or method that no code of the package reads, and
    # that __init__.py does not export, is dead code that only tests keep
    package = Path(hartogslab.__file__).parent.glob("*.py")
    read = {name for p in package for name in _references(ast.parse(p.read_text()))}
    dead = [f"{name} (line {line})"
            for name, line in _public_functions(ast.parse(path.read_text()))
            if name not in read]
    assert not dead, f"{path.name} defines public functions it never uses: {dead}"


def _linalg_det(tree):
    """Line of each reference to linalg.det and each import of it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "det" \
                and ast.unparse(node.value).endswith("linalg"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg") \
                and any(a.name == "det" for a in node.names):
            yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_linalg_det(path):
    # generic_norm_value reads N from the eigenvalues that contains reads
    lines = list(_linalg_det(ast.parse(path.read_text(), filename=str(path))))
    assert not lines, f"{path.name} calls linalg.det (lines {lines})"


def test_all_lists_the_exports_and_no_submodule():
    # importing the exports binds hartogslab.cases and its siblings as
    # attributes too; `from hartogslab import *` takes only the exports
    assert not [name for name in hartogslab.__all__
                if isinstance(getattr(hartogslab, name), ModuleType)]
    names = {}
    exec("from hartogslab import *", names)
    assert {"cases", "cli", "domains", "geometry", "jets", "oracles"}.isdisjoint(names)
    assert {"DomainSpec", "classify_all", "curvature_report", "jet_log"} <= set(names)


TESTS = Path(__file__).parent


def _top_level_modules(tree):
    """The top-level module of each absolute import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_test_imports_are_declared():
    # `pip install .[test]` must give a suite that collects: every
    # third-party module that tests/*.py imports is a dependency of the
    # package (numpy) or named in its test extra
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", r).group().lower().replace("-", "_")
                for r in requirements}
    local = {p.stem for p in TESTS.glob("*.py")} | {"hartogslab"}
    imported = {name for p in TESTS.glob("*.py")
                for name in _top_level_modules(ast.parse(p.read_text()))}
    third_party = imported - local - set(sys.stdlib_module_names)
    assert {"numpy", "pytest", "sympy"} <= third_party
    assert third_party <= declared, \
        f"tests import modules pyproject.toml does not declare: {third_party - declared}"
