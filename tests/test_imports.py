"""Import hygiene: every name a module of the package imports is used there.

No linter ships with the project, so this test stands in for the unused-import
check. `__init__.py` is exempt, since its imports are the package's
re-exports, and so is `from __future__ import annotations`.
"""

import ast
from pathlib import Path

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
