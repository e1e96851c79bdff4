"""Source hygiene checked with the standard library alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "fracgeo").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never references.

    A name counts as referenced when it appears as an expression name
    anywhere in the module or is listed in `__all__`; `__future__` imports
    are not names.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used.update(
                    c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
                )
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_finder_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy.linalg\n"
        "from math import pi as PI, tau\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "print(sys.argv, numpy.linalg, tau)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "PI")]


def test_no_unused_imports():
    assert len(MODULES) > 10
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "imported but never used:\n" + "\n".join(found)
