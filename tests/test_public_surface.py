"""Every public name of the package has a reader outside its own unit tests.

A name exported through boqsim.__all__ must be referenced, as an AST Name,
Attribute or import alias (docstrings and comments do not count), by one
of: another top-level definition of the package (the re-exports in
__init__.py do not count), a demo, the benchmark harness, or the
acceptance tests.  A name that only its own unit tests read is dead
surface and should be deleted rather than kept.
"""

import ast
import types
from pathlib import Path

import boqsim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boqsim"
READERS = (sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


def _referenced(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def referenced_names() -> set[str]:
    """Names read by some reader of the public surface."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            # a definition's reference to its own name does not count
            names |= _referenced(stmt) - {getattr(stmt, "name", None)}
    for path in READERS:
        names |= _referenced(ast.parse(path.read_text()))
    return names


def test_every_public_name_has_a_reader():
    public = {name for name in boqsim.__all__
              if not isinstance(getattr(boqsim, name), types.ModuleType)}
    unread = sorted(public - referenced_names())
    assert not unread, f"public names nothing reads: {unread}"
