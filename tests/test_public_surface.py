"""Every public name of the package, and every field of its public
dataclasses, has a reader outside its own unit tests.

A name exported through boqsim.__all__ must be referenced, as an AST Name,
Attribute or import alias (docstrings and comments do not count), by one
of: another top-level definition of the package (the re-exports in
__init__.py do not count), a demo, the benchmark harness, or the
acceptance tests.  A field of a public dataclass must be read, as an AST
Attribute in load context, by one of the same readers; setting it (a
constructor keyword, an assignment, a string passed to getattr) does not
count.  A name or field that only its own unit tests read is dead surface
and should be deleted rather than kept.
"""

import ast
import dataclasses
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


# fields set by the benchmark harness but read by nothing; a change to the
# benchmark deletes them
UNREAD_FIELDS_KEPT = {"OscillatorParams.freq_a"}


def read_attributes() -> set[str]:
    """Attribute names read (load context) by some reader."""
    paths = [path for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"] + READERS
    return {sub.attr for path in paths
            for sub in ast.walk(ast.parse(path.read_text()))
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)}


def test_every_public_field_has_a_reader():
    read = read_attributes()
    unread = {f"{name}.{fld.name}" for name in boqsim.__all__
              if isinstance(obj := getattr(boqsim, name), type)
              and dataclasses.is_dataclass(obj)
              for fld in dataclasses.fields(obj) if fld.name not in read}
    extra = sorted(unread - UNREAD_FIELDS_KEPT)
    assert not extra, f"public dataclass fields nothing reads: {extra}"
    assert UNREAD_FIELDS_KEPT <= unread, (
        "an exempt field is read or gone; drop its exemption")
