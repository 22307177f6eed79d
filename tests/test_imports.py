"""No module of the package or of its tests imports a name it never uses.

The package's ``__init__`` is left out: its imports are the package's public
names.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "spinkinetics"


def unused_imports(source: str) -> list:
    """The names a module's imports bind and nothing else in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation reads the names in its text
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                read |= {n.id for n in ast.walk(ast.parse(annotation.value))
                         if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_a_module_reads_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.relative_to(TESTS).as_posix()
                                          for p in TESTS.rglob("*.py")))
def test_a_test_module_reads_every_name_it_imports(module):
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c, d\nd()\n", ["c"]),
    ("from __future__ import annotations\n", []),
    ("from a import B\ndef f() -> 'B': pass\n", []),
])
def test_the_check_finds_an_unread_import(source, unused):
    assert unused_imports(source) == unused
