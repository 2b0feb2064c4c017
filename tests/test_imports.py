"""Every name a module of the package imports is used in that module,
and every private name the package defines is read somewhere in it.

`__init__` is left out of the first check: it imports names to export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arrowlang"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(((a.asname or a.name).split(".")[0], node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import re\nfrom x import a, b as c\nprint(a)\n") == [
        "line 1: re", "line 2: c"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(source: str) -> list[tuple[str, int]]:
    """The private module-level functions, classes and constants of a
    module, and the private methods of its classes, with their lines."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                defined += [(t.id, node.lineno) for t in names if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            defined += [(m.name, m.lineno) for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(name, line) for name, line in defined if _is_private(name)]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The private names that some module defines and no module reads,
    as a variable or as an attribute."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
    return [f"{module} line {line}: {name}" for module, source in sources.items()
            for name, line in private_definitions(source) if name not in read]


def test_the_check_sees_an_unused_private_name():
    source = ("_LIMIT = 3\n_UNREAD: int = 4\n_PAIR, _ALSO = 1, 2\n"
              "def _used(): return _LIMIT\n"
              "def _unused(): pass\n"
              "class _Box:\n"
              "    def __init__(self): self._seen = _used()\n"
              "    def _read(self): return self._seen\n"
              "    def _never(self): pass\n"
              "def public(): return _Box()._read()\n")
    assert unreferenced_private_names({"m": source}) == [
        "m line 2: _UNREAD", "m line 3: _PAIR", "m line 3: _ALSO", "m line 5: _unused",
        "m line 9: _never"]
    # a name read in another module counts
    other = {"a": "def _f(): pass\n", "b": "from a import _f\n_f()\n"}
    assert unreferenced_private_names(other) == []


def test_every_private_name_in_the_package_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert sum(len(private_definitions(s)) for s in sources.values()) >= 50
    assert unreferenced_private_names(sources) == []
