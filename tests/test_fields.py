"""A `Subdist` has one stored form, and only `subdist` reads it.

Every other module of the package reads a subdistribution through its
public methods; the evaluation engine in `semantics` alone reads the
integer form, through `Subdist.numerators`.
"""

import ast
from pathlib import Path

import pytest

from arrowlang.subdist import Subdist

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arrowlang"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "subdist.py")
ACCESSOR = "numerators"
ENGINE = "semantics"


def attributes_read(source: str, names) -> list[str]:
    """``line N: name`` for each attribute in ``names`` that the source reads."""
    return [f"line {node.lineno}: {node.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in names]


def test_the_check_sees_a_field_read():
    source = "def f(d):\n    n = d._nums\n    return d.mass, d.items(), d.numerators()\n"
    assert attributes_read(source, Subdist.__slots__) == ["line 2: _nums"]
    assert attributes_read(source, {ACCESSOR}) == ["line 3: numerators"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_other_module_reads_the_stored_form(path):
    source = path.read_text(encoding="utf-8")
    assert attributes_read(source, Subdist.__slots__) == []
    if path.stem != ENGINE:
        assert attributes_read(source, {ACCESSOR}) == []


def test_the_engine_reads_the_stored_form_through_the_accessor():
    assert attributes_read((PACKAGE / f"{ENGINE}.py").read_text(encoding="utf-8"), {ACCESSOR})
