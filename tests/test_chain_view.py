"""No module of the package reads the chain view of a term.

`Term.cont` keeps a term walkable as a chain of statements for the
benchmark harness under ``perfbench/``, which counts statements that
way.  Every pass in the package reads ``term.heads`` and ``term.ret``,
so once the harness does too, the view can be deleted without a search.
"""

from pathlib import Path

import pytest

from test_fields import attributes_read

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arrowlang"
VIEW = {"cont"}


def test_the_check_sees_a_chain_read():
    source = "def f(t):\n    n = len(t.heads)\n    return t.cont\n"
    assert attributes_read(source, VIEW) == ["line 3: cont"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_reads_the_chain_view(path):
    assert attributes_read(path.read_text(encoding="utf-8"), VIEW) == []
