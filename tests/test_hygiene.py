"""Source hygiene: no module imports a name it never uses, and one module
holds the table cap and the range error.

A leftover import (``reduce``, ``factor_product``, ``np``) is the usual
trace of code moved behind a shared helper.  The check parses each
package module except ``__init__.py``, whose imports are its exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chordalnet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom functools import reduce\nprint(math.pi)\n"
    assert unused_imports(source) == ["line 2: reduce"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


CAP = "MAX_TABLE_ENTRIES"


def cap_uses(source: str) -> list[int]:
    """Lines on which code, not a docstring, names the table cap."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id == CAP)
        or (isinstance(node, ast.Attribute) and node.attr == CAP)
        or (isinstance(node, ast.alias) and CAP in (node.name, node.asname))
    )


def test_the_check_sees_a_use_of_the_cap():
    source = (
        '"""MAX_TABLE_ENTRIES"""\n'
        "from .factors import MAX_TABLE_ENTRIES\n"
        "factors.MAX_TABLE_ENTRIES\n"
    )
    assert cap_uses(source) == [2, 3]


def test_the_table_cap_lives_in_factors_only():
    # One module holds the cap, so no second copy can be patched or checked.
    factors = ast.parse((SRC / "factors.py").read_text(encoding="utf-8"))
    assigned = [
        target.id
        for node in factors.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    ]
    assert CAP in assigned
    others = sorted(p for p in SRC.glob("*.py") if p.name != "factors.py")
    assert {p.name: cap_uses(p.read_text(encoding="utf-8")) for p in others} == {
        p.name: [] for p in others
    }


RANGE_ERROR = "OutOfRangeError"


def range_error_uses(source: str) -> list[tuple[int, str]]:
    """Lines on which code defines (``class``) or constructs (``call``) the
    range error; a name in an import, an ``except`` or a docstring is neither."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == RANGE_ERROR:
            out.append((node.lineno, "class"))
        elif isinstance(node, ast.Call) and RANGE_ERROR in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            out.append((node.lineno, "call"))
    return sorted(out)


def test_the_check_sees_the_range_error_defined_and_built():
    source = (
        '"""OutOfRangeError"""\n'
        "from .factors import OutOfRangeError\n"
        "class OutOfRangeError(ValueError): ...\n"
        "raise OutOfRangeError('x', 0.0)\n"
        "factors.OutOfRangeError('x', 0.0)\n"
        "isinstance(error, OutOfRangeError)\n"
    )
    assert range_error_uses(source) == [(3, "class"), (4, "call"), (5, "call")]


def test_the_range_error_lives_in_factors_only():
    # One module defines and raises it, so the range rule has one home.
    paths = SRC.glob("*.py")
    uses = {p.name: range_error_uses(p.read_text(encoding="utf-8")) for p in paths}
    assert {kind for _, kind in uses.pop("factors.py")} == {"class", "call"}
    assert uses == {name: [] for name in uses}
