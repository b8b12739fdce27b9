"""No module of the library reads a private name of a sibling module.

A single-underscore name is private to the module that defines it.  Each
``src/qfourier/*.py`` is parsed, and two ways of taking such a name from a
sibling fail: ``from .x import _y`` (or ``from qfourier.x import _y``) and
``x._y`` where ``x`` is a sibling bound by ``from . import x``.  Dunders
such as ``__version__`` are public.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qfourier"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> str | None:
    """The sibling module a ``from ... import`` reads from, "" for the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "qfourier":
        return node.module.partition(".")[2]
    return None


def private_names_taken(path: Path) -> list[str]:
    """``module._name`` for each private name ``path`` takes from a sibling module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, taken = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (mod := _sibling(node)) is not None:
            for a in node.names:
                if mod == "" and a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
                elif mod and _private(a.name):
                    taken.append(f"{mod}.{a.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            taken.append(f"{aliases[node.value.id]}.{node.attr}")
    return sorted(set(taken))


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_modules(module):
    assert private_names_taken(SRC / f"{module}.py") == []


def test_the_parser_sees_both_forms(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("from . import heat, __version__\n"
                   "from .transform import _TAIL_TERMS, TransformOp\n"
                   "from qfourier.bessel import _anchor_ulps as anchor\n"
                   "heat._residual(heat.heat_residual, heat.__doc__)\n")
    assert private_names_taken(src) == [
        "bessel._anchor_ulps", "heat._residual", "transform._TAIL_TERMS"]
