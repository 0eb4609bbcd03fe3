"""No module of the package reaches into another module's private names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "normshift"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def cross_module_private_access(tree: ast.Module) -> list[str]:
    """`from .m import _x` and `m._x` for sibling modules m, as 'line: text'."""
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level >= 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append(f"{node.lineno}: from {'.' * node.level}"
                                 f"{node.module or ''} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in siblings):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cross_module_private_access(path):
    assert cross_module_private_access(ast.parse(path.read_text())) == []


def test_checker_flags_both_forms():
    tree = ast.parse("from . import dynamics\n"
                     "from .forces import _metric_from_params, catalogue\n"
                     "from . import __version__\n"
                     "dynamics._combined_solution(dynamics.integrate, self._x)\n")
    assert cross_module_private_access(tree) == [
        "2: from .forces import _metric_from_params",
        "4: dynamics._combined_solution",
    ]


STEP_CONSTANTS = {"H1_PLAIN", "H1_RICH", "H2_RICH"}


def stencil_step_reads(tree: ast.Module) -> list[str]:
    """`numdiff.H*` (under any alias) and `from .numdiff import H*`, as 'line: text'.

    The step sizes are numdiff's decision; other modules call its stencils.
    """
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level >= 1:
            for alias in node.names:
                if node.module is None and alias.name == "numdiff":
                    aliases.add(alias.asname or alias.name)
                if node.module == "numdiff" and alias.name in STEP_CONSTANTS:
                    found.append(f"{node.lineno}: from .numdiff import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in STEP_CONSTANTS
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "numdiff.py"),
                         ids=lambda p: p.name)
def test_only_numdiff_reads_stencil_steps(path):
    assert stencil_step_reads(ast.parse(path.read_text())) == []


def test_step_checker_flags_both_forms():
    tree = ast.parse("from . import numdiff as nd, odesolve\n"
                     "from .numdiff import H2_RICH, richardson\n"
                     "h = nd.H1_RICH * odesolve.H1_PLAIN + nd.richardson_step(1.0)\n")
    assert stencil_step_reads(tree) == ["2: from .numdiff import H2_RICH", "3: nd.H1_RICH"]


def test_only_the_table_writer_formats_seventeen_digits():
    # one writer owns the "17 significant digits" contract of every output file
    holders = sorted(p.name for p in SRC.glob("*.py") if ".17g" in p.read_text())
    assert holders == ["tables.py"]
