"""Layering rules: no module reaches into another module's private names, and
each decision (stencil steps, output digits, the metric) has one owner.  Also
one hygiene rule for the tests themselves: every file they open is closed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "normshift"
TESTS = Path(__file__).resolve().parent


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


def called_names(tree: ast.Module) -> set[str]:
    """Names called as `f(...)` or `m.f(...)`."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def public_metric_parameters(tree: ast.Module) -> list[str]:
    """Parameters named like 'metric' of the module's public functions and of
    the methods of its public classes, as 'function: parameter'."""
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not _private(node.name):
            functions.append(node)
        elif isinstance(node, ast.ClassDef) and not _private(node.name):
            functions += [f for f in node.body if isinstance(f, ast.FunctionDef)]
    return [f"{f.name}: {a.arg}" for f in functions
            for a in f.args.posonlyargs + f.args.args + f.args.kwonlyargs
            if "metric" in a.arg]


def test_only_the_cli_flattens_a_covariant_field():
    # a metric is resolved once per run; the numerical layers see flat fields
    callers = sorted(p.name for p in SRC.glob("*.py")
                     if "flat_from_covariant" in called_names(ast.parse(p.read_text())))
    assert callers == ["cli.py"]


@pytest.mark.parametrize("name", ["dynamics.py", "shift.py"])
def test_numerical_layers_take_no_metric(name):
    assert public_metric_parameters(ast.parse((SRC / name).read_text())) == []


def test_metric_checker_flags_functions_and_methods():
    tree = ast.parse("def run(field, metric=None): pass\n"
                     "def _helper(metric): pass\n"
                     "class Path:\n"
                     "    def __init__(self, times, *, base_metric): pass\n")
    assert public_metric_parameters(tree) == ["run: metric", "__init__: base_metric"]


def unmanaged_opens(tree: ast.Module) -> list[str]:
    """Calls `open(...)` and `x.open(...)` that are not a `with` item, as
    'line: text'; such a file is closed only when it is garbage-collected."""
    managed = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, (ast.With, ast.AsyncWith)) for item in node.items}
    calls = sorted((node for node in ast.walk(tree) if isinstance(node, ast.Call)),
                   key=lambda node: (node.lineno, node.col_offset))
    return [f"{node.lineno}: {ast.unparse(node)}" for node in calls if id(node) not in managed
            and "open" == (node.func.id if isinstance(node.func, ast.Name)
                           else getattr(node.func, "attr", None))]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_tests_open_files_only_in_with(path):
    assert unmanaged_opens(ast.parse(path.read_text())) == []


def test_open_checker_flags_both_forms():
    tree = ast.parse("with open(p) as fh, q.open('w') as out:\n"
                     "    rows = list(csv.DictReader(open(p)))\n"
                     "text = p.open().read()\n"
                     "lines = p.read_text().splitlines()\n")
    assert unmanaged_opens(tree) == ["2: open(p)", "3: p.open()"]
