"""Layering rules: no module reaches into another module's private names,
each decision (stencil steps, output digits, the metric, the config schema,
the rest-point check) has one owner, each public function and class is used
in the package or listed as an entry point, the layers a single point
reaches square by multiplying, and the complex formulation takes none of the
polar one's derivatives.  Also one hygiene rule for the tests
themselves: every file they open is closed."""

import ast
import collections
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


STEP_CONSTANTS = {"H_COMPLEX"}


def stencil_step_reads(tree: ast.Module) -> list[str]:
    """`numdiff.H_COMPLEX` (under any alias) and `from .numdiff import
    H_COMPLEX`, as 'line: text'.

    The complex step's size is numdiff's decision; other modules call
    ``complex_step``.
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
                     "from .numdiff import H_COMPLEX, jet\n"
                     "h = nd.H_COMPLEX * odesolve.H_COMPLEX + nd.complex_step(1.0)\n")
    assert stencil_step_reads(tree) == ["2: from .numdiff import H_COMPLEX", "3: nd.H_COMPLEX"]


def step_parameters(tree: ast.Module) -> list[str]:
    """Parameters named h, hx, hy or like 'step' of the module's public
    functions, as 'function: parameter'."""
    return [f"{node.name}: {a.arg}" for node in tree.body
            if isinstance(node, ast.FunctionDef) and not _private(node.name)
            for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if a.arg in ("h", "hx", "hy") or "step" in a.arg]


def test_no_numdiff_stencil_takes_a_step():
    assert step_parameters(ast.parse((SRC / "numdiff.py").read_text())) == []


def test_step_parameter_checker_flags_each_name():
    tree = ast.parse("def central(f, x, h=None): pass\n"
                     "def mixed(f, x, y, *, hx, hy, step_base=1.0): pass\n"
                     "def _at(x, h): pass\n"
                     "def partial(stencil, f, args, *moved): pass\n")
    assert step_parameters(tree) == ["central: h", "mixed: hx", "mixed: hy",
                                     "mixed: step_base"]


def squares_by_power(tree: ast.Module) -> list[str]:
    """`x ** 2` and `x ** 2.0`, as 'line: text'.  On a NumPy scalar ``**``
    calls C pow, while on an array it multiplies, and the two can differ in
    the last bit: a single point would not keep the bits of its row."""
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant) and node.right.value == 2]


@pytest.mark.parametrize("name", ["dynamics.py", "normality.py", "shift.py"])
def test_single_points_square_by_multiplying(name):
    assert squares_by_power(ast.parse((SRC / name).read_text())) == []


def test_square_checker_flags_both_forms():
    tree = ast.parse("a = x**2 + np.sqrt(y) ** 2.0\n"
                     "b = x * x + x**3 + 2**x\n")
    assert squares_by_power(tree) == ["1: x ** 2", "1: np.sqrt(y) ** 2.0"]


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


def test_the_package_calls_neither_one_jacobian_method():
    # it takes F and both Jacobians from one ForceField.linearize;
    # jac_spatial and jac_velocity are for callers outside the package, and
    # perfbench's tracer wraps them by name
    callers = sorted(p.name for p in SRC.glob("*.py") if {"jac_spatial", "jac_velocity"}
                     & called_names(ast.parse(p.read_text())))
    assert callers == []


def test_the_package_calls_no_stencil():
    # every derivative is a complex step or a jet; numdiff keeps these four
    # names only as bindings that perfbench's tracer patches
    stencils = {"central", "richardson", "richardson2", "richardson_mixed"}
    callers = sorted(p.name for p in SRC.glob("*.py")
                     if stencils & called_names(ast.parse(p.read_text())))
    assert callers == []


def callers_of(tree: ast.Module, names: set[str]) -> list[str]:
    """The module-level definitions, by name, that call one of ``names``
    (as `f(...)` or `m.f(...)`); '<module>' for a call outside them."""
    return sorted({getattr(node, "name", "<module>") for node in tree.body
                   if called_names(node) & names})


def test_only_the_flat_field_builds_the_field_and_metric():
    # every subcommand takes its field, and a check its generator, from
    # cli._flat_field, which resolves the metric
    tree = ast.parse((SRC / "cli.py").read_text())
    assert callers_of(tree, {"build_field", "build_metric"}) == ["_flat_field"]


def test_caller_checker_names_functions_and_module_code():
    tree = ast.parse("def _flat_field(cfg): return experiment.build_field(cfg)\n"
                     "def cmd_check(args): return [build_metric(m) for m in args]\n"
                     "def cmd_shift(args): return _flat_field(args)\n"
                     "FIELD = build_field({})\n")
    assert callers_of(tree, {"build_field", "build_metric"}) == ["<module>", "_flat_field",
                                                                 "cmd_check"]


# The complex formulation takes its derivatives from jets of the generator in
# Cartesian velocity, independent of the polar one's complex steps and A_theta.
COMPLEX_FORMS = {"complex_force", "complex_residual"}
POLAR_DERIVATIVES = {"complex_step", "a_theta"}


def complex_forms_taking_polar_derivatives(tree: ast.Module) -> list[str]:
    """The complex forms defined in the module that call ``complex_step`` or
    ``a_theta``."""
    return sorted(COMPLEX_FORMS & set(callers_of(tree, POLAR_DERIVATIVES)))


@pytest.mark.parametrize("name", ["forces.py", "normality.py"])
def test_the_complex_forms_take_no_complex_step_and_no_a_theta(name):
    assert complex_forms_taking_polar_derivatives(ast.parse((SRC / name).read_text())) == []


def test_complex_form_checker_flags_either_call():
    tree = ast.parse("def complex_force(a, z, w): return a.a_theta(z, w)\n"
                     "def complex_residual(a, z, w): return numdiff.complex_step(a, (z,), (w,))\n"
                     "def reduced_residual(a, x): return complex_step(a.a_theta, (x,), (1.0,))\n")
    assert complex_forms_taking_polar_derivatives(tree) == ["complex_force", "complex_residual"]


@pytest.mark.parametrize("name", ["dynamics.py", "shift.py"])
def test_numerical_layers_take_no_metric(name):
    assert public_metric_parameters(ast.parse((SRC / name).read_text())) == []


def test_metric_checker_flags_functions_and_methods():
    tree = ast.parse("def run(field, metric=None): pass\n"
                     "def _helper(metric): pass\n"
                     "class Path:\n"
                     "    def __init__(self, times, *, base_metric): pass\n")
    assert public_metric_parameters(tree) == ["run: metric", "__init__: base_metric"]


def raised_name(node: ast.AST) -> str | None:
    """The exception class a `raise` statement names, under any module
    prefix and called or not; None for anything else."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return None
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None))


def test_only_geometry_rejects_a_rest_speed():
    # geometry.checked_speed holds v_min; the frame and every generator
    # path call it instead of testing the speed themselves
    raisers = sorted(p.name for p in SRC.glob("*.py")
                     if any(raised_name(node) == "DegenerateVelocity"
                            for node in ast.walk(ast.parse(p.read_text()))))
    assert raisers == ["geometry.py"]


def config_reading(tree: ast.Module) -> list[str]:
    """`raise ConfigError` (under any module prefix) and functions, lambdas
    included, with a parameter named `spec` or `params`, as 'line: text'."""
    found = []
    for node in ast.walk(tree):
        if raised_name(node) == "ConfigError":
            found.append((node.lineno, f"raise {ast.unparse(node.exc)}"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            found += [(node.lineno, f"{getattr(node, 'name', 'lambda')}({arg.arg})")
                      for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if arg is not None and arg.arg in ("spec", "params")]
    return [f"{line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "experiment.py"),
                         ids=lambda p: p.name)
def test_only_experiment_reads_the_config(path):
    # experiment turns specs into typed arguments and reports malformed ones
    assert config_reading(ast.parse(path.read_text())) == []


def test_config_checker_flags_raises_and_parameters():
    tree = ast.parse("def build(spec): raise ConfigError('bad')\n"
                     "f = lambda *params: errors.ConfigError\n"
                     "def run(field, *, spec_file):\n"
                     "    raise experiment.ConfigError\n"
                     "try: pass\n"
                     "except ConfigError: raise\n")
    assert config_reading(tree) == ["1: build(spec)", "1: raise ConfigError('bad')",
                                    "2: lambda(params)", "4: raise experiment.ConfigError"]


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


def identifiers(node: ast.AST) -> collections.Counter:
    """Names below ``node``: variables, attributes and imported names."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def unnamed_public_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """Public module-level functions and classes, as 'module.name', whose name
    appears in none of the modules outside the definition itself."""
    total = sum((identifiers(tree) for tree in modules.values()), collections.Counter())
    return [f"{module}.{node.name}" for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not _private(node.name)
            and total[node.name] == identifiers(node)[node.name]]


# Public names the package itself never uses, each an entry point of its own.
UNNAMED_ALLOWED = {
    # formulations of the paper's equations and closed-form oracles that the
    # tests check against the ones the CLI runs
    "closedform.marked_point_quadrature", "closedform.oscillator_phi",
    "dynamics.integrate_phi_psi", "dynamics.phi_psi_initial_from_tau",
    "forces.complex_force", "forces.conformal_transport", "forces.covariant_from_flat",
    "normality.b_closed_form", "normality.characteristic_flow", "normality.first_integrals",
    "normality.reduction_b_residual", "normality.symmetry_reduced_ansatz",
    "normality.symmetry_reduced_residual", "shift.frenet",
    # a documented primitive: the projector onto the normal line
    "geometry.projector",
    # the Cartesian assembly's own entry point, which perfbench's tracer patches
    "normality.weak_residuals_cartesian",
}


def test_every_public_name_is_used_or_allowed():
    # equality also fails on a stale entry: one removed, or now used in the package
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert sorted(unnamed_public_definitions(modules)) == sorted(UNNAMED_ALLOWED)


def test_name_checker_counts_uses_outside_the_definition():
    modules = {"a": ast.parse("def used(): return helper()\n"
                              "def recursive(n): return recursive(n - 1)\n"
                              "class Point:\n"
                              "    def moved(self): return Point()\n"
                              "def _private(): pass\n"
                              "def helper(): pass\n"),
               "b": ast.parse("from .a import used\n"
                              "value = mod.attr_only\n"
                              "def attr_only(): pass\n")}
    assert unnamed_public_definitions(modules) == ["a.recursive", "a.Point"]
