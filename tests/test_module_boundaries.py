import ast
import dataclasses
import inspect
from pathlib import Path

from sun_gates import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sun_gates"


def private_imports(paths):
    """Each ``from <a sun_gates module> import _name`` in ``paths``, relative or by the package's name."""
    return [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "sun_gates")
        for alias in node.names if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name_from_a_sibling():
    # a name with a leading underscore is private to its module; a sibling that needs it should get a public one
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = private_imports(modules)
    assert not offenders, offenders


def test_no_script_imports_a_private_name_from_the_package():
    # the scripts are callers like any other: they build on the package's public names
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    offenders = private_imports(scripts)
    assert not offenders, offenders


def test_only_invariant_channels_names_the_crossing_axes():
    # the crossing and the entries of Z_t have one home; every other module calls its functions
    named = sorted(
        path.name
        for path in PACKAGE.glob("*.py") if path.name not in ("invariant_channels.py", "__init__.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "CROSSING_AXES" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    )
    assert not named, named


def test_only_the_cli_compares_a_deviation_with_a_tolerance():
    # library checks return deviations and measurements; cli.py alone turns them into verdicts
    named = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                named += [f"{path.name}: {node.name}.{field.target.id}" for field in node.body
                          if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                          and field.target.id in ("passed", "tolerance")]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                named += [f"{path.name}: {node.name}(tolerance)" for p in params if p.arg == "tolerance"]
    assert not named, named


def test_the_identity_suite_measures_and_makes_no_verdict():
    # identity_checks returns deviations; verify and the sweep script each compare them with their own tolerance
    assert "tolerance" not in inspect.signature(cli.identity_checks).parameters
    assert "passed" not in [field.name for field in dataclasses.fields(cli.CheckResult)]
