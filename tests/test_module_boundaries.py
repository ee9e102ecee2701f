import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sun_gates"


def test_no_module_imports_a_private_name_from_a_sibling():
    # a name with a leading underscore is private to its module; a sibling that needs it should get a public one
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names if alias.name.startswith("_")
    ]
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
