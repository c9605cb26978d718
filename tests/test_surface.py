"""The public surface of lslab is what a scan, the CLI, the benchmark or a criterion reaches."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# exported names that no scan, CLI command, benchmark or criterion reaches, kept on purpose
ALLOWED_UNREACHED = {
    "transition_switch_derivative": "integrand of the quadrature oracle that pins kappa",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _reached(tree: ast.Module) -> set[str]:
    """Names loaded, attribute-accessed or imported anywhere in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreached_exports(root: Path) -> set[str]:
    """Every __all__ name of src/lslab that no lslab module, lsbench or criterion uses.

    __init__.py re-exports everything, so it does not count as a use.
    """
    modules = [_parse(path) for path in sorted((root / "src" / "lslab").glob("*.py"))
               if path.name != "__init__.py"]
    users = modules + [_parse(path) for path in sorted((root / "lsbench").glob("*.py"))]
    users.append(_parse(root / "tests" / "test_acceptance.py"))
    used = set().union(*map(_reached, users))
    return set().union(*map(_exports, modules)) - used


def test_every_export_is_reached():
    unreached = unreached_exports(ROOT)
    assert unreached - ALLOWED_UNREACHED.keys() == set(), \
        "exported but reached only by unit tests; delete it or justify it in ALLOWED_UNREACHED"
    # an entry whose name is gone or now reached must leave the allowlist
    assert unreached >= ALLOWED_UNREACHED.keys()


def test_only_lab_writes_text():
    # the layers hand back numbers; lab.py alone turns a value into text
    for path in sorted((ROOT / "src" / "lslab").glob("*.py")):
        if path.name == "lab.py":
            continue
        defined = {node.name for node in ast.walk(_parse(path))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        text_forms = {name for name in defined if name == "format_value"
                      or name.endswith(("_to_text", "_from_text"))}
        assert text_forms == set(), f"{path.name} defines {sorted(text_forms)}"
