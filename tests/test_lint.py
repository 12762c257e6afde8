"""Static checks on the package source, written with the standard library only.

Every name listed in an ``__all__`` must resolve, and every module-level
import in ``src/spsa_lab`` must be used in its module or exported.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spsa_lab"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _module_name(stem: str) -> str:
    return "spsa_lab" if stem == "__init__" else f"spsa_lab.{stem}"


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("stem", MODULES)
def test_all_names_resolve(stem):
    module = importlib.import_module(_module_name(stem))
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert not missing, f"{_module_name(stem)}.__all__ names undefined {missing}"


@pytest.mark.parametrize("stem", MODULES)
def test_module_imports_are_used_or_exported(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(set(imported) - used - set(_exports(tree)))
    assert not unused, f"{stem}.py imports unused names {[(n, imported[n]) for n in unused]}"
