"""Static checks on the package source, written with the standard library only.

Every name listed in an ``__all__`` must resolve, and every module-level
import in ``src/spsa_lab`` must be used in its module or exported.  The
benchmark's traced run (``bench/tracing.py``) patches methods by name and
binds ``run_batch`` arguments by name, so those names must stay in the
package.  ``math.sin``, ``math.cos`` and ``math.sqrt`` raise on arguments
where NumPy gives NaN, so only the NaN-safe float helpers may call them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spsa_lab"
TRACING = ROOT / "bench" / "tracing.py"
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


def _traced_methods() -> list[tuple[str, str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "METHODS" for t in node.targets):
            methods = ast.literal_eval(node.value)
            return [(layer, cls, meth) for layer, pairs in methods.items() for cls, meth in pairs]
    raise AssertionError(f"{TRACING} assigns no METHODS")


def test_traced_methods_exist():
    # the tracer looks each method up in its class's own namespace
    missing = []
    for layer, cls_name, meth in _traced_methods():
        cls = getattr(importlib.import_module(f"spsa_lab.{layer}"), cls_name, None)
        if cls is None or meth not in vars(cls):
            missing.append(f"{layer}.{cls_name}.{meth}")
    assert not missing, f"bench/tracing.py METHODS names methods the package lacks: {missing}"


def test_run_batch_keeps_traced_parameters():
    # bench/tracing.py binds these from each run_batch call
    params = inspect.signature(importlib.import_module("spsa_lab.core").run_batch).parameters
    missing = [name for name in ("theta0", "n_steps", "chunk") if name not in params]
    assert not missing, f"run_batch lost the parameters {missing} that bench/tracing.py binds"


# the NaN-safe float helpers: (module, function) -> the math functions it may call
NAN_SAFE_HELPERS = {("objectives", "_cos"): {"cos"}, ("objectives", "_sin"): {"sin"}, ("schedules", "_sqrt"): {"sqrt"}}
RAISING_MATH = {"sin", "cos", "sqrt"}


def _math_calls(node: ast.AST, aliases: set[str]) -> list[tuple[str, int]]:
    """The ``math.sin``/``cos``/``sqrt`` attributes used under ``node``, through any alias of ``math``."""
    return [
        (n.attr, n.lineno)
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and n.attr in RAISING_MATH
        and isinstance(n.value, ast.Name)
        and n.value.id in aliases
    ]


@pytest.mark.parametrize("stem", MODULES)
def test_raising_math_functions_only_in_nan_safe_helpers(stem):
    # math.cos(inf) and math.sqrt(-1.0) raise ValueError where np.cos and
    # np.sqrt return NaN; a formula that called them directly would turn a
    # non-finite float into a traceback where its column gives NaN
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    aliases = {"math"}
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad += [(a.name, node.lineno) for a in node.names if a.name in RAISING_MATH | {"*"}]
    for node in tree.body:
        allowed = NAN_SAFE_HELPERS.get((stem, getattr(node, "name", None)), set())
        bad += [(name, line) for name, line in _math_calls(node, aliases) if name not in allowed]
    assert not bad, f"{stem}.py uses math functions outside the NaN-safe helpers: {bad}"

