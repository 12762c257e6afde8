"""Static checks on the package source, written with the standard library only.

Every name listed in an ``__all__`` must resolve, and every module-level
import in ``src/spsa_lab`` must be used in its module or exported.  Each
public name has one home: a module's ``__all__`` lists only names the module
defines, and the package's lists its version and the modules it loads, so a
name is imported from its module and nowhere else.  The
benchmark's traced run (``bench/tracing.py``) patches methods by name and
binds ``run_batch`` arguments by name, so those names must stay in the
package.  ``math.sin``, ``math.cos`` and ``math.sqrt`` raise on arguments
where NumPy gives NaN, so a formula reaches them only through the two
NaN-catching float bindings: ``objectives.float_form`` and the mean field's
two-point binding, ``meanflow._two_point_field``.  The log-log fits (the
ensemble's variance law and the mean field's bias sweep) share one
``np.polyfit`` call, in ``ensemble.scaling_fit``.  The command line maps
its exceptions to exit codes in one place, ``cli.main``, and it holds no
config rule: it raises ``ConfigError`` at one site, the ``--workers`` check
in ``_prepare``, and ``config.py`` raises every other.  Each callable
takes one input form: ``value`` and ``evaluate`` take arrays and a float
goes through ``at_float``, so no method named ``value`` or ``evaluate``
tests for a float.  The divergence guard is one element-wise test,
``abs(theta) <= threshold``, in every iterate form and dimension, so
``core.py`` never calls ``np.linalg.norm``.  The engine calls the window
statistic at one site, the flush of its stack of iterates, so the
statistic cannot come back to a call per step.  The package stays within a
budget of code lines, counted without blank lines, comment lines and
docstrings; a change that adds code raises the budget in its own diff.
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


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


# each public name has one import path, its home module's; the package lists
# only its version and the modules it loads, so a name is never re-exported
@pytest.mark.parametrize("stem", MODULES)
def test_all_names_defined_in_their_module(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    home = _defined(tree)
    if stem == "__init__":
        home |= {
            a.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for a in node.names
            if a.name in MODULES
        }
    borrowed = [name for name in _exports(tree) if name not in home]
    assert not borrowed, f"{_module_name(stem)}.__all__ lists {borrowed}, defined in other modules"


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


# math.sin, math.cos and math.sqrt raise ValueError where NumPy returns NaN;
# a formula reaches them only as lib.sin, lib.cos and lib.sqrt, and these two
# functions hand it lib = math inside a try that catches that error: the
# float form of a formula, and the two-point mean field at a float, which
# runs the objective's formula itself to save a frame per node
FLOAT_BINDINGS = {("objectives", "float_form"), ("meanflow", "_two_point_field")}
RAISING_MATH = {"sin", "cos", "sqrt"}


def _catches_value_error(handler: ast.ExceptHandler) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id == "ValueError" for n in caught)


def _handed_over_by_binding(stem: str, name: ast.Name, parents: dict) -> bool:
    """Whether a bare ``math`` is an argument of a call in a ``try`` catching ValueError, inside a binding."""
    call = parents[name]
    if not (isinstance(call, ast.Call) and name in call.args):
        return False
    node, in_try, top = call, False, None
    while node in parents:
        parent = parents[node]
        if isinstance(parent, ast.Try) and node in parent.body:
            in_try = in_try or any(_catches_value_error(h) for h in parent.handlers)
        if isinstance(parent, ast.FunctionDef):
            top = parent.name
        node = parent
    return in_try and (stem, top) in FLOAT_BINDINGS


@pytest.mark.parametrize("stem", MODULES)
def test_raising_math_functions_only_in_nan_safe_helpers(stem):
    # math.cos(inf) and math.sqrt(-1.0) raise where np.cos and np.sqrt return
    # NaN; a formula that reached them other than through the binding would
    # turn a non-finite float into a traceback where its column gives NaN.
    # So math.sin, math.cos and math.sqrt are never named, and math itself is
    # only passed on, as a formula's library, by a binding
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    aliases = {"math"}
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad += [(a.name, node.lineno) for a in node.names if a.name in RAISING_MATH | {"*"}]
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Name) and node.id in aliases):
            continue
        parent = parents[node]
        if isinstance(parent, ast.Attribute):
            if parent.attr in RAISING_MATH:
                bad.append((f"math.{parent.attr}", node.lineno))
        elif not _handed_over_by_binding(stem, node, parents):
            bad.append(("math", node.lineno))
    bindings = " or ".join(".".join(b) for b in sorted(FLOAT_BINDINGS))
    assert not bad, f"{stem}.py reaches math other than through {bindings}: {bad}"


# the one least-squares line of the package; a second polyfit would be a
# second fit to keep in step, with its own checks on the grid
FIT_HOME = ("ensemble", "scaling_fit")


@pytest.mark.parametrize("stem", MODULES)
def test_polyfit_only_in_scaling_fit(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    bad = []
    for top in tree.body:
        if (stem, getattr(top, "name", None)) == FIT_HOME:
            continue
        for node in ast.walk(top):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            names.append(getattr(node, "attr", None) or getattr(node, "id", None))
            if "polyfit" in names:
                bad.append(node.lineno)
    assert not bad, f"{stem}.py calls polyfit outside {'.'.join(FIT_HOME)}, at lines {bad}"


def _caught_names(handler: ast.ExceptHandler) -> set:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in caught}


# cli.main turns the errors that its own except clauses name into exit codes
# for every command, so the set is read from main and cannot go stale; a
# command that caught one itself would be a second mapping to keep in step
def test_exit_codes_mapped_in_main_only():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    (main,) = [top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "main"]
    mapped = set().union(*(_caught_names(h) for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)))
    assert mapped, "cli.main maps no error to an exit code"
    bad = []
    for top in tree.body:
        if top is main:
            continue
        for handler in ast.walk(top):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                bad += [(name, handler.lineno) for name in sorted(_caught_names(handler) & mapped)]
    assert not bad, f"cli.py catches exit-code errors outside main: {bad}"


# config.validate_config and the builders are the one home of the config
# rules; a command that checked a key itself would be a second rule to keep
# in step, and one validate_config would not know of.  --workers is an
# option, not a config key, so its check stays in _prepare, which every
# command calls
def test_config_errors_raised_in_config_only():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    sites = [
        (getattr(top, "name", None), node)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConfigError"
    ]
    found = [(name, node.lineno) for name, node in sites]
    assert len(sites) == 1, f"cli.py constructs ConfigError at {found}; only the --workers check may"
    name, node = sites[0]
    assert name == "_prepare" and "--workers" in ast.unparse(node), f"cli.py's one ConfigError is {found}"


# a gain's value and the mean field's evaluate take arrays, an objective's
# value takes one point, and at_float takes a float; a float branch in one of
# them would be a second way in to at_float, and a type test on every call
ARRAY_METHODS = {"value", "evaluate"}


def _tests_for_float(node: ast.AST) -> bool:
    """Whether ``node`` is ``isinstance(x, float)`` (float alone or in a tuple) or ``x.__class__ is float``."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(getattr(k, "id", None) == "float" for k in kinds)
    if isinstance(node, ast.Compare) and getattr(node.left, "attr", None) == "__class__":
        return any(getattr(c, "id", None) == "float" for c in node.comparators)
    return False


@pytest.mark.parametrize("stem", MODULES)
def test_array_methods_take_no_float(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    bad = [
        (fn.name, node.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in ARRAY_METHODS
        for node in ast.walk(fn)
        if _tests_for_float(node)
    ]
    assert not bad, f"{stem}.py tests for a float in {bad}; a float goes through at_float"


# the guard bounds each coordinate's magnitude, in one expression for a float
# and for (m, d) rows at every d; a norm over the rows would be a second rule
# for d > 1, and the Euclidean one squares coordinates and overflows
def test_guard_takes_no_linalg_norm():
    tree = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "norm" and getattr(node.value, "attr", None) == "linalg":
            bad.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            bad += [node.lineno for a in node.names if a.name in ("norm", "*")]
    assert not bad, f"core.py calls np.linalg.norm at lines {bad}; the guard is abs(theta) <= threshold"


# the window statistic runs once per stack of iterates: one call site in
# core.py, the stack's flush.  A second site is a per-step call come back
def test_window_statistic_called_at_the_stack_flush_only():
    tree = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    calls, flushes = [], []
    for node in ast.walk(tree):
        f = getattr(node, "func", None)
        if isinstance(f, ast.Attribute) and f.attr == "fn" and getattr(f.value, "id", None) == "statistic":
            calls.append(node.lineno)
        elif isinstance(node, ast.FunctionDef) and node.name == "flush":
            flushes.append(range(node.lineno, node.end_lineno + 1))
    assert len(calls) == 1 and any(calls[0] in lines for lines in flushes), (
        f"core.py calls statistic.fn at lines {calls}; the one site is the stack's flush"
    )


# code-only lines of src/spsa_lab: no blank line, no comment line, and no
# module, class or function docstring.  A change that adds code raises the
# budget in its own diff and says why, as with the frame budgets
CODE_LINE_BUDGET = 1640


def _code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = enumerate(text.splitlines(), start=1)
    return sum(1 for i, line in lines if line.strip() and not line.lstrip().startswith("#") and i not in docstrings)


def test_source_stays_within_code_line_budget():
    counts = {p.name: _code_lines(p) for p in sorted(SRC.glob("*.py"))}
    total = sum(counts.values())
    assert total <= CODE_LINE_BUDGET, f"src/spsa_lab has {total} code lines, budget {CODE_LINE_BUDGET}: {counts}"
