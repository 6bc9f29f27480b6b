"""The package names that code outside it uses: the benchmark and the demos.

Neither runs in this suite, so a public name they need, or a parameter
they pass, could be removed without any other test failing.  Conversely,
every name the package exports needs a caller outside the tests, and
every public oracle method a reader.
"""

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

CALLERS = sorted((REPO_ROOT / "benchmarks").glob("*.py")) + sorted(
    (REPO_ROOT / "demos").glob("*.py"))


def test_benchmark_tracer_installs():
    # every attribute the tracer wraps must exist; it runs in a child
    # process because a failed install leaves its earlier patches in place
    code = (f"import sys; sys.path[:0] = [{str(REPO_ROOT / 'benchmarks')!r}, "
            f"{str(REPO_ROOT / 'src')!r}]\n"
            "from tracing import Tracer\n"
            "with Tracer().installed():\n    pass\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _dotted(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _references(path):
    """Every localsgd name `path` imports or reads as localsgd.<module>.<attr>."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("localsgd"):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.startswith("localsgd"))
        elif isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain is not None and chain.startswith("localsgd."):
                yield chain


def _resolve(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))  # a submodule not yet loaded
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_names_used_outside_the_package_resolve(path):
    missing = []
    for dotted in sorted(set(_references(path))):
        try:
            _resolve(dotted)
        except (ImportError, AttributeError):
            missing.append(dotted)
    assert not missing, f"{path.name} uses names the package lacks: {missing}"


def _calls(path):
    """(callee, positional count, keyword names) of each call `path` makes to a localsgd name.

    The callee is a name imported from localsgd or a localsgd.<module>.<attr>
    chain.  A call that unpacks *args or **kwargs is left out, since its
    arguments cannot be counted.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name: f"{node.module}.{alias.name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("localsgd")
                for alias in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted(node.func)
        callee = imported.get(chain, chain if (chain or "").startswith("localsgd.") else None)
        if callee is None or any(isinstance(arg, ast.Starred) for arg in node.args) \
                or any(kw.arg is None for kw in node.keywords):
            continue
        yield callee, len(node.args), [kw.arg for kw in node.keywords]


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_calls_from_outside_the_package_bind(path):
    unbound = []
    for callee, positional, keywords in _calls(path):
        try:
            inspect.signature(_resolve(callee)).bind_partial(
                *[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{callee}: {exc}")
    assert not unbound, f"{path.name} passes arguments the package does not take: {unbound}"


# exported names that only the tests call, each with the reason it stays
TEST_ONLY_EXPORTS = {
    "run_minibatch_sgd": "criterion 2's independent reference for every-step sync",
    "theorem2_bound": "the paper's asynchronous bound, to be compared with async runs",
    "corollary_bound": "the paper's corollary, a closed form the package evaluates",
}


def _exported_names():
    tree = ast.parse((REPO_ROOT / "src" / "localsgd" / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _package_reads(path, inside):
    """Every name `path` reads that resolves to the package.

    Those are the names it imports from localsgd (inside the package, from
    a sibling module), the attributes of a chain on localsgd or on a name
    imported from it, and, `inside` the package, the names its own module
    defines at top level and reads.  A local variable that only shares an
    exported name is not a reference.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    heads = {"localsgd"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level if inside else (node.module or "").startswith("localsgd")):
            for alias in node.names:
                heads.add(alias.asname or alias.name)
                yield alias.name
    own = {node.name for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))} if inside else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in own and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain is not None and chain.split(".")[0] in heads:
                yield from chain.split(".")[1:]


def test_every_exported_name_has_a_caller_outside_the_tests():
    # the package's modules (the CLI among them), the demos and the benchmark
    package = [p for p in sorted((REPO_ROOT / "src" / "localsgd").glob("*.py"))
               if p.name != "__init__.py"]
    called = {name for path in package for name in _package_reads(path, inside=True)}
    called |= {name for path in CALLERS for name in _package_reads(path, inside=False)}
    exported = _exported_names()
    assert set(TEST_ONLY_EXPORTS) <= exported
    assert sorted(exported - called) == sorted(TEST_ONLY_EXPORTS)


def _floating_point_errors(path):
    """(line, 'raise' or 'except') of each FloatingPointError `path` raises or catches."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(_dotted(kind) == "FloatingPointError" for kind in kinds):
                yield node.lineno, "except"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _dotted(exc) == "FloatingPointError":
                yield node.lineno, "raise"


def test_no_module_raises_or_catches_a_floating_point_error():
    # a value that is not finite reads NaN at its own row of a stacked
    # pass, so no caller needs a second, point-by-point path behind a catch
    found = {path.name: list(_floating_point_errors(path))
             for path in sorted((REPO_ROOT / "src" / "localsgd").glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# public oracle methods that no code outside the tests reads, each with the reason it stays
TEST_ONLY_METHODS = {
    "component_value": "f_i at one point, the tests' reference for the stacked value passes; "
                       "the benchmark's tracer wraps it by name (ROADMAP item 11)",
    "component_gradient": "grad f_i at one point, the tests' reference for the stacked "
                          "gradients; the benchmark's tracer wraps it by name (ROADMAP item 11)",
}


def _attribute_reads(path):
    """Every attribute name `path` reads, as `obj.value` in `obj.value(x)`; a name in a
    string, as the benchmark's tracer lists the methods it wraps, is not a read."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_oracle_method_has_a_reader_outside_the_tests():
    # the package's modules, the demos and the benchmark
    from localsgd import LogisticObjective, QuadraticObjective

    methods = {name for cls in (LogisticObjective, QuadraticObjective)
               for name, _ in inspect.getmembers(cls, inspect.isfunction)
               if not name.startswith("_")}
    read = set().union(*map(_attribute_reads,
                            sorted((REPO_ROOT / "src" / "localsgd").glob("*.py")) + CALLERS))
    assert set(TEST_ONLY_METHODS) <= methods
    assert sorted(methods - read) == sorted(TEST_ONLY_METHODS)


# the package's rules on values, whose messages only `schedules.py` may format
VALUE_RULES = ("must be an integer >=", "must be finite", "must be a bool")


def _value_rule_messages(path):
    """(line, text) of each string piece of a raised message that states a value rule."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            for piece in ast.walk(node.exc):
                if isinstance(piece, ast.Constant) and isinstance(piece.value, str) and any(
                        rule in piece.value for rule in VALUE_RULES):
                    yield piece.lineno, piece.value


def test_only_schedules_states_the_integer_and_the_real_number_rule():
    # every other door calls `_require_integer`, `_require_real` or
    # `_require_bool`, so no weaker copy of a rule can let a bad value through
    found = {path.name: list(_value_rule_messages(path))
             for path in sorted((REPO_ROOT / "src" / "localsgd").glob("*.py"))}
    assert list(found["schedules.py"])
    assert {name: lines for name, lines in found.items()
            if lines and name != "schedules.py"} == {}


# numpy functions the package calls that an older numpy lacks, with the
# release that added each
NUMPY_SINCE = {"vecdot": (2, 0)}


def test_the_declared_numpy_floor_has_every_numpy_function_the_package_calls():
    # an older numpy imports the package and fails at the first call; the
    # floor is read from the text, as Python 3.10 has no tomllib
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(int(part) for part in re.search(r'"numpy>=(\d+)\.(\d+)', text).groups())
    called = {node.attr for path in (REPO_ROOT / "src" / "localsgd").glob("*.py")
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "np"}
    assert "vecdot" in called
    assert {name: since for name, since in NUMPY_SINCE.items()
            if name in called and floor < since} == {}
