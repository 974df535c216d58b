"""The package's public surface: what the benchmark tracer needs resolves, and nothing is dead.

The tracer (``perfbench/tracer.py``) wraps the functions its ``SPANS`` name
and imports a few names from the package; a deleted or renamed one would
only show when the benchmark runs. A module-level function or class that
nothing in ``src/`` refers to is code no stage runs, unless it is public and
the acceptance gate imports it or the tracer names it. A private one that
only tests call is dead too. Likewise a parameter with a default is an option
no stage takes unless some call in ``src/``, the acceptance gate or the tracer
passes it, by keyword, by position or by unpacking; a call inside the
function's own body does not count. The tracer itself runs one small report,
so a hook that no longer fits what it wraps fails here too.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import energyseg

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "energyseg"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _package_imports(tree: ast.AST) -> list[tuple[str, str]]:
    """(module, name) of each ``from energyseg... import name`` anywhere in ``tree``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "energyseg"
        for alias in node.names
    ]


def _tracer_names() -> list[tuple[str, str]]:
    """(module, name) of each function the tracer's ``SPANS`` wraps and each name it imports."""
    tree = _parse(ROOT / "perfbench" / "tracer.py")
    (spans,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["SPANS"]
    ]
    wrapped = [
        (f"energyseg.{layer}", name)
        for layer, names in ast.literal_eval(spans).items()
        for name in names
    ]
    return wrapped + _package_imports(tree)


def _referenced(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``, as a variable or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_tracer_names_resolve():
    names = _tracer_names()
    assert len(names) > 20  # the parse found SPANS and the imports
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_tracer_runs_a_report(tmp_path):
    # the self-check-synth shape of perfbench/run.py: 1 player per class, 1 day, per minute
    config = {
        "synth": {"players_per_class": [1, 1, 1], "n_days": 1},
        "features": {"clustering_granularity": "minute"},
        "clustering": {"k_range": [2, 3]},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    layers = tmp_path / "layers.json"
    argv = ["report", "--config", "config.json", "--seed", "42", "--out", "report"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(layers), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # run.py adds trace.overhead_s, the traced run's wall time beyond an untraced one
    expected = {layer["name"] for layer in benchmark["per_layer"]} - {"trace.overhead_s"}
    assert set(json.loads(layers.read_text())) == expected


def test_all_resolves():
    assert [name for name in energyseg.__all__ if not hasattr(energyseg, name)] == []


def _package_modules() -> dict[str, ast.Module]:
    """Each module of the package but ``__init__``, parsed, by its name."""
    return {
        path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
    }


def test_no_dead_public_definitions():
    modules = _package_modules()
    everywhere = sum(map(_referenced, modules.values()), Counter())
    allowed = {name for _, name in _tracer_names()}
    allowed |= {name for _, name in _package_imports(_parse(ROOT / "tests" / "test_acceptance.py"))}
    dead = [
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        # a private name is for src/ alone: a test calling it keeps nothing alive
        and (node.name.startswith("_") or node.name not in allowed)
        # a reference inside its own definition, such as a recursive call, does not count
        and everywhere[node.name] == _referenced(node)[node.name]
    ]
    assert dead == []


def _calls_by_name(trees) -> dict[str, list[ast.Call]]:
    """Each call in ``trees`` by the name it calls, as ``f`` for ``f(...)`` and ``obj.f(...)``."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return calls


def _defaulted(node: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter of ``node`` that has a default; None for keyword-only.

    A method's position is counted after ``self`` or ``cls``.
    """
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [(arg.arg, i - int(method)) for i, arg in enumerate(positional) if i >= first] + [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes parameter ``name``: by keyword, by position, or by unpacking."""
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: a ** unpacking
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_no_unpassed_parameters():
    # each file is parsed once, so a call is matched to the body it sits in by node
    modules = _package_modules()
    callers = [ROOT / "tests" / "test_acceptance.py", ROOT / "perfbench" / "tracer.py"]
    calls = _calls_by_name([*modules.values(), *map(_parse, callers)])
    unpassed = []
    for stem, tree in modules.items():
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        methods = {id(item) for node in classes for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            # a call inside the function's own body, such as a recursive one, does not count
            own = {id(inner) for inner in ast.walk(node)}
            outside = [call for call in calls.get(node.name, []) if id(call) not in own]
            if not outside:  # no call at all, such as a function only the tracer's SPANS names
                continue
            unpassed += [
                f"{stem}.{node.name}({name})"
                for name, position in _defaulted(node, id(node) in methods)
                if not any(_passes(call, name, position) for call in outside)
            ]
    assert unpassed == []
