"""The package's public surface: what the benchmark tracer needs resolves, and nothing is dead.

The tracer (``perfbench/tracer.py``) wraps the functions its ``SPANS`` name
and imports a few names from the package; a deleted or renamed one would
only show when the benchmark runs. A module-level function or class that
nothing in ``src/`` refers to is code no stage runs, unless it is public and
the acceptance gate imports it or the tracer names it. A private one that
only tests call is dead too.
"""

import ast
import importlib
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


def test_all_resolves():
    assert [name for name in energyseg.__all__ if not hasattr(energyseg, name)] == []


def test_no_dead_public_definitions():
    modules = {
        path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
    }
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
