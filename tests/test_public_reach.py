"""Every public top-level function and class of the package is reached.

A name counts as reached when something other than its own definition
and ``__all__`` refers to it: the package itself, ``scripts/``,
``perfbench/`` (a tracer target string included) or the acceptance
criteria.  A name that only its own unit tests call backs no claim, and
is deleted instead."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pattern_forge"
REACHING = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
            *(ROOT / "perfbench").glob("*.py"),
            ROOT / "tests" / "test_acceptance.py"]


def _references(tree) -> set:
    """Names read, attributes taken, and the qualname parts of tracer
    targets ("pattern_forge.module:Class.method").  Definitions, import
    lists and ``__all__`` strings are none of these."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith("pattern_forge.")):
            names.update(node.value.partition(":")[2].split("."))
    return names


def test_every_public_name_is_reached():
    reached = set()
    for path in REACHING:
        reached |= _references(ast.parse(path.read_text()))
    unreached = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in reached]
    assert unreached == []
