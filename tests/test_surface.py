"""Every definition in the package is used in the package.

Each top-level function, class and assignment in ``thermnet`` and each
method that is not a dunder must be read somewhere in the package, as a
name or as an attribute.  A definition only the tests use belongs in the
tests (``helpers.py``); one nothing uses goes.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

import thermnet

PACKAGE = Path(thermnet.__file__).resolve().parent
ALLOWED = {"__version__", "__all__"}


def _defined(tree: ast.Module) -> Iterator[str]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name


def _used(tree: ast.Module) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_is_used_in_the_package():
    trees = {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text()) for path in PACKAGE.rglob("*.py")}
    used = {name for tree in trees.values() for name in _used(tree)} | ALLOWED
    unused = sorted(f"{path}: {name}" for path, tree in trees.items() for name in _defined(tree) if name not in used)
    assert unused == []
