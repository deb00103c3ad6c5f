"""The package's surface: what it defines, what it imports, what it lets change.

Each top-level function, class and assignment in ``thermnet`` and each
method that is not a dunder must be read somewhere in the package, as a
name or as an attribute.  A definition only the tests use belongs in the
tests (``helpers.py``); one nothing uses goes.

Every ``simulate`` run imports the package afresh, so its import stays
clear of ``dataclasses`` and what that loads.  Its records are immutable.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

import thermnet
from thermnet.config import NodeSpec, ScenarioConfig
from thermnet.frames import Frame, make_sensor_id
from thermnet.monitor import Reading
from thermnet.traces import BandNoiseTrace, ConstantTrace, CsvTrace, RampTrace, SinusoidTrace

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


def test_the_cli_imports_no_code_generation():
    # -S keeps the interpreter's site hooks, which may import anything, out of the check.
    code = "import sys, thermnet.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


_CONFIG = ScenarioConfig(nodes=(NodeSpec("node1", 1),))
_PLAN = _CONFIG.plan()
_SID = make_sensor_id(serial=1)
IMMUTABLE = [
    (_CONFIG, "duration_s"),
    (_CONFIG.nodes[0], "distance_m"),
    (_PLAN, "airtime"),
    (_PLAN.nodes[0], "slot_offset"),
    (Reading(_SID, 1, 592, 0, 0, 37.0), "raw"),
    (Frame(_SID, 592, 0), "sequence"),
    (ConstantTrace(37.0), "value_c"),
    (RampTrace(36.0, 0.5), "rate_c_per_min"),
    (SinusoidTrace(37.0, 1.0, 60.0), "phase_rad"),
    (BandNoiseTrace(36.0, 38.0), "high_c"),
    (CsvTrace((0.0, 60.0), (36.0, 37.0)), "temps_c"),
]


@pytest.mark.parametrize("record, field", IMMUTABLE, ids=[type(record).__name__ for record, _ in IMMUTABLE])
def test_records_are_immutable(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert getattr(record, field) is value
