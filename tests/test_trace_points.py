"""The benchmark's layer trace still reaches the code it measures.

``perfbench/trace.py`` times each layer by rebinding a name where the
package looks it up, and skips a name that is gone, so a refactor that
renames or bypasses one would silently zero that layer's metrics.  These
tests pin the layers that carry work today: each point still resolves,
and a traced run of a shipped config calls every one of them.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACE_PY = ROOT / "perfbench" / "trace.py"

LIVE_LAYERS = (
    "sim.run",
    "sim.sense",
    "rng.gauss",
    "traces.value",
    "frames.encode",
    "frames.decode",
    "sim.medium",
    "monitor.alerts",
    "monitor.agreement",
    "csvio.write",
    "cli.outputs",
    "config.load",
)


def _trace_module():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer", [layer for layer in LIVE_LAYERS if layer != "traces.value"])
def test_wrap_points_resolve(layer):
    points = _trace_module().WRAP_POINTS[layer]
    for target, name in points:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, name, None)), f"{layer}: {target}.{name} is gone"


def test_traced_run_calls_every_live_layer(tmp_path):
    # mixed_traces.conf has noise, band, sinusoid and csv traces and
    # delivers frames, so every live layer has work to do.
    report = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(TRACE_PY), str(ROOT / "configs" / "mixed_traces.conf"), str(tmp_path / "out"),
            str(report)]
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    traced = json.loads(report.read_text())
    assert [layer for layer in LIVE_LAYERS if not traced["calls"].get(layer)] == []
    assert traced["self_s"]["sim.sense"] > 0
