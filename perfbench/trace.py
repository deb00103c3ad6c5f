"""Traced in-process run of `thermnet simulate`, split by layer.

Usage: PYTHONPATH=src python3 perfbench/trace.py CONFIG OUT_DIR REPORT_JSON

Each layer's public functions are wrapped by rebinding the name where the
caller looks it up (``thermnet.sim.encode_frame``, not
``thermnet.frames.encode_frame``), or on the class for methods; the
package source is not touched. A name that no longer exists is skipped
and listed in the report, so the trace keeps working when a layer is
refactored away. A layer's self time is its inclusive time minus the
inclusive time of the timed calls it made.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter

# layer -> [(module[:class], attribute)]
WRAP_POINTS: dict[str, list[tuple[str, str]]] = {
    "config.load": [("thermnet.cli", "load_config")],
    "sim.run": [("thermnet.cli", "run_scenario")],
    "mac": [("thermnet.sim", n) for n in ("synchronize", "mac_step", "queue_frame", "finish_transmission")],
    "energy": [("thermnet.sim", "accrue")],
    "sim.sense": [("thermnet.sim", "sense_and_quantize")],
    "rng.gauss": [("thermnet.sim", "gauss")],
    "delays": [
        ("thermnet.sim", n)
        for n in ("airtime", "mcu_prep_delay", "propagation_delay", "serial_delay", "usb_delay")
    ],
    "frames.encode": [("thermnet.sim", "encode_frame")],
    "frames.decode": [("thermnet.sim", "decode_frame")],
    "sim.medium": [("thermnet.sim", "medium_transmit"), ("thermnet.sim:Medium", "busy_at"), ("thermnet.sim:Medium", "finish")],
    "monitor.ingest": [("thermnet.cli:ReadingStore", "ingest_all")],
    "monitor.alerts": [("thermnet.cli", "evaluate_alerts")],
    "monitor.agreement": [("thermnet.cli", "agreement")],
    "csvio.write": [("thermnet.cli", "write_csv")],
    "cli.outputs": [("thermnet.cli", "_write_simulation_outputs")],
}


class Tracer:
    """Call counts, inclusive and self time per layer."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.incl_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._children: list[float] = []

    def wrap(self, layer: str, fn, observe=None):
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self.calls[layer] += 1
                self.incl_s[layer] += elapsed
                self.self_s[layer] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def install(self, layer: str, target: str, name: str, observe=None) -> None:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        if owner is None or not callable(getattr(owner, name, None)):
            self.missing.append(f"{target}.{name}")
            return
        setattr(owner, name, self.wrap(layer, getattr(owner, name), observe))


def _count_alerts(counts, args, result) -> None:
    counts["monitor.alerts.count"] += len(result)


def _count_csv(counts, args, result) -> None:
    counts["csvio.rows"] += len(args[3])
    counts["csvio.bytes"] += os.path.getsize(result)


def install_all(tracer: Tracer) -> None:
    observers = {"monitor.alerts": _count_alerts, "csvio.write": _count_csv}
    for layer, points in WRAP_POINTS.items():
        for target, name in points:
            tracer.install(layer, target, name, observers.get(layer))
    traces = importlib.import_module("thermnet.traces")
    for cls in vars(traces).values():
        if isinstance(cls, type) and cls.__module__ == traces.__name__ and "value" in vars(cls):
            tracer.install("traces.value", f"thermnet.traces:{cls.__name__}", "value")


def main(argv: list[str]) -> int:
    config, out_dir, report = argv
    tracer = Tracer()
    install_all(tracer)
    cli = importlib.import_module("thermnet.cli")
    code = cli.main(["simulate", "--config", config, "--out", out_dir])
    with open(report, "w") as fh:
        json.dump(
            {
                "calls": tracer.calls,
                "incl_s": tracer.incl_s,
                "self_s": tracer.self_s,
                "counts": tracer.counts,
                "missing": tracer.missing,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
