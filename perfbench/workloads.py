"""Scenario files for the benchmark workloads, generated from a seed.

The seed picks serials, distances, interferer periods and phases and the
scenario's own RNG seed. Node count, duration and MAC mode are fixed per
workload, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    duration_s: float
    mac_mode: str
    interferers: int
    trace: str


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cell_tdma", nodes=50, duration_s=150.0, mac_mode="tdma", interferers=3, trace="band"),
        Workload("watch_long", nodes=1, duration_s=3600.0, mac_mode="tdma", interferers=0, trace="sinusoid"),
        Workload("aloha_storm", nodes=20, duration_s=600.0, mac_mode="aloha", interferers=5, trace="band"),
    )
}


def scenario_text(workload: Workload, seed: int, duration_s: float | None = None) -> str:
    """Scenario file text for one workload and seed.

    ``duration_s`` overrides the workload's duration; zero gives the
    set-up-only run of the same cell.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    duration = workload.duration_s if duration_s is None else duration_s
    lines = [
        f"# benchmark workload {workload.name}, seed {seed}",
        f"scenario.duration_s = {duration!r}",
        f"scenario.seed = {rng.randrange(1, 1 << 31)}",
        f"scenario.mac_mode = {workload.mac_mode}",
        "sensor.noise_sigma_c = 0.1",
    ]
    for i, serial in enumerate(rng.sample(range(1, 1 << 48), workload.nodes), start=1):
        if workload.trace == "band":
            trace = "band:36.0,38.0"
        else:
            # A slow fever swing, so both alert kinds fire and re-arm.
            trace = f"sinusoid:37.5,1.5,1200,{rng.uniform(0.0, 6.283):.4f}"
        lines += [
            f"node{i}.serial = {serial:#x}",
            f"node{i}.trace = {trace}",
            f"node{i}.distance_m = {rng.uniform(1.0, 50.0):.3f}",
        ]
    for j in range(1, workload.interferers + 1):
        period = rng.uniform(0.9, 1.1)
        lines += [
            f"interferer{j}.distance_m = {rng.uniform(1.0, 50.0):.3f}",
            f"interferer{j}.period_s = {period:.6f}",
            f"interferer{j}.start_s = {rng.uniform(0.0, period):.6f}",
        ]
    return "\n".join(lines) + "\n"
