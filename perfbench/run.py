"""Benchmark of `thermnet simulate` on generated sensor cells.

Run from the root of a thermnet checkout:

    python3 perfbench/run.py --workload cell_tdma --seed 1 --seconds 35 --trace 0

Every simulate run is a fresh child process, `python -m thermnet
simulate`, on a scenario file generated from the seed (see
workloads.py). With ``--trace 0`` the end-to-end metrics are reported:

    wall_s       wall seconds of one simulate run (median over the runs
                 made in --seconds)
    peak_rss_mb  that child's peak resident set, from os.wait4
    setup_s      wall seconds of the same cell with duration 0:
                 interpreter start, import, parse/validate, empty CSVs
                 (one such run before each full run, median)

With ``--trace 1`` the same untraced runs are made, then a few pairs of
an untraced and a traced run (trace.py, which splits the time by layer);
the per-layer metrics are reported. A run fails when it exits non-zero or its outputs fail the
check in outputs.py, or differ from the first run's. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from outputs import OutputError, check_outputs, outputs_sha256
from workloads import WORKLOADS, Workload, scenario_text

WORK_DIR = ".perfbench_work"
MIN_RUNS = 3
TRACE_REPS = 3
CHILD_TIMEOUT_S = 120.0

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# Layers of trace.py reported by self time, and those whose call count
# an optimisation can move (the rest run a fixed few times per run).
TIMED_LAYERS = (
    "mac", "energy", "sim.sense", "rng.gauss", "traces.value", "delays",
    "frames.encode", "frames.decode", "sim.medium",
    "monitor.ingest", "monitor.alerts", "monitor.agreement",
    "csvio.write", "cli.outputs", "config.load",
)
COUNTED_LAYERS = (
    "mac", "energy", "rng.gauss", "traces.value", "delays",
    "frames.encode", "frames.decode", "sim.medium",
)

MODEL_NOTE = (
    "note: the simulated figures come from an unvalidated model; the repository "
    "holds no hardware measurement to check them against"
)


@dataclass
class ChildRun:
    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    sha: str = ""


def run_child(argv: list[str], cwd: Path, env: dict[str, str], err_path: Path) -> tuple[int, float, os.struct_rusage]:
    """Run argv to completion; return exit code, wall seconds and its rusage."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # os.wait4 gives this child's own rusage; RUSAGE_CHILDREN would
            # be the maximum over every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


class Bench:
    def __init__(self, root: Path, work: Path, workload: Workload, seed: int):
        self.root = root
        self.work = work
        self.workload = workload
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.full_cfg = work / "full.conf"
        self.full_cfg.write_text(scenario_text(workload, seed))
        self.setup_cfg = work / "setup.conf"
        self.setup_cfg.write_text(scenario_text(workload, seed, duration_s=0.0))
        self.checked: dict[str, dict[str, object] | OutputError] = {}
        self.attempted = 0
        self.failed = 0

    def _check(self, sha: str, out: Path, duration_s: float) -> dict[str, object]:
        if sha not in self.checked:
            try:
                self.checked[sha] = check_outputs(out, self.workload.nodes, duration_s)
            except (OutputError, KeyError, ValueError) as exc:
                self.checked[sha] = OutputError(f"output check: {exc}")
        result = self.checked[sha]
        if isinstance(result, OutputError):
            raise result
        return result

    def run(self, argv: list[str], out: Path, duration_s: float, expect_sha: str = "") -> ChildRun:
        """One child run plus its output check; counts attempts and failures."""
        shutil.rmtree(out, ignore_errors=True)
        err_path = self.work / "stderr.txt"
        code, wall, usage = run_child(argv, self.root, self.env, err_path)
        run = ChildRun(False, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        self.attempted += 1
        try:
            if code != 0:
                raise OutputError(f"exit code {code}: {err_path.read_text(errors='replace')[-500:]}")
            run.sha = outputs_sha256(out)
            if expect_sha and run.sha != expect_sha:
                raise OutputError(f"outputs_sha256 {run.sha} differs from {expect_sha}")
            self._check(run.sha, out, duration_s)
            run.ok = True
        except OutputError as exc:
            self.failed += 1
            print(f"FAILED run: {exc}", file=sys.stderr)
        return run

    def simulate(self, cfg: Path, duration_s: float, expect_sha: str = "") -> ChildRun:
        out = self.work / "out"
        argv = [sys.executable, "-m", "thermnet", "simulate", "--config", str(cfg), "--out", str(out)]
        return self.run(argv, out, duration_s, expect_sha)

    def measure(self, seconds: float) -> tuple[list[ChildRun], list[ChildRun]]:
        """Alternate set-up and full runs for `seconds`; returns both lists.

        Alternating spreads both kinds over the same stretch of time, so a
        slow spell of the host weighs on setup_s and wall_s alike.
        """
        # The first run compiles bytecode; users pay that once, so it is not timed.
        setup_sha = self.simulate(self.setup_cfg, 0.0).sha
        setup: list[ChildRun] = []
        full: list[ChildRun] = []
        deadline = time.perf_counter() + seconds
        while len(full) < MIN_RUNS or time.perf_counter() < deadline:
            setup.append(self.simulate(self.setup_cfg, 0.0, setup_sha))
            full.append(self.simulate(self.full_cfg, self.workload.duration_s, full[0].sha if full else ""))
        return setup, full

    def traced_runs(self, expect_sha: str) -> tuple[list[float], list[dict]]:
        """Traced runs, each right after an untraced one of the same cell.

        Returns the traced-minus-untraced wall time of each pair whose
        outputs match the untraced set, and the traced runs' reports.
        Pairing keeps a slow spell of the host out of the overhead.
        """
        overheads, reports = [], []
        out = self.work / "out_traced"
        report_path = out / "trace.json"
        script = Path(__file__).resolve().parent / "trace.py"
        argv = [sys.executable, str(script), str(self.full_cfg), str(out), str(report_path)]
        for _ in range(TRACE_REPS):
            plain = self.simulate(self.full_cfg, self.workload.duration_s, expect_sha)
            traced = self.run(argv, out, self.workload.duration_s, expect_sha)
            if plain.ok and traced.ok:
                overheads.append(traced.wall_s - plain.wall_s)
                reports.append(json.loads(report_path.read_text()))
        return overheads, reports


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"[q1 {q1:.4f}, q3 {q3:.4f}] n={len(values)}"


def layer_metrics(reports: list[dict], sim: dict[str, object], overhead_s: float, cpu_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts from the first traced run, times as medians."""

    def calls(layer: str) -> int:
        return reports[0]["calls"].get(layer, 0)

    def self_s(layer: str) -> float:
        return median([r["self_s"].get(layer, 0.0) for r in reports])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    run_s = median([r["incl_s"].get("sim.run", 0.0) for r in reports])
    counts = reports[0]["counts"]
    metrics: dict[str, tuple[float, str]] = {
        "sim.run_s": (run_s, "s"),
        "sim.loop.self_s": (self_s("sim.run"), "s"),
        "sim.events": (sim["events"], "count"),
        "sim.events_per_s": (ratio(sim["events"], run_s), "1/s"),
        "sim.delivery_ratio": (ratio(sim["delivered"], sim["conversions"]), "ratio"),
        "sim.frames_unaccounted": (sim["frames_unaccounted"], "count"),
        "mac.deferral_ratio": (ratio(sim["deferrals"], sim["deferrals"] + sim["transmissions"]), "ratio"),
        "frames.corrupt_ratio": (ratio(sim["corrupt"], calls("frames.decode")), "ratio"),
        "monitor.alerts.count": (counts.get("monitor.alerts.count", 0), "count"),
        "csvio.rows": (counts.get("csvio.rows", 0), "count"),
        "csvio.bytes": (counts.get("csvio.bytes", 0), "B"),
        "trace.overhead_s": (overhead_s, "s"),
        "process.cpu_s": (cpu_s, "s"),
    }
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = (calls(layer), "count")
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = (self_s(layer), "s")
    return metrics


def counts_repeat(reports: list[dict]) -> bool:
    return all(r["calls"] == reports[0]["calls"] and r["counts"] == reports[0]["counts"] for r in reports)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "thermnet" / "__main__.py").is_file():
        print("error: src/thermnet not found; run from the root of a thermnet checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(root, work, w, args.seed)
        setup, full = bench.measure(args.seconds)
        setup = [r for r in setup if r.ok]
        full = [r for r in full if r.ok]
        overheads, reports = bench.traced_runs(full[0].sha) if args.trace and full else ([], [])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {w.name} seed {args.seed}: {w.nodes} nodes, {w.mac_mode}, "
          f"{w.duration_s} simulated s, {w.interferers} interferers")
    series = {
        "wall_s": [r.wall_s for r in full],
        "peak_rss_mb": [r.peak_rss_mb for r in full],
        "setup_s": [r.wall_s for r in setup],
        "cpu_s": [r.cpu_s for r in full],
    }
    for name, values in series.items():
        if values:
            unit = END_TO_END.get(name, "s")
            print(f"  {name:<12} median {median(values):.4f} {unit} {spread(values)}")
    sim = bench.checked[full[0].sha] if full else {}
    if full:
        print(f"  outputs_sha256 {full[0].sha}")
        print("  simulated: " + " ".join(f"{k}={v}" for k, v in sim.items()))
    print(f"  {MODEL_NOTE}")

    correct = bench.failed == 0 and bool(full) and bool(setup)
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        if full and setup:
            metrics = {k: (median(series[k]), unit) for k, unit in END_TO_END.items()}
    elif len(reports) < TRACE_REPS or not counts_repeat(reports):
        correct = False
        print("FAILED traced runs: a run failed, or counts differ between runs", file=sys.stderr)
    else:
        if reports[0]["missing"]:
            print("  trace: not found: " + ", ".join(reports[0]["missing"]))
        overhead = median(overheads)
        print(f"  tracing overhead median {overhead:.4f} s over {len(overheads)} traced/untraced pairs; "
              "traced outputs_sha256 equals untraced")
        metrics = layer_metrics(reports, sim, overhead, median(series["cpu_s"]))
        for k, (v, unit) in metrics.items():
            print(f"  {k:<26} {v:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
