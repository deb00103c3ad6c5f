"""Check that two source trees write byte-identical outputs.

Usage, from the root of a checkout, against an unpacked copy of another
commit (for example made with ``git archive <rev> | tar -x -C <dir>``):

    python3 tools/compare_outputs.py <other-tree> [--generated N]

Each tree runs every command once, in one worker process of its own that
imports the tree's ``thermnet`` (from ``<tree>/src``; a worker that
imported another one, or that dies, ends the run with exit 1, naming the
tree) and calls
``thermnet.cli.main`` for each command; the two workers run each command
side by side.  ``tools/compare_speed.py`` runs the same workers and
reads the CPU seconds each command took from their replies.  For every
command the exit codes, the stderr (the output path read as ``{out}``)
and the files written are compared, byte for byte, and the files are
then deleted.

The commands are ``simulate`` on every ``configs/*.conf`` of this
checkout, once in its own MAC mode and once under the other ``--mac``
(so the send-on-ready delivery path is compared on configs that
deliver), and on each ``perfbench`` workload at seeds 1-10; ``report
schedule`` on every ``configs/*.conf``; and ``report delay`` (default
grid and a 3x4 grid) and ``report energy`` (with and without
``--duration``), which read no config, so they run once each.
``--generated N`` adds ``simulate`` on N scenarios, the i-th drawn by
``generated_scenario(random.Random(i))``.  For each file that differs,
the first differing line of both trees is printed; when both are CSVs
with the same header and row count, so is each column that differs, with
the number of rows in which it does and, for a numeric column, the
largest relative difference.  Exits 1 if any command differs.

A differential run finds where two trees differ, not a fault they share
(McKeeman, "Differential Testing for Software", Digital Technical
Journal 10(1), 1998).
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from thermnet.config import ALOHA, TDMA, load_config  # noqa: E402
from workloads import WORKLOADS, scenario_text  # noqa: E402

REPORT = "report.csv"
SEEDS = range(1, 11)
# Closed-form reports: name -> arguments before --out.
REPORTS = {
    "delay": ["report", "delay"],
    "delay_3x4": ["report", "delay", "--bits", "64,256,1024", "--distance", "0.5,10,100,1000"],
    "energy": ["report", "energy"],
    "energy_duration": ["report", "energy", "--duration", "30"],
}

# A worker reads one JSON argv per line and answers each with one JSON
# line: the exit code, the stderr and the process CPU seconds that main
# took, garbage from earlier commands collected first.  An exception
# that escapes main is a fault whatever the other tree does; its
# traceback, which names the tree's files, then makes the stderr differ.
WORKER = """\
import contextlib, gc, io, json, sys, time, traceback
import thermnet.cli
print(json.dumps(thermnet.cli.__file__), flush=True)
for line in sys.stdin:
    argv, err = json.loads(line), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.process_time()
        try:
            code = thermnet.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "uncaught exception"
        seconds = time.process_time() - t0
    print(json.dumps([code, err.getvalue(), seconds]), flush=True)
"""


class Worker:
    """One tree's worker process."""

    def __init__(self, tree: Path):
        self.tree = tree
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        argv = [sys.executable, "-c", WORKER]
        self.proc = subprocess.Popen(argv, cwd=tree, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        cli = Path(json.loads(self.receive()))
        if not cli.is_relative_to(tree / "src"):
            raise SystemExit(f"the worker for {tree} imported {cli}")

    def send(self, argv: list[str]) -> None:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"the worker for {self.tree} exited with code {self.proc.wait()}")
        return line

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def generated_scenario(rng: random.Random) -> str:
    """One scenario file drawn from ``rng``.

    It has 1-40 nodes, either MAC mode, traces of every kind but ``csv``
    (some shared by several nodes), 0-3 interferers at 5-500 m, a guard
    of 0-12.3 ms, a beacon of 0-10 ms and a range of 30 or 100 m, with
    nodes up to 1.2 ranges away.  The sample period is 0.8-3 s or, with a
    shorter conversion, mostly below the TDMA frame.  The duration is 0
    to 200 s but at most 200 periods, often not a whole number of them.
    About one scenario in ten has one flaw that ``plan()`` rejects.
    """
    n = rng.randint(1, 40)
    range_m = rng.choice([30.0, 100.0])
    beacon_s = rng.uniform(0.0, 0.01)
    keys = {
        "scenario.seed": rng.randrange(1 << 31),
        "scenario.mac_mode": rng.choice([TDMA, ALOHA]),
        "sensor.noise_sigma_c": rng.choice([0.0, 0.1, rng.uniform(0.0, 0.5)]),
        "medium.range_m": range_m,
        "mac.guard_s": rng.uniform(0.0, 0.0123),
        "mac.beacon_s": beacon_s,
    }
    conversion_s = 0.75
    if rng.random() < 0.3:
        conversion_s = keys["delay.sensor_conversion_s"] = rng.choice([0.01, 0.05])
        # At the default delay terms a slot is at least 14 ms long.
        period_s = rng.uniform(conversion_s, beacon_s + 0.014 * n)
    else:
        period_s = rng.uniform(0.8, 3.0)
    keys["scenario.sample_period_s"] = period_s
    longest_s = min(200.0, 200 * period_s)
    pick = rng.random()
    if pick < 0.1:
        keys["scenario.duration_s"] = 0.0
    elif pick < 0.3:
        keys["scenario.duration_s"] = period_s * rng.randint(1, int(longest_s / period_s))
    else:
        keys["scenario.duration_s"] = rng.uniform(0.0, longest_s)

    traces = []
    for _ in range(rng.randint(1, 4)):
        low = rng.uniform(35.0, 37.5)
        traces.append(rng.choice([
            f"constant:{low:.4f}",
            f"ramp:{low:.4f},{rng.uniform(-1.0, 1.0):.4f}",
            f"sinusoid:{low:.4f},{rng.uniform(0.0, 2.0):.4f},{rng.uniform(5.0, 600.0):.3f},{rng.uniform(0.0, 6.283):.4f}",
            f"band:{low:.4f},{low + rng.uniform(0.0, 2.0):.4f}",
        ]))
    for i, serial in enumerate(rng.sample(range(1, 1 << 48), n), start=1):
        keys[f"node{i}.serial"] = hex(serial)
        keys[f"node{i}.trace"] = rng.choice(traces)
        keys[f"node{i}.distance_m"] = rng.uniform(0.0, 1.2 * range_m)
    for j in range(1, rng.randint(0, 3) + 1):
        burst_period_s = rng.uniform(0.05, 2.0)
        keys[f"interferer{j}.distance_m"] = rng.uniform(5.0, 500.0)
        keys[f"interferer{j}.period_s"] = burst_period_s
        keys[f"interferer{j}.start_s"] = rng.uniform(0.0, burst_period_s)
        keys[f"interferer{j}.bits"] = rng.randint(64, 4096)

    if rng.random() < 0.1:
        flaw = rng.choice([
            ("scenario.sample_period_s", conversion_s / 2),  # shorter than a conversion
            ("scenario.duration_s", 1e-13),  # rounds to 0 ps
            ("mac.guard_s", -0.001),
            ("node1.serial", hex(1 << 48)),
            (f"node{n + 1}.serial", keys["node1.serial"]),  # a serial taken twice
        ])
        keys[flaw[0]] = flaw[1]
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def first_difference(other: Path, this: Path) -> str:
    """The number of the first line at which two files differ, and that line of each."""
    with other.open("rb") as a, this.open("rb") as b:
        for number, lines in enumerate(itertools.zip_longest(a, b), 1):
            if lines[0] != lines[1]:
                shown = [line.decode(errors="replace").rstrip("\r\n") if line else "(end of file)" for line in lines]
                return f"line {number}\n    other: {shown[0]}\n    this:  {shown[1]}"
    return "no line differs"


def _relative(x: float, y: float) -> float:
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    scale = max(abs(x), abs(y))
    return abs(x / scale - y / scale)


def column_differences(other: Path, this: Path) -> list[str]:
    """One line per differing column of two CSVs with the same header and
    row count (none if they have not): its name, the number of rows in
    which it differs and, if every such cell is a number, the largest
    relative difference."""
    tables = []
    for path in (other, this):
        with path.open(newline="") as fh:
            reader = csv.DictReader(line for line in fh if not line.startswith("#"))
            tables.append((reader.fieldnames, list(reader)))
    (header, rows_a), (header_b, rows_b) = tables
    if not header or header != header_b or len(rows_a) != len(rows_b):
        return []
    lines = []
    for name in header:
        pairs = [(a[name], b[name]) for a, b in zip(rows_a, rows_b) if a[name] != b[name]]
        if not pairs:
            continue
        line = f"{name}: {len(pairs)} of {len(rows_a)} rows"
        try:
            worst = max(_relative(float(a), float(b)) for a, b in pairs)
        except (TypeError, ValueError):
            lines.append(line)
        else:
            lines.append(f"{line}, largest relative difference {worst:.3g}")
    return lines


def differences(outs: list[Path], replies: list[str]) -> list[str]:
    """What differs between the two trees' runs of one command, one line
    (and its details) per exit code, stderr or file."""
    found = []
    # Each reply names its own tree's output directory the same way.
    (code_a, err_a, _), (code_b, err_b, _) = (json.loads(r.replace(str(out), "{out}")) for r, out in zip(replies, outs))
    if code_a != code_b:
        found.append(f"exit code\n    other: {code_a}\n    this:  {code_b}")
    if err_a != err_b:
        found.append(f"stderr\n    other: {err_a!r}\n    this:  {err_b!r}")
    written = [{p.relative_to(out) for p in out.rglob("*") if p.is_file()} for out in outs]
    if written[0] != written[1]:
        found.append(f"files written\n    other: {sorted(map(str, written[0]))}\n    this:  {sorted(map(str, written[1]))}")
    for name in sorted(written[0] & written[1]):
        a, b = (out / name for out in outs)
        if not filecmp.cmp(a, b, shallow=False):
            found.append(f"{name} {first_difference(a, b)}")
            found += [f"  column {line}" for line in column_differences(a, b)]
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="unpacked tree of the commit to compare against")
    parser.add_argument("--generated", type=int, default=0, metavar="N", help="also simulate N generated scenarios")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        configs = sorted((ROOT / "configs").glob("*.conf"))
        scenarios = [(config.name, config) for config in configs]
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                path = work / f"{name}_{seed}.conf"
                path.write_text(scenario_text(workload, seed))
                scenarios.append((path.name, path))
        for i in range(args.generated):
            path = work / f"generated_{i}.conf"
            path.write_text(generated_scenario(random.Random(i)))
            scenarios.append((f"generated {i}", path))
        # (label, argv with the output directory as "{out}")
        cases = [(label, ["simulate", "--config", str(path), "--out", "{out}"]) for label, path in scenarios]
        for config in configs:
            other_mac = ALOHA if load_config(config).mac_mode == TDMA else TDMA
            cases.append((f"{config.name} --mac {other_mac}",
                          ["simulate", "--config", str(config), "--mac", other_mac, "--out", "{out}"]))
        cases += [
            (f"schedule {config.name}", ["report", "schedule", "--config", str(config), "--out", f"{{out}}/{REPORT}"])
            for config in configs
        ]
        cases += [(name, [*argv, "--out", f"{{out}}/{REPORT}"]) for name, argv in REPORTS.items()]

        outs = [work / "other", work / "this"]
        workers = [Worker(args.other.resolve()), Worker(ROOT)]
        differing = 0
        try:
            for label, argv in cases:
                for worker, out in zip(workers, outs):
                    worker.send([a.replace("{out}", str(out)) for a in argv])
                found = differences(outs, [worker.receive() for worker in workers])
                print(f"{label}: {'differs' if found else 'identical'}", flush=True)
                for line in found:
                    print(f"  {line}", flush=True)
                differing += bool(found)
                for out in outs:
                    shutil.rmtree(out, ignore_errors=True)
        finally:
            for worker in workers:
                worker.close()
    print(f"{len(cases) - differing}/{len(cases)} commands wrote byte-identical outputs, exit codes and stderr")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
