"""Check that two source trees write byte-identical outputs.

Usage, from the root of a checkout, against an unpacked copy of another
commit (for example made with ``git archive <rev> | tar -x -C <dir>``):

    python3 tools/compare_outputs.py <other-tree>

Each command is run once from ``<other-tree>/src`` and once from this
checkout's ``src``, and the files it writes are compared byte for byte.
The commands are ``simulate`` on every ``configs/*.conf`` of this
checkout, once in its own MAC mode and once under the other ``--mac``
(so the send-on-ready delivery path is compared on configs that
deliver), and on each ``perfbench`` workload at seeds 1-10, compared on
the CSVs the benchmark hashes (``perfbench/outputs.py``'s
``OUTPUT_FILES``); ``report schedule`` on every ``configs/*.conf``;
and ``report delay`` (default grid and a 3x4 grid) and ``report
energy`` (with and without ``--duration``), which read no config, so
they run once each.  For each file that differs, the first differing
line of both trees is printed; when both are CSVs with the same header
and row count, so is each column that differs, with the number of rows
in which it does and, for a numeric column, the largest relative
difference.  Exits 1 if any file differs.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import itertools
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from outputs import OUTPUT_FILES  # noqa: E402
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


def run(tree: Path, argv: list[str]) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, "-m", "thermnet", *argv], env=env, check=True, stdout=subprocess.DEVNULL)


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="unpacked tree of the commit to compare against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        configs = sorted((ROOT / "configs").glob("*.conf"))
        scenarios = list(configs)
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                path = work / f"{name}_{seed}.conf"
                path.write_text(scenario_text(workload, seed))
                scenarios.append(path)
        # (label, argv with the output directory as "{out}", files written there)
        cases = [
            (config.name, ["simulate", "--config", str(config), "--out", "{out}"], OUTPUT_FILES)
            for config in scenarios
        ]
        for config in configs:
            other_mac = ALOHA if load_config(config).mac_mode == TDMA else TDMA
            argv = ["simulate", "--config", str(config), "--mac", other_mac, "--out", "{out}"]
            cases.append((f"{config.name} --mac {other_mac}", argv, OUTPUT_FILES))
        cases += [
            (f"schedule {config.name}", ["report", "schedule", "--config", str(config), "--out", f"{{out}}/{REPORT}"], (REPORT,))
            for config in configs
        ]
        cases += [(name, [*argv, "--out", f"{{out}}/{REPORT}"], (REPORT,)) for name, argv in REPORTS.items()]
        differing = 0
        for i, (label, argv, files) in enumerate(cases):
            outs = [work / f"{side}_{i}" for side in ("other", "this")]
            for tree, out in zip((args.other.resolve(), ROOT), outs):
                out.mkdir()
                run(tree, [a.replace("{out}", str(out)) for a in argv])
            diff = [f for f in files if not filecmp.cmp(outs[0] / f, outs[1] / f, shallow=False)]
            print(f"{label}: {'differs in ' + ', '.join(diff) if diff else 'identical'}", flush=True)
            for f in diff:
                print(f"  {f} {first_difference(outs[0] / f, outs[1] / f)}", flush=True)
                for line in column_differences(outs[0] / f, outs[1] / f):
                    print(f"    column {line}", flush=True)
            differing += bool(diff)
    print(f"{len(cases) - differing}/{len(cases)} outputs byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
