"""Check that two source trees write byte-identical simulate outputs.

Usage, from the root of a checkout, against an unpacked copy of another
commit (for example made with ``git archive <rev> | tar -x -C <dir>``):

    python3 tools/compare_outputs.py <other-tree>

Each scenario is simulated once from ``<other-tree>/src`` and once from
this checkout's ``src``, and the six CSVs are compared byte for byte.
The scenarios are every ``configs/*.conf`` of this checkout and each
``perfbench`` workload at seeds 1-10.  Exits 1 if any file differs.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, scenario_text  # noqa: E402

FILES = ("events.csv", "readings.csv", "ledgers.csv", "alerts.csv", "agreement.csv", "stats.csv")
SEEDS = range(1, 11)


def simulate(tree: Path, config: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run(
        [sys.executable, "-m", "thermnet", "simulate", "--config", str(config), "--out", str(out)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="unpacked tree of the commit to compare against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        scenarios = sorted((ROOT / "configs").glob("*.conf"))
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                path = work / f"{name}_{seed}.conf"
                path.write_text(scenario_text(workload, seed))
                scenarios.append(path)
        differing = 0
        for config in scenarios:
            outs = [work / f"{side}_{config.stem}" for side in ("other", "this")]
            simulate(args.other.resolve(), config, outs[0])
            simulate(ROOT, config, outs[1])
            diff = [f for f in FILES if not filecmp.cmp(outs[0] / f, outs[1] / f, shallow=False)]
            print(f"{config.name}: {'differs in ' + ', '.join(diff) if diff else 'identical'}", flush=True)
            differing += bool(diff)
    print(f"{len(scenarios) - differing}/{len(scenarios)} scenarios byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
