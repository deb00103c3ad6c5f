"""Compare the ``thermnet simulate`` CPU time of two source trees, round by round.

Usage, from the root of a checkout, against an unpacked copy of another
commit (for example made with ``git archive <rev> | tar -x -C <dir>``):

    python3 tools/compare_speed.py <other-tree> [--workload aloha_storm] [--seed 1] [--rounds 30]

Each tree runs in the long-lived worker process of
``tools/compare_outputs.py``, which imports the tree's ``thermnet``
(from ``<tree>/src``), exits 1 if it imported another one, and calls
``thermnet.cli.main`` for each command.  Each round asks both workers,
in shuffled order, for one ``simulate`` of the ``perfbench`` workload
into a scratch directory and reads back the process CPU seconds that
``main`` took, argument parsing and ``load_config`` included.
Interpreter start-up, imports and a first run (which warms caches) are
outside the timings.  For each tree the median and quartiles of its
times and the rounds it won are printed.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import tempfile
from pathlib import Path

from compare_outputs import ROOT, Worker  # which also puts perfbench/ on sys.path
from workloads import WORKLOADS, scenario_text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="unpacked tree of the commit to compare against")
    parser.add_argument("--workload", default="aloha_storm", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    trees = {"other": args.other.resolve(), "this": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        config = work / "workload.conf"
        config.write_text(scenario_text(WORKLOADS[args.workload], args.seed))
        workers = {side: Worker(tree) for side, tree in trees.items()}

        def simulate(side: str) -> float:
            """One ``thermnet simulate`` of the workload on ``side``; its CPU seconds."""
            workers[side].send(["simulate", "--config", str(config), "--out", str(work / side)])
            code, err, seconds = json.loads(workers[side].receive())
            if code != 0:
                raise SystemExit(f"{side} ({trees[side]}): simulate exited with code {code}\n{err}")
            return seconds

        try:
            for side in workers:
                print(f"{side}: {trees[side]}")
                simulate(side)
            times: dict[str, list[float]] = {side: [] for side in workers}
            won = dict.fromkeys(workers, 0)
            order = list(workers)
            for _ in range(args.rounds):
                random.shuffle(order)
                round_s = {side: simulate(side) for side in order}
                for side, seconds in round_s.items():
                    times[side].append(seconds)
                if round_s["other"] != round_s["this"]:  # a tie counts for neither
                    won[min(round_s, key=round_s.get)] += 1
        finally:
            for w in workers.values():
                w.close()
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds, simulate CPU seconds:")
    for side, values in times.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"  {side:<5} median {med:.4f} [q1 {q1:.4f}, q3 {q3:.4f}], won {won[side]}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
