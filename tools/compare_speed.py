"""Compare the simulate CPU time of two source trees, round by round.

Usage, from the root of a checkout, against an unpacked copy of another
commit (for example made with ``git archive <rev> | tar -x -C <dir>``):

    python3 tools/compare_speed.py <other-tree> [--workload aloha_storm] [--seed 1] [--rounds 30]

One long-lived worker process per tree imports that tree's ``thermnet``
(from ``<tree>/src``) and parses the ``perfbench`` workload's scenario
once.  Each round asks both workers, in shuffled order, for one
``cli.cmd_simulate`` run into a scratch directory and reads back the
process CPU seconds it took.  Interpreter start-up, imports and the
first run (which warms caches) are outside the timings, so the rounds
see the engine, the monitor and the CSV writers alone.  For each tree
the median and quartiles of its times and the rounds it won are
printed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, scenario_text  # noqa: E402


def worker(config_path: str, out_dir: str) -> None:
    """Serve timing requests: one run per line read, its CPU seconds written back."""
    from thermnet.cli import cmd_simulate
    from thermnet.config import load_config

    replies = sys.stdout
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        config = load_config(config_path)
        cmd_simulate(config, out_dir)
        print(Path(sys.modules["thermnet"].__file__).parent.parent, file=replies, flush=True)
        for _ in sys.stdin:
            gc.collect()
            t0 = time.process_time()
            code = cmd_simulate(config, out_dir)
            elapsed = time.process_time() - t0
            print(elapsed if code == 0 else f"error: exit code {code}", file=replies, flush=True)


class Worker:
    def __init__(self, tree: Path, config_path: Path, out_dir: Path):
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        argv = [sys.executable, __file__, "--worker", str(config_path), str(out_dir)]
        self.proc = subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.src = self.proc.stdout.readline().strip()

    def time_one(self) -> float:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().strip()
        try:
            return float(reply)
        except ValueError:
            raise SystemExit(f"worker for {self.src}: {reply or 'exited'}") from None

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main() -> int:
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:])
        return 0
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
        workers = {side: Worker(tree, config, work / side) for side, tree in trees.items()}
        try:
            for side, w in workers.items():
                print(f"{side}: {w.src}")
            times: dict[str, list[float]] = {side: [] for side in workers}
            won = dict.fromkeys(workers, 0)
            order = list(workers)
            for _ in range(args.rounds):
                random.shuffle(order)
                round_s = {side: workers[side].time_one() for side in order}
                for side, seconds in round_s.items():
                    times[side].append(seconds)
                if round_s["other"] != round_s["this"]:  # a tie counts for neither
                    won[min(round_s, key=round_s.get)] += 1
        finally:
            for w in workers.values():
                w.close()
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds, cmd_simulate CPU seconds:")
    for side, values in times.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"  {side:<5} median {med:.4f} [q1 {q1:.4f}, q3 {q3:.4f}], won {won[side]}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
