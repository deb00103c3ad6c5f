"""Checks on the CSVs one `thermnet simulate` run writes.

Nothing here imports thermnet: the files are read as any user of the
command line would read them.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from pathlib import Path

OUTPUT_FILES = ("events.csv", "readings.csv", "ledgers.csv", "alerts.csv", "agreement.csv", "stats.csv")


class OutputError(Exception):
    """A run's outputs are missing or inconsistent."""


def outputs_sha256(out_dir: Path) -> str:
    """One digest over the six CSVs, names included, in a fixed order."""
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        path = out_dir / name
        if not path.is_file():
            raise OutputError(f"{name} was not written")
        digest.update(name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_outputs(out_dir: Path, nodes: int, duration_s: float) -> dict[str, object]:
    """Check one run's CSVs and return its simulated statistics.

    Raises OutputError when readings.csv disagrees with the delivered
    counter or the conversion count is not nodes x samples.
    """
    stats = {row["counter"]: int(row["value"]) for row in _rows(out_dir / "stats.csv")}
    readings = _rows(out_dir / "readings.csv")
    if len(readings) != stats["delivered"]:
        raise OutputError(f"readings.csv has {len(readings)} rows, stats.csv delivered={stats['delivered']}")
    expected = nodes * math.ceil(duration_s)  # one sample per second, the default period
    if stats["conversions"] != expected:
        raise OutputError(f"conversions={stats['conversions']}, expected {nodes} nodes x samples = {expected}")

    # Frames that end in no counted fate: queued, but neither transmitted,
    # replaced, nor the one frame a node may still hold when the run ends.
    last_k: dict[str, int] = {}
    sent: dict[str, set[int]] = {}
    events = 0
    with open(out_dir / "events.csv", newline="") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            events += 1
            kind = row["kind"]
            if kind == "conversion_done":
                last_k[row["subject"]] = int(row["detail"].split()[0].removeprefix("k="))
            elif kind == "tx_start" and row["detail"].startswith("seq="):
                sent.setdefault(row["subject"], set()).add(int(row["detail"].removeprefix("seq=")))
    pending_at_end = sum(1 for node, k in last_k.items() if k % (1 << 16) not in sent.get(node, ()))
    unaccounted = stats["frames_queued"] - stats["transmissions"] - stats["replaced_pending"] - pending_at_end

    delays = [float(r["total_delay_s"]) for r in readings]
    return {
        "delivered": stats["delivered"],
        "collisions": stats["collisions"],
        "deferrals": stats["deferrals"],
        "corrupt": stats["corrupt"],
        "replaced_pending": stats["replaced_pending"],
        "mean_total_delay_s": statistics.fmean(delays) if delays else None,
        "conversions": stats["conversions"],
        "transmissions": stats["transmissions"],
        "events": events,
        "frames_unaccounted": unaccounted,
    }
