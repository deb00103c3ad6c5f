"""Deterministic CSV writing and reading.

Rows go to ``csv.writer`` unchanged: it writes a float as ``str(float)``,
which equals ``repr`` on Python >= 3.2, so re-running the same scenario
produces byte-identical files; newline handling is pinned to "\n" for
the same reason.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence


def write_csv(
    path: str | Path,
    comment: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> Path:
    """Write rows under a '# ...' provenance comment and a header line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def read_rows(path: str | Path) -> list[dict[str, str]]:
    """Read a write_csv file back as dicts, skipping comment lines."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))
