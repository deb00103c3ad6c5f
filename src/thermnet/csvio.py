"""Deterministic CSV writing, and the run's clock unit.

Rows go to ``csv.writer`` unchanged: it writes a float as ``str(float)``,
which equals ``repr`` on Python >= 3.2, so re-running the same scenario
produces byte-identical files; newline handling is pinned to "\n" for
the same reason.  A run keeps time as an int count of picosecond ticks,
and every time it writes is that count's ``stamp``, exact seconds.  The
simulator formats ``events.csv`` lines itself (``thermnet.sim.EVENT_ROW``),
to the bytes ``csv.writer`` would write (a test pins the two together).
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence, TextIO

TICKS_PER_S = 10**12  # the clock's tick is 1 ps


def stamp(t: int) -> str:
    """A time of ``t >= 0`` ticks in seconds: whole seconds, a point, 12 digits."""
    return "%d.%012d" % divmod(t, TICKS_PER_S)


@contextmanager
def open_csv(path: str | Path, comment: str, header: Sequence[str]) -> Iterator[TextIO]:
    """Open path for writing, put a '# ...' provenance comment and the
    header line in it, and yield the open file for its rows.

    Rows can then be written one at a time while they are produced; the
    file is closed when the block exits.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        csv.writer(fh, lineterminator="\n").writerow(header)
        yield fh


def write_csv(
    path: str | Path,
    comment: str,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> Path:
    """Write a list of rows under a '# ...' provenance comment and a header
    line.

    ``rows`` is a list, never a generator: ``perfbench/trace.py`` counts
    the rows of every call with ``len(rows)``.
    """
    with open_csv(path, comment, header) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return Path(path)
