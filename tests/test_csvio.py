"""CSV text of the written cells: floats round-trip exactly, a stamp is
its tick count in exact seconds, and an events.csv line is the one
csv.writer would write and parses back to its event."""

from __future__ import annotations

import csv
import io
import string
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, strategies as st

from helpers import SimEvent, read_rows, ticks_of
from thermnet.csvio import TICKS_PER_S, stamp, write_csv
from thermnet.sim import EVENT_COLUMNS, EVENT_ROW


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
@example([5e-324, -2.2250738585072014e-308, float("inf"), float("-inf"), -0.0, 0.1, 1e16])
def test_float_cells_are_repr_and_round_trip(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(Path(tmp) / "floats.csv", "floats", ["value"], [[v] for v in values])
        rows = read_rows(path)
    assert [row["value"] for row in rows] == [repr(v) for v in values]
    assert [float(row["value"]) for row in rows] == values


# Engine-made words: letters, digits and "_=.- " ("raw=-12").
_WORDS = st.text(alphabet=string.ascii_letters + string.digits + "_=.- ", max_size=24)


@given(st.integers(min_value=0), st.integers(min_value=0), _WORDS, _WORDS, _WORDS)
@example(0, 0, "conversion_done", "28a311", "k=0 raw=-880")
@example(1, 1, "slot_start", "ap", "")
@example(TICKS_PER_S - 1, 2, "tx_end", "interferer_1", "collided=True")
@example(10**28, 4, "tx_start", "node1", "seq=65535")
@example(7, 5, "", " ", " a ")
def test_event_row_is_csv_writer_line(time, seq, kind, subject, detail):
    cells = (stamp(time), seq, kind, subject, detail)
    assert len(SimEvent._fields) == len(EVENT_COLUMNS)
    fh = io.StringIO()
    csv.writer(fh, lineterminator="\n").writerow(cells)
    assert EVENT_ROW % cells == fh.getvalue()
    assert SimEvent.from_row(EVENT_ROW % cells) == SimEvent(time, seq, kind, subject, detail)


@given(st.integers(min_value=0))
@example(0)
@example(TICKS_PER_S)
@example(86_400 * TICKS_PER_S + 1)
def test_stamp_is_exact_seconds(t):
    text = stamp(t)
    assert ticks_of(text) == t
    assert Fraction(text) == Fraction(t, TICKS_PER_S)
