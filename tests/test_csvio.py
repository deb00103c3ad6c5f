"""CSV text of the written cells: floats round-trip exactly, and an
events.csv line is the one csv.writer would write and parses back to its
event."""

from __future__ import annotations

import csv
import io
import string
import tempfile
from pathlib import Path

from hypothesis import example, given, strategies as st

from helpers import SimEvent, read_rows
from thermnet.csvio import write_csv
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


@given(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(min_value=0)),
    st.integers(min_value=0),
    _WORDS,
    _WORDS,
    _WORDS,
)
@example(0.0, 0, "conversion_done", "28a311", "k=0 raw=-880")
@example(-0.0, 1, "slot_start", "ap", "")
@example(5e-324, 2, "tx_end", "interferer_1", "collided=True")
@example(1e-7, 3, "slot_start", "x", "busy")
@example(1e16, 4, "tx_start", "node1", "seq=65535")
@example(7, 5, "", " ", " a ")
def test_event_row_is_csv_writer_line(time_s, seq, kind, subject, detail):
    event = SimEvent(time_s, seq, kind, subject, detail)
    assert SimEvent._fields == EVENT_COLUMNS
    fh = io.StringIO()
    csv.writer(fh, lineterminator="\n").writerow(event)
    assert EVENT_ROW % event == fh.getvalue()
    if isinstance(time_s, float):
        assert SimEvent.from_row(EVENT_ROW % event) == event
