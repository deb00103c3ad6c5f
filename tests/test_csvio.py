"""CSV text of the written cells: floats round-trip exactly."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import example, given, strategies as st

from thermnet.csvio import read_rows, write_csv


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
@example([5e-324, -2.2250738585072014e-308, float("inf"), float("-inf"), -0.0, 0.1, 1e16])
def test_float_cells_are_repr_and_round_trip(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(Path(tmp) / "floats.csv", "floats", ["value"], [[v] for v in values])
        rows = read_rows(path)
    assert [row["value"] for row in rows] == [repr(v) for v in values]
    assert [float(row["value"]) for row in rows] == values
