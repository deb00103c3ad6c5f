"""The README's Python examples run as written, so an API change that
breaks one fails here."""

from __future__ import annotations

import re
from pathlib import Path

from thermnet.sim import EVENT_COLUMNS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run_in_one_namespace(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    # The second example writes the event log of the first one's plan.
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out.splitlines()
    assert out[2] == ",".join(EVENT_COLUMNS)
    assert len(out) == 3 + int(out[0].split()[0])
