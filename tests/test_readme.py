"""The README's library example runs as printed."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    rows = [[float(v) for v in line.split()]
            for line in out.getvalue().splitlines()]
    # five levels of (h, err_sigma, err_u), h halving from 1
    assert len(rows) == 5
    assert [row[0] for row in rows] == [1.0, 0.5, 0.25, 0.125, 0.0625]
    assert rows[0] == pytest.approx([1.0, 0.16968425535612144,
                                     0.49711879796463637], rel=1e-9)
    assert all(len(row) == 3 and row[1] > 0 and row[2] > 0 for row in rows)
