"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_the_partition_and_the_joint():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library example\s+```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    # Full precision, so the printed table can be read back to 1e-12.
    with contextlib.redirect_stdout(out), np.printoptions(precision=17, linewidth=200):
        exec(compile(block, "README.md", "exec"), {})
    first, table = out.getvalue().splitlines()
    assert first == "46.0"
    printed = np.array(table.strip("[]").split(), dtype=float)
    np.testing.assert_allclose(printed, np.array([10.0, 1.0, 5.0, 30.0]) / 46, rtol=0, atol=1e-12)
