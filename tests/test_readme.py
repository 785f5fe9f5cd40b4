"""The README's Python examples run as written.

Its ```python blocks are executed in order in one namespace, in-process,
so that an example that drifts from the library's field contract fails
here rather than in a reader's hands.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The hydrostatic residual at one point, then the shape of a batch's.
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert float(lines[0]) < 1e-8
    assert lines[1] == "(5, 10)"
