"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "the README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
