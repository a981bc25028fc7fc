"""The README's library quick start runs as written, and its layout names
every module of the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text()
    assert re.search(r"## Library quick start\n\n```python\n", text), \
        "the README's library quick start is no python block"
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_layout_lists_every_module_once():
    layout = re.search(r"## Layout\n\n```\n(.*?)```", README.read_text(), re.S)
    assert layout, "the README has no layout block"
    listed = re.findall(r"^  (\w+\.py) ", layout.group(1), re.M)
    package = ROOT / "src" / "cubicmonodromy"
    modules = sorted(p.name for p in package.glob("*.py") if p.name != "__init__.py")
    assert sorted(listed) == modules
