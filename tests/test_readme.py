"""The README's library quick start and command lines run as written, and
its layout names every module of the package."""

import re
import shlex
from pathlib import Path

import cubicmonodromy.cli as cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text()
    assert re.search(r"## Library quick start\n\n```python\n", text), \
        "the README's library quick start is no python block"
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse refused the line
        return exc.code


def test_readme_command_lines_exit_0(capsys):
    block = re.search(r"## Command line\n\n.*?```sh\n(.*?)```", README.read_text(), re.S)
    assert block, "the README's command line section has no sh block"
    commands = re.findall(r"^cubicmonodromy (.*)$", block.group(1), re.M)
    assert commands
    # output redirection is the shell's, not the program's
    codes = {args: _exit_code(shlex.split(re.sub(r"\s*>.*", "", args)))
             for args in commands}
    capsys.readouterr()
    assert codes == dict.fromkeys(commands, 0)


def test_readme_layout_lists_every_module_once():
    layout = re.search(r"## Layout\n\n```\n(.*?)```", README.read_text(), re.S)
    assert layout, "the README has no layout block"
    listed = re.findall(r"^  (\w+\.py) ", layout.group(1), re.M)
    package = ROOT / "src" / "cubicmonodromy"
    modules = sorted(p.name for p in package.glob("*.py") if p.name != "__init__.py")
    assert sorted(listed) == modules
