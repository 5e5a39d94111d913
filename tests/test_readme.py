"""The README's examples run: every `isocurv ...` line of its sh blocks exits
0 through cli.main, and its python block executes."""

import re
import shlex
from pathlib import Path

import pytest

from isocurv.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
COMMANDS = [
    shlex.split(line, comments=True)
    for lang, body in BLOCKS
    if lang == "sh"
    for line in body.splitlines()
    if line.startswith("isocurv ")
]
PYTHON = [body for lang, body in BLOCKS if lang == "python"]


def test_the_readme_has_examples():
    assert len(COMMANDS) >= 10 and len(PYTHON) == 1


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_readme_command_exits_zero(capsys, argv):
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out


def test_readme_python_block_runs():
    exec(compile(PYTHON[0], "README.md", "exec"), {})
