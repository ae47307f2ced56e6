"""README.md's examples: every ```python block runs as it is written, and
every ``mtaggr`` command line of a ```bash block parses."""

import re
import shlex
from pathlib import Path

import pytest

from mtaggr import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.M | re.S)
COMMANDS = [
    line
    for block in re.findall(r"^```bash\n(.*?)^```$", TEXT, flags=re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("mtaggr ")
]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_readme_has_every_subcommand():
    assert {line.split()[1] for line in COMMANDS} == {
        "aggregate", "synth", "sweep", "verify"}


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_readme_command_parses(index):
    argv = shlex.split(COMMANDS[index], comments=True)
    cli.build_parser().parse_args(argv[1:])
