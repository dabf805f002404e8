"""Every ```python block of README.md runs against the package as it is, and
every command of its CLI block exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from ewlsim import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
CLI_BLOCK = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", README, re.MULTILINE | re.DOTALL).group(1)
# each `ewlsim ...` line without its comment and its optional `[--problem tree.json]`
COMMANDS = [shlex.split(line.split("#")[0].replace("[--problem tree.json]", ""))[1:]
            for line in CLI_BLOCK.splitlines() if line.startswith("ewlsim ")]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, capsys):
    exec(compile(block, "README.md", "exec"), {})


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 9


@pytest.mark.parametrize("argv", COMMANDS, ids=["-".join(a[:2 if a[0] == "verify" else 1])
                                                 for a in COMMANDS])
def test_readme_cli_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `landscape --output` writes here
    assert cli.main(argv) == 0
