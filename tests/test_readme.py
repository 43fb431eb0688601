"""Every command of README's CLI block runs and exits as documented: 0, and 2
for ``conditions``, whose example parameters fail a condition on purpose."""

import shlex
from pathlib import Path

import pytest

from driftbench.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_lines() -> list[str]:
    text = README.read_text()
    block = text[text.index("## CLI"):].split("```")[1]
    return [ln for ln in block.splitlines() if ln.strip()]


def test_cli_block_has_every_command():
    commands = [shlex.split(ln)[1] for ln in _cli_lines()]
    assert commands == ["exponents", "approx", "morse-check", "normalform",
                        "drift", "restrain", "conditions", "scaling"]


@pytest.mark.parametrize("line", _cli_lines(), ids=lambda ln: shlex.split(ln)[1])
def test_cli_line_exit_code(line, tmp_path, monkeypatch, capsys):
    argv = shlex.split(line)
    assert argv[0] == "driftbench"
    monkeypatch.chdir(tmp_path)   # the --out files land in tmp_path
    code = main(argv[1:])
    out = capsys.readouterr()
    assert code == (2 if argv[1] == "conditions" else 0), out
