"""README's examples run as written: every command of its "Command line"
block, in order, and its "Library sketch"."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

from percobound.harness_cli import EXIT_OK, main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(section: str, language: str) -> str:
    """The first ```language block after the heading "## section"."""
    after = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", after, re.S).group(1)


def test_command_line_examples_exit_zero_in_order(tmp_path, monkeypatch, capsys):
    # generate writes the graph file that certify and bound then read
    monkeypatch.chdir(tmp_path)
    lines = code_block("Command line", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("percobound ")]
    assert len(commands) == 7
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, argv
        capsys.readouterr()
    assert (tmp_path / "paley13.json").exists() and (tmp_path / "trials.csv").exists()


def test_library_sketch_runs(capsys):
    exec(compile(code_block("Library sketch", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out
