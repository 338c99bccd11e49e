"""Every ``leakscope …`` command in the README's ``sh`` blocks parses, so a
renamed or removed flag fails here, fast, naming the command."""

import re
import shlex
from pathlib import Path

import pytest

from leakscope import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The ``leakscope`` command lines of the README's ``sh`` blocks, each
    with its ``\\`` continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = re.sub(r"\s*\\\n\s*", " ", "\n".join(blocks)).splitlines()
    return [line for line in lines if line.startswith("leakscope ")]


def test_the_readme_shows_every_command():
    commands = readme_commands()
    assert len(commands) == 7
    assert {shlex.split(c)[1] for c in commands} == {
        "simulate", "analyze", "dpa", "ttest", "obfuscate"}


@pytest.mark.parametrize("command", readme_commands())
def test_every_readme_command_parses(command, capsys):
    argv = shlex.split(command, comments=True)[1:]
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{command}\n{capsys.readouterr().err}")
