"""README's command lines and "File formats" examples read as the command line reads them.

Each ``aperio`` line of the fenced block under "CLI" parses with the
command-line parser and passes the argument check of its command.  Each
fenced ``json`` block of "File formats" is a scheme (decoded by
``io_json.scheme_from_jsonable``) or an experiment config (each step passes
the argument check of ``aperio run``).  So a flag or format change that leaves
the README behind fails here.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from aperio import io_json
from aperio.cli import HANDLERS, _check_args, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def format_blocks() -> list:
    section = README.read_text(encoding="utf-8").split("\n### File formats\n", 1)[1].split("\n#", 1)[0]
    return [json.loads(block) for block in re.findall(r"^```json\n(.*?)^```$", section, re.S | re.M)]


def kind(block) -> str:
    return "config" if "steps" in block else "scheme"


def test_section_shows_a_scheme_and_a_config():
    assert sorted(map(kind, format_blocks())) == ["config", "scheme"]


@pytest.mark.parametrize("block", [b for b in format_blocks() if kind(b) == "scheme"])
def test_scheme_block_decodes(block):
    scheme = io_json.scheme_from_jsonable(block)
    assert (scheme.d, scheme.m) == (block["d"], block["m"])


@pytest.mark.parametrize("block", [b for b in format_blocks() if kind(b) == "config"])
def test_config_block_passes_the_argument_check(block):
    for i, step in enumerate(block["steps"]):
        assert step["command"] in HANDLERS
        _check_args(step["command"], step["args"], where=f"step {i}: ")


def command_lines() -> list:
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("aperio ")]


def test_cli_block_shows_every_command():
    assert sorted(argv[0] for argv in command_lines()) == sorted([*HANDLERS, "run"])


@pytest.mark.parametrize("argv", command_lines(), ids=lambda argv: argv[0])
def test_command_line_parses_and_passes_the_argument_check(argv):
    args = vars(build_parser().parse_args(argv))
    _check_args(args.pop("command"), {k: v for k, v in args.items() if k not in ("seed", "workspace")})
