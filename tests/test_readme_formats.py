"""README's "File formats" examples decode as the command line reads them.

Each fenced ``json`` block of that section is a scheme (decoded by
``io_json.scheme_from_jsonable``) or an experiment config (each step passes
the argument check of ``aperio run``), so a format change that leaves the
README behind fails here.
"""

import json
import re
from pathlib import Path

import pytest

from aperio import io_json
from aperio.cli import HANDLERS, _check_args

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
