"""Every ```python block in README.md runs as written, and the README names
the checks and the constructions of the CLI's tables, and no others."""

import re
from pathlib import Path

import pytest

from homlie.cli import CHECK_ALIASES, CHECKS, CONSTRUCTIONS

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
CHECK_TABLE = re.search(r"^\| token \| verifies \|\n(.*?)\n\n", TEXT, re.M | re.S).group(1)
BUILD_BLOCK = re.search(r"^`build` emits.*?^```sh\n(.*?)^```", TEXT, re.M | re.S).group(1)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {})


def test_readme_check_table_names_every_check_and_alias():
    rows = re.findall(r"^\| `([\w-]+)` \|(.*)$", CHECK_TABLE, re.M)
    assert sorted(token for token, _ in rows) == sorted(CHECKS)
    aliases = {alias: token for token, text in rows for alias in re.findall(r"\(alias `(\w+)`\)", text)}
    assert aliases == CHECK_ALIASES


def test_readme_names_no_check_the_table_lacks():
    named = set(re.findall(r"--check[ =]([\w-]+)", TEXT))
    assert named and named <= {*CHECKS, *CHECK_ALIASES}


def test_readme_build_block_shows_every_construction():
    kinds = re.findall(r"^homlie build ([\w-]+) ", BUILD_BLOCK, re.M)
    assert sorted(kinds) == sorted(CONSTRUCTIONS)
