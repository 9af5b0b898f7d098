"""Every ```python block in README.md runs as written, the README names
the checks and the constructions of the CLI's tables, and no others, and its
module map names only what the library defines."""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import homlie
from homlie.cli import CHECK_ALIASES, CHECKS, CONSTRUCTIONS

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
CHECK_TABLE = re.search(r"^\| token \| verifies \|\n(.*?)\n\n", TEXT, re.M | re.S).group(1)
BUILD_BLOCK = re.search(r"^`build` emits.*?^```sh\n(.*?)^```", TEXT, re.M | re.S).group(1)
MODULE_MAP = re.search(r"^Module map:\s*(.*?)(?:\n\n|\Z)", TEXT, re.M | re.S).group(1)
# the backticked forms that name Python: `homlie.x`, `Name`, `Name.attr`, `.attr`, `name(args)`
PY_NAME = re.compile(r"^(?:(?P<module>homlie\.\w+)|(?P<name>\w+)?(?:\.(?P<attr>\w+))?(?:\(.*\))?)$")


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


def _members(cls: type) -> set[str]:
    """The attributes of a class, with the annotated fields of it and its bases."""
    return set(dir(cls)).union(*(vars(base).get("__annotations__", {}) for base in cls.__mro__))


def test_readme_module_map_names_only_what_the_library_defines():
    """Each backticked Python name of the module map is a homlie module, a name a
    homlie module defines, a member (`Name.attr`) of a class one defines, or (as
    `.attr` or a bare name) a member of some homlie class."""
    modules = [importlib.import_module(f"homlie.{m.name}") for m in pkgutil.iter_modules(homlie.__path__)]
    classes = {c for m in modules for c in vars(m).values() if isinstance(c, type) and c.__module__.startswith("homlie")}
    members = set().union(*map(_members, classes))

    def defined(name: str | None, attr: str | None) -> bool:
        found = [getattr(m, name) for m in modules if hasattr(m, name)] if name else []
        if name is None:
            return attr in members
        if attr is None:
            return bool(found) or name in members
        return any(isinstance(c, type) and attr in _members(c) for c in found)

    spans = re.findall(r"`([^`]+)`", MODULE_MAP)
    named = [m for m in map(PY_NAME.match, spans) if m and (m["module"] or m["name"] or m["attr"])]
    assert len(named) > 30
    missing = [
        m.group(0)
        for m in named
        if not (importlib.util.find_spec(m["module"]) if m["module"] else defined(m["name"], m["attr"]))
    ]
    assert not missing, "the module map names what no homlie module defines: " + ", ".join(missing)
