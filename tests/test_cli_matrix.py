"""The CLI's output, pinned over a matrix of invocations.

Each entry of golden/cli_matrix.json is an argv, its exit code and the sha256
of its stdout and of its stderr. The argvs are every builtin under the default
checks, every check, every alias and one unknown name, in text and in json;
every construction on every builtin, with and without its flag; `validate`
of each successful build, written `build ... | validate /dev/stdin` as in a
shell; and the corpus listing in text and in json. A change that alters the
output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_matrix.py

and says why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from homlie.cli import CHECK_ALIASES, CHECKS, CONSTRUCTIONS, main
from homlie.corpus import BUILTINS

MATRIX = Path(__file__).parent / "golden" / "cli_matrix.json"
FLAGS = {
    "semidirect": ["--rep", "adjoint"],
    "dual": ["--cobracket", "zero"],
    "cobracket": ["--rmatrix", "e1^e2"],
}


def _argvs() -> list[list[str]]:
    sources = [f"builtin:{b.name}" for b in BUILTINS]
    checks = [[], *(["--check", c] for c in [*CHECKS, *CHECK_ALIASES, "no-such-check"])]
    out = [
        ["validate", src, *check, "--format", fmt]
        for src in sources
        for check in checks
        for fmt in ("text", "json")
    ]
    for kind in CONSTRUCTIONS:
        out += [["build", kind, src, *flag] for src in sources for flag in _flags(kind)]
    return out + [["corpus"], ["corpus", "--json"], ["corpus", "--format", "json"]]


def _flags(kind: str) -> tuple[list[str], ...]:
    """A construction's flag sets: none, and its flag if it has one."""
    return ([], FLAGS[kind]) if kind in FLAGS else ([],)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _validated(document: str) -> tuple[int, str, str]:
    """`validate` of a build's stdout, written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "built.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(document)
        return _run(["validate", path])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _entry(argv: list[str], code: int, out: str, err: str) -> dict:
    return {"argv": argv, "code": code, "stdout": _sha256(out), "stderr": _sha256(err)}


def matrix() -> list[dict]:
    entries = []
    for argv in _argvs():
        code, out, err = _run(argv)
        entries.append(_entry(argv, code, out, err))
        if argv[0] == "build" and code == 0:
            entries.append(_entry([*argv, "|", "validate", "/dev/stdin"], *_validated(out)))
    return entries


def _dump(entries: list[dict]) -> str:
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


@pytest.mark.parametrize("name", [name for b in BUILTINS for name in (b.name, *b.aliases)])
def test_a_document_naming_only_a_builtin_is_the_builtin(name, tmp_path):
    """`builtin:<name>` and a file holding {"version": 1, "builtin": name} are read
    by one parser, so every check and every construction sees the same structure."""
    path = tmp_path / "builtin.json"
    path.write_text(json.dumps({"version": 1, "builtin": name}))
    for check in [[], *(["--check", c] for c in CHECKS)]:
        by_file = _run(["validate", str(path), *check, "--format", "json"])
        assert by_file[:2] == _run(["validate", f"builtin:{name}", *check, "--format", "json"])[:2], check
    for kind in CONSTRUCTIONS:
        for flag in _flags(kind):
            by_file = _run(["build", kind, str(path), *flag])
            assert by_file[:2] == _run(["build", kind, f"builtin:{name}", *flag])[:2], (kind, flag)


def test_cli_output_matches_the_golden_matrix():
    expected = {" ".join(e["argv"]): e for e in json.loads(MATRIX.read_text())}
    got = {" ".join(e["argv"]): e for e in matrix()}
    assert list(got) == list(expected)
    assert [k for k in got if got[k] != expected[k]] == []


if __name__ == "__main__":
    MATRIX.write_text(_dump(matrix()))
    print(f"wrote {MATRIX}", file=sys.stderr)
