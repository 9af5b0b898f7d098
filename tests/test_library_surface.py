"""The library keeps only what the system runs.

Every public top-level function or class in src/homlie is in `__all__`, or a
module of src/homlie or perfbench refers to it by name or attribute (its own
`def` not counting). The builtin accessors of corpus.py, which read a builtin
by name, are exempt. A statement of the paper that only tests read is asserted
in the tests, not kept in the library as a helper. Every name a module of
src/homlie imports is read in that module. And only report.py reads the parts
of a report: a verdict another caller needs is a named value.
"""

import ast
from pathlib import Path

import homlie

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "homlie"


def _trees() -> dict[Path, ast.Module]:
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths}


def _is_builtin_accessor(node: ast.AST) -> bool:
    """A corpus function that reads a builtin's document (it calls `_read`)."""
    return any(isinstance(n, ast.Call) and "_read" in _names(n.func) for n in ast.walk(node))


def _names(node: ast.AST):
    """The names that node refers to, by Name or by Attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_public_name_is_exported_or_used():
    trees = _trees()
    defined = []
    for path, tree in trees.items():
        if path.parent != SRC or path.name == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if path.name == "corpus.py" and _is_builtin_accessor(node):
                continue
            defined.append((node.name, f"{path.stem}.{node.name}"))
    used = set()
    for tree in trees.values():
        for node in tree.body:
            own = getattr(node, "name", None)  # a def's own body does not count
            used.update(name for name in _names(node) if name != own)
    unused = sorted(q for name, q in defined if name not in homlie.__all__ and name not in used)
    assert not unused, "public but neither exported nor used: " + ", ".join(unused)


def test_every_imported_name_is_read():
    """Each name a module of src/homlie (other than `__init__.py`, which imports to
    export) imports, at any depth, is read somewhere in that module."""
    unread = []
    for path, tree in _trees().items():
        if path.parent != SRC or path.name == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unread.append(f"{path.stem}:{node.lineno} {name}")
    assert not unread, "imported but never read: " + ", ".join(unread)


def test_only_report_reads_the_parts_of_a_report():
    """No module of src/homlie but report.py reads `.subreports`: a caller that
    needs one verdict of a composite reads it by name, not by its position."""
    reads = [
        f"{path.stem}:{n.lineno}"
        for path, tree in _trees().items()
        if path.parent == SRC and path.name != "report.py"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "subreports"
    ]
    assert not reads, "reads subreports: " + ", ".join(reads)
