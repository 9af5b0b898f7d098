"""The library keeps only what the system runs.

Every public top-level function or class in src/homlie is in `__all__`, or a
module of src/homlie or perfbench refers to it by name or attribute (its own
`def` not counting). The builtin accessors of corpus.py, which read a builtin
by name, are exempt. A statement of the paper that only tests read is asserted
in the tests, not kept in the library as a helper. The same holds for class
members: every public method or property of a class in src/homlie is read as an
attribute by a module of src/homlie (outside its own `def`), by perfbench, or
by an inline script of the CI workflow; static and class methods construct data
and are exempt, as constructors are. Each structure is read through the arrays
its class holds (`bracket`, `twist`, `action`, `coeffs`, `t`), not through an
accessor that re-derives them. Every name a module of src/homlie imports is read
in that module, and every private top-level name of a module of src/homlie is
read in src/homlie outside its own definition. And only report.py reads the parts of a report: a verdict
another caller needs is a named value.
"""

import ast
import re
import textwrap
import types
from collections import Counter
from pathlib import Path

import homlie

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "homlie"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


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


def _defines(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a def's or class's, or an
    assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_private_name_is_read():
    """Each top-level `_name` (function, class or assignment) of a module of
    src/homlie is read in src/homlie outside its own definition, so a helper that
    its last caller leaves behind fails here."""
    defined, used = [], set()
    for path, tree in _trees().items():
        if path.parent != SRC:
            continue
        for node in tree.body:
            own = _defines(node)
            defined += [(name, f"{path.stem}.{name}") for name in own if name.startswith("_") and not name.endswith("__")]
            used.update(name for name in _loads(node) if name not in own)
    unread = sorted(q for name, q in defined if name not in used)
    assert not unread, "private but never read: " + ", ".join(unread)


def _loads(node: ast.AST):
    """The names that node reads, by Name or by Attribute: not those it assigns or
    deletes."""
    for n in ast.walk(node):
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
            yield n.id if isinstance(n, ast.Name) else n.attr


def _attributes(node: ast.AST) -> Counter:
    """How often node reads each attribute name."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _workflow_scripts() -> list[str]:
    """The inline `python -c "..."` scripts of the CI workflow, dedented."""
    text = WORKFLOW.read_text(encoding="utf-8")
    return [textwrap.dedent(b) for b in re.findall(r'python -c "(.*?)"', text, re.S)]


def _is_constructor(member: ast.FunctionDef) -> bool:
    """A static or class method: it builds data rather than reading an object."""
    return any(isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod") for d in member.decorator_list)


def test_every_public_member_is_read():
    trees = _trees()
    in_src = sum((_attributes(t) for p, t in trees.items() if p.parent == SRC), Counter())
    outside = {name for p, t in trees.items() if p.parent != SRC for name in _attributes(t)}
    outside.update(name for script in _workflow_scripts() for name in _attributes(ast.parse(script)))
    unread = [
        f"{path.stem}.{cls.name}.{member.name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and not _is_constructor(member)
        and member.name not in outside
        and in_src[member.name] <= _attributes(member)[member.name]  # its own def does not count
    ]
    assert not unread, "public members that nothing reads: " + ", ".join(sorted(unread))


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


def test_the_workflow_scripts_compile_and_read_only_what_exists():
    """The CI workflow's inline scripts run only in CI, so they are checked here:
    each compiles, each `from homlie... import ...` imports, and each attribute
    they read off an imported module (as `corpus.sl2`) exists."""
    scripts = _workflow_scripts()
    assert len(scripts) >= 10
    for script in scripts:
        compile(script, str(WORKFLOW), "exec")
        tree = ast.parse(script)
        names: dict = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "homlie":
                exec(compile(ast.Module([node], []), str(WORKFLOW), "exec"), names)
        modules = {name: v for name, v in names.items() if isinstance(v, types.ModuleType)}
        missing = [
            f"{n.value.id}.{n.attr}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules
            and not hasattr(modules[n.value.id], n.attr)
        ]
        assert not missing, "the workflow reads what the library lacks: " + ", ".join(missing)
