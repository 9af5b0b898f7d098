"""Traced run: per-layer metrics named after homlie's modules.

Three passes over one set-up and one round of the workload:

1. untraced, for the reference time and ``import_s``;
2. under ``cProfile`` (its default clock, which in this single-threaded
   CPU-bound process follows CPU time), switched on only while homlie runs;
   the profiled set-up includes a fresh import. Per-function figures are
   summed by the file that defines each function;
3. with counting wrappers on the standard-library ``Fraction`` operators
   and on the ``json`` functions ``structure_io`` calls, never on homlie's
   own code.

``trace.overhead`` is the calibrated op time of pass 2 over that of pass 1.
"""

from __future__ import annotations

import ast
import cProfile
import fractions
import json
import os
import statistics

from harness import NOMINAL_SPIN_S, run_round, spin, summary

MODULES = (
    "fractions", "tensor", "hom_lie", "representation", "bialgebra", "coboundary",
    "operators", "structure_io", "report", "cli", "corpus", "sympy",
)
KERNELS = {"__matmul__", "apply", "apply_pair", "apply_triple", "cyclic3", "contract3_first_two", "dot"}
LINALG = {"det", "inverse", "rref", "nullspace", "solve"}
IMPORTS = 5


def module_of(filename: str) -> str | None:
    path = filename.replace("\\", "/")
    if "/sympy/" in path:
        return "sympy"
    if path.endswith("/fractions.py"):
        return "fractions"
    if "/homlie/" in path:
        name = os.path.basename(path)[: -len(".py")]
        return name if name in MODULES else None
    return None


def function_ranges(path: str) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of every function and method in a file."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, node.lineno, node.end_lineno))
    return out


def owner(ranges, line: int) -> str | None:
    """Innermost function whose lines hold ``line`` (comprehensions and
    generator expressions count toward the function that contains them)."""
    best = None
    for name, lo, hi in ranges:
        if lo <= line <= hi and (best is None or lo >= best[1]):
            best = (name, lo)
    return best[0] if best else None


class FractionCounter:
    """Counts Fraction multiplications, additions and constructions while on."""

    OPS = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
           "__sub__": "add", "__rsub__": "add"}

    def __init__(self):
        self.on = False
        self.counts = {"mul": 0, "mul_useful": 0, "add": 0, "new": 0, "json_chars": 0}
        self._saved = {}

    def install(self, structure_io) -> None:
        cls = fractions.Fraction
        for name, kind in self.OPS.items():
            self._saved[name] = cls.__dict__[name]
            setattr(cls, name, self._wrap(kind, cls.__dict__[name]))
        self._saved["__new__"] = cls.__dict__["__new__"]
        real_new = cls.__new__

        def new(klass, *args, **kwargs):
            if self.on:
                self.counts["new"] += 1
            return real_new(klass, *args, **kwargs)

        cls.__new__ = staticmethod(new)
        self._structure_io = structure_io
        structure_io.json = _CountingJson(self)

    def remove(self) -> None:
        for name, fn in self._saved.items():
            setattr(fractions.Fraction, name, fn)
        self._structure_io.json = json

    def _wrap(self, kind, fn):
        counts = self.counts

        def op(a, b):
            if self.on:
                counts[kind] += 1
                if kind == "mul" and a and b:
                    counts["mul_useful"] += 1
            return fn(a, b)

        return op

    def around(self, fn):
        def counted():
            self.on = True
            try:
                return fn()
            finally:
                self.on = False

        return counted


class _CountingJson:
    """json as structure_io sees it, counting characters parsed and emitted."""

    def __init__(self, counter: FractionCounter):
        self._counter = counter

    def __getattr__(self, name):
        return getattr(json, name)

    def loads(self, text, *args, **kwargs):
        if self._counter.on:
            self._counter.counts["json_chars"] += len(text)
        return json.loads(text, *args, **kwargs)

    def dumps(self, obj, *args, **kwargs):
        text = json.dumps(obj, *args, **kwargs)
        if self._counter.on:
            self._counter.counts["json_chars"] += len(text)
        return text


def traced(bench, fresh_homlie) -> dict:
    clock = bench.clock
    imports = [clock.time(fresh_homlie)[1] for _ in range(IMPORTS)]
    _, ops, _, _ = bench.timed_setups(1)
    rounds = [run_round(ops, clock)]  # warm-up
    base = run_round(ops, clock)
    rounds.append(base)

    # Pass 2: cProfile over a fresh set-up and one round.
    prof = cProfile.Profile()
    before = spin()
    prof.enable()
    hl, ops2 = bench.setup()
    prof.disable()
    for new, old in zip(ops2, ops):
        new.expected = old.expected

    def profiled(fn):
        def run():
            prof.enable()
            try:
                return fn()
            finally:
                prof.disable()

        return run

    traced_round = run_round(ops2, clock, profiled)
    scale = NOMINAL_SPIN_S / ((before + spin()) / 2)
    rounds.append(traced_round)

    # Pass 3: counts of Fraction operations and structure JSON.
    counter = FractionCounter()
    counter.install(hl.structure_io)
    try:
        rounds.append(run_round(ops2, clock, counter.around))
    finally:
        counter.remove()

    metrics = layer_metrics(prof.getstats(), hl.tensor.__file__, scale)
    c = counter.counts
    metrics.update({
        "fractions.mul": (c["mul"], "count"),
        "fractions.add": (c["add"], "count"),
        "fractions.new": (c["new"], "count"),
        "fractions.mul_useful_ratio": (c["mul_useful"] / c["mul"] if c["mul"] else 0.0, "ratio"),
        "structure_io.bytes": (c["json_chars"], "bytes"),
        "import_s": (statistics.median(imports), "s"),
        "trace.overhead": (
            traced_round.total() / base.total(),
            "ratio",
        ),
    })
    return summary(rounds, metrics)


def layer_metrics(entries, tensor_file: str, scale: float) -> dict:
    """Per-module figures from the profiler's own entries, one per code object.

    (``pstats`` keys its table by file, line and name, so two comprehensions
    on one line would overwrite each other there.)
    """
    calls = dict.fromkeys(MODULES, 0)
    self_s = dict.fromkeys(MODULES, 0.0)
    ranges = function_ranges(tensor_file)
    named = {"kernel": 0, "linalg": 0, "r_square": 0, "validate": 0, "triple": 0}
    linalg_s = triple_cum = 0.0
    for entry in entries:
        code = entry.code
        if isinstance(code, str):  # a built-in function
            continue
        filename, line, func = code.co_filename, code.co_firstlineno, code.co_name
        nc, tt, ct = entry.callcount, entry.inlinetime, entry.totaltime
        mod = module_of(filename)
        if mod is None:
            continue
        self_s[mod] += tt
        if mod == "sympy":
            # sympy's internal call counts differ from run to run (its caches
            # and orderings), so count the calls homlie makes into it.
            continue
        calls[mod] += nc
        calls["sympy"] += sum(
            sub.callcount for sub in entry.calls or ()
            if not isinstance(sub.code, str) and module_of(sub.code.co_filename) == "sympy"
        )
        if mod == "tensor":
            if func in KERNELS:
                named["kernel"] += nc
            if func in LINALG:
                named["linalg"] += nc
            if owner(ranges, line) in LINALG:
                linalg_s += tt
        elif (mod, func) == ("coboundary", "r_square_bracket"):
            named["r_square"] += nc
        elif (mod, func) == ("hom_lie", "validate_hom_lie"):
            named["validate"] += nc
        elif (mod, func) == ("bialgebra", "check_triple_equivalence"):
            named["triple"] += nc
            triple_cum += ct
    out = {}
    for m in MODULES:
        out[f"{m}.calls"] = (calls[m], "count")
        out[f"{m}.self_s"] = (self_s[m] * scale, "s")
    out.update({
        "tensor.kernel_calls": (named["kernel"], "count"),
        "tensor.linalg_calls": (named["linalg"], "count"),
        "tensor.linalg_self_s": (linalg_s * scale, "s"),
        "coboundary.r_square_calls": (named["r_square"], "count"),
        "hom_lie.validate_calls": (named["validate"], "count"),
        "bialgebra.triple_calls": (named["triple"], "count"),
        "bialgebra.triple_cum_s": (triple_cum * scale, "s"),
    })
    return out
