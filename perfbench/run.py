"""Benchmark of homlie: one workload, one process, one caller.

Run from the root of a checkout (the directory holding ``src/homlie``):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
they are the per-layer ones. ``--quick`` runs the smallest rung of the
workload with every check, for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types

from harness import Clock, aggregate, run_round, summary

WORKLOADS = ("verify", "double", "solve")
SETUPS = 9  # set-up repetitions per run; setup_s is their median
HOMLIE_MODULES = (
    "tensor", "report", "hom_lie", "representation", "bialgebra", "coboundary",
    "operators", "corpus", "structure_io", "cli",
)


def fresh_homlie() -> types.SimpleNamespace:
    """Import homlie from scratch, dropping any copy already imported."""
    for name in list(sys.modules):
        if name == "homlie" or name.startswith("homlie."):
            del sys.modules[name]
    importlib.import_module("homlie")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"homlie.{m}") for m in HOMLIE_MODULES}
    )


def workload_module(name: str):
    return importlib.import_module(f"wl_{name}")


class Bench:
    """Set-up, expected answers and rounds of one workload."""

    def __init__(self, workload: str, seed: int, quick: bool, workdir: str):
        self.module = workload_module(workload)
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.clock = Clock()

    def setup(self):
        hl = fresh_homlie()
        return hl, self.module.build(hl, self.seed, self.quick, self.workdir)

    def timed_setups(self, count: int):
        times, raw_times = [], []
        for _ in range(count):
            (hl, ops), cal, raw = self.clock.time(self.setup)
            times.append(cal)
            raw_times.append(raw)
        for op in ops:  # expected answers, computed apart from homlie
            op.expected = op.expect()
            if op.expected[0][1] != (op.answer == "yes"):
                raise RuntimeError(f"{op.name}: expected answer is not {op.answer!r}")
        return hl, ops, times, raw_times


def end_to_end(args, bench: Bench) -> dict:
    _, ops, setup_times, raw_setup = bench.timed_setups(SETUPS)
    # Collect, then exempt what exists now (inputs, expected answers) from
    # later collections, so their cost does not depend on what set-up left.
    gc.collect()
    gc.freeze()
    rounds = [run_round(ops, bench.clock)]  # warm-up round, checked, not timed
    measured = []
    start = time.monotonic()
    while not measured or time.monotonic() - start < args.seconds:
        measured.append(run_round(ops, bench.clock))
    rounds += measured
    raw = aggregate(ops, measured, "raw")  # uncalibrated CPU seconds, for reference
    raw.update(setup_s=statistics.median(raw_setup), rounds=len(measured))
    print("raw " + json.dumps(raw), file=sys.stderr)
    figures = aggregate(ops, measured)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "positive_s": (figures["positive_s"], "s"),
        "negative_s": (figures["negative_s"], "s"),
        "small_ms": (figures["small_ms"], "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return summary(rounds, metrics)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="smallest rung only")
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "homlie", "__init__.py")):
        print(f"error: no homlie sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, args.quick, workdir)
        if args.trace:
            from trace_layers import traced

            result = traced(bench, fresh_homlie)
        else:
            result = end_to_end(args, bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
