"""Clock, operations and rounds shared by the three workloads.

Every time is CPU time of this process (``time.process_time``) scaled to a
reference speed. A fixed loop of standard-library ``Fraction``
multiply-adds, which runs no homlie code, is timed between consecutive
segments; a segment's time is multiplied by ``NOMINAL_SPIN_S`` divided by
the mean of the loop readings taken right before and right after it. On a
machine whose speed drifts, the ratio of two timings taken close together
drifts far less than either timing.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

# Reference duration of one calibration loop. Calibrated times read as
# "seconds on a machine where spin() takes exactly this long".
NOMINAL_SPIN_S = 0.005

_SPIN_OPERANDS = tuple(
    Fraction(p, q) for p, q in ((3, 7), (-5, 11), (2, 9), (7, 4), (-1, 6), (8, 15))
)
_SPIN_ROUNDS = 250


def spin() -> float:
    """CPU seconds taken by a fixed loop of Fraction multiply-adds."""
    t0 = time.process_time()
    for _ in range(_SPIN_ROUNDS):
        acc = Fraction(0)
        for x in _SPIN_OPERANDS:
            acc = acc * x + x
    return time.process_time() - t0


class Clock:
    """Times segments in calibrated CPU seconds.

    The loop reading that closes one segment opens the next, so each
    segment costs one calibration loop.
    """

    def __init__(self):
        self._last = spin()

    def time(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run fn once; return (result, calibrated seconds, raw seconds)."""
        before = self._last
        t0 = time.process_time()
        out = fn()
        raw = time.process_time() - t0
        self._last = spin()
        return out, raw * NOMINAL_SPIN_S / ((before + self._last) / 2), raw

    def reset(self) -> None:
        """Take a fresh reading after a segment that raised."""
        self._last = spin()


@dataclass
class Op:
    """One operation of a workload.

    ``call`` runs the operation and returns its raw result; ``summarize``
    turns that result into plain Python values; ``expect`` computes the
    same summary apart from homlie, from a proven property or an
    independent evaluator. ``answer`` is "yes" or "no", ``dim`` is the
    dimension of the input, and ``batch`` repeats a small operation inside
    one timed segment so that the segment lasts some tens of milliseconds.
    """

    name: str
    answer: str
    dim: int
    call: Callable[[], Any]
    summarize: Callable[[Any], Any]
    expect: Callable[[], Any]
    batch: int = 1
    expected: Any = field(default=None, repr=False)


SMALL_DIM = 4


@dataclass
class RoundResult:
    times: list  # calibrated seconds per call of each op, None if it failed
    raw: list  # the same, uncalibrated
    attempted: int
    failed: int
    wrong: list[str]
    errors: list[str]

    def total(self) -> float:
        return sum(t for t in self.times if t is not None)


def run_round(ops: list[Op], clock: Clock, around: Callable | None = None) -> RoundResult:
    """Run every op once (batched), timing each and checking its answer.

    A failed operation is an exception or a wrong answer. ``around``
    optionally wraps each op call; the traced passes use it to switch
    their instruments on only while homlie runs.
    """
    res = RoundResult([None] * len(ops), [None] * len(ops), 0, 0, [], [])
    for i, op in enumerate(ops):
        def batch(op=op):
            out = None
            for _ in range(op.batch):
                out = op.call()
            return out

        res.attempted += op.batch
        try:
            out, cal, raw = clock.time(around(batch) if around else batch)
        except Exception as e:
            res.failed += op.batch
            res.errors.append(f"{op.name}: {type(e).__name__}: {e}")
            clock.reset()
            continue
        got = op.summarize(out)
        if got != op.expected:
            res.failed += op.batch
            res.wrong.append(f"{op.name}: got {got!r}, expected {op.expected!r}")
            continue
        res.times[i] = cal / op.batch
        res.raw[i] = raw / op.batch
    return res


def aggregate(ops: list[Op], rounds: list[RoundResult], field_name: str = "times") -> dict:
    """End-to-end figures from the measured rounds.

    Each op's time is its median over the rounds; ``positive_s`` and
    ``negative_s`` sum those medians by expected answer, and ``small_ms``
    is their geometric mean over ops on inputs of dimension <= SMALL_DIM.
    """
    pos = neg = 0.0
    small = []
    for i, op in enumerate(ops):
        ts = [t for r in rounds if (t := getattr(r, field_name)[i]) is not None]
        if not ts:
            continue
        t = statistics.median(ts)
        if op.answer == "yes":
            pos += t
        else:
            neg += t
        if op.dim <= SMALL_DIM:
            small.append(t)
    return {
        "positive_s": pos,
        "negative_s": neg,
        "small_ms": 1000 * statistics.geometric_mean(small) if small else 0.0,
    }


def summary(rounds: list[RoundResult], metrics: dict) -> dict:
    """The result object of a run: any failed operation, a wrong answer or
    an exception, makes the run incorrect."""
    for r in rounds:
        for line in r.wrong + r.errors:
            print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": not any(r.wrong or r.errors for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# --- plain values of homlie results --------------------------------------


def fractions_of(t):
    """Nested lists or tuples of numbers or "p/q" strings as nested tuples
    of Fractions."""
    if isinstance(t, (tuple, list)):
        return tuple(fractions_of(u) for u in t)
    return Fraction(t)


def plain(x):
    """A homlie Vector/Matrix/Tensor3/Fraction as nested tuples of Fractions."""
    if isinstance(x, Fraction):
        return x
    if hasattr(x, "entries"):
        return fractions_of(x.entries)
    if hasattr(x, "rows"):
        return fractions_of(x.rows)
    return x


def verdict(report, subs: tuple[str, ...] = ()) -> tuple:
    """(ok, first witness) of a CheckReport, plus the same for named subreports.

    A witness is (indices, residual) with the residual as plain Fractions.
    """

    def w(r):
        fw = r.first_witness()
        return None if fw is None else (tuple(fw.indices), plain(fw.residual))

    out = [("", report.ok, w(report))]
    by_name = {s.checked_condition: s for s in report.subreports}
    for name in subs:
        s = by_name[name]
        out.append((name, s.ok, w(s)))
    return tuple(out)


def expected_verdict(parts: list[tuple[str, Any]], top_subs: tuple[str, ...]) -> tuple:
    """The verdict() a combined report must give, from per-part witnesses.

    ``parts`` lists (subreport name, first witness or None) in the order
    the report combines them; the combined report fails at the first
    failing part's witness.
    """
    first = next((w for _, w in parts if w is not None), None)
    out = [("", first is None, first)]
    by_name = dict(parts)
    for name in top_subs:
        out.append((name, by_name[name] is None, by_name[name]))
    return tuple(out)
