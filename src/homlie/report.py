"""Structured verdicts for validators.

Every check in this package returns a CheckReport rather than raising:
verdict, the condition that was checked, and on failure at least one
witness recording where the identity broke (1-based basis indices) and
the exact residual at that point. Residuals are whatever object the
identity lives in (scalar, vector, matrix, or order-3 tensor) and can be
re-evaluated exactly from the inputs.

Constructors raise InvalidStructureError only where the output object
would be mathematically meaningless without the precondition; the error
carries the failing CheckReport so nothing is lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Union

from .tensor import Matrix, Tensor3, Vector, format_q

Residual = Union[Fraction, Vector, Matrix, Tensor3]


@dataclass(frozen=True)
class Witness:
    """First (or representative) counterexample to a checked identity."""

    indices: tuple[int, ...]  # 1-based basis indices, matching printed bases e1, e2, ...
    residual: Residual
    note: str = ""

    def __str__(self) -> str:
        where = "(" + ", ".join(str(i) for i in self.indices) + ")"
        res = format_residual(self.residual)
        return f"at {where}: residual {res}" + (f"  [{self.note}]" if self.note else "")


@dataclass(frozen=True)
class CheckReport:
    checked_condition: str
    ok: bool
    witnesses: tuple[Witness, ...] = ()
    info: dict = field(default_factory=dict)
    subreports: tuple["CheckReport", ...] = ()

    def __post_init__(self):
        if not self.ok and not self.witnesses and not any(
            not s.ok for s in self.subreports
        ):
            raise ValueError(
                f"failing report for {self.checked_condition!r} must carry a witness"
            )

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"

    def first_witness(self) -> Witness | None:
        if self.witnesses:
            return self.witnesses[0]
        for s in self.subreports:
            if not s.ok:
                w = s.first_witness()
                if w is not None:
                    return w
        return None

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.checked_condition}: {self.verdict}"]
        for w in self.witnesses:
            lines.append(f"{pad}  {w}")
        for key, val in sorted(self.info.items()):
            lines.append(f"{pad}  {key}: {val}")
        for s in self.subreports:
            lines.append(s.render(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def renamed(self, condition: str) -> "CheckReport":
        """The same verdict, witnesses, info and subreports under another name."""
        return replace(self, checked_condition=condition)

    def to_json(self) -> dict:
        out: dict = {"condition": self.checked_condition, "verdict": self.verdict}
        if self.witnesses:
            out["witnesses"] = [
                {
                    "indices": list(w.indices),
                    "residual": residual_to_json(w.residual),
                    **({"note": w.note} if w.note else {}),
                }
                for w in self.witnesses
            ]
        if self.info:
            out["info"] = {k: _info_to_json(v) for k, v in self.info.items()}
        if self.subreports:
            out["subreports"] = [s.to_json() for s in self.subreports]
        return out


def passed(condition: str, **info) -> CheckReport:
    return CheckReport(condition, True, (), dict(info))


def failed(condition: str, witnesses: list[Witness], **info) -> CheckReport:
    return CheckReport(condition, False, tuple(witnesses), dict(info))


def scan(condition: str, cases: Iterable[tuple], **info) -> CheckReport:
    """Fail at the first case whose residual is nonzero, else pass.

    Each case is (indices, residual) or (indices, residual, note), in the
    identity's documented scan order. Iteration stops at the witness, so
    a lazy iterable evaluates nothing after it.
    """
    for indices, residual, *note in cases:
        if _is_nonzero(residual):
            return failed(condition, [Witness(indices, residual, *note)], **info)
    return passed(condition, **info)


def holds(condition: str, ok: bool, note: str) -> CheckReport:
    """A cross-check between two verdicts: on failure, unit residual at (0,)."""
    if ok:
        return passed(condition)
    return failed(condition, [Witness((0,), Fraction(1), note)])


def _is_nonzero(r: Residual) -> bool:
    if isinstance(r, (Vector, Matrix, Tensor3)):
        return not r.is_zero()
    return r != 0


def combined(condition: str, subreports: list[CheckReport], **info) -> CheckReport:
    """Pass iff every subreport passes.

    On failure the first failing subreport's witnesses are hoisted to the
    top so the nonempty-witness invariant holds at every level.
    """
    ok = all(s.ok for s in subreports)
    witnesses: tuple[Witness, ...] = ()
    if not ok:
        first_bad = next(s for s in subreports if not s.ok)
        w = first_bad.first_witness()
        witnesses = (w,) if w is not None else ()
    return CheckReport(condition, ok, witnesses, dict(info), tuple(subreports))


class InvalidStructureError(ValueError):
    """A constructor precondition failed; .report says exactly where."""

    def __init__(self, message: str, report: CheckReport):
        super().__init__(f"{message}\n{report.render(indent=1)}")
        self.report = report


def require(report: CheckReport, message: str) -> None:
    if not report.ok:
        raise InvalidStructureError(message, report)


def format_residual(r: Residual) -> str:
    if isinstance(r, Fraction):
        return format_q(r)
    return str(r)


def residual_to_json(r: Residual):
    if isinstance(r, Fraction):
        return format_q(r)
    if isinstance(r, Vector):
        return [format_q(a) for a in r.entries]
    if isinstance(r, Matrix):
        return [[format_q(a) for a in row] for row in r.rows]
    if isinstance(r, Tensor3):
        return [[[format_q(a) for a in row] for row in plane] for plane in r.entries]
    return str(r)


def _info_to_json(v):
    if isinstance(v, Fraction):
        return format_q(v)
    if isinstance(v, (Vector, Matrix, Tensor3)):
        return residual_to_json(v)
    if isinstance(v, (list, tuple)):
        return [_info_to_json(x) for x in v]
    return v
