"""Command line surface: validate structures, build new ones, list builtins.

Exit codes: 0 all checks passed, 1 a check or precondition failed,
2 the input could not even be parsed (bad file, bad expression, bad flag).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from typing import Callable

from .bialgebra import (
    HomLieBialgebra,
    check_triple_equivalence,
    dual_algebra,
    validate_bialgebra,
    zero_cobracket,
)
from .coboundary import (
    RMatrix,
    check_chybe,
    cobracket_from_r,
    hom_double,
    run_jacobiator_suite,
    run_residual_suite,
    validate_coboundary,
)
from .corpus import BUILTINS
from .hom_lie import is_weakly_involutive, validate_hom_lie
from .operators import (
    OOperatorCandidate,
    commutator_hom_lie,
    left_mult_rep,
    r_from_o_operator,
    run_defect_expansion_suite,
    validate_hlsa,
    validate_o_operator,
)
from .report import CheckReport, InvalidStructureError
from .representation import adjoint_rep, semidirect_product, validate_representation
from .structure_io import (
    Structure,
    StructureParseError,
    builtin_structure,
    emit_structure,
    load_structure,
)
from .tensor import Matrix, Q


class UsageError(Exception):
    """Input that cannot be acted on at all; maps to exit code 2."""


def _load(arg: str) -> Structure:
    if arg.startswith("builtin:"):
        try:
            return builtin_structure(arg.removeprefix("builtin:"))
        except KeyError as e:
            raise UsageError(str(e.args[0])) from None
    try:
        return load_structure(arg)
    except FileNotFoundError:
        raise UsageError(f"no such file: {arg}") from None
    except StructureParseError as e:
        raise UsageError(f"{arg}: {e}") from None


_TERM = re.compile(
    r"^(?:(?P<coeff>\d+(?:/[1-9]\d*)?)\s*\*?\s*)?e(?P<i>\d+)\s*(?P<op>\^|x)\s*e(?P<j>\d+)$"
)


def parse_rmatrix_expr(expr: str, dim: int) -> Matrix:
    """Sums of elementary 2-tensors: "e1^e2" (wedge), "e1xe2" (plain
    tensor), optional rational coefficients, e.g. "1/2 e1^e2 - e2xe2"."""
    rows = [[Q(0)] * dim for _ in range(dim)]
    cleaned = expr.replace("-", "+-").strip()
    if cleaned.startswith("+"):
        cleaned = cleaned[1:]
    parts = [p.strip() for p in cleaned.split("+")]
    if not any(parts):
        raise UsageError(f"empty r-matrix expression: {expr!r}")
    for part in parts:
        if not part:
            raise UsageError(f"empty term in r-matrix expression: {expr!r}")
        sign = Q(1)
        if part.startswith("-"):
            sign = Q(-1)
            part = part[1:].strip()
        m = _TERM.match(part)
        if not m:
            raise UsageError(
                f"bad r-matrix term {part!r} (want e.g. 'e1^e2' or '2*e1xe2')"
            )
        coeff = sign * Q(m.group("coeff") or 1)
        i, j = int(m.group("i")) - 1, int(m.group("j")) - 1
        if not (0 <= i < dim and 0 <= j < dim):
            raise UsageError(
                f"index out of range in {part!r} (dimension is {dim})"
            )
        rows[i][j] += coeff
        if m.group("op") == "^":
            rows[j][i] -= coeff
    return Matrix(rows)


CHECK_ALIASES = {
    "lemma44": "cobracket-residuals",
    "lemma46": "jacobiator-bracket",
    "thm58": "o-operator-expansion",
}

CHECK_NAMES = (
    "hom-lie",
    "weakly-involutive",
    "representation",
    "matched-pair",
    "manin-triple",
    "bialgebra",
    "coboundary",
    "chybe",
    "o-operator",
    "lsa",
    "triple-equivalence",
    "hom-double",
    "cobracket-residuals",
    "jacobiator-bracket",
    "o-operator-expansion",
)


def _need(s: Structure, attr: str, check: str):
    val = getattr(s, attr)
    if val is None:
        section = {"ooperator_t": "ooperator"}.get(attr, attr)
        raise UsageError(f"check {check!r} needs a {section} section")
    return val


def _bialgebra(s: Structure, check: str) -> HomLieBialgebra:
    return HomLieBialgebra(
        _need(s, "algebra", check), _need(s, "cobracket", check)
    )


def _rmatrix(s: Structure, check: str) -> RMatrix:
    return RMatrix(_need(s, "algebra", check), _need(s, "rmatrix", check).coeffs)


def _o_candidate(s: Structure, check: str) -> OOperatorCandidate:
    t = _need(s, "ooperator_t", check)
    if s.algebra is not None and s.representation is not None:
        return OOperatorCandidate(s.algebra, s.representation, t)
    if s.lsa is not None:
        rep = left_mult_rep(s.lsa)
        return OOperatorCandidate(rep.base, rep, t)
    raise UsageError(
        f"check {check!r} needs algebra+representation sections or an lsa section"
    )


def _lsa_or_rep(s: Structure, check: str):
    if s.algebra is not None and s.representation is not None:
        return s.algebra, s.representation
    if s.lsa is not None:
        rep = left_mult_rep(s.lsa)
        return rep.base, rep
    raise UsageError(
        f"check {check!r} needs algebra+representation sections or an lsa section"
    )


def _part(full: CheckReport, part: str) -> CheckReport:
    return next(r for r in full.subreports if r.checked_condition == part)


def run_check(
    name: str, s: Structure, seed: int, triple: Callable[[str], CheckReport]
) -> CheckReport:
    """Run one named check; `triple(name)` supplies check_triple_equivalence
    of s, which the matched-pair and manin-triple checks are parts of."""
    if name == "hom-lie":
        return validate_hom_lie(_need(s, "algebra", name))
    if name == "weakly-involutive":
        return is_weakly_involutive(_need(s, "algebra", name))
    if name == "representation":
        return validate_representation(_need(s, "representation", name))
    if name == "matched-pair":
        return _part(triple(name), "matched-pair-structure")
    if name == "manin-triple":
        return _part(triple(name), "manin-triple")
    if name == "bialgebra":
        return validate_bialgebra(_bialgebra(s, name))
    if name == "triple-equivalence":
        return triple(name)
    if name == "coboundary":
        return validate_coboundary(_need(s, "algebra", name), _rmatrix(s, name))
    if name == "chybe":
        return check_chybe(_rmatrix(s, name))
    if name == "o-operator":
        return validate_o_operator(_o_candidate(s, name))
    if name == "lsa":
        return validate_hlsa(_need(s, "lsa", name))
    if name == "hom-double":
        _, _, report = hom_double(_bialgebra(s, name))
        return report
    if name == "cobracket-residuals":
        return run_residual_suite(_need(s, "algebra", name), seed)
    if name == "jacobiator-bracket":
        return run_jacobiator_suite(_need(s, "algebra", name), seed)
    if name == "o-operator-expansion":
        a, rep = _lsa_or_rep(s, name)
        return run_defect_expansion_suite(a, rep, seed)
    raise UsageError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")


def _default_checks(s: Structure) -> list[str]:
    """Structural validity of whatever the file contains."""
    out = []
    if s.algebra is not None:
        out.append("hom-lie")
    if s.representation is not None:
        out.append("representation")
    if s.cobracket is not None:
        out.append("bialgebra")
    if s.rmatrix is not None:
        out.append("chybe")
    if s.lsa is not None:
        out.append("lsa")
    if s.ooperator_t is not None:
        out.append("o-operator")
    if not out:
        raise UsageError("structure has no sections to validate")
    return out


def cmd_validate(args) -> int:
    s = _load(args.structure)
    if args.rmatrix is not None:
        if s.algebra is None:
            raise UsageError("--rmatrix needs an algebra section")
        r = RMatrix(s.algebra, parse_rmatrix_expr(args.rmatrix, s.algebra.dim))
        s = dataclasses.replace(s, rmatrix=r)
    checks = [CHECK_ALIASES.get(c, c) for c in (args.check or _default_checks(s))]

    computed: list[CheckReport] = []

    def triple(check: str) -> CheckReport:
        if not computed:
            computed.append(check_triple_equivalence(_bialgebra(s, check)))
        return computed[0]

    reports: list[tuple[str, CheckReport]] = []
    bad_precondition = False
    for name in checks:
        try:
            reports.append((name, run_check(name, s, args.seed, triple)))
        except InvalidStructureError as e:
            bad_precondition = True
            reports.append(
                (
                    name,
                    CheckReport(
                        name,
                        False,
                        e.report.witnesses,
                        {"precondition": str(e).splitlines()[0], **e.report.info},
                        e.report.subreports,
                    ),
                )
            )

    ok = all(r.ok for _, r in reports) and not bad_precondition
    if args.format == "json":
        doc = {
            "name": s.name,
            "verdict": "pass" if ok else "fail",
            "checks": [r.to_json() for _, r in reports],
        }
        print(json.dumps(doc, indent=2))
    else:
        for _, r in reports:
            print(r.render())
    return 0 if ok else 1


def _build_structure(args) -> Structure:
    s = _load(args.structure)
    kind = args.construction

    if kind == "hom-double":
        big, r, report = hom_double(_bialgebra(s, kind))
        if not report.ok:
            raise InvalidStructureError("hom-double checks failed", report)
        return Structure(
            name=f"{s.name}-double" if s.name else "double",
            algebra=big,
            cobracket=cobracket_from_r(r),
            rmatrix=r,
        )

    if kind == "semidirect":
        a = _need(s, "algebra", kind)
        if args.rep == "adjoint":
            rep = adjoint_rep(a)
        elif s.representation is not None:
            rep = s.representation
        else:
            raise UsageError(
                "semidirect needs --rep adjoint or a representation section"
            )
        return Structure(
            name=f"{s.name}-semidirect" if s.name else "semidirect",
            algebra=semidirect_product(a, rep),
        )

    if kind == "dual":
        a = _need(s, "algebra", kind)
        if args.cobracket == "zero":
            cb = zero_cobracket(a)
        elif s.cobracket is not None:
            cb = s.cobracket
        else:
            raise UsageError("dual needs --cobracket zero or a cobracket section")
        return Structure(
            name=f"{s.name}-dual" if s.name else "dual", algebra=dual_algebra(cb)
        )

    if kind == "commutator":
        lsa = _need(s, "lsa", kind)
        return Structure(
            name=f"{s.name}-commutator" if s.name else "commutator",
            algebra=commutator_hom_lie(lsa),
        )

    if kind == "cobracket":
        a = _need(s, "algebra", kind)
        if args.rmatrix is not None:
            r = RMatrix(a, parse_rmatrix_expr(args.rmatrix, a.dim))
        elif s.rmatrix is not None:
            r = s.rmatrix
        else:
            raise UsageError("cobracket needs --rmatrix or an rmatrix section")
        return Structure(
            name=f"{s.name}-cobracket" if s.name else "cobracket",
            algebra=a,
            cobracket=cobracket_from_r(r),
            rmatrix=r,
        )

    if kind == "r-from-o":
        cand = _o_candidate(s, kind)
        big, r, report = r_from_o_operator(cand)
        if not report.ok:
            raise InvalidStructureError("r-from-o checks failed", report)
        return Structure(
            name=f"{s.name}-r" if s.name else "r-from-o", algebra=big, rmatrix=r
        )

    raise UsageError(f"unknown construction {kind!r}")


def cmd_build(args) -> int:
    out = _build_structure(args)
    sys.stdout.write(emit_structure(out))
    return 0


def cmd_corpus(args) -> int:
    if args.format == "json" or args.json:
        doc = [
            {
                "name": b.name,
                "kind": b.kind,
                "description": b.description,
                **({"aliases": list(b.aliases)} if b.aliases else {}),
            }
            for b in BUILTINS
        ]
        print(json.dumps(doc, indent=2))
    else:
        width = max(len(b.name) for b in BUILTINS)
        for b in BUILTINS:
            alias = f" (alias {', '.join(b.aliases)})" if b.aliases else ""
            print(f"{b.name:<{width}}  [{b.kind}] {b.description}{alias}")
    return 0


def _seed(text: str) -> int:
    val = int(text)
    if not 0 <= val < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlie",
        description="Construct and verify Hom-Lie structures with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser(
        "validate", help="run checks against a structure file or builtin:<name>"
    )
    v.add_argument("structure", help="path to a structure file, or builtin:<name>")
    v.add_argument(
        "--check",
        action="append",
        metavar="NAME",
        help="check to run (repeatable); default: validity of every present "
        f"section. Known: {', '.join(CHECK_NAMES)}; "
        f"aliases: {', '.join(sorted(CHECK_ALIASES))}",
    )
    v.add_argument(
        "--rmatrix",
        metavar="EXPR",
        help="attach an r-matrix given as e.g. 'e1^e2' or '1/2 e1xe2 - e2xe1'",
    )
    v.add_argument("--seed", type=_seed, default=0, help="seed for the fuzz suites")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.set_defaults(fn=cmd_validate)

    b = sub.add_parser("build", help="emit a constructed structure on stdout")
    b.add_argument(
        "construction",
        choices=(
            "hom-double",
            "semidirect",
            "dual",
            "commutator",
            "cobracket",
            "r-from-o",
        ),
    )
    b.add_argument("structure", help="input structure file or builtin:<name>")
    b.add_argument("--rep", choices=("adjoint",), help="representation to act with")
    b.add_argument(
        "--cobracket", choices=("zero",), help="cobracket to use for 'dual'"
    )
    b.add_argument("--rmatrix", metavar="EXPR", help="r-matrix for 'cobracket'")
    b.set_defaults(fn=cmd_build)

    c = sub.add_parser("corpus", help="list the builtin structures")
    c.add_argument("--json", action="store_true", help="machine-readable catalog")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.set_defaults(fn=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvalidStructureError as e:
        print(str(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
