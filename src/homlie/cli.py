"""Command line surface: validate structures, build new ones, list builtins.

Exit codes: 0 all checks passed, 1 a check or precondition failed,
2 the input could not even be parsed (bad file, bad expression, bad flag).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys

from .bialgebra import (
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
from .report import CheckReport, InvalidStructureError, require
from .representation import Representation, adjoint_rep, semidirect_product, validate_representation
from .structure_io import (
    Structure,
    StructureParseError,
    builtin_structure,
    dump_json,
    emit_structure,
    load_structure,
)
from .tensor import Matrix, Q, dense


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
    except OSError as e:  # a directory, or a file this user may not read
        raise UsageError(f"cannot read {arg}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"{arg}: not UTF-8 text") from None
    except StructureParseError as e:
        raise UsageError(f"{arg}: {e}") from None


_TERM = re.compile(
    r"^(?:(?P<coeff>\d+(?:/[1-9]\d*)?)\s*\*?\s*)?e(?P<i>\d+)\s*(?P<op>\^|x)\s*e(?P<j>\d+)$"
)

_DOUBLED_SIGN = re.compile(r"[+-]\s*[+-]")  # a term takes one sign


def parse_rmatrix_expr(expr: str, dim: int) -> Matrix:
    """Sums of elementary 2-tensors: "e1^e2" (wedge), "e1xe2" (plain
    tensor), optional rational coefficients, e.g. "1/2 e1^e2 - e2xe2". Only the
    entries the terms name are stored, so the cost follows the expression, not dim."""
    entries: dict[tuple[int, int], Q] = {}
    if _DOUBLED_SIGN.search(expr):
        raise UsageError(f"doubled sign in r-matrix expression: {expr!r}")
    cleaned = expr.replace("-", "+-").strip()
    if cleaned.startswith("+"):
        cleaned = cleaned[1:]
    # each part as (sign, term), so that a part that is only a sign is an empty term
    stripped = [p.strip() for p in cleaned.split("+")]
    parts = [(Q(-1), p[1:].strip()) if p.startswith("-") else (Q(1), p) for p in stripped]
    if not any(part for _, part in parts):
        raise UsageError(f"empty r-matrix expression: {expr!r}")
    for sign, part in parts:
        if not part:
            raise UsageError(f"empty term in r-matrix expression: {expr!r}")
        m = _TERM.match(part)
        if not m:
            raise UsageError(
                f"bad r-matrix term {part!r} (want e.g. 'e1^e2' or '2*e1xe2')"
            )
        try:
            coeff = sign * Q(m.group("coeff") or 1)
            i, j = int(m.group("i")) - 1, int(m.group("j")) - 1
        except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits)
            raise UsageError(f"numeral too long in r-matrix term ({len(part)} characters)") from None
        if not (0 <= i < dim and 0 <= j < dim):
            raise UsageError(
                f"index out of range in {part!r} (dimension is {dim})"
            )
        entries[i, j] = entries.get((i, j), 0) + coeff
        if m.group("op") == "^":
            entries[j, i] = entries.get((j, i), 0) - coeff
    return dense(entries, (dim, dim))


CHECK_ALIASES = {
    "lemma44": "cobracket-residuals",
    "lemma46": "jacobiator-bracket",
    "thm58": "o-operator-expansion",
}


class _Needs(Exception):
    """What a check or a construction lacks; the caller puts its own name in front."""


def _acting_rep(s: Structure) -> Representation:
    """The file's representation, or else left multiplication of its lsa."""
    if s.representation is not None:
        return s.representation
    if s.lsa is not None:
        return left_mult_rep(s.lsa)
    raise _Needs("algebra+representation sections or an lsa section")


def _o_candidate(s: Structure) -> OOperatorCandidate:
    rep = _acting_rep(s)
    return OOperatorCandidate(rep.base, rep, s.ooperator_t)


def _within(what: str, sections: tuple[str, ...], fn, s: Structure, *args):
    """fn(s, *args) once s has the sections, in order; a missing one, or anything
    else fn lacks, is a usage error that names what."""
    try:
        for attr in sections:
            if getattr(s, attr) is None:
                section = attr.removesuffix("_t")
                article = "a" if section in ("representation", "cobracket") else "an"
                raise _Needs(f"{article} {section} section")
        return fn(s, *args)
    except _Needs as e:
        raise UsageError(f"{what} needs {e}") from None


def _defect_expansion(rep: Representation) -> CheckReport:
    return run_defect_expansion_suite(rep.base, rep)


# The bialgebra checks read the one bialgebra of a structure, so they share its
# three verdicts, its double and its triple equivalence of those verdicts; each
# check evaluates only what it returns. The cobracket lives on the algebra, so a
# missing algebra is named first.
_BI = ("algebra", "cobracket")

# check name: (the sections it needs, in the order a missing one is named, and
# what runs it on a structure that has them)
CHECKS = {
    "hom-lie": (("algebra",), lambda s: validate_hom_lie(s.algebra)),
    "weakly-involutive": (("algebra",), lambda s: is_weakly_involutive(s.algebra)),
    "representation": (("representation",), lambda s: validate_representation(s.representation)),
    "matched-pair": (_BI, lambda s: s.bialgebra.matched_pair_verdict),
    "manin-triple": (_BI, lambda s: s.bialgebra.manin_triple_verdict),
    "bialgebra": (_BI, lambda s: validate_bialgebra(s.bialgebra)),
    "coboundary": (("algebra", "rmatrix"), lambda s: validate_coboundary(s.algebra, s.rmatrix)),
    "chybe": (("algebra", "rmatrix"), lambda s: check_chybe(s.rmatrix)),
    "o-operator": (("ooperator_t",), lambda s: validate_o_operator(_o_candidate(s))),
    "lsa": (("lsa",), lambda s: validate_hlsa(s.lsa)),
    "triple-equivalence": (_BI, lambda s: check_triple_equivalence(s.bialgebra)),
    "hom-double": (_BI, lambda s: hom_double(s.bialgebra)[2]),
    "cobracket-residuals": (("algebra",), lambda s: run_residual_suite(s.algebra)),
    "jacobiator-bracket": (("algebra",), lambda s: run_jacobiator_suite(s.algebra)),
    "o-operator-expansion": ((), lambda s: _defect_expansion(_acting_rep(s))),
}

# the check that validates each section, in Structure's field order
DEFAULT_CHECKS = {
    "algebra": "hom-lie",
    "representation": "representation",
    "cobracket": "bialgebra",
    "rmatrix": "chybe",
    "lsa": "lsa",
    "ooperator_t": "o-operator",
}


def run_check(name: str, s: Structure) -> CheckReport:
    """Run one named check of CHECKS."""
    if name not in CHECKS:
        raise UsageError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    return _within(f"check {name!r}", *CHECKS[name], s)


def cmd_validate(args) -> tuple[int, str]:
    s = _load(args.structure)
    if args.rmatrix is not None:
        if s.algebra is None:
            raise UsageError("--rmatrix needs an algebra section")
        r = RMatrix(s.algebra, parse_rmatrix_expr(args.rmatrix, s.algebra.dim))
        s = dataclasses.replace(s, rmatrix=r)
    checks = args.check or [c for attr, c in DEFAULT_CHECKS.items() if getattr(s, attr) is not None]
    if not checks:
        raise UsageError("structure has no sections to validate")

    reports: list[CheckReport] = []
    for name in (CHECK_ALIASES.get(c, c) for c in checks):
        try:
            reports.append(run_check(name, s))
        except InvalidStructureError as e:  # a refused precondition: its report fails
            reports.append(e.report.renamed(name, precondition=str(e).splitlines()[0]))

    ok = all(r.ok for r in reports)
    if args.format == "json":
        doc = {
            "name": s.name,
            "verdict": "pass" if ok else "fail",
            "checks": [r.to_json() for r in reports],
        }
        text = dump_json(doc)
    else:
        text = "\n".join(r.render() for r in reports)
    return (0 if ok else 1), text + "\n"


def _hom_double(s: Structure, args) -> dict:
    big, r, report = hom_double(s.bialgebra)
    require(report, "hom-double checks failed")
    return {"algebra": big.algebra, "cobracket": big.cobracket, "rmatrix": r}


def _semidirect(s: Structure, args) -> dict:
    rep = adjoint_rep(s.algebra) if args.rep == "adjoint" else s.representation
    if rep is None:
        raise UsageError("semidirect needs --rep adjoint or a representation section")
    return {"algebra": semidirect_product(rep)}


def _dual(s: Structure, args) -> dict:
    cb = zero_cobracket(s.algebra) if args.cobracket == "zero" else s.cobracket
    if cb is None:
        raise UsageError("dual needs --cobracket zero or a cobracket section")
    return {"algebra": dual_algebra(cb)}


def _cobracket(s: Structure, args) -> dict:
    a = s.algebra
    r = s.rmatrix if args.rmatrix is None else RMatrix(a, parse_rmatrix_expr(args.rmatrix, a.dim))
    if r is None:
        raise UsageError("cobracket needs --rmatrix or an rmatrix section")
    return {"algebra": a, "cobracket": cobracket_from_r(r), "rmatrix": r}


def _r_from_o(s: Structure, args) -> dict:
    big, r, report = r_from_o_operator(_o_candidate(s))
    require(report, "r-from-o checks failed")
    return {"algebra": big, "rmatrix": r}


# construction: (the sections it needs, in the order a missing one is named; the
# suffix of its output's name; the name of the output of an unnamed input; what
# builds the output's sections from the input and the parsed arguments)
CONSTRUCTIONS = {
    "hom-double": (_BI, "double", "double", _hom_double),
    "semidirect": (("algebra",), "semidirect", "semidirect", _semidirect),
    "dual": (("algebra",), "dual", "dual", _dual),
    "commutator": (("lsa",), "commutator", "commutator", lambda s, args: {"algebra": commutator_hom_lie(s.lsa)}),
    "cobracket": (("algebra",), "cobracket", "cobracket", _cobracket),
    "r-from-o": (("ooperator_t",), "r", "r-from-o", _r_from_o),
}


def cmd_build(args) -> tuple[int, str]:
    s = _load(args.structure)
    sections, suffix, unnamed, build = CONSTRUCTIONS[args.construction]
    built = _within(f"construction {args.construction!r}", sections, build, s, args)
    return 0, emit_structure(Structure(f"{s.name}-{suffix}" if s.name else unnamed, **built))


def cmd_corpus(args) -> tuple[int, str]:
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
        return 0, dump_json(doc) + "\n"
    width = max(len(b.name) for b in BUILTINS)
    lines = []
    for b in BUILTINS:
        alias = f" (alias {', '.join(b.aliases)})" if b.aliases else ""
        lines.append(f"{b.name:<{width}}  [{b.kind}] {b.description}{alias}\n")
    return 0, "".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of main, built on the first call and shared after it."""
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
        f"section. Known: {', '.join(CHECKS)}; "
        f"aliases: {', '.join(sorted(CHECK_ALIASES))}",
    )
    v.add_argument(
        "--rmatrix",
        metavar="EXPR",
        help="attach an r-matrix given as e.g. 'e1^e2' or '1/2 e1xe2 - e2xe1'",
    )
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.set_defaults(fn=cmd_validate)

    b = sub.add_parser("build", help="emit a constructed structure on stdout")
    b.add_argument("construction", choices=CONSTRUCTIONS)
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
        code, output = args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvalidStructureError as e:
        print(str(e), file=sys.stderr)
        return 1
    try:
        sys.stdout.write(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone, as in `homlie ... | head -1`. Drop stdout, so
        # that nothing more is written to it, not even by the flush at exit.
        sys.stdout = None
    return code


if __name__ == "__main__":
    sys.exit(main())
