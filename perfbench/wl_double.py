"""double: the bialgebra layer, run in-process through ``homlie.cli.main``.

A ``build hom-double`` chain from aff2-triangular to dims 4 and 8, each
build written to a file and parsed back; ``validate`` with the bialgebra,
matched-pair, Manin-triple, triple-equivalence and hom-double checks on
those builds, on zero-cobracket bialgebras over sl2, Yau-twisted sl2 and
sl2+sl2, and on coboundary bialgebras from triangular r. Negatives are
cobrackets broken at a fixed entry by a seeded amount, and the hom-double
builds refused on them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import ref
from harness import Op, expected_verdict, fractions_of
from wl_verify import CHEVALLEY, nonzero

FIVE = ("bialgebra", "matched-pair", "manin-triple", "triple-equivalence", "hom-double")
BIALGEBRA_SUBS = (
    "primal-hom-lie", "primal-weakly-involutive", "dual-hom-lie",
    "dual-weakly-involutive", "cobracket-compatibility",
)


def check_summary(doc: dict) -> tuple:
    """(ok, first witness) of one check in ``validate --format json``, with
    its subreports, and the common verdict of a triple-equivalence."""

    def w(d):
        ws = d.get("witnesses")
        return (tuple(ws[0]["indices"]), fractions_of(ws[0]["residual"])) if ws else None

    out = [("", doc["verdict"] == "pass", w(doc))]
    out += [(s["condition"], s["verdict"] == "pass", w(s)) for s in doc.get("subreports", ())]
    if "common_verdict" in doc.get("info", {}):
        out.append(("common_verdict", doc["info"]["common_verdict"]))
    return tuple(out)


def build(hl, seed: int, quick: bool, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    sio, cob_mod, bia = hl.structure_io, hl.coboundary, hl.bialgebra
    Matrix, Tensor3 = hl.tensor.Matrix, hl.tensor.Tensor3
    ops: list[Op] = []

    def path(name):
        return os.path.join(workdir, name + ".json")

    def write(name, s):
        with open(path(name), "w", encoding="utf-8") as f:
            f.write(sio.emit_structure(s))
        return path(name)

    def cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = hl.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    # --- inputs ---------------------------------------------------------
    sl2 = hl.corpus.sl2()
    theta = Matrix(CHEVALLEY)
    yau = hl.hom_lie.HomLieAlgebra(
        Tensor3([[theta.apply(sl2.bracket.plane(i).row(j)).entries for j in range(3)] for i in range(3)]),
        theta, "yau(sl2)",
    )
    inputs = {}  # name -> (file, plain algebra, plain cobracket)

    def add_input(name, a, cb, r=None):
        s = sio.Structure(name, a, cobracket=cb, rmatrix=r)
        inputs[name] = (write(name, s), a, cb)

    add_input("sl2-zero", sl2, bia.zero_cobracket(sl2))
    add_input("yau-sl2-zero", yau, bia.zero_cobracket(yau))
    if not quick:
        sl22 = hl.hom_lie.direct_sum(sl2, sl2)
        add_input("sl2+sl2-zero", sl22, bia.zero_cobracket(sl22))

    def wedge(n, i, j, c):
        rows = [[0] * n for _ in range(n)]
        rows[i][j], rows[j][i] = c, -c
        return Matrix(rows)

    triangular = [("aff2", hl.corpus.aff2(), 0, 1), ("sl2", sl2, 0, 1)]
    if not quick:
        triangular.append(("heis3", hl.corpus.heis3(), 0, 2))
    for name, a, i, j in triangular:
        r = cob_mod.RMatrix(a, wedge(a.dim, i, j, nonzero(rng)))
        add_input(f"{name}-triangular", a, cob_mod.cobracket_from_r(r), r)

    # Broken cobrackets, at a fixed entry by a seeded amount d. Every skew
    # cobracket on aff2 is a bialgebra, so aff2's loses skewness (Delta(e_1)
    # gains d e_1 (x) e_2); the others gain d e_1 ^ e_2 in Delta(e_1).
    broken = []
    for name in ("aff2", "sl2") if quick else ("aff2", "sl2", "heis3"):
        _, a, cb = inputs[f"{name}-triangular"]
        box = [[list(row) for row in plane] for plane in cb.coeffs.entries]
        d = nonzero(rng)
        box[0][0][1] += d
        if name != "aff2":
            box[0][1][0] -= d
        add_input(f"{name}-broken", a, bia.Cobracket(a, Tensor3(box)))
        broken.append(f"{name}-broken")

    def plain(name):
        _, a, cb = inputs[name]
        return ref.Alg(a.bracket.entries, a.twist.rows), [[list(r) for r in p] for p in cb.coeffs.entries]

    # --- builds ---------------------------------------------------------
    aff2_t = hl.corpus.aff2_triangular_bialgebra()

    def expected_double(a: ref.Alg, cob: list):
        box, twist = ref.double_of(a, cob)
        big = ref.Alg(box, twist)
        r = ref.canonical_r(a.n)
        return big, ref.cobracket_of_r(big, r), r

    def build_expect(level: int):
        a = ref.Alg(aff2_t[0].bracket.entries, aff2_t[0].twist.rows)
        cob = [[list(r) for r in p] for p in aff2_t[1].coeffs.entries]
        for _ in range(level):
            a, cob, r = expected_double(a, cob)
        n = a.n
        box = [[[a.c[i][j].get(k, 0) for k in range(n)] for j in range(n)] for i in range(n)]
        return (("", True, None), ("algebra", fractions_of(box), fractions_of(a.twist)), ("cobracket", fractions_of(cob)), ("rmatrix", fractions_of(r)))

    def build_op(src: str, dst: str):
        def call():
            rc, text, err = cli(["build", "hom-double", src])
            with open(dst, "w", encoding="utf-8") as f:
                f.write(text)
            parsed = sio.load_structure(dst)
            return rc, text, parsed, sio.emit_structure(parsed)

        return call

    def build_summary(out):
        rc, text, s, again = out
        return (
            ("", rc == 0 and again == text, None),
            ("algebra", fractions_of(s.algebra.bracket.entries), fractions_of(s.algebra.twist.rows)),
            ("cobracket", fractions_of(s.cobracket.coeffs.entries)),
            ("rmatrix", fractions_of(s.rmatrix.coeffs.rows)),
        )

    d4, d8 = path("d4"), path("d8")
    ops.append(Op("build/hom-double/aff2-triangular", "yes", 2,
                  build_op("builtin:aff2-triangular", d4), build_summary, lambda: build_expect(1), 2))
    if not quick:
        ops.append(Op("build/hom-double/d4", "yes", 4,
                      build_op(d4, d8), build_summary, lambda: build_expect(2)))

    # --- validate -------------------------------------------------------
    def all_pass(checks):
        # Proven: a zero cobracket and a triangular r give bialgebras, the
        # three characterizations are equivalent, and the canonical double
        # passes hom-double.
        def expect():
            out = [("", True, None)]
            for c in checks:
                if c == "bialgebra":
                    out.append((c, expected_verdict([(s, None) for s in BIALGEBRA_SUBS], BIALGEBRA_SUBS)))
                else:
                    out.append((c, None))
            return tuple(out)

        return expect

    def validate_pass(name, file, dim, checks):
        argv = ["validate", file, "--format", "json"]
        for c in checks:
            argv += ["--check", c]

        def summarize(out):
            rc, text, _ = out
            doc = json.loads(text)
            res = [("", rc == 0, None)]
            for c, d in zip(checks, doc["checks"]):
                s = check_summary(d)
                res.append((c, s if c == "bialgebra" else None if s[0][1] and s[0][2] is None else s))
            return tuple(res)

        ops.append(Op(f"validate/{name}/{'+'.join(checks)}", "yes", dim,
                      lambda: cli(argv), summarize, all_pass(checks)))

    validate_pass("d4", d4, 4, ("bialgebra", "triple-equivalence", "hom-double"))
    validate_pass("yau-sl2-zero", inputs["yau-sl2-zero"][0], 3, FIVE)
    validate_pass("aff2-triangular", inputs["aff2-triangular"][0], 2, FIVE)
    validate_pass("sl2-zero", inputs["sl2-zero"][0], 3, ("bialgebra", "triple-equivalence"))
    validate_pass("sl2-triangular", inputs["sl2-triangular"][0], 3, ("bialgebra", "hom-double"))
    if not quick:
        validate_pass("sl2+sl2-zero", inputs["sl2+sl2-zero"][0], 6, ("bialgebra",))
        validate_pass("heis3-triangular", inputs["heis3-triangular"][0], 3, ("bialgebra", "hom-double"))

    # --- negatives ------------------------------------------------------
    for name in broken:
        file = inputs[name][0]
        dim = inputs[name][1].dim

        def bialgebra_expect(name=name):
            a, cob = plain(name)
            return expected_verdict(ref.bialgebra_parts(a, cob), BIALGEBRA_SUBS)

        def expect(bialgebra_expect=bialgebra_expect):
            bialg = bialgebra_expect()
            ok = bialg[0][1]
            # Equivalence theorem: the matched pair and the Manin triple
            # share the bialgebra's verdict, so triple-equivalence passes.
            triple = (("", True, None), ("bialgebra",) + bialg[0][1:],
                      ("matched-pair-structure", ok), ("manin-triple", ok),
                      ("common_verdict", "pass" if ok else "fail"))
            return (("", ok, None), ("bialgebra", bialg), ("triple-equivalence", triple))

        def refusal_expect(bialgebra_expect=bialgebra_expect):
            # hom_double refuses exactly the inputs that are not bialgebras.
            ok = bialgebra_expect()[0][1]
            return (("", ok, None), ("exit", 0 if ok else 1), ("refused", not ok))

        def summarize(out):
            rc, text, _ = out
            doc = json.loads(text)
            bialg, triple = (check_summary(d) for d in doc["checks"])
            subs = {s[0]: s for s in triple[1:]}
            return (("", rc == 0, None), ("bialgebra", bialg), ("triple-equivalence", (
                triple[0], subs["bialgebra"], subs["matched-pair-structure"][:2],
                subs["manin-triple"][:2], subs["common_verdict"])))

        argv = ["validate", file, "--format", "json", "--check", "bialgebra", "--check", "triple-equivalence"]
        ops.append(Op(f"validate/{name}/bialgebra+triple-equivalence", "no", dim,
                      lambda argv=argv: cli(argv), summarize, expect))
        ops.append(Op(f"build/hom-double/{name}", "no", dim,
                      lambda file=file: cli(["build", "hom-double", file]),
                      lambda out: (("", out[0] == 0, None), ("exit", out[0]),
                                   ("refused", "hom_double needs a valid bialgebra" in out[2])),
                      refusal_expect, 4))
    return ops
