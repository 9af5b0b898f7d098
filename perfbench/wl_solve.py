"""solve: linear systems, symbolic determinants and Hom-Yang-Baxter constructions.

Invariant forms on Yau-twisted sl2^k (a nondegenerate one exists) and on
sums of aff2 or heis3 (none exists); the kernels of twist-compatible r,
skew twist-compatible r and intertwining T; the three seeded suites; wedge solutions on lsa2 and lsa2psi; r from
an O-operator T and from a seeded T that is not one, with
validate_coboundary; and check_chybe on seeded r that fail it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import ref
from harness import Op, fractions_of, verdict
from wl_verify import Ladder, dense_basis, nonzero, plain_alg

SUITE_CASES = 16  # per suite; more cases average out the cost of each seed's draws


def rows_of(m) -> list:
    return [list(r) for r in m.rows]


def involution_split(twist: list) -> tuple[int, int]:
    """Multiplicities (p, q) of the eigenvalues +1, -1 of an involution."""
    n = len(twist)
    sq = ref.matmul(twist, twist)
    if any(sq[i][j] != (i == j) for i in range(n) for j in range(n)):
        raise ValueError("twist is not an involution")
    tr = sum(twist[i][i] for i in range(n))
    return (n + tr) // 2, (n - tr) // 2


def quadratic_possible(a: ref.Alg) -> bool:
    """dim z(g) + dim [g,g] = dim g, which any Lie algebra with a
    nondegenerate invariant form satisfies (z(g) is [g,g]'s orthogonal)."""
    n = a.n
    derived = ref.rank([ref.dense(a.c[i][j], n) for i in range(n) for j in range(n)])
    ad_rows = [[a.c[i][j].get(k, 0) for i in range(n)] for j in range(n) for k in range(n)]
    center = n - ref.rank(ad_rows)
    return center + derived == n


def build(hl, seed: int, quick: bool, workdir: str) -> list[Op]:
    rng = random.Random(seed + 7919)
    hom_lie, cob, opm, tensor = hl.hom_lie, hl.coboundary, hl.operators, hl.tensor
    Matrix = tensor.Matrix
    rungs = (1,) if quick else (1, 2)
    # One fixed dense basis, not a seeded one: the cost of the symbolic
    # determinant and of row reduction depends on the order of the unknowns
    # (the dim-6 form space took 1.0-1.5 s over four signed permutations).
    lad = Ladder(hl, 0)
    ops: list[Op] = []

    def dense(a):
        p = Matrix(dense_basis(rng, a.dim))
        return hom_lie.change_of_basis(a, p), p

    # --- invariant forms ------------------------------------------------
    def form_op(name, a, answer, gram, batch):
        plain = plain_alg(a)

        def summarize(sp):
            def checked(mats, symmetric):
                flat = [[x for r in m for x in r] for m in mats]
                return (all(all(w is None for _, w in ref.form_parts(plain, m)) for m in mats)
                        and (ref.rank(flat) == len(flat) if flat else True)
                        and (not symmetric or all(m == ref.transpose(m) for m in mats)))

            basis = [rows_of(m) for m in sp.basis]
            sym_basis = [rows_of(m) for m in sp.symmetric_basis]
            in_span = None
            if gram is not None:
                flat = [[x for r in m for x in r] for m in basis]
                in_span = ref.rank(flat + [[x for r in gram for x in r]]) == len(flat)
            return (("", sp.has_nondegenerate, None), ("symmetric", sp.has_nondegenerate_symmetric),
                    ("dims", (len(basis), len(sym_basis))),
                    ("invariant-independent-bases", checked(basis, False) and checked(sym_basis, True)),
                    ("killing-in-span", in_span))

        def expect():
            dims = ref.form_space_dims(plain)
            if gram is None:
                # No nondegenerate invariant form: the z(g) + [g,g] count fails.
                if quadratic_possible(plain):
                    raise ValueError(f"{name}: dimension count does not rule out a form")
                return (("", False, None), ("symmetric", False), ("dims", dims),
                        ("invariant-independent-bases", True), ("killing-in-span", None))
            # The transported Killing form is invariant, symmetric, nondegenerate.
            return (("", True, None), ("symmetric", True), ("dims", dims),
                    ("invariant-independent-bases", True), ("killing-in-span", True))

        ops.append(Op(f"invariant-forms/{name}", answer, a.dim,
                      lambda: hom_lie.invariant_form_space(a), summarize, expect, batch))

    for k in rungs + (() if quick else (3,)):
        basis = "block" if k == 3 else "dense"
        a, gram = lad.get(k, "yau", basis)
        form_op(f"yau-sl2^{k}/{basis}", a, "yes", rows_of(gram),
                {1: 12, 2: 1, 3: 1}[k])
    aff2, heis3 = hl.corpus.aff2(), hl.corpus.heis3()
    sums = [("aff2+aff2", hom_lie.direct_sum(aff2, aff2), 6)]
    if not quick:
        sums.append(("heis3+heis3", hom_lie.direct_sum(heis3, heis3), 1))
    # heis3+heis3 stays in the block basis: in a dense basis its 16-dim
    # form space makes the symbolic determinant run for minutes.
    for name, a, batch in sums:
        basis = "block" if name.startswith("heis3") else "dense"
        if basis == "dense":
            a = hom_lie.change_of_basis(a, Matrix(dense_basis(random.Random(0), a.dim)))
        form_op(f"{name}/{basis}", a, "no", None, batch)

    # --- kernels --------------------------------------------------------
    def kernel_op(name, a, fn, equation, count, batch):
        plain_tw = rows_of(a.twist)

        def summarize(basis):
            mats = [rows_of(m) for m in basis]
            flat = [[x for r in m for x in r] for m in mats]
            return (("", bool(mats), None), ("dim", len(mats)),
                    ("solutions", all(equation(plain_tw, m) for m in mats)),
                    ("independent", ref.rank(flat) == len(flat)))

        def expect():
            p, q = involution_split(plain_tw)
            return (("", True, None), ("dim", count(p, q)), ("solutions", True), ("independent", True))

        ops.append(Op(f"kernel/{name}", "yes", a.dim, fn, summarize, expect, batch))

    def compat(phi, r):  # phi r = r phi^T
        return ref.matmul(phi, r) == ref.matmul(r, ref.transpose(phi))

    def intertwines(phi, t):  # T beta = phi T, with beta = phi
        return ref.matmul(t, phi) == ref.matmul(phi, t)

    def skew_compat(phi, r):
        return compat(phi, r) and all(r[i][j] == -r[j][i] for i in range(len(r)) for j in range(len(r)))

    # All three kernels on dims 3 and 6; on dim 9 only the plain one
    # (its 81-unknown system is the largest row reduction of the round).
    for k in rungs + (() if quick else (3,)):
        a, _ = lad.get(k, "yau", "dense")
        b = {1: 40, 2: 8, 3: 1}[k]
        kernel_op(f"twist-compat/yau-sl2^{k}", a, lambda a=a: cob.twist_compat_kernel(a),
                  compat, lambda p, q: p * p + q * q, b)
        if k == 3:
            continue
        kernel_op(f"skew-twist-compat/yau-sl2^{k}", a, lambda a=a: cob.skew_twist_compat_kernel(a),
                  skew_compat, lambda p, q: p * (p - 1) // 2 + q * (q - 1) // 2, max(1, b // 4))
        adj = hl.representation.adjoint_rep(a)
        kernel_op(f"intertwining/yau-sl2^{k}", a, lambda a=a, adj=adj: opm.intertwining_t_space(a, adj),
                  intertwines,
                  lambda p, q: p * p + q * q, b)

    # --- seeded suites --------------------------------------------------
    # Proven: the three identities hold for every r, every skew
    # twist-compatible r and every intertwining T, whatever the seed.
    a3, _ = lad.get(1, "yau", "dense")
    adj3 = hl.representation.adjoint_rep(a3)
    for name, fn in (
        ("cobracket-residuals", lambda: cob.run_residual_suite(a3, seed, SUITE_CASES)),
        ("jacobiator-bracket", lambda: cob.run_jacobiator_suite(a3, seed, SUITE_CASES)),
        ("o-operator-expansion", lambda: opm.run_defect_expansion_suite(a3, adj3, seed, SUITE_CASES)),
    ):
        ops.append(Op(f"suite/{name}/yau-sl2", "yes", 3, fn, verdict, lambda: (("", True, None),)))

    # --- constructions --------------------------------------------------
    for name in ("lsa2", "lsa2psi"):
        p = getattr(hl.corpus, name)()

        def summarize(out):
            r1, r2, report = out
            return (("", report.ok, None),
                    ("r1-chybe", ref.chybe_witness(plain_alg(r1.base), rows_of(r1.coeffs))),
                    ("r2-chybe", ref.chybe_witness(plain_alg(r2.base), rows_of(r2.coeffs))))

        ops.append(Op(f"wedge-solutions/{name}", "yes", 2, lambda p=p: opm.wedge_solutions(p), summarize,
                      lambda: (("", True, None), ("r1-chybe", None), ("r2-chybe", None)), 4))

    rep = opm.left_mult_rep(hl.corpus.lsa2())
    g = rep.base
    # A seeded multiple of a fixed T with T[2][1] != 0, which makes the defect
    # at (v_1, v_2) nonzero: scaling keeps the verdicts, and so the work.
    t_bad = Matrix([[1, 2], [1, -1]]).scale(nonzero(rng))
    for name, t in (("identity", Matrix.identity(2)), ("seeded", t_bad)):
        cand = opm.OOperatorCandidate(g, rep, t)

        def call(cand=cand):
            big, r, report = opm.r_from_o_operator(cand)
            return r, report, cob.validate_coboundary(big, r)

        def summarize(out):
            r, report, cobo = out
            return (("", report.info["chybe"], None), ("report", report.ok),
                    ("o_operator", report.info["o_operator"]),
                    ("classification", cobo.info["classification"]), ("r", fractions_of(r.coeffs.rows)))

        def expect(t=t):
            return expected_r_from_o(plain_alg(g), [rows_of(m) for m in rep.action], rows_of(t))

        answer = "yes" if name == "identity" else "no"
        ops.append(Op(f"r-from-o-operator/lsa2/{name}", answer, 4, call, summarize, expect, 4))

    # --- negatives: check_chybe -----------------------------------------
    sl2 = hl.corpus.sl2()
    sl22 = hom_lie.direct_sum(sl2, sl2)
    cases = [("sl2", sl2, [(1, 2)])]
    if not quick:
        cases.append(("sl2+sl2", sl22, [(1, 2), (4, 5)]))
    for name, a, pairs in cases:
        n = a.dim
        r = [[Fraction(0)] * n for _ in range(n)]
        for i, j in pairs:  # c (e ^ f) in each summand: a solution of the modified equation only
            c = nonzero(rng)
            r[i][j], r[j][i] = c, -c
        da, pm = dense(a)
        pinv = pm.inverse()
        rd = pinv @ Matrix(r) @ pinv.transpose()
        rm = cob.RMatrix(da, rd)
        ops.append(Op(f"chybe/{name}/dense", "no", n, lambda rm=rm: cob.check_chybe(rm),
                      lambda out: verdict(out),
                      lambda da=da, rd=rd: ((("", False, ref.chybe_witness(plain_alg(da), rows_of(rd))),)),
                      {3: 40, 6: 4}[n]))
    return ops


def expected_r_from_o(g: ref.Alg, action: list, t: list) -> tuple:
    """r = T-bar - sigma(T-bar) in g |x V* and its verdicts, apart from homlie.

    V* carries the Hom-dual action rho*(x) = -rho(phi(x))^T with twist
    beta^T; here beta = phi = psi of the left-symmetric algebra.
    """
    n, m = g.n, len(action[0])
    d = n + m
    box = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k, v in g.c[i][j].items():
                box[i][j][k] = v
    for i in range(n):
        rho_phi = [[Fraction(0)] * m for _ in range(m)]
        for p, c in g.tw(ref.e(i)).items():
            rho_phi = ref.madd(rho_phi, [[c * x for x in row] for row in action[p]])
        dual = [[-x for x in row] for row in ref.transpose(rho_phi)]
        for b in range(m):
            for k in range(m):
                box[i][n + b][n + k] = dual[k][b]
                box[n + b][i][n + k] = -dual[k][b]
    twist = [[Fraction(0)] * d for _ in range(d)]
    for i in range(n):
        for j in range(n):
            twist[i][j] = g.twist[i][j]
    for i in range(m):
        for j in range(m):
            twist[n + i][n + j] = g.twist[j][i]
    big = ref.Alg(box, twist)
    r = [[Fraction(0)] * d for _ in range(d)]
    for i in range(m):
        for k in range(n):
            r[n + i][k] += t[k][i]
            r[k][n + i] -= t[k][i]
    rr = ref.r_square(big, r)
    is_o = ref.o_defect_zero(g, action, t)
    if not rr:
        classification = "triangular"
    elif ref.adjoint_kills(big, rr):
        classification = "coboundary"
    else:
        classification = "none"
    return (("", not rr, None), ("report", True), ("o_operator", "pass" if is_o else "fail"),
            ("classification", classification), ("r", fractions_of(r)))
