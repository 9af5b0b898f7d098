"""verify: the identity evaluators on the sl2^k ladder.

Rungs sl2^k (dims 3, 6, 9), each with the identity twist and a Yau twist
by an involutive automorphism, in the block basis and in a seeded dense
basis. Checks: hom-lie, weakly-involutive, the adjoint representation and
invariance of the transported Killing form. Negatives perturb one
bracket, twist or action entry at a fixed place by a seeded amount.
"""

from __future__ import annotations

import random
from fractions import Fraction

import ref
from harness import Op, expected_verdict, verdict

# Chevalley involution of sl2 in the basis (h, e, f): h -> -h, e <-> -f.
CHEVALLEY = ((-1, 0, 0), (0, 0, -1), (0, -1, 0))

SUBS = {
    "hom-lie": ("bracket-skew", "twist-multiplicative", "hom-jacobi"),
    "weakly-involutive": (),
    "representation": ("rep-axiom-twist", "rep-axiom-bracket"),
    "killing": ("form-invariance-bracket", "form-invariance-twist"),
}

# Repetitions per timed segment, so that a segment lasts some tens of ms.
BATCH = {
    ("hom-lie", 3): 6, ("weakly-involutive", 3): 60, ("representation", 3): 6, ("killing", 3): 12,
    ("hom-lie", 6): 1, ("weakly-involutive", 6): 10, ("representation", 6): 1, ("killing", 6): 1,
    ("hom-lie", 9): 1, ("weakly-involutive", 9): 4, ("representation", 9): 1, ("killing", 9): 1,
}


def involution(k: int) -> list:
    """Chevalley on one summand; swap the two summands; for three, swap the
    first two and apply Chevalley on the third."""
    n = 3 * k
    m = [[0] * n for _ in range(n)]
    if k == 1:
        blocks = [(0, 0, CHEVALLEY)]
    elif k == 2:
        blocks = [(0, 1, None), (1, 0, None)]
    else:
        blocks = [(0, 1, None), (1, 0, None), (2, 2, CHEVALLEY)]
    for dst, src, sub in blocks:
        for r in range(3):
            for c in range(3):
                v = sub[r][c] if sub else int(r == c)
                m[3 * dst + r][3 * src + c] = v
    return m


def dense_basis(rng: random.Random, n: int) -> list:
    """A fixed dense matrix with determinant 2, its columns permuted and
    negated by the seed.

    The fixed part is L @ diag(1, .., 1, 2) @ U with unit triangular L, U of
    +-1 entries, so the new structure constants carry halves. A signed
    permutation only relabels the new basis, so every seed gets the same
    numbers up to sign and order, and the same amount of work.
    """
    fixed = random.Random(n)
    lower = [[1 if i == j else (fixed.choice((-1, 1)) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (fixed.choice((-1, 1)) if i < j else 0) for j in range(n)] for i in range(n)]
    upper[n - 1] = [2 * x for x in upper[n - 1]]
    p0 = ref.matmul(lower, upper)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[p0[r][perm[c]] * signs[c] for c in range(n)] for r in range(n)]


def nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))


class Ladder:
    """Inputs built with homlie on first use: rungs sl2^k, their Yau twists,
    a seeded dense basis per rung, and the Killing grams."""

    def __init__(self, hl, seed: int):
        self.hl = hl
        self.rng = random.Random(seed)
        self._rungs = {}
        self._cache = {}

    def _rung(self, k: int):
        if k not in self._rungs:
            hl = self.hl
            Matrix, Tensor3 = hl.tensor.Matrix, hl.tensor.Tensor3
            sl2, kill = hl.corpus.sl2(), hl.corpus.sl2_killing_gram()
            g, gram = sl2, kill
            for _ in range(k - 1):
                g = hl.hom_lie.direct_sum(g, sl2)
                gram = block_sum(Matrix, gram, kill)
            theta = Matrix(involution(k))
            yau = hl.hom_lie.HomLieAlgebra(
                Tensor3([[theta.apply(g.bracket.plane(i).row(j)).entries for j in range(g.dim)] for i in range(g.dim)]),
                theta,
                f"yau(sl2^{k})",
            )
            self._rungs[k] = ({"id": g, "yau": yau}, gram, Matrix(dense_basis(self.rng, g.dim)))
        return self._rungs[k]

    def get(self, k: int, twist: str, basis: str):
        """(algebra, Killing gram) of sl2^k with that twist, in that basis."""
        key = (k, twist, basis)
        if key not in self._cache:
            algs, gram, p = self._rung(k)
            if basis == "block":
                self._cache[key] = (algs[twist], gram)
            else:
                self._cache[key] = (self.hl.hom_lie.change_of_basis(algs[twist], p), p.transpose() @ gram @ p)
        return self._cache[key]


def block_sum(Matrix, a, b):
    n, m = a.nrows, b.nrows
    rows = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = a[i, j]
    for i in range(m):
        for j in range(m):
            rows[n + i][n + j] = b[i, j]
    return Matrix(rows)


def perturb_bracket(hl, a, i: int, j: int, k: int, d: Fraction):
    box = [[list(r) for r in plane] for plane in a.bracket.entries]
    box[i][j][k] += d
    box[j][i][k] -= d
    return hl.hom_lie.HomLieAlgebra(hl.tensor.Tensor3(box), a.twist, a.label + "~")


def perturb_twist(hl, a, r: int, c: int, d: Fraction):
    rows = [list(x) for x in a.twist.rows]
    rows[r][c] += d
    return hl.hom_lie.HomLieAlgebra(a.bracket, hl.tensor.Matrix(rows), a.label + "~")


def plain_alg(a) -> ref.Alg:
    return ref.Alg(a.bracket.entries, a.twist.rows)


def build(hl, seed: int, quick: bool, workdir: str) -> list[Op]:
    rungs = (1,) if quick else (1, 2, 3)
    lad = Ladder(hl, seed)
    rng = lad.rng
    hom_lie, rep_mod = hl.hom_lie, hl.representation
    ops: list[Op] = []

    def runner(check, a, gram=None, rep=None):
        if check == "hom-lie":
            return lambda: hom_lie.validate_hom_lie(a)
        if check == "weakly-involutive":
            return lambda: hom_lie.is_weakly_involutive(a)
        if check == "representation":
            if rep is None:
                return lambda: rep_mod.validate_representation(rep_mod.adjoint_rep(a))
            return lambda: rep_mod.validate_representation(rep)
        form = hom_lie.BilinearFormB(gram)
        return lambda: hom_lie.check_invariant_form(a, form)

    def add(name, answer, check, a, expect, gram=None, rep=None):
        subs = SUBS[check]
        ops.append(
            Op(
                name,
                answer,
                a.dim,
                runner(check, a, gram, rep),
                lambda out, subs=subs: verdict(out, subs),
                lambda subs=subs: expected_verdict(expect(), subs),
                BATCH[(check, a.dim)],
            )
        )

    def holds(check):
        # Proven: sl2^k is a Lie algebra with an invariant Killing form; a
        # Yau twist by an involutive automorphism keeps it a weakly
        # involutive Hom-Lie algebra with the same invariant form; a change
        # of basis keeps every verdict.
        return lambda: [(s, None) for s in SUBS[check]] or [("", None)]

    # Positives. The top rung (dim 9) runs the Yau twist in the block basis
    # only: the Hom-Jacobi scan of its dense basis alone takes about 5 s.
    for k in rungs:
        for tw in ("id", "yau"):
            if k == 3 and tw == "id":
                continue
            for basis in ("block", "dense"):
                if k == 3 and basis == "dense":
                    continue
                a, gram = lad.get(k, tw, basis)
                for check in ("hom-lie", "weakly-involutive", "representation", "killing"):
                    add(f"{check}/sl2^{k}/{tw}/{basis}", "yes", check, a, holds(check), gram=gram)

    # Negatives: fixed places, seeded amounts. A bracket entry in the first
    # summand fails early in the scan; one in the last summand fails late.
    for k in rungs:
        n = 3 * k
        base, gram = lad.get(k, "id", "block")
        # [h, e] += d h breaks Jacobi at (h, e, f) of the perturbed summand.
        for where, (i, j, kk) in (("early", (0, 1, 0)), ("late", (n - 3, n - 2, n - 3))):
            a = perturb_bracket(hl, base, i, j, kk, nonzero(rng))
            add(f"hom-lie/sl2^{k}/bracket-{where}", "no", "hom-lie", a,
                lambda a=a: ref.hom_lie_parts(plain_alg(a)))
            add(f"killing/sl2^{k}/bracket-{where}", "no", "killing", a,
                lambda a=a, gram=gram: ref.form_parts(plain_alg(a), gram.rows), gram=gram)
        # In the block basis the place is fixed; phi'^2 - 1 = d (phi E + E phi)
        # with E = E_(n,1) is then nonzero for every d.
        yau, _ = lad.get(k, "yau", "block")
        a = perturb_twist(hl, yau, n - 1, 0, nonzero(rng))
        add(f"hom-lie/sl2^{k}/twist", "no", "hom-lie", a, lambda a=a: ref.hom_lie_parts(plain_alg(a)))
        add(f"weakly-involutive/sl2^{k}/twist", "no", "weakly-involutive", a,
            lambda a=a: [("", ref.weakly_involutive(plain_alg(a)))])
        adj = rep_mod.adjoint_rep(base)
        action = [m.rows for m in adj.action]
        bad = [list(r) for r in action[n - 1]]
        bad[0][0] += nonzero(rng)
        action = action[: n - 1] + [bad]
        rep = rep_mod.Representation(base, base.twist, [hl.tensor.Matrix(m) for m in action])
        add(f"representation/sl2^{k}/action", "no", "representation", base,
            lambda base=base, action=action: ref.rep_parts(plain_alg(base), base.twist.rows, action),
            rep=rep)
    return ops
