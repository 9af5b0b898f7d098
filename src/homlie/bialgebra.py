"""Matched pairs, Manin triples, and Hom-Lie bialgebras.

Three views of the same compatibility between a Hom-Lie algebra g and a
bracket on its dual:

* a cobracket Delta: g -> g (x) g whose coefficient transpose is the
  dual structure constants;
* a matched pair (g, g*; ad", DAd") where both sides act on each other
  through the dual of their adjoint representations;
* a Manin triple: the double space g (+) g* with the d-bracket, isotropic
  blocks, and the standard hyperbolic pairing as an invariant form.

check_triple_equivalence computes all three verdicts independently and
requires them to agree, in the positive or in the negative.

Conventions: the double space basis order is (e_1..e_n, f_1..f_n); the
cobracket coefficient tensor stores Delta(e_k) = sum d_k^{ij} e_i (x) e_j
with coeffs[k] the matrix of Delta(e_k); x acts on a 2-tensor t by
ad_x (x) phi + phi (x) ad_x.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .hom_lie import (
    BilinearFormB,
    HomLieAlgebra,
    check_invariant_form,
    is_weakly_involutive,
    validate_hom_lie,
)
from .report import CheckReport, Witness, combined, holds, require, scan
from .representation import (
    CRITERIA_DISAGREE,
    Representation,
    adjoint_rep,
    dual_action_candidate,
    validate_representation,
)
from .tensor import Matrix, Q, ShapeError, Tensor3, Vector, apply_pair


@dataclass(frozen=True)
class Cobracket:
    base: HomLieAlgebra
    coeffs: Tensor3  # coeffs[k][i][j] = coefficient of e_i (x) e_j in Delta(e_k)

    def __post_init__(self):
        n = self.base.dim
        if self.coeffs.dims != (n, n, n):
            raise ShapeError("cobracket coefficient tensor has wrong dims")

    @property
    def dim(self) -> int:
        return self.base.dim

    def delta(self, k: int) -> Matrix:
        """Delta(e_k) as a matrix in V (x) V."""
        return self.coeffs.plane(k)

    def delta_of(self, x: Vector) -> Matrix:
        out = Matrix.zero(self.dim)
        for k in range(self.dim):
            if x[k]:
                out = out + self.delta(k).scale(x[k])
        return out


@dataclass(frozen=True)
class HomLieBialgebra:
    algebra: HomLieAlgebra
    cobracket: Cobracket

    def __post_init__(self):
        if self.cobracket.base is not self.algebra and (
            self.cobracket.base.bracket != self.algebra.bracket
            or self.cobracket.base.twist != self.algebra.twist
        ):
            raise ShapeError("cobracket lives on a different algebra")


@dataclass(frozen=True)
class MatchedPair:
    """(g, g'; rho, rho'): rho acts on g'-space, rho' acts on g-space.

    Carrier twists must match the partner algebra's twist; compatibility
    of the actions is checked by validate_matched_pair, never assumed.
    """

    left: HomLieAlgebra
    right: HomLieAlgebra
    rho: Representation  # of left, carrier = right's space
    rho_prime: Representation  # of right, carrier = left's space

    def __post_init__(self):
        if self.rho.carrier_dim != self.right.dim or self.rho.beta != self.right.twist:
            raise ShapeError("rho must act on the right algebra's space with its twist")
        if (
            self.rho_prime.carrier_dim != self.left.dim
            or self.rho_prime.beta != self.left.twist
        ):
            raise ShapeError(
                "rho' must act on the left algebra's space with its twist"
            )


def zero_cobracket(a: HomLieAlgebra) -> Cobracket:
    return Cobracket(a, Tensor3.zero(a.dim))


def dual_algebra(cb: Cobracket) -> HomLieAlgebra:
    """Candidate bracket on g*: [f_i, f_j] = sum_k d_k^{ij} f_k, twist phi^T.

    Nothing is validated here; run validate_hom_lie on the result to learn
    whether the cobracket was a genuine one.
    """
    n = cb.dim
    box = [
        [[cb.coeffs[k, i, j] for k in range(n)] for j in range(n)] for i in range(n)
    ]
    label = f"{cb.base.label}*" if cb.base.label else "dual"
    return HomLieAlgebra(Tensor3(box), cb.base.twist.transpose(), label)


def cobracket_from_bracket(source: HomLieAlgebra, base: HomLieAlgebra) -> Cobracket:
    """Read a cobracket on `base` off the bracket of `source` (the transpose
    flip inverse to dual_algebra): d_k^{ij} = c_{ij}^k of source."""
    n = source.dim
    if base.dim != n:
        raise ShapeError("cobracket base has wrong dimension")
    box = [
        [[source.bracket[i, j, k] for j in range(n)] for i in range(n)]
        for k in range(n)
    ]
    return Cobracket(base, Tensor3(box))


def ad_on_tensor2(a: HomLieAlgebra, z: Vector, t: Matrix) -> Matrix:
    """z acting on t in g (x) g: (ad_z (x) phi + phi (x) ad_z) t."""
    adz = a.ad_of(z)
    return apply_pair(adz, a.twist, t) + apply_pair(a.twist, adz, t)


def validate_bialgebra(bi: HomLieBialgebra) -> CheckReport:
    """Both sides valid weakly involutive Hom-Lie algebras, plus the
    cobracket compatibility Delta[x,y] = ad_{phi(x)} Delta(y) - ad_{phi(y)} Delta(x)."""
    a = bi.algebra
    dual = dual_algebra(bi.cobracket)

    g_valid = validate_hom_lie(a)
    g_wi = is_weakly_involutive(a)
    d_valid = validate_hom_lie(dual)
    d_wi = is_weakly_involutive(dual)

    cb = bi.cobracket

    def cases():
        for i in range(a.dim):
            phix = a.twisted(a.basis(i))
            for j in range(a.dim):
                phiy = a.twisted(a.basis(j))
                lhs = cb.delta_of(a.bracket_of(a.basis(i), a.basis(j)))
                rhs = ad_on_tensor2(a, phix, cb.delta(j)) - ad_on_tensor2(
                    a, phiy, cb.delta(i)
                )
                yield (i + 1, j + 1), lhs - rhs

    return combined(
        "bialgebra",
        [
            g_valid.renamed("primal-hom-lie"),
            g_wi.renamed("primal-weakly-involutive"),
            d_valid.renamed("dual-hom-lie"),
            d_wi.renamed("dual-weakly-involutive"),
            scan("cobracket-compatibility", cases()),
        ],
    )


def validate_matched_pair(mp: MatchedPair) -> CheckReport:
    """The two compatibility equations between the mutual actions.

    First: rho'(phi'(x')) [x,y] = [rho'(x')x, phi(y)] + [phi(x), rho'(x')y]
           + rho'(rho(y)x')(phi x) - rho'(rho(x)x')(phi y),
    and the second with the roles of the two algebras swapped. Component
    validity (algebras, representation axioms) is the caller's business.
    """
    g, gp = mp.left, mp.right
    n, m = g.dim, gp.dim

    def left_cases():
        for c in range(m):
            xp = gp.basis(c)
            rp_xp = mp.rho_prime.rho_of(xp)
            rp_phip_xp = mp.rho_prime.rho_of(gp.twisted(xp))
            for i, j in product(range(n), repeat=2):
                x, y = g.basis(i), g.basis(j)
                lhs = rp_phip_xp.apply(g.bracket_of(x, y))
                rhs = (
                    g.bracket_of(rp_xp.apply(x), g.twisted(y))
                    + g.bracket_of(g.twisted(x), rp_xp.apply(y))
                    + mp.rho_prime.rho_of(mp.rho.rho_of(y).apply(xp)).apply(g.twisted(x))
                    - mp.rho_prime.rho_of(mp.rho.rho_of(x).apply(xp)).apply(g.twisted(y))
                )
                yield (c + 1, i + 1, j + 1), lhs - rhs, "x'=f_c, x=e_i, y=e_j"

    def right_cases():
        for i in range(n):
            x = g.basis(i)
            r_x = mp.rho.rho_of(x)
            r_phi_x = mp.rho.rho_of(g.twisted(x))
            for c, d in product(range(m), repeat=2):
                xp, yp = gp.basis(c), gp.basis(d)
                lhs = r_phi_x.apply(gp.bracket_of(xp, yp))
                rhs = (
                    gp.bracket_of(r_x.apply(xp), gp.twisted(yp))
                    + gp.bracket_of(gp.twisted(xp), r_x.apply(yp))
                    + mp.rho.rho_of(mp.rho_prime.rho_of(yp).apply(x)).apply(gp.twisted(xp))
                    - mp.rho.rho_of(mp.rho_prime.rho_of(xp).apply(x)).apply(gp.twisted(yp))
                )
                yield (i + 1, c + 1, d + 1), lhs - rhs, "x=e_i, x'=f_c, y'=f_d"

    return combined(
        "matched-pair",
        [
            scan("matched-pair-compat-left", left_cases()),
            scan("matched-pair-compat-right", right_cases()),
        ],
    )


def matched_pair_components(mp: MatchedPair) -> CheckReport:
    """Validity of the four ingredients: both algebras, both actions."""
    return combined(
        "matched-pair-components",
        [
            validate_hom_lie(mp.left).renamed("left-hom-lie"),
            validate_hom_lie(mp.right).renamed("right-hom-lie"),
            *_action_reports(mp),
        ],
    )


def _action_reports(mp: MatchedPair) -> list[CheckReport]:
    return [
        validate_representation(mp.rho).renamed("left-action-representation"),
        validate_representation(mp.rho_prime).renamed("right-action-representation"),
    ]


def double_bracket(mp: MatchedPair) -> HomLieAlgebra:
    """The double space with

        [(x,x'), (y,y')] = ([x,y] - rho'(y')x + rho'(x')y,
                            [x',y'] + rho(x)y' - rho(y)x'),

    twist phi (+) phi'. Mechanical: meaningful as a Hom-Lie algebra only
    when the matched-pair equations hold, but always constructible so the
    Manin-triple verdict can diagnose a broken pair.
    """
    g, gp = mp.left, mp.right
    n, m = g.dim, gp.dim
    d = n + m
    box = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]

    for i in range(n):
        for j in range(n):
            for k in range(n):
                box[i][j][k] = g.bracket[i, j, k]
    for c in range(m):
        for e in range(m):
            for k in range(m):
                box[n + c][n + e][n + k] = gp.bracket[c, e, k]
    for i in range(n):
        for c in range(m):
            # [(e_i, 0), (0, f_c)] = (-rho'(f_c) e_i, rho(e_i) f_c)
            gpart = -(mp.rho_prime.action[c].col(i))
            vpart = mp.rho.action[i].col(c)
            for k in range(n):
                box[i][n + c][k] = gpart[k]
                box[n + c][i][k] = -gpart[k]
            for k in range(m):
                box[i][n + c][n + k] = vpart[k]
                box[n + c][i][n + k] = -vpart[k]

    tw = [[Q(0)] * d for _ in range(d)]
    for i in range(n):
        for j in range(n):
            tw[i][j] = g.twist[i, j]
    for c in range(m):
        for e in range(m):
            tw[n + c][n + e] = gp.twist[c, e]
    label = f"double({g.label or 'g'},{gp.label or 'g-prime'})"
    return HomLieAlgebra(Tensor3(box), Matrix(tw), label)


def double_from_matched_pair(mp: MatchedPair) -> HomLieAlgebra:
    """The double, gated on component validity and the compatibility equations."""
    require(matched_pair_components(mp), "matched pair has invalid components")
    require(validate_matched_pair(mp), "matched-pair compatibility fails")
    return double_bracket(mp)


def double_weak_involutivity_criteria(mp: MatchedPair) -> CheckReport:
    """Weak involutivity of the double, by parts:

        (i)   left algebra and rho weakly involutive
        (ii)  right algebra and rho' weakly involutive
        (iii) rho(x)  phi'^2 = rho(x)
        (iv)  rho'(x') phi^2 = rho'(x')

    Cross-checked against the direct verdict on the constructed double.
    """
    from .representation import is_weakly_involutive_rep

    c1 = combined(
        "left-and-action-weakly-involutive",
        [is_weakly_involutive(mp.left), is_weakly_involutive_rep(mp.rho)],
    )
    c2 = combined(
        "right-and-action-weakly-involutive",
        [is_weakly_involutive(mp.right), is_weakly_involutive_rep(mp.rho_prime)],
    )
    phip2 = mp.right.twist @ mp.right.twist
    c3 = scan(
        "left-action-fixes-right-twist-square",
        (((i + 1,), act @ phip2 - act) for i, act in enumerate(mp.rho.action)),
    )
    phi2 = mp.left.twist @ mp.left.twist
    c4 = scan(
        "right-action-fixes-left-twist-square",
        (((c + 1,), act @ phi2 - act) for c, act in enumerate(mp.rho_prime.action)),
    )
    direct = is_weakly_involutive(double_bracket(mp))
    match = holds(
        "criteria-match-direct",
        (c1.ok and c2.ok and c3.ok and c4.ok) == direct.ok,
        CRITERIA_DISAGREE,
    )
    return combined(
        "double-weak-involutivity",
        [c1, c2, c3, c4, match],
        direct_verdict=direct.verdict,
    )


def standard_form(n: int) -> BilinearFormB:
    """The hyperbolic pairing B(x+a, y+b) = <x,b> + <y,a> on a 2n-dim space."""
    rows = [[Q(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = Q(1)
        rows[n + i][i] = Q(1)
    return BilinearFormB(Matrix(rows))


def validate_manin_triple(big: HomLieAlgebra, n: int) -> CheckReport:
    """big splits as two isotropic n-dim subalgebra blocks, with the
    standard pairing invariant. Ambient validity is part of the verdict:
    a triple of Hom-Lie algebras must be one before anything else."""
    if big.dim != 2 * n:
        raise ShapeError("Manin-triple candidate must have dimension 2n")

    ambient = validate_hom_lie(big).renamed("ambient-hom-lie")
    halves = ((0, n, "first"), (n, 2 * n, "second"))

    def block_cases():
        for lo, hi, name in halves:

            def outside(v: Vector) -> Vector:
                return Vector([Q(0) if lo <= k < hi else v[k] for k in range(2 * n)])

            for i in range(lo, hi):
                twist_note = f"twist leaves the {name} block"
                yield (i + 1,), outside(big.twist.col(i)), twist_note
                for j in range(lo, hi):
                    w = big.bracket_of(big.basis(i), big.basis(j))
                    yield (i + 1, j + 1), outside(w), f"bracket leaves the {name} block"

    form = standard_form(n)
    iso = scan(
        "blocks-isotropic",
        (
            ((i + 1, j + 1), form.evaluate(big.basis(i), big.basis(j)))
            for lo, hi, _ in halves
            for i, j in product(range(lo, hi), repeat=2)
        ),
    )
    invariance = check_invariant_form(big, form).renamed("standard-form-invariant")
    return combined(
        "manin-triple",
        [ambient, scan("blocks-are-subalgebras", block_cases()), iso, invariance],
    )


def canonical_matched_pair(bi: HomLieBialgebra) -> MatchedPair:
    """(g, g*; ad", DAd"): each side acts on the other through the dual of
    its adjoint action. Built mechanically so broken inputs still produce
    a diagnosable object."""
    dual = dual_algebra(bi.cobracket)
    ado = dual_action_candidate(adjoint_rep(bi.algebra))
    dao = dual_action_candidate(adjoint_rep(dual))
    return MatchedPair(bi.algebra, dual, ado, dao)


def d_double(bi: HomLieBialgebra) -> HomLieAlgebra:
    """The d-bracket double on g (+) g* induced by the canonical actions."""
    return double_bracket(canonical_matched_pair(bi))


def check_triple_equivalence(bi: HomLieBialgebra) -> CheckReport:
    """The three characterizations, each computed from scratch:

        V1: validate_bialgebra
        V2: the canonical quadruple is a matched pair of weakly involutive
            Hom-Lie algebras (shared hypotheses included)
        V3: validate_manin_triple on the mechanical d-double

    Passes iff the three verdicts coincide, in the positive or negative.
    """
    v1 = validate_bialgebra(bi)

    # mp.left is bi.algebra and mp.right is V1's dual algebra, so V1's four
    # component verdicts are V2's, under V2's names.
    mp = canonical_matched_pair(bi)
    names = (
        "left-hom-lie",
        "left-weakly-involutive",
        "right-hom-lie",
        "right-weakly-involutive",
    )
    v2 = combined(
        "matched-pair-structure",
        [
            *(s.renamed(name) for s, name in zip(v1.subreports, names)),
            *_action_reports(mp),
            validate_matched_pair(mp),
        ],
    )

    v3 = validate_manin_triple(double_bracket(mp), bi.algebra.dim)

    agree = v1.ok == v2.ok == v3.ok
    verdicts = {
        "bialgebra": v1.verdict,
        "matched_pair": v2.verdict,
        "manin_triple": v3.verdict,
    }
    if agree:
        return CheckReport(
            "triple-equivalence", True, (), {**verdicts, "common_verdict": v1.verdict},
            (v1, v2, v3),
        )
    return CheckReport(
        "triple-equivalence",
        False,
        (
            Witness(
                (0,),
                Q(1),
                "verdicts disagree: " + ", ".join(f"{k}={v}" for k, v in verdicts.items()),
            ),
        ),
        verdicts,
        (v1, v2, v3),
    )


def check_bialgebra_homomorphism(
    f: Matrix, bi1: HomLieBialgebra, bi2: HomLieBialgebra
) -> CheckReport:
    """f[x,y] = [fx, fy], f phi1 = phi2 f, and (f (x) f) Delta1 = Delta2 f."""
    a1, a2 = bi1.algebra, bi2.algebra
    if f.ncols != a1.dim or f.nrows != a2.dim:
        raise ShapeError("homomorphism matrix has wrong shape")

    e = a1.basis
    bracket_hom = scan(
        "algebra-homomorphism",
        (
            (
                (i + 1, j + 1),
                f.apply(a1.bracket_of(e(i), e(j)))
                - a2.bracket_of(f.apply(e(i)), f.apply(e(j))),
            )
            for i, j in product(range(a1.dim), repeat=2)
        ),
    )
    twist_hom = scan("twist-intertwined", [((0,), f @ a1.twist - a2.twist @ f)])
    co_hom = scan(
        "cobracket-intertwined",
        (
            (
                (k + 1,),
                apply_pair(f, f, bi1.cobracket.delta(k))
                - bi2.cobracket.delta_of(f.apply(e(k))),
            )
            for k in range(a1.dim)
        ),
    )
    return combined("bialgebra-homomorphism", [bracket_hom, twist_hom, co_hom])
