"""O-operators, Hom-left-symmetric algebras, and r-matrices from operators.

A linear map T: V -> g relative to a representation (V, beta, rho) is an
O-operator when T beta = phi T and the defect

    OT(u, v) = [T(u), T(v)] - T(rho(T(u))v - rho(T(v))u)

vanishes. Lifting T to T-bar in the semidirect product g |x V* (through
the Hom-dual action) and skew-symmetrizing gives r = T-bar - sigma(T-bar),
whose square bracket expands exactly into the defects:

    [r,r] = sum_{i,j} ( phi(OT(v_i,v_j)) (x) v^i (x) v^j
                      - v^i (x) phi(OT(v_i,v_j)) (x) v^j
                      + v^i (x) v^j (x) phi(OT(v_i,v_j)) ).

So r solves the Hom-Yang-Baxter equation precisely when T is an
O-operator (the expansion itself holds for every T with T beta = phi T,
which makes it the sharpest single test of the tensor plumbing here).

Hom-left-symmetric algebras supply the stock examples: the identity is an
O-operator for the commutator algebra acting by left multiplication, and
when u.v = psi^2(u).v the square of the twist is another one; the two
induced cobrackets on the semidirect product coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .bialgebra import HomLieBialgebra, check_triple_equivalence, validate_bialgebra
from .coboundary import (
    RMatrix,
    check_twist_compat,
    cobracket_from_r,
    r_square_bracket,
    validate_coboundary,
)
from .hom_lie import HomLieAlgebra, is_weakly_involutive, validate_hom_lie
from .report import CheckReport, combined, failed, holds, passed, require, scan
from .representation import (
    Representation,
    hom_dual_representation,
    is_weakly_involutive_rep,
    semidirect_product,
    twisted_action_fixes_carrier_square,
    validate_representation,
)
from .tensor import (
    Matrix,
    Q,
    ShapeError,
    Tensor3,
    Vector,
    nullspace,
    random_combination,
)


@dataclass(frozen=True)
class OOperatorCandidate:
    algebra: HomLieAlgebra
    rep: Representation
    t: Matrix  # n x m, columns are T(v_1), ..., T(v_m) in g coordinates

    def __post_init__(self):
        if self.rep.base is not self.algebra and (
            self.rep.base.bracket != self.algebra.bracket
            or self.rep.base.twist != self.algebra.twist
        ):
            raise ShapeError("representation must live over the candidate's algebra")
        if self.t.nrows != self.algebra.dim or self.t.ncols != self.rep.carrier_dim:
            raise ShapeError("T must map the carrier into the algebra")

    def apply_t(self, u: Vector) -> Vector:
        return self.t.apply(u)

    def defect(self, i: int, j: int) -> Vector:
        """OT(v_i, v_j) in g coordinates."""
        m = self.rep.carrier_dim
        tu = self.t.col(i)
        tv = self.t.col(j)
        inner = self.rep.rho_of(tu).apply(Vector.basis(m, j)) - self.rep.rho_of(
            tv
        ).apply(Vector.basis(m, i))
        return self.algebra.bracket_of(tu, tv) - self.t.apply(inner)


@dataclass(frozen=True)
class HomLeftSymmetric:
    """(V, ., psi): product[i][j][k] = coefficient of e_k in e_i . e_j."""

    product: Tensor3
    psi: Matrix
    label: str = ""

    def __post_init__(self):
        m = self.psi.nrows
        if self.psi.ncols != m or self.product.dims != (m, m, m):
            raise ShapeError("product tensor and twist dimensions disagree")

    @property
    def dim(self) -> int:
        return self.psi.nrows

    def product_of(self, u: Vector, v: Vector) -> Vector:
        out = Vector.zero(self.dim)
        for i in range(self.dim):
            if u[i] == 0:
                continue
            for j in range(self.dim):
                c = u[i] * v[j]
                if c:
                    out = out + Vector(self.product.entries[i][j]).scale(c)
        return out

    def left_mult(self, i: int) -> Matrix:
        """Matrix of v |-> e_i . v."""
        return Matrix(
            [
                [self.product[i, j, k] for j in range(self.dim)]
                for k in range(self.dim)
            ]
        )


def _twist_intertwines(cand: OOperatorCandidate) -> CheckReport:
    return scan(
        "twist-intertwines-t",
        [((0,), cand.t @ cand.rep.beta - cand.algebra.twist @ cand.t)],
    )


def validate_o_operator(cand: OOperatorCandidate) -> CheckReport:
    """T beta = phi T, and the defect OT vanishes on all basis pairs."""
    twist_ok = _twist_intertwines(cand)
    defect_ok = scan(
        "o-operator-defect",
        (
            ((i + 1, j + 1), cand.defect(i, j))
            for i, j in product(range(cand.rep.carrier_dim), repeat=2)
        ),
    )
    return combined("o-operator", [twist_ok, defect_ok])


def validate_hlsa(p: HomLeftSymmetric) -> CheckReport:
    """psi multiplicative, and (u.v).psi(w) - psi(u).(v.w) symmetric in u,v."""
    m = p.dim

    def e(i: int) -> Vector:
        return Vector.basis(m, i)

    mult = scan(
        "product-twist-multiplicative",
        (
            (
                (i + 1, j + 1),
                p.psi.apply(p.product_of(e(i), e(j)))
                - p.product_of(p.psi.col(i), p.psi.col(j)),
            )
            for i, j in product(range(m), repeat=2)
        ),
    )

    def associator(u: Vector, v: Vector, w: Vector) -> Vector:
        return p.product_of(p.product_of(u, v), p.psi.apply(w)) - p.product_of(
            p.psi.apply(u), p.product_of(v, w)
        )

    sym = scan(
        "associator-twist-symmetric",
        (
            (
                (i + 1, j + 1, k + 1),
                associator(e(i), e(j), e(k)) - associator(e(j), e(i), e(k)),
            )
            for i in range(m)
            for j in range(i + 1, m)
            for k in range(m)
        ),
    )
    return combined("hom-left-symmetric", [mult, sym])


def commutator_hom_lie(p: HomLeftSymmetric) -> HomLieAlgebra:
    """[u,v] = u.v - v.u with the same twist; validity asserted."""
    m = p.dim
    box = [
        [
            [p.product[i, j, k] - p.product[j, i, k] for k in range(m)]
            for j in range(m)
        ]
        for i in range(m)
    ]
    out = HomLieAlgebra(Tensor3(box), p.psi, f"g({p.label})" if p.label else "g(V)")
    require(validate_hom_lie(out), "commutator bracket is not Hom-Lie")
    return out


def left_mult_rep(p: HomLeftSymmetric) -> Representation:
    """(V, psi, L) with L_u(v) = u.v over the commutator algebra; asserted."""
    base = commutator_hom_lie(p)
    rep = Representation(base, p.psi, tuple(p.left_mult(i) for i in range(p.dim)))
    require(validate_representation(rep), "left multiplication is not a representation")
    return rep


def _square_twist_condition(p: HomLeftSymmetric) -> CheckReport:
    """u.v = psi^2(u).v on all basis pairs."""
    m = p.dim
    psi2 = p.psi @ p.psi
    return scan(
        "square-twist-product-condition",
        (
            (
                (i + 1, j + 1),
                p.product_of(Vector.basis(m, i), Vector.basis(m, j))
                - p.product_of(psi2.col(i), Vector.basis(m, j)),
            )
            for i, j in product(range(m), repeat=2)
        ),
    )


def weak_involutivity_product_criterion(p: HomLeftSymmetric) -> CheckReport:
    """(V, psi, L) is weakly involutive iff u.v = psi^2(u).v, as two
    separately reported implications; when the product condition holds,
    psi^2 is asserted to be an O-operator."""
    require(validate_hlsa(p), "not a Hom-left-symmetric algebra")
    cond = _square_twist_condition(p)
    rep = left_mult_rep(p)
    wi = is_weakly_involutive_rep(rep)

    subs = [
        holds(
            "wi-implies-condition",
            not wi.ok or cond.ok,
            "representation weakly involutive, condition fails",
        ),
        holds(
            "condition-implies-wi",
            not cond.ok or wi.ok,
            "condition holds, representation not weakly involutive",
        ),
    ]
    if cond.ok:
        sq = validate_o_operator(OOperatorCandidate(rep.base, rep, p.psi @ p.psi))
        subs.append(sq.renamed("square-twist-o-operator"))
    return combined(
        "weak-involutivity-product-criterion",
        subs,
        condition_holds=cond.ok,
        rep_weakly_involutive=wi.ok,
    )


def dual_semidirect(a: HomLieAlgebra, rep: Representation) -> HomLieAlgebra:
    """g |x V* through the Hom-dual action; rep must be weakly involutive."""
    return semidirect_product(a, hom_dual_representation(rep))


def lift_t_bar(cand: OOperatorCandidate) -> RMatrix:
    """T viewed inside (g (+) V*) (x) (g (+) V*): the 2-tensor
    sum_i v^i (x) T(v_i), supported on the (V*-block, g-block) corner."""
    big = dual_semidirect(cand.algebra, cand.rep)
    n = cand.algebra.dim
    m = cand.rep.carrier_dim
    coeffs = [[Q(0)] * (n + m) for _ in range(n + m)]
    for i in range(m):
        for k in range(n):
            coeffs[n + i][k] = cand.t[k, i]
    return RMatrix(big, Matrix(coeffs))


def r_from_o_operator(
    cand: OOperatorCandidate,
) -> tuple[HomLieAlgebra, RMatrix, CheckReport]:
    """r = T-bar - sigma(T-bar) in g |x V*, with the defect expansion of
    [r,r] asserted exactly; [r,r] = 0 then holds iff the defects vanish.

    When the algebra twist is invertible the converse (a Hom-Yang-Baxter
    solution forces T to be an O-operator) is checked on this instance and
    recorded.
    """
    require(_twist_intertwines(cand), "T must intertwine the twists")
    require(
        is_weakly_involutive_rep(cand.rep),
        "the carrier representation must be weakly involutive",
    )

    tbar = lift_t_bar(cand)
    big = tbar.base
    r = RMatrix(big, tbar.coeffs - tbar.coeffs.transpose())
    n = cand.algebra.dim
    m = cand.rep.carrier_dim
    d = n + m

    compat = check_twist_compat(r)

    expected = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(m):
        for j in range(m):
            w = cand.algebra.twisted(cand.defect(i, j))
            for k in range(n):
                c = w[k]
                if c:
                    expected[k][n + i][n + j] += c
                    expected[n + i][k][n + j] -= c
                    expected[n + i][n + j][k] += c
    rr = r_square_bracket(r)
    expansion = scan("defect-expansion", [((0,), rr - Tensor3(expected))])

    oop = validate_o_operator(cand)
    chybe = rr.is_zero()
    forward = holds(
        "o-operator-implies-chybe", not oop.ok or chybe, "O-operator with [r,r] != 0"
    )

    subs = [compat, expansion, forward]
    phi_invertible = cand.algebra.twist.det() != 0
    if phi_invertible:
        subs.append(
            holds(
                "invertible-twist-converse",
                not chybe or oop.ok,
                "[r,r]=0 but T is not an O-operator",
            )
        )

    report = combined(
        "o-operator-r-matrix",
        subs,
        chybe=chybe,
        o_operator=oop.verdict,
        phi_invertible=phi_invertible,
    )
    return big, r, report


def wedge_solutions(
    p: HomLeftSymmetric,
) -> tuple[RMatrix, RMatrix, CheckReport]:
    """The two canonical Hom-Yang-Baxter solutions in g(V) |x V*:
    r1 from T = id and r2 from T = psi^2. When the commutator algebra is
    weakly involutive and L_psi(u) psi^2 = L_psi(u), the induced cobrackets
    coincide exactly and both r's validate as coboundary structures."""
    require(validate_hlsa(p), "not a Hom-left-symmetric algebra")
    require(
        _square_twist_condition(p),
        "wedge solutions need u.v = psi^2(u).v, so that both T = id and"
        " T = psi^2 intertwine a weakly involutive left multiplication",
    )

    rep = left_mult_rep(p)
    base = rep.base
    m = p.dim

    big1, r1, _ = r_from_o_operator(OOperatorCandidate(base, rep, Matrix.identity(m)))
    big2, r2, _ = r_from_o_operator(OOperatorCandidate(base, rep, p.psi @ p.psi))

    subs = [
        scan(tag, [((0,), r_square_bracket(r))])
        for tag, r in (("chybe-r1", r1), ("chybe-r2", r2))
    ]

    # shared-cobracket hypotheses: g(V) weakly involutive and the twisted
    # action unchanged by the carrier twist square
    shared_ok = (
        is_weakly_involutive(base).ok and twisted_action_fixes_carrier_square(rep).ok
    )

    if shared_ok:
        res = cobracket_from_r(r1).coeffs - cobracket_from_r(r2).coeffs
        subs.extend(
            [
                scan("induced-cobrackets-coincide", [((0,), res)]),
                validate_coboundary(big1, r1).renamed("coboundary-r1"),
                validate_coboundary(big2, r2).renamed("coboundary-r2"),
            ]
        )

    return (
        r1,
        r2,
        combined("wedge-solutions", subs, shared_cobracket_hypotheses=shared_ok),
    )


def bialgebra_from_o_operator(
    cand: OOperatorCandidate,
) -> tuple[HomLieBialgebra, CheckReport]:
    """The coboundary bialgebra on g |x V* induced by r = T-bar - sigma(T-bar).

    Hypotheses (all enforced): algebra and representation weakly involutive,
    rho(phi(x)) beta^2 = rho(phi(x)), and T an O-operator. The result passes
    validate_bialgebra and the three-structure equivalence check.
    """
    a = cand.algebra
    rep = cand.rep
    require(is_weakly_involutive(a), "base algebra must be weakly involutive")
    require(is_weakly_involutive_rep(rep), "representation must be weakly involutive")
    require(
        twisted_action_fixes_carrier_square(rep),
        "rho(phi(x)) beta^2 = rho(phi(x)) must hold",
    )
    require(validate_o_operator(cand), "T must be an O-operator")

    big, r, _ = r_from_o_operator(cand)
    bi = HomLieBialgebra(big, cobracket_from_r(r))
    return bi, combined(
        "o-operator-bialgebra",
        [validate_bialgebra(bi), check_triple_equivalence(bi)],
    )


def intertwining_t_space(a: HomLieAlgebra, rep: Representation) -> list[Matrix]:
    """Basis of {T : T beta = phi T}, the lift precondition's solution space."""
    n = a.dim
    m = rep.carrier_dim
    rows = []
    for i in range(n):
        for j in range(m):
            row = [Q(0)] * (n * m)
            # (T beta - phi T)[i][j] = sum_q T[i][q] beta[q][j] - sum_p phi[i][p] T[p][j]
            for q in range(m):
                row[i * m + q] += rep.beta[q, j]
            for pp in range(n):
                row[pp * m + j] -= a.twist[i, pp]
            rows.append(row)
    return [
        Matrix([[v[i * m + j] for j in range(m)] for i in range(n)])
        for v in nullspace(Matrix(rows))
    ]


def run_defect_expansion_suite(
    a: HomLieAlgebra, rep: Representation, seed: int, count: int = 50
) -> CheckReport:
    """The [r,r] defect expansion for `count` seeded T sampled exactly from
    {T : T beta = phi T}; holds whether or not T is an O-operator."""
    import random

    space = intertwining_t_space(a, rep)
    flat = [Vector([x for row in m_.rows for x in row]) for m_ in space]
    rng = random.Random(seed)
    n = a.dim
    m = rep.carrier_dim
    cases = count if flat else 1
    for case in range(cases):
        if flat:
            vec = random_combination(rng, flat)
            t = Matrix([[vec[i * m + j] for j in range(m)] for i in range(n)])
        else:
            t = Matrix.zero(n, m)
        _, _, report = r_from_o_operator(OOperatorCandidate(a, rep, t))
        sub = next(
            s for s in report.subreports if s.checked_condition == "defect-expansion"
        )
        if not sub.ok:
            return failed(
                "defect-expansion-suite",
                list(sub.witnesses),
                seed=seed,
                case=case,
            )
    return passed(
        "defect-expansion-suite", seed=seed, count=cases, space_dim=len(flat)
    )
