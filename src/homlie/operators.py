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

from .bialgebra import HomLieBialgebra, check_triple_equivalence
from .coboundary import (
    _SECOND,
    RMatrix,
    _chunk,
    _first_failure,
    _r_square,
    _validate_coboundary,
    check_twist_compat,
    r_square_bracket,
)
from .hom_lie import (
    HomLieAlgebra,
    _intertwining,
    _multiplicative,
    _square_defect,
    is_weakly_involutive,
    require_same_algebra,
    validate_hom_lie,
)
from .report import CheckReport, Witness, combined, failed, holds, passed, require, scan
from .representation import (
    Representation,
    hom_dual_representation,
    is_weakly_involutive_rep,
    semidirect_product,
    twisted_action_fixes_carrier_square,
    validate_representation,
)
from .tensor import (
    _SAMPLE,
    Matrix,
    ShapeError,
    Sparse,
    Tensor3,
    Vector,
    contract,
    contract_sum,
    dense,
    matrix_kernel,
    sparse,
    unit_stack,
)


@dataclass(frozen=True)
class OOperatorCandidate:
    """T: V -> g relative to rep; algebra must be rep.base (ShapeError otherwise)."""

    algebra: HomLieAlgebra
    rep: Representation
    t: Matrix  # n x m, columns are T(v_1), ..., T(v_m) in g coordinates

    def __post_init__(self):
        require_same_algebra(
            self.rep.base, self.algebra, "representation must live over the candidate's algebra"
        )
        if self.t.nrows != self.algebra.dim or self.t.ncols != self.rep.carrier_dim:
            raise ShapeError("T must map the carrier into the algebra")

    def defect(self, i: int, j: int) -> Vector:
        """OT(v_i, v_j) in g coordinates."""
        return dense(_defects(self), self.shape, (i, j))

    @property
    def shape(self) -> tuple[int, int, int]:
        """The shape of the defect tensor: (carrier dim, carrier dim, dim g)."""
        return (self.t.ncols, self.t.ncols, self.t.nrows)


def _defects(cand: OOperatorCandidate) -> Sparse:
    """Entry (i, j, l): the e_l coefficient of OT(v_i, v_j)."""
    return _defect_tensor(cand.rep, cand.t, "", cand.t, "")


def _defect_tensor(rep: Representation, t, batch: str, u, batch2: str) -> Sparse:
    """Entry (i, j, l) of the bilinear form [T v_i, U v_j] - U(rho(T v_i) v_j -
    rho(T v_j) v_i), for the maps T and U with matrices t on the batch letter batch
    and u on batch2, from rep's carrier to rep's algebra; at u = t, with both letters
    empty, it is _defects of T. A batch letter puts a sample index first on its
    matrix and on the result: one slice per sample."""
    y, z = batch, batch2
    lead = y + z
    # U rho(T v_i) v_j, where t_pi action_psj is the v_s coefficient of rho(T v_i) v_j
    acted = [(y + "pi", t), ("psj", rep.action), (z + "ls", u)]
    return contract_sum(
        lead + "ijl",
        (1, [(y + "pi", t), ("pql", rep.base.bracket), (z + "qj", u)]),
        (-1, acted, lead + "ijl", "-" + lead + "jil"),
    )


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

    def left_mult(self, i: int) -> Matrix:
        """Matrix of v |-> e_i . v."""
        return self.product.plane(i).transpose()


def validate_o_operator(cand: OOperatorCandidate) -> CheckReport:
    """T beta = phi T, and the defect OT vanishes on all basis pairs."""
    _, _, verdict = _o_operator_checks(cand)
    return verdict


def _o_operator_checks(cand: OOperatorCandidate) -> tuple[Sparse, CheckReport, CheckReport]:
    """The defect tensor of T, evaluated once, the report of T beta = phi T, and
    validate_o_operator's report, which holds it."""
    defects = _defects(cand)
    twist = scan("twist-intertwines-t", _intertwining(cand.t, cand.rep.beta, cand.rep.base.twist), cand.t.shape)
    return defects, twist, combined("o-operator", [twist, scan("o-operator-defect", defects, cand.shape, 2)])


def validate_hlsa(p: HomLeftSymmetric) -> CheckReport:
    """psi multiplicative, and (u.v).psi(w) - psi(u).(v.w) symmetric in u,v."""
    shape = (p.dim,) * 4
    dot, psi = p.product, p.psi
    # entry (i, j, k, l): the e_l coefficient of (e_i.e_j).psi(e_k) - psi(e_i).(e_j.e_k),
    # then its part skew in (i, j), scanned over i < j
    skew = contract_sum(
        "ijkl",
        (1, [("ijp", dot), ("qk", psi), ("pql", dot)], "ijkl", "-jikl"),
        (-1, [("pi", psi), ("jkq", dot), ("pql", dot)], "ijkl", "-jikl"),
    )
    upper = Sparse({key: v for key, v in skew.items() if key[0] < key[1]}, skew.den)
    return combined(
        "hom-left-symmetric",
        [
            scan("product-twist-multiplicative", _multiplicative(psi, dot, dot), shape[:3], 2),
            scan("associator-twist-symmetric", upper, shape, 3),
        ],
    )


def commutator_hom_lie(p: HomLeftSymmetric) -> HomLieAlgebra:
    """[u,v] = u.v - v.u with the same twist; validity asserted."""
    dot = sparse(p.product)
    bracket = dot - dot.moved(lambda i, j, k: (j, i, k))
    label = f"g({p.label})" if p.label else "g(V)"
    out = HomLieAlgebra(dense(bracket, (p.dim,) * 3), p.psi, label)
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
    return scan("square-twist-product-condition", -_square_defect(p.product, p.psi), (p.dim,) * 3, 2)


def _lifted_r(t, n: int, batch: str = "") -> Sparse:
    """The coefficients of r = T-bar - sigma(T-bar) in g |x V*, g of dimension n,
    where T-bar = sum_i v^i (x) T(v_i) is T on the (V*-block, g-block) corner."""
    lead = len(batch)
    tbar = sparse(t).moved(lambda *key: (*key[:lead], n + key[-1], key[-2]))
    return tbar - tbar.moved(lambda *key: (*key[:lead], key[-1], key[-2]))


def _expansion(a: HomLieAlgebra, defects: Sparse, batch: str = "") -> Sparse:
    """The defect expansion that [r,r] must equal for r = _lifted_r of T, given the
    defect tensor of T."""
    n, lead = a.dim, len(batch)
    # entry (i, j, k): the e_k coefficient of phi(OT(v_i, v_j))
    twisted = contract(batch + "ijk", (batch + "ijl", defects), ("kl", a.twist))

    def placed(f) -> Sparse:
        return twisted.moved(lambda *key: (*key[:lead], *f(*key[lead:])))

    return (
        placed(lambda i, j, k: (k, n + i, n + j))
        - placed(lambda i, j, k: (n + i, k, n + j))
        + placed(lambda i, j, k: (n + i, n + j, k))
    )


def r_from_o_operator(
    cand: OOperatorCandidate,
) -> tuple[HomLieAlgebra, RMatrix, CheckReport]:
    """r = T-bar - sigma(T-bar) in g |x V*, with the defect expansion of
    [r,r] asserted exactly; [r,r] = 0 then holds iff the defects vanish.

    When the algebra twist is invertible the converse (a Hom-Yang-Baxter
    solution forces T to be an O-operator) is checked on this instance and
    recorded.
    """
    defects, twist, oop = _o_operator_checks(cand)
    require(twist, "T must intertwine the twists")
    big = _lift_preconditions(cand.rep, is_weakly_involutive_rep(cand.rep))
    r = _lift(big, cand.t)

    compat = check_twist_compat(r)
    rr = r_square_bracket(r)
    expansion = scan("defect-expansion", rr - dense(_expansion(cand.algebra, defects), (big.dim,) * 3))

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


def _lift_preconditions(rep: Representation, involutive: CheckReport) -> HomLieAlgebra:
    """g |x V* through the Hom-dual action of rep, once rep is weakly involutive
    (involutive is the report of is_weakly_involutive_rep)."""
    require(involutive, "the carrier representation must be weakly involutive")
    return semidirect_product(hom_dual_representation(rep))


def _lift(big: HomLieAlgebra, t: Matrix) -> RMatrix:
    """r = T-bar - sigma(T-bar) in big = g |x V*, the algebra _lift_preconditions
    builds, for T: V -> g."""
    d = big.dim
    return RMatrix(big, dense(_lifted_r(t, t.nrows), (d, d)))


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
    big = _lift_preconditions(rep, is_weakly_involutive_rep(rep))
    r1, r2 = _lift(big, Matrix.identity(p.dim)), _lift(big, p.psi @ p.psi)
    rr1, rr2 = r_square_bracket(r1), r_square_bracket(r2)

    subs = [scan("chybe-r1", rr1), scan("chybe-r2", rr2)]

    # shared-cobracket hypotheses: g(V) weakly involutive and the twisted
    # action unchanged by the carrier twist square
    shared_ok = (
        is_weakly_involutive(base).ok and twisted_action_fixes_carrier_square(rep).ok
    )

    if shared_ok:
        res = r1.bialgebra.cobracket.coeffs - r2.bialgebra.cobracket.coeffs
        subs.extend(
            [
                scan("induced-cobrackets-coincide", res),
                _validate_coboundary(r1, rr1).renamed("coboundary-r1"),
                _validate_coboundary(r2, rr2).renamed("coboundary-r2"),
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
    rep = cand.rep
    require(is_weakly_involutive(rep.base), "base algebra must be weakly involutive")
    involutive = is_weakly_involutive_rep(rep)
    require(involutive, "representation must be weakly involutive")
    require(
        twisted_action_fixes_carrier_square(rep),
        "rho(phi(x)) beta^2 = rho(phi(x)) must hold",
    )
    require(validate_o_operator(cand), "T must be an O-operator")

    bi = _lift(_lift_preconditions(rep, involutive), cand.t).bialgebra
    return bi, combined("o-operator-bialgebra", [bi.verdict, check_triple_equivalence(bi)])


def intertwining_t_space(a: HomLieAlgebra, rep: Representation) -> list[Matrix]:
    """Basis of {T : T beta = phi T}, the lift precondition's solution space.
    a must be the algebra rep represents (ShapeError otherwise)."""
    require_same_algebra(rep.base, a, "representation must live over the given algebra")
    stack = unit_stack(a.dim, rep.carrier_dim)
    return matrix_kernel(stack, _intertwining(stack, rep.beta, rep.base.twist, _SAMPLE))


def run_defect_expansion_suite(
    a: HomLieAlgebra, rep: Representation, seed=None, count=None
) -> CheckReport:
    """Proves the [r,r] defect expansion for every T with T beta = phi T, O-operator
    or not, from the polarised expansion at the pairs of the basis of
    intertwining_t_space. a must be the algebra rep represents. info holds
    space_dim; a failure names the first failing pair (case, 1-based (a, b) with
    a <= b), and its witness is the halved symmetrisation there. seed and count
    are ignored."""
    space = intertwining_t_space(a, rep)
    big = _lift_preconditions(rep, is_weakly_involutive_rep(rep))
    n, d, y, z = a.dim, big.dim, _SAMPLE, _SECOND

    def residuals(t, u):
        r = _lifted_r(t, n, y)
        s = r if u is t else _lifted_r(u, n, z)
        expected = _expansion(a, _defect_tensor(rep, t, y, u, z), y + z)
        terms = [*_r_square(big, r, y, s, z), (-1, [(y + z + "abc", expected)])]
        return [(y + z + "abc", terms, (d,) * 3, 0)]

    found = _first_failure(space, _chunk(big, len(space), True), residuals, paired=True)
    if found is None:
        return passed("defect-expansion-suite", space_dim=len(space))
    case, _, _, block = found
    return failed("defect-expansion-suite", [Witness((0,), block)], case=case, space_dim=len(space))
