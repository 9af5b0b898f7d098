"""r-matrix machinery: coboundary cobrackets and the Hom-Yang-Baxter tensor.

For r in g (x) g over a weakly involutive algebra, the cobracket
delta(x) = (phi (x) ad_x + ad_x (x) phi) r induces a candidate bracket on
g*. The whole module revolves around when that candidate is a weakly
involutive Hom-Lie algebra:

    (i)  the symmetric part of r is invariant: [x, r + sigma(r)] = 0;
    (ii) ad_{phi(x)} [r,r] = 0,

with [r,r] the three-slot tensor whose vanishing is the classical
Hom-Yang-Baxter equation. The twist-compatibility (phi (x) id) r =
(id (x) phi) r is the standing hypothesis for everything except the
residual identities, which hold for arbitrary r and are the reason that
hypothesis is the right one.

Matrix realizations used throughout: a 2-tensor is an n x n matrix,
(A (x) B) t = A t B^T, sigma is transpose; the map r#: g* -> g has matrix
r^T (column a is the image of the a-th dual basis vector), and sigma(r)#
has matrix r itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .bialgebra import (
    Cobracket,
    HomLieBialgebra,
    check_bialgebra_homomorphism,
    cobracket_compatibility,
    cobracket_from_bracket,
    d_double,
    dual_algebra,
    validate_bialgebra,
)
from .hom_lie import (
    HomLieAlgebra,
    is_weakly_involutive,
    require_same_algebra,
    twist_symmetry,
    twisted_ad,
    validate_hom_lie,
)
from .report import (
    CheckReport,
    InvalidStructureError,
    Witness,
    combined,
    failed,
    holds,
    passed,
    require,
    scan,
)
from .tensor import (
    Matrix,
    Q,
    ShapeError,
    Sparse,
    Tensor3,
    Vector,
    contract,
    dense,
    first_case,
    matrix_kernel,
    random_combination,
    sparse,
    sylvester,
)


@dataclass(frozen=True)
class RMatrix:
    base: HomLieAlgebra
    coeffs: Matrix  # coeffs[i][j] = coefficient of e_i (x) e_j

    def __post_init__(self):
        n = self.base.dim
        if self.coeffs.nrows != n or self.coeffs.ncols != n:
            raise ShapeError("r-matrix coefficients must be n x n")

    @property
    def dim(self) -> int:
        return self.base.dim

    def sigma(self) -> "RMatrix":
        return RMatrix(self.base, self.coeffs.transpose())

    def is_skew(self) -> bool:
        return self.coeffs.is_skew()


def check_twist_compat(r: RMatrix) -> CheckReport:
    """(phi (x) id) r = (id (x) phi) r, cross-checked against the operator
    form phi r# = r# phi* (as matrices: phi r = r phi^T)."""
    phi = r.base.twist
    tensor_res = dense(
        contract("ab", ("ap", phi), ("pb", r.coeffs))
        - contract("ab", ("aq", r.coeffs), ("bq", phi)),
        (r.dim,) * 2,
    )
    operator_res = phi @ r.coeffs - r.coeffs @ phi.transpose()
    agree = tensor_res.is_zero() == operator_res.is_zero()
    if not agree:
        # structurally impossible (same bilinear identity); kept as a tripwire
        return failed(
            "twist-compat",
            [Witness((0,), tensor_res, "tensor and operator forms disagree")],
        )
    return scan("twist-compat", [((0,), tensor_res)])


def twist_compat_kernel(a: HomLieAlgebra) -> list[Matrix]:
    """Basis of {r : phi r = r phi^T}, the space of twist-compatible r."""
    return matrix_kernel(sylvester(a.twist, a.twist.transpose()), a.dim, a.dim)


def skew_twist_compat_kernel(a: HomLieAlgebra) -> list[Matrix]:
    """Basis of the twist-compatible r that are also skew-symmetric."""
    n = a.dim
    equations = []
    # for each (i, j): (phi r - r phi^T)[i][j] = 0, then (r + r^T)[i][j] = 0
    for (i, j), compat in zip(
        product(range(n), repeat=2), sylvester(a.twist, a.twist.transpose())
    ):
        equations += [compat, [(i, j, Q(1)), (j, i, Q(1))]]
    return matrix_kernel(equations, n, n)


def cobracket_from_r(r: RMatrix) -> Cobracket:
    """delta(e_k) = (phi (x) ad_{e_k} + ad_{e_k} (x) phi) r."""
    return Cobracket(r.base, dense(_basis_action(r.base, r.coeffs), (r.dim,) * 3))


def _basis_action(a: HomLieAlgebra, t: Matrix) -> Sparse:
    """Entry (k, p, q): entry (p, q) of (phi (x) ad_{e_k} + ad_{e_k} (x) phi) t."""
    c, phi = a.bracket, a.twist
    return contract("kpq", ("ps", phi), ("st", t), ("ktq", c)) + contract(
        "kpq", ("ksp", c), ("st", t), ("qt", phi)
    )


def r_square_bracket(r: RMatrix) -> Tensor3:
    """[r,r] = sum over tensor factors x_i (x) y_i of r:

        [x_i,x_j] (x) phi(y_i) (x) phi(y_j)
      + phi(x_i) (x) [y_i,x_j] (x) phi(y_j)
      + phi(x_i) (x) phi(x_j) (x) [y_i,y_j],

    each term a contraction of the bracket with phi r and r phi^T.
    """
    c, phi = r.base.bracket, r.base.twist
    phir = contract("aq", ("ap", phi), ("pq", r.coeffs))  # phi on the first slot
    rphit = contract("pb", ("pq", r.coeffs), ("bq", phi))  # phi on the second
    rr = (
        contract("abc", ("psa", c), ("pb", rphit), ("sc", rphit))
        + contract("abc", ("aq", phir), ("qsb", c), ("sc", rphit))
        + contract("abc", ("aq", phir), ("qtc", c), ("bt", phir))
    )
    return dense(rr, (r.dim,) * 3)


def jac_delta(cb: Cobracket, k: int) -> Tensor3:
    """Co-Jacobiator of the cobracket at basis vector e_k: the sum of the
    cyclic rotations of (phi (x) delta) delta(e_k). Vanishes for all k
    exactly when the dual bracket satisfies the Hom-Jacobi identity."""
    return dense(_jac_delta(cb), (cb.dim,) * 4, (k,))


def _jac_delta(cb: Cobracket) -> Sparse:
    """Entry (k, a, b, c): entry (a, b, c) of jac_delta(cb, k)."""
    t = contract("kabc", ("kij", cb.coeffs), ("ai", cb.base.twist), ("jbc", cb.coeffs))
    return t + contract("kabc", ("kbca", t)) + contract("kabc", ("kcab", t))


def ad_phi_on_tensor3(a: HomLieAlgebra, x: Vector, t: Tensor3) -> Tensor3:
    """(ad_{phi(x)} (x) phi (x) phi + phi (x) ad_{phi(x)} (x) phi
       + phi (x) phi (x) ad_{phi(x)}) t."""
    return dense(contract("abc", ("k", x), ("kabc", _adjoint_on(a, t))), (a.dim,) * 3)


def _adjoint_on(a: HomLieAlgebra, t) -> Sparse:
    """Entry (k, a, b, c): entry (a, b, c) of ad_phi_on_tensor3(a, e_k, t)."""
    ad, phi = twisted_ad(a), a.twist
    return (
        contract("kabc", ("pqs", t), ("bq", phi), ("cs", phi), ("kpa", ad))
        + contract("kabc", ("pqs", t), ("ap", phi), ("cs", phi), ("kqb", ad))
        + contract("kabc", ("pqs", t), ("ap", phi), ("bq", phi), ("ksc", ad))
    )


def symmetric_part_invariance(r: RMatrix) -> CheckReport:
    """[x, r + sigma(r)] = 0 for all basis x, i.e. the symmetric part of r
    is killed by every (phi (x) ad_x + ad_x (x) phi)."""
    res = _basis_action(r.base, r.coeffs + r.coeffs.transpose())
    return scan("symmetric-part-invariance", first_case(res, (r.dim,) * 3, 1))


def adjoint_kills_r_square(r: RMatrix) -> CheckReport:
    """ad_{phi(x)} [r,r] = 0 for all basis x (the three-slot action)."""
    return _adjoint_kills(r.base, r_square_bracket(r))


def _adjoint_kills(a: HomLieAlgebra, rr: Tensor3) -> CheckReport:
    return scan("adjoint-kills-r-square", first_case(_adjoint_on(a, rr), (a.dim,) * 4, 1))


def dual_side_verdict(r: RMatrix) -> CheckReport:
    """The dual side judged on its own: the bracket induced on g* by
    delta is a valid weakly involutive Hom-Lie algebra."""
    dual = dual_algebra(cobracket_from_r(r))
    return combined(
        "dual-weakly-involutive-hom-lie",
        [validate_hom_lie(dual), is_weakly_involutive(dual)],
    )


def validate_coboundary(a: HomLieAlgebra, r: RMatrix) -> CheckReport:
    """Conditions (i) and (ii) over a weakly involutive base with
    twist-compatible r, cross-checked against the directly computed dual
    side; the biconditional itself is part of the verdict.

    info["classification"]: triangular (skew solution), quasitriangular
    (solution), coboundary (conditions hold, [r,r] != 0), or none.
    """
    return _validate_coboundary(a, r, None)


def _validate_coboundary(a: HomLieAlgebra, r: RMatrix, rr: Tensor3 | None) -> CheckReport:
    """validate_coboundary, reusing [r,r] when the caller already has it."""
    require_same_algebra(a, r.base, "r lives on a different algebra")
    require(is_weakly_involutive(a), "coboundary theory needs a weakly involutive base")
    require(check_twist_compat(r), "r must satisfy (phi (x) id) r = (id (x) phi) r")

    if rr is None:
        rr = r_square_bracket(r)
    cond_i = symmetric_part_invariance(r)
    cond_ii = _adjoint_kills(r.base, rr)
    dual_ok = dual_side_verdict(r)
    crosscheck = holds(
        "conditions-match-dual-side",
        (cond_i.ok and cond_ii.ok) == dual_ok.ok,
        "conditions (i)+(ii) disagree with the dual-side verdict",
    )

    rr_zero = rr.is_zero()
    if cond_i.ok and cond_ii.ok:
        if rr_zero and r.is_skew():
            classification = "triangular"
        elif rr_zero:
            classification = "quasitriangular"
        else:
            classification = "coboundary"
    else:
        classification = "none"

    return combined(
        "coboundary",
        [cond_i, cond_ii, dual_ok, crosscheck],
        classification=classification,
        chybe=rr_zero,
    )


def check_chybe(r: RMatrix) -> CheckReport:
    """[r,r] = 0, reported entrywise."""
    rr = r_square_bracket(r)
    return scan("chybe", first_case(sparse(rr), (r.dim,) * 3, 3), skew=r.is_skew())


# --- the three residual identities ------------------------------------------
#
# Over a weakly involutive base, for ARBITRARY r (no twist compatibility),
# with w = (phi (x) id - id (x) phi) r:
#
#   (a) delta(phi x) - (phi (x) phi) delta(x)
#         = (ad_{phi x} phi (x) phi - phi (x) ad_{phi x} phi) w
#   (b) (phi^2 (x) id) delta(x) - delta(x)
#         = (phi (x) ad_x)(phi (x) id + id (x) phi) w
#   (c) delta[x,y] - (ad_{phi x} delta(y) - ad_{phi y} delta(x))
#         = (ad_{[x,y]} phi (x) phi - phi (x) ad_{[x,y]} phi) w
#
# The left sides go through the delta machinery; the right sides are
# expanded here with raw index loops so the two paths share no code.


def _pair_action_loops(p: Matrix, q: Matrix, t: Matrix) -> Matrix:
    """(P (x) Q) t by explicit summation, used for the independent RHS path."""
    n = t.nrows
    out = [[Q(0)] * q.nrows for _ in range(p.nrows)]
    for i in range(p.nrows):
        for j in range(q.nrows):
            acc = Q(0)
            for u in range(n):
                pu = p.rows[i][u]
                if pu == 0:
                    continue
                for v in range(t.ncols):
                    tv = t.rows[u][v]
                    if tv:
                        acc += pu * tv * q.rows[j][v]
            out[i][j] = acc
    return Matrix(out)


def cobracket_residual_identities(
    a: HomLieAlgebra, r: RMatrix
) -> tuple[CheckReport, CheckReport, CheckReport]:
    """The three exact identities above, each as its own report."""
    require_same_algebra(a, r.base, "r lives on a different algebra")
    require(
        is_weakly_involutive(a), "the residual identities assume a weakly involutive base"
    )
    n = a.dim
    phi = a.twist
    d = cobracket_from_r(r).coeffs
    shape = (n,) * 4
    w = phi @ r.coeffs - r.coeffs @ phi.transpose()

    def cases_a():
        lhs = contract("kpq", ("xk", phi), ("xpq", d)) - contract(
            "kpq", ("kst", d), ("ps", phi), ("qt", phi)
        )
        for k in range(n):
            adpx_phi = a.ad_of(phi.col(k)) @ phi
            rhs = _pair_action_loops(adpx_phi, phi, w) - _pair_action_loops(
                phi, adpx_phi, w
            )
            yield (k + 1,), dense(lhs, shape[:3], (k,)) - rhs

    ident = Matrix.identity(n)
    inner = _pair_action_loops(phi, ident, w) + _pair_action_loops(ident, phi, w)

    def cases_b():
        lhs = contract("kpq", ("ksq", d), ("ps", phi @ phi)) - sparse(d)
        for k in range(n):
            yield (k + 1,), dense(lhs, shape[:3], (k,)) - _pair_action_loops(
                phi, a.ad(k), inner
            )

    def cases_c():
        lhs = cobracket_compatibility(a, d)
        for i, j in product(range(n), repeat=2):
            adb_phi = a.ad_of(Vector(a.bracket.entries[i][j])) @ phi
            rhs = _pair_action_loops(adb_phi, phi, w) - _pair_action_loops(
                phi, adb_phi, w
            )
            yield (i + 1, j + 1), dense(lhs, shape, (i, j)) - rhs

    return (
        scan("residual-twist-pushforward", cases_a()),
        scan("residual-square-twist", cases_b()),
        scan("residual-compatibility", cases_c()),
    )


def run_residual_suite(a: HomLieAlgebra, seed: int, count: int = 50) -> CheckReport:
    """The residual identities over `count` seeded random r (arbitrary,
    not twist-compatible)."""
    import random

    from .tensor import random_matrix

    rng = random.Random(seed)
    for case in range(count):
        r = RMatrix(a, random_matrix(rng, a.dim))
        for rep in cobracket_residual_identities(a, r):
            if not rep.ok:
                return failed(
                    "residual-suite",
                    list(rep.witnesses),
                    seed=seed,
                    case=case,
                    identity=rep.checked_condition,
                )
    return passed("residual-suite", seed=seed, count=count)


def run_jacobiator_suite(a: HomLieAlgebra, seed: int, count: int = 50) -> CheckReport:
    """Jac_delta(x) = ad_{phi(x)} [r,r] for seeded skew twist-compatible r
    (sampled exactly from the constraint kernel), all basis x."""
    import random

    n = a.dim
    kernel = skew_twist_compat_kernel(a)
    rng = random.Random(seed)
    cases = count if kernel else 1
    for case in range(cases):
        coeffs = random_combination(rng, kernel) if kernel else Matrix.zero(n)
        r = RMatrix(a, coeffs)
        res = _jac_delta(cobracket_from_r(r)) - _adjoint_on(a, r_square_bracket(r))
        rep = scan(
            "jacobiator-bracket-suite",
            first_case(res, (n,) * 4, 1),
            seed=seed,
            case=case,
            kernel_dim=len(kernel),
        )
        if not rep.ok:
            return rep
    return passed(
        "jacobiator-bracket-suite", seed=seed, count=cases, kernel_dim=len(kernel)
    )


# --- the r# operator calculus ------------------------------------------------

def r_sharp(r: RMatrix) -> Matrix:
    """Matrix of r#: g* -> g, <r#(a), b> = <r, a (x) b>; column a is the
    image of the a-th dual basis vector, hence the transpose of coeffs."""
    return r.coeffs.transpose()


def dual_bracket_from_r(a: HomLieAlgebra, r: RMatrix) -> HomLieAlgebra:
    """The bracket on g* via the operator route

        [f_a, f_b] = ad"_{r#(f_a)} f_b + ad"_{sigma(r)#(f_b)} f_a

    (ad" the dual of the adjoint action), asserted equal, entry for entry,
    to dual_algebra(cobracket_from_r(r)).
    """
    require_same_algebra(a, r.base, "r lives on a different algebra")
    require(is_weakly_involutive(a), "operator route assumes a weakly involutive base")
    require(check_twist_compat(r), "operator route assumes phi r# = r# phi*")
    # ad"_x f_b = -sum_p phi(x)_p [e_p, .]_b, at x = r#(f_a) = row a of r and
    # at x = sigma(r)#(f_b) = column b of r
    c, phi = a.bracket, a.twist
    box = -(
        contract("abl", ("aq", r.coeffs), ("pq", phi), ("plb", c))
        + contract("abl", ("qb", r.coeffs), ("pq", phi), ("pla", c))
    )
    operator_route = HomLieAlgebra(
        dense(box, (a.dim,) * 3), phi.transpose(), f"{a.label or 'g'}* (operator route)"
    )

    cobracket_route = dual_algebra(cobracket_from_r(r))
    require(
        scan(
            "dual-bracket-routes-agree",
            [((0,), operator_route.bracket - cobracket_route.bracket)],
        ),
        "operator and cobracket routes to the dual bracket disagree",
    )
    return operator_route


def sharp_bracket_defect(a: HomLieAlgebra, r: RMatrix, ai: int, bi: int) -> CheckReport:
    """[r# phi* (f_a), r# phi* (f_b)] - r# phi* [f_a, f_b]_{g*}
    equals the contraction of [r,r] against (f_a, f_b) in the first two
    slots. Exact identity for twist-compatible r over a weakly involutive
    base; both sides computed and compared here."""
    require_same_algebra(a, r.base, "r lives on a different algebra")
    require(check_twist_compat(r), "sharp-bracket identity assumes twist compat")
    s = r_sharp(r) @ a.twist.transpose()  # r# phi*
    dual = dual_algebra(cobracket_from_r(r))
    # entry (a, b, l): the e_l coefficient of [s f_a, s f_b] - s [f_a, f_b]_{g*}
    defect = contract("abl", ("pa", s), ("pql", a.bracket), ("qb", s)) - contract(
        "abl", ("abk", dual.bracket), ("lk", s)
    )
    lhs = dense(defect, (a.dim,) * 3, (ai, bi))
    res = lhs - Vector(r_square_bracket(r).entries[ai][bi])
    if res.is_zero():
        return passed("sharp-bracket-defect", value=lhs)
    return failed("sharp-bracket-defect", [Witness((ai + 1, bi + 1), res)])


def form_from_invertible_r(
    a: HomLieAlgebra, r: RMatrix
) -> tuple["BilinearFormB", CheckReport]:
    """For skew invertible twist-compatible r: the form B(x,y) =
    <(r#)^{-1}(x), y>, whose Gram matrix is the inverse of the coefficient
    matrix. Reports the cyclic 2-cocycle identity

        B(phi x,[y,z]) + B(phi y,[z,x]) + B(phi z,[x,y]) = 0

    and B(phi x, y) = B(x, phi y). These hold iff r solves the
    Hom-Yang-Baxter equation; agreement of the two sides is recorded in
    info (a discrepancy is flagged, not failed)."""
    from .hom_lie import BilinearFormB

    require_same_algebra(a, r.base, "r lives on a different algebra")
    require(
        scan("r-skew", [((0,), r.coeffs + r.coeffs.transpose())]),
        "form_from_invertible_r needs a skew r",
    )
    if r.coeffs.det() == 0:
        raise InvalidStructureError(
            "form_from_invertible_r needs invertible r#",
            failed("r-sharp-invertible", [Witness((0,), Q(0), "determinant is zero")]),
        )
    require(check_twist_compat(r), "form_from_invertible_r assumes twist compat")

    gram = r.coeffs.inverse()
    # entry (i, j, k): B(phi e_i, [e_j, e_k]), then summed over cyclic shifts of (i, j, k)
    t = contract("ijk", ("pi", a.twist), ("pq", gram), ("jkq", a.bracket))
    t = t + contract("ijk", ("jki", t)) + contract("ijk", ("kij", t))
    cyclic = scan("cyclic-cocycle", first_case(t, (a.dim,) * 3, 3))
    twist_sym = twist_symmetry(a, gram, "form-twist-symmetry")

    chybe = r_square_bracket(r).is_zero()
    report = combined(
        "form-from-r",
        [cyclic, twist_sym],
        chybe=chybe,
        converse_discrepancy=(cyclic.ok and twist_sym.ok) != chybe,
    )
    return BilinearFormB(gram), report


def hom_double(bi: HomLieBialgebra) -> tuple[HomLieAlgebra, RMatrix, CheckReport]:
    """The canonical structure on g (+) g*: the d-bracket double together
    with r = sum_i e_i (x) f_i. Asserts, over the double: twist
    compatibility of r, [r,r] = 0, invariance of the symmetric part, and
    that both block inclusions (x |-> phi(x) from (g, Delta); a |-> phi*(a)
    from (g*, -delta_{g*})) are bialgebra homomorphisms."""
    require(validate_bialgebra(bi), "hom_double needs a valid bialgebra")
    a = bi.algebra
    n = a.dim
    big = d_double(bi)

    r = RMatrix(big, dense({(i, n + i): Q(1) for i in range(n)}, (2 * n, 2 * n)))

    compat = check_twist_compat(r)
    chybe = check_chybe(r)
    sym_inv = symmetric_part_invariance(r)

    big_bi = HomLieBialgebra(big, cobracket_from_r(r))

    # inclusion of (g, Delta) through phi
    inc1 = dense(sparse(a.twist), (2 * n, n))
    hom1 = check_bialgebra_homomorphism(inc1, bi, big_bi)

    # inclusion of (g*, -delta_{g*}) through phi*
    dual = bi.dual
    minus_dual_cb = Cobracket(
        dual, cobracket_from_bracket(a, dual).coeffs.scale(Q(-1))
    )
    dual_bi = HomLieBialgebra(dual, minus_dual_cb)
    inc2 = dense(sparse(a.twist).moved(lambda i, j: (n + j, i)), (2 * n, n))
    hom2 = check_bialgebra_homomorphism(inc2, dual_bi, big_bi)

    report = combined(
        "hom-double",
        [
            compat.renamed("canonical-r-twist-compat"),
            chybe.renamed("canonical-r-chybe"),
            sym_inv.renamed("canonical-r-symmetric-part"),
            hom1.renamed("primal-inclusion-homomorphism"),
            hom2.renamed("dual-inclusion-homomorphism"),
        ],
    )
    return big, r, report
