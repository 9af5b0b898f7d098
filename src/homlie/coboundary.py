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
    ad_on_tensor2,
    check_bialgebra_homomorphism,
    cobracket_from_bracket,
    d_double,
    dual_algebra,
    validate_bialgebra,
)
from .hom_lie import HomLieAlgebra, is_weakly_involutive, validate_hom_lie
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
from .representation import adjoint_rep, dual_action_candidate
from .tensor import (
    Matrix,
    Q,
    ShapeError,
    Tensor3,
    Vector,
    apply_pair,
    apply_triple,
    contract3_first_two,
    cyclic3,
    nullspace,
    random_combination,
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
    n = r.dim
    tensor_lhs = apply_pair(phi, Matrix.identity(n), r.coeffs)
    tensor_rhs = apply_pair(Matrix.identity(n), phi, r.coeffs)
    tensor_res = tensor_lhs - tensor_rhs
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
    n = a.dim
    phi = a.twist
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Q(0)] * (n * n)
            # (phi r - r phi^T)[i][j] = sum_p phi[i][p] r[p][j] - sum_q r[i][q] phi[j][q]
            for p in range(n):
                row[p * n + j] += phi[i, p]
            for q in range(n):
                row[i * n + q] -= phi[j, q]
            rows.append(row)
    return [
        Matrix([[v[i * n + j] for j in range(n)] for i in range(n)])
        for v in nullspace(Matrix(rows))
    ]


def skew_twist_compat_kernel(a: HomLieAlgebra) -> list[Matrix]:
    """Basis of the twist-compatible r that are also skew-symmetric."""
    n = a.dim
    phi = a.twist
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Q(0)] * (n * n)
            for p in range(n):
                row[p * n + j] += phi[i, p]
            for q in range(n):
                row[i * n + q] -= phi[j, q]
            rows.append(row)
            sym = [Q(0)] * (n * n)
            sym[i * n + j] += Q(1)
            sym[j * n + i] += Q(1)
            rows.append(sym)
    return [
        Matrix([[v[i * n + j] for j in range(n)] for i in range(n)])
        for v in nullspace(Matrix(rows))
    ]


def cobracket_from_r(r: RMatrix) -> Cobracket:
    """delta(e_k) = (phi (x) ad_{e_k} + ad_{e_k} (x) phi) r."""
    a = r.base
    phi = a.twist
    planes = []
    for k in range(a.dim):
        adk = a.ad(k)
        planes.append(
            (apply_pair(phi, adk, r.coeffs) + apply_pair(adk, phi, r.coeffs)).rows
        )
    return Cobracket(a, Tensor3(planes))


def r_square_bracket(r: RMatrix) -> Tensor3:
    """[r,r] = sum over tensor factors x_i (x) y_i of r:

        [x_i,x_j] (x) phi(y_i) (x) phi(y_j)
      + phi(x_i) (x) [y_i,x_j] (x) phi(y_j)
      + phi(x_i) (x) phi(x_j) (x) [y_i,y_j].

    Computed by factoring each term through phi r and r phi^T, one
    structure-constant contraction per term.
    """
    a = r.base
    n = a.dim
    phi = a.twist
    phir = phi @ r.coeffs  # (phi r)[a][q]: phi acting on the first slot
    rphit = r.coeffs @ phi.transpose()  # (r phi^T)[p][b]: phi acting on the second
    c = a.bracket
    out = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for s in range(n):
            row_ps = c.entries[p][s]
            for aa in range(n):
                v = row_ps[aa]
                if v == 0:
                    continue
                # term 1: [e_p, e_s] lands in slot 1
                for b in range(n):
                    x = v * rphit[p, b]
                    if x == 0:
                        continue
                    for cc in range(n):
                        y = rphit[s, cc]
                        if y:
                            out[aa][b][cc] += x * y
    for q in range(n):
        for s in range(n):
            row_qs = c.entries[q][s]
            for b in range(n):
                v = row_qs[b]
                if v == 0:
                    continue
                # term 2: [e_q, e_s] lands in slot 2
                for aa in range(n):
                    x = v * phir[aa, q]
                    if x == 0:
                        continue
                    for cc in range(n):
                        y = rphit[s, cc]
                        if y:
                            out[aa][b][cc] += x * y
    for q in range(n):
        for t in range(n):
            row_qt = c.entries[q][t]
            for cc in range(n):
                v = row_qt[cc]
                if v == 0:
                    continue
                # term 3: [e_q, e_t] lands in slot 3
                for aa in range(n):
                    x = v * phir[aa, q]
                    if x == 0:
                        continue
                    for b in range(n):
                        y = phir[b, t]
                        if y:
                            out[aa][b][cc] += x * y
    return Tensor3(out)


def jac_delta(cb: Cobracket, k: int) -> Tensor3:
    """Co-Jacobiator of the cobracket at basis vector e_k: the sum of the
    cyclic rotations of (phi (x) delta) delta(e_k). Vanishes for all k
    exactly when the dual bracket satisfies the Hom-Jacobi identity."""
    a = cb.base
    n = a.dim
    phi = a.twist
    dx = cb.delta(k)
    t = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = dx[i, j]
            if v == 0:
                continue
            dj = cb.delta(j)
            for aa in range(n):
                f = phi[aa, i] * v
                if f == 0:
                    continue
                for b in range(n):
                    row = dj.rows[b]
                    for cc in range(n):
                        if row[cc]:
                            t[aa][b][cc] += f * row[cc]
    base = Tensor3(t)
    return base + cyclic3(base, 1) + cyclic3(base, 2)


def ad_phi_on_tensor3(a: HomLieAlgebra, x: Vector, t: Tensor3) -> Tensor3:
    """(ad_{phi(x)} (x) phi (x) phi + phi (x) ad_{phi(x)} (x) phi
       + phi (x) phi (x) ad_{phi(x)}) t."""
    adpx = a.ad_of(a.twisted(x))
    phi = a.twist
    return (
        apply_triple(adpx, phi, phi, t)
        + apply_triple(phi, adpx, phi, t)
        + apply_triple(phi, phi, adpx, t)
    )


def symmetric_part_invariance(r: RMatrix) -> CheckReport:
    """[x, r + sigma(r)] = 0 for all basis x, i.e. the symmetric part of r
    is killed by every (phi (x) ad_x + ad_x (x) phi)."""
    a = r.base
    sym = r.coeffs + r.coeffs.transpose()
    phi = a.twist

    def cases():
        for k in range(a.dim):
            adk = a.ad(k)
            yield (k + 1,), apply_pair(phi, adk, sym) + apply_pair(adk, phi, sym)

    return scan("symmetric-part-invariance", cases())


def adjoint_kills_r_square(r: RMatrix) -> CheckReport:
    """ad_{phi(x)} [r,r] = 0 for all basis x (the three-slot action)."""
    return _adjoint_kills(r.base, r_square_bracket(r))


def _adjoint_kills(a: HomLieAlgebra, rr: Tensor3) -> CheckReport:
    return scan(
        "adjoint-kills-r-square",
        (((k + 1,), ad_phi_on_tensor3(a, a.basis(k), rr)) for k in range(a.dim)),
    )


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
    require(is_weakly_involutive(a), "coboundary theory needs a weakly involutive base")
    require(check_twist_compat(r), "r must satisfy (phi (x) id) r = (id (x) phi) r")

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
    return scan(
        "chybe",
        (
            ((i + 1, j + 1, k + 1), rr[i, j, k])
            for i, j, k in product(range(r.dim), repeat=3)
        ),
        skew=r.is_skew(),
    )


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
    require(
        is_weakly_involutive(a), "the residual identities assume a weakly involutive base"
    )
    n = a.dim
    phi = a.twist
    cb = cobracket_from_r(r)
    w = phi @ r.coeffs - r.coeffs @ phi.transpose()

    def cases_a():
        for k in range(n):
            x = a.basis(k)
            lhs = cb.delta_of(a.twisted(x)) - apply_pair(phi, phi, cb.delta(k))
            adpx_phi = a.ad_of(a.twisted(x)) @ phi
            rhs = _pair_action_loops(adpx_phi, phi, w) - _pair_action_loops(
                phi, adpx_phi, w
            )
            yield (k + 1,), lhs - rhs

    phi2 = phi @ phi
    ident = Matrix.identity(n)
    inner = _pair_action_loops(phi, ident, w) + _pair_action_loops(ident, phi, w)

    def cases_b():
        for k in range(n):
            dk = cb.delta(k)
            lhs = apply_pair(phi2, ident, dk) - dk
            yield (k + 1,), lhs - _pair_action_loops(phi, a.ad(k), inner)

    def cases_c():
        for i, j in product(range(n), repeat=2):
            x, y = a.basis(i), a.basis(j)
            bxy = a.bracket_of(x, y)
            lhs = cb.delta_of(bxy) - (
                ad_on_tensor2(a, a.twisted(x), cb.delta(j))
                - ad_on_tensor2(a, a.twisted(y), cb.delta(i))
            )
            adb_phi = a.ad_of(bxy) @ phi
            rhs = _pair_action_loops(adb_phi, phi, w) - _pair_action_loops(
                phi, adb_phi, w
            )
            yield (i + 1, j + 1), lhs - rhs

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
    flat = [Vector([x for row in m.rows for x in row]) for m in kernel]
    rng = random.Random(seed)
    cases = count if kernel else 1
    for case in range(cases):
        if flat:
            vec = random_combination(rng, flat)
            coeffs = Matrix([[vec[i * n + j] for j in range(n)] for i in range(n)])
        else:
            coeffs = Matrix.zero(n)
        r = RMatrix(a, coeffs)
        cb = cobracket_from_r(r)
        rr = r_square_bracket(r)
        rep = scan(
            "jacobiator-bracket-suite",
            (
                ((k + 1,), jac_delta(cb, k) - ad_phi_on_tensor3(a, a.basis(k), rr))
                for k in range(n)
            ),
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
    require(is_weakly_involutive(a), "operator route assumes a weakly involutive base")
    require(check_twist_compat(r), "operator route assumes phi r# = r# phi*")
    n = a.dim

    def ad_dual(x: Vector) -> Matrix:
        return -(a.ad_of(a.twisted(x)).transpose())

    box = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for aa in range(n):
        ra = Vector(r.coeffs.rows[aa])  # r#(f_a)
        for b in range(n):
            sb = r.coeffs.col(b)  # sigma(r)#(f_b)
            w = ad_dual(ra).apply(Vector.basis(n, b)) + ad_dual(sb).apply(
                Vector.basis(n, aa)
            )
            box[aa][b] = list(w.entries)
    operator_route = HomLieAlgebra(
        Tensor3(box), a.twist.transpose(), f"{a.label or 'g'}* (operator route)"
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
    require(check_twist_compat(r), "sharp-bracket identity assumes twist compat")
    n = a.dim
    sharp_twisted = r_sharp(r) @ a.twist.transpose()  # r# phi*
    fa = Vector.basis(n, ai)
    fb = Vector.basis(n, bi)
    dual = dual_algebra(cobracket_from_r(r))
    lhs = a.bracket_of(
        sharp_twisted.apply(fa), sharp_twisted.apply(fb)
    ) - sharp_twisted.apply(dual.bracket_of(fa, fb))
    rhs = contract3_first_two(r_square_bracket(r), fa, fb)
    res = lhs - rhs
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
    b = BilinearFormB(gram)
    n = a.dim

    e = a.basis

    def cyclic_sum(x: Vector, y: Vector, z: Vector) -> Q:
        return (
            b.evaluate(a.twisted(x), a.bracket_of(y, z))
            + b.evaluate(a.twisted(y), a.bracket_of(z, x))
            + b.evaluate(a.twisted(z), a.bracket_of(x, y))
        )

    cyclic = scan(
        "cyclic-cocycle",
        (
            ((i + 1, j + 1, k + 1), cyclic_sum(e(i), e(j), e(k)))
            for i, j, k in product(range(n), repeat=3)
        ),
    )
    twist_sym = scan(
        "form-twist-symmetry",
        (
            (
                (i + 1, j + 1),
                b.evaluate(a.twisted(e(i)), e(j)) - b.evaluate(e(i), a.twisted(e(j))),
            )
            for i, j in product(range(n), repeat=2)
        ),
    )

    chybe = r_square_bracket(r).is_zero()
    report = combined(
        "form-from-r",
        [cyclic, twist_sym],
        chybe=chybe,
        converse_discrepancy=(cyclic.ok and twist_sym.ok) != chybe,
    )
    return b, report


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

    coeffs = [[Q(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        coeffs[i][n + i] = Q(1)
    r = RMatrix(big, Matrix(coeffs))

    compat = check_twist_compat(r)
    chybe = check_chybe(r)
    sym_inv = symmetric_part_invariance(r)

    big_bi = HomLieBialgebra(big, cobracket_from_r(r))

    # inclusion of (g, Delta) through phi
    inc1 = Matrix(
        [[a.twist[i, j] for j in range(n)] for i in range(n)]
        + [[Q(0)] * n for _ in range(n)]
    )
    hom1 = check_bialgebra_homomorphism(inc1, bi, big_bi)

    # inclusion of (g*, -delta_{g*}) through phi*
    dual = dual_algebra(bi.cobracket)
    minus_dual_cb = Cobracket(
        dual, cobracket_from_bracket(a, dual).coeffs.scale(Q(-1))
    )
    dual_bi = HomLieBialgebra(dual, minus_dual_cb)
    phit = a.twist.transpose()
    inc2 = Matrix(
        [[Q(0)] * n for _ in range(n)]
        + [[phit[i, j] for j in range(n)] for i in range(n)]
    )
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
