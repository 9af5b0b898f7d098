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
from functools import cached_property

from .bialgebra import (
    Cobracket,
    HomLieBialgebra,
    check_bialgebra_homomorphism,
    cobracket_compatibility,
    cobracket_from_bracket,
    d_double,
    validate_bialgebra,
)
from .hom_lie import (
    HomLieAlgebra,
    _twist_symmetry,
    is_weakly_involutive,
    require_same_algebra,
    twist_symmetry,
    twisted_ad,
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
    _SAMPLE,
    Matrix,
    Q,
    ShapeError,
    Sparse,
    Tensor3,
    contract,
    contract_sum,
    dense,
    first_case,
    matrix_kernel,
    skew_stack,
    sparse,
    unit_stack,
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

    @cached_property
    def bialgebra(self) -> HomLieBialgebra:
        """(g, delta) with the cobracket r induces, built once per r."""
        return HomLieBialgebra(cobracket_from_r(self))


def check_twist_compat(r: RMatrix) -> CheckReport:
    """(phi (x) id) r = (id (x) phi) r, the operator form phi r# = r# phi*
    (as matrices: phi r = r phi^T), reported as one matrix residual."""
    return scan("twist-compat", _twist_symmetry(r.base.twist.transpose(), r.coeffs), (r.dim,) * 2)


def twist_compat_kernel(a: HomLieAlgebra) -> list[Matrix]:
    """Basis of {r : phi r = r phi^T}, the space of twist-compatible r."""
    stack = unit_stack(a.dim, a.dim)
    return matrix_kernel(stack, _twist_symmetry(a.twist.transpose(), stack, _SAMPLE))


def skew_twist_compat_kernel(a: HomLieAlgebra) -> list[Matrix]:
    """Basis of the twist-compatible r that are also skew-symmetric, solved over
    the skew unknowns E_pq - E_qp, p > q."""
    stack = skew_stack(a.dim)
    return matrix_kernel(stack, _twist_symmetry(a.twist.transpose(), stack, _SAMPLE))


def cobracket_from_r(r: RMatrix) -> Cobracket:
    """delta(e_k) = (phi (x) ad_{e_k} + ad_{e_k} (x) phi) r."""
    return Cobracket(r.base, dense(_basis_action(r.base, r.coeffs), (r.dim,) * 3))


def _basis_action(a: HomLieAlgebra, t, batch: str = "") -> Sparse:
    """Entry (k, p, q): entry (p, q) of (phi (x) ad_{e_k} + ad_{e_k} (x) phi) t.

    With a batch letter, t and the result carry a sample index first: one
    slice per sample. The same holds for every evaluator here that takes one."""
    c, phi, z = a.bracket, a.twist, batch
    st = (z + "st", t)
    return contract_sum(z + "kpq", (1, [("ps", phi), st, ("ktq", c)]), (1, [("ksp", c), st, ("qt", phi)]))


def r_square_bracket(r: RMatrix) -> Tensor3:
    """[r,r] = sum over tensor factors x_i (x) y_i of r:

        [x_i,x_j] (x) phi(y_i) (x) phi(y_j)
      + phi(x_i) (x) [y_i,x_j] (x) phi(y_j)
      + phi(x_i) (x) phi(x_j) (x) [y_i,y_j],

    each term a contraction of the bracket with phi r and r phi^T.
    """
    return dense(contract_sum("abc", *_r_square(r.base, r.coeffs, "", r.coeffs, "")), (r.dim,) * 3)


def _r_square(a: HomLieAlgebra, r, batch: str, s, batch2: str) -> list:
    """The terms, for contract_sum on batch + batch2 + "abc", of entry (a, b, c) of
    the bilinear form [r,s] of the coefficients r on the batch letter batch and s on
    batch2, whose value at s = r, with both letters empty, is [r,r]: each term takes
    its first copy of the r-matrix from r and its second from s. Every term holds the
    bracket, so with a zero bracket there are none, and no twist product is built."""
    c, phi, y, z = a.bracket, a.twist, batch, batch2
    if c.is_zero():
        return []
    phir, rphit = _slot_twists(phi, r, y)
    phis, sphit = (phir, rphit) if s is r else _slot_twists(phi, s, z)
    return [
        (1, [("psa", c), (y + "pb", rphit), (z + "sc", sphit)]),
        (1, [(y + "aq", phir), ("qsb", c), (z + "sc", sphit)]),
        (1, [(y + "aq", phir), ("qtc", c), (z + "bt", phis)]),
    ]


def _slot_twists(phi, t, batch: str = "") -> tuple[Sparse, Sparse]:
    """(phi t, t phi^T): phi on the first slot of the 2-tensor with coefficients t,
    and phi on its second, batched as _basis_action."""
    z = batch
    return contract(z + "ij", ("ip", phi), (z + "pj", t)), contract(z + "ij", (z + "ip", t), ("jp", phi))


def _co_jacobiator(a: HomLieAlgebra, d, batch: str, e, batch2: str) -> list:
    """The terms, for contract_sum on batch + batch2 + "kabc", of entry (k, a, b, c):
    entry (a, b, c) of the sum of the cyclic rotations of (phi (x) delta') delta(e_k),
    for the cobrackets delta with coefficients d on the batch letter batch and delta'
    with coefficients e on batch2. At e = d, with both letters empty, it is the
    co-Jacobiator of the cobracket on a with coefficients d, which vanishes for all
    k exactly when the dual bracket satisfies the Hom-Jacobi identity."""
    lead = batch + batch2
    operands = [(batch + "kij", d), ("ai", a.twist), (batch2 + "jbc", e)]
    return [(1, operands, lead + "kabc", lead + "kbca", lead + "kcab")]


def _adjoint_on(a: HomLieAlgebra, t, batch: str = "") -> list:
    """The terms, for contract_sum on batch + "kabc", of entry (k, a, b, c): entry
    (a, b, c) of (ad_{phi(x)} (x) phi (x) phi + phi (x) ad_{phi(x)} (x) phi
    + phi (x) phi (x) ad_{phi(x)}) t at x = e_k."""
    ad, phi, z = twisted_ad(a), a.twist, batch
    return [
        (1, [(z + "pqs", t), ("bq", phi), ("cs", phi), ("kpa", ad)]),
        (1, [(z + "pqs", t), ("ap", phi), ("cs", phi), ("kqb", ad)]),
        (1, [(z + "pqs", t), ("ap", phi), ("bq", phi), ("ksc", ad)]),
    ]


def symmetric_part_invariance(r: RMatrix) -> CheckReport:
    """[x, r + sigma(r)] = 0 for all basis x, i.e. the symmetric part of r
    is killed by every (phi (x) ad_x + ad_x (x) phi)."""
    res = _basis_action(r.base, r.coeffs + r.coeffs.transpose())
    return scan("symmetric-part-invariance", res, (r.dim,) * 3, 1)


def _adjoint_kills(a: HomLieAlgebra, rr: Tensor3) -> CheckReport:
    res = contract_sum("kabc", *_adjoint_on(a, rr))
    return scan("adjoint-kills-r-square", res, (a.dim,) * 4, 1)


def dual_side_verdict(r: RMatrix) -> CheckReport:
    """The dual side judged on its own: the bracket induced on g* by
    delta is a valid weakly involutive Hom-Lie algebra."""
    side = r.bialgebra.dual_side
    return combined("dual-weakly-involutive-hom-lie", [side.hom_lie, side.weakly_involutive])


def validate_coboundary(a: HomLieAlgebra, r: RMatrix) -> CheckReport:
    """Conditions (i) and (ii) over a weakly involutive base with
    twist-compatible r, cross-checked against the directly computed dual
    side; the biconditional itself is part of the verdict.

    info["classification"]: triangular (skew solution), quasitriangular
    (solution), coboundary (conditions hold, [r,r] != 0), or none.

    a must be r's algebra (ShapeError otherwise); it stays for positional callers.
    """
    require_same_algebra(a, r.base, "r lives on a different algebra")
    return _validate_coboundary(r, None)


def _validate_coboundary(r: RMatrix, rr: Tensor3 | None) -> CheckReport:
    """validate_coboundary, reusing [r,r] when the caller already has it."""
    require(is_weakly_involutive(r.base), "coboundary theory needs a weakly involutive base")
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
    return scan("chybe", rr, nscan=3, skew=r.is_skew())


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
# Both sides are contractions: the left sides contract the cobracket delta,
# the right sides contract w with ad_{phi e_k} phi and ad_{[e_i,e_j]} phi,
# each built once for every basis element or pair. tests/oracles.py sums both
# sides again from their definitions, with code that shares nothing with this.

# Each identity's name, and how many leading indices name its cases: x = e_k
# for (a) and (b), (x, y) = (e_i, e_j) for (c).
_RESIDUALS = (
    ("residual-twist-pushforward", 1),
    ("residual-square-twist", 1),
    ("residual-compatibility", 2),
)


def _twisted_adjoints(a: HomLieAlgebra) -> tuple[Sparse, Sparse]:
    """The two contractions of the right sides that do not depend on r: entry
    (k, m, u) of the first is entry (m, u) of ad_{phi e_k} phi, and entry
    (i, j, m, u) of the second is entry (m, u) of ad_{[e_i, e_j]} phi."""
    c, phi = a.bracket, a.twist
    return (
        contract("kmu", ("ik", phi), ("ijm", c), ("ju", phi)),
        contract("ijmu", ("ijs", c), ("slm", c), ("lu", phi)),
    )


def _residual_sides(a: HomLieAlgebra, r, adjoints: tuple, batch: str = "") -> list[tuple[str, list, list]]:
    """(out, terms of the left side, terms of the right side) of each of (a), (b),
    (c) for the coefficients r, for contract_sum on out: entry (k, p, q), or
    (i, j, p, q) for (c), is entry (p, q) of that side at x = e_k, or at (x, y) =
    (e_i, e_j). adjoints is _twisted_adjoints(a), which a suite builds once for
    all its chunks. Every term holds the bracket or d, which holds it, so with a
    zero bracket no side has a term, and no product of w is built."""
    c, phi, z = a.bracket, a.twist, batch
    if c.is_zero():
        return [(out, [], []) for out in (z + "kpq", z + "kpq", z + "ijpq")]
    d = _basis_action(a, r, z)
    w = _twist_symmetry(phi.transpose(), r, z)
    phi_w, w_phi = _slot_twists(phi, w, z)  # (phi (x) id) w and (id (x) phi) w
    both = phi_w + w_phi

    def skew_action(x, lead: str) -> list:
        """(X (x) phi - phi (x) X) w for the matrix X = x at each value of `lead`."""
        return [(1, [(lead + "pu", x), (z + "uq", w_phi)]), (-1, [(z + "pv", phi_w), (lead + "qv", x)])]

    ad_phi, ad_bracket = adjoints
    return [
        (
            z + "kpq",
            [(1, [("xk", phi), (z + "xpq", d)]), (-1, [(z + "kst", d), ("ps", phi), ("qt", phi)])],
            skew_action(ad_phi, "k"),
        ),
        (
            z + "kpq",
            [(1, [(z + "ksq", d), ("ps", phi @ phi)]), (-1, [(z + "kpq", d)])],
            [(1, [("pu", phi), (z + "uv", both), ("kvq", c)])],
        ),
        (z + "ijpq", cobracket_compatibility(a, d, z), skew_action(ad_bracket, "ij")),
    ]


def _residuals(a: HomLieAlgebra, r, adjoints: tuple, batch: str = "") -> list[tuple[str, list]]:
    """(out, terms for contract_sum on out) of left side minus right side of each
    of (a), (b), (c), as _residual_sides."""
    sides = _residual_sides(a, r, adjoints, batch)
    return [(out, [*lhs, *((-c, *rest) for c, *rest in rhs)]) for out, lhs, rhs in sides]


# --- the three proofs -------------------------------------------------------
#
# Each suite proves one identity for every r (or T) in a space with a basis K_1..K_k,
# from finitely many exact evaluations. The residual identities are linear in r, so
# they hold for all r exactly when they hold at the n^2 unit matrices E_pq. The
# Jacobiator identity and the defect expansion are quadratic, Q(r) = B(r, r) for a
# bilinear form B, and over Q a quadratic form vanishes on a span exactly when its
# polarisation (B(r, s) + B(s, r)) / 2 vanishes at every pair of basis elements, so
# the suite evaluates B with r on the batch letter _SAMPLE and s on _SECOND and reads
# it at the pairs a <= b; at a = b it is the identity's own residual at K_a.
#
# The basis is stacked, in order, into one tensor whose first index is the element,
# and a chunk of it (the first element of each pair) is evaluated in one contraction
# per term. A chunk takes _SUITE_ENTRIES over an estimate of one element's residual
# (_chunk). The verdict is that of the least failing element or pair, and in it of
# the first failing identity; an empty basis passes with nothing to prove.

_SUITE_ENTRIES = 12_000
_SECOND = "y"  # the batch letter of the second element of a pair


def _chunk(a: HomLieAlgebra, count: int, paired: bool = False) -> int:
    """How many of the count elements of a basis a chunk takes: _SUITE_ENTRIES over
    an estimate of the entries one element brings. That is the number of nonzero
    bracket constants of a, which every residual term holds, times count when the
    element is paired with each, plus the number of nonzero twist entries, for the
    products of the element with the twist alone. A chunk takes them all when
    both are zero."""
    size = len(sparse(a.bracket)) * (count if paired else 1) + len(sparse(a.twist))
    return max(1, _SUITE_ENTRIES // size) if size else max(1, count)


def _first_failure(basis: list, step: int, residuals, paired: bool = False):
    """The first failure of a suite over a basis (arrays, or Sparse views, of one
    shape), its elements step at a time. residuals(stack) gives, for a stack of
    elements (one Sparse, the element's index first), the suite's residuals in
    report order as (out, terms for contract_sum on out, shape of one element's
    residual, number of scanned indices). When paired, residuals(stack, other)
    gives the bilinear residuals with the stack on _SAMPLE and other on _SECOND,
    out's first two letters, and the pairs are scanned through the halved
    symmetrisation. Returns (case: the 1-based element, or pair a <= b; position
    of its first failing residual; 1-based indices; residual block), or None when
    every residual vanishes."""
    for start in range(0, len(basis), step):
        chunk = basis[start : start + step]
        head, lead = sparse(chunk), (len(chunk),)
        if paired:
            # the pairs (a, b) with a in this chunk and b >= start; the least failing
            # one has a <= b, as the form is symmetric
            tail = head if start + step >= len(basis) else sparse(basis[start:])
            lead += (len(basis) - start,)
            ahead = residuals(head, tail)
            behind = ahead if tail is head else residuals(tail, head)
            evaluated = [
                (out, _symmetrised(out, terms, back), shape, nscan)
                for (out, terms, shape, nscan), (_, back, _, _) in zip(ahead, behind)
            ]
        else:
            evaluated = residuals(head)
        found = []
        for pos, (out, terms, shape, nscan) in enumerate(evaluated):
            first = first_case(contract_sum(out, *terms), (*lead, *shape), len(lead) + nscan)
            if first is not None:
                at, block = first
                found.append((at[: len(lead)], pos, at[len(lead) :], block))
        if found:
            case, pos, at, block = min(found, key=lambda f: f[:2])
            if paired:
                block = block.scale(Q(1, 2))
            return tuple(start + i for i in case), pos, at, block
    return None


def _symmetrised(out: str, terms: list, back: list) -> list:
    """The terms of a residual on out plus back's read with out's first two letters
    swapped. When back is terms, each term is read both ways, so that its
    contraction is made once."""
    swap = str.maketrans(out[:2], out[1::-1])
    both = back is terms
    summed = [] if both else list(terms)
    for c, operands, *reads in back:
        reads = reads or [out]
        summed.append((c, operands, *(reads if both else ()), *(read.translate(swap) for read in reads)))
    return summed


def run_residual_suite(a: HomLieAlgebra, seed=None, count=None) -> CheckReport:
    """Proves the residual identities for every r (arbitrary, not twist-compatible)
    from their residuals at the unit matrices E_pq, evaluated together in chunks. A
    pass gives the dimension n^2 of the space of r; a failure names the first
    failing E_pq (case, 1-based (p, q)) and its first failing identity. seed and
    count are ignored."""
    require(
        is_weakly_involutive(a), "the residual identities assume a weakly involutive base"
    )
    n, adjoints = a.dim, _twisted_adjoints(a)

    def residuals(stack):
        evaluated = zip(_RESIDUALS, _residuals(a, stack, adjoints, _SAMPLE))
        return [(out, terms, (n,) * (2 + nscan), nscan) for (_, nscan), (out, terms) in evaluated]

    units = [Sparse({(p, q): 1}) for p in range(n) for q in range(n)]
    found = _first_failure(units, _chunk(a, n * n), residuals)
    if found is None:
        return passed("residual-suite", space_dim=n * n)
    (unit,), pos, at, block = found
    p, q = divmod(unit - 1, n)
    return failed(
        "residual-suite", [Witness(at, block)], case=(p + 1, q + 1), identity=_RESIDUALS[pos][0]
    )


def run_jacobiator_suite(a: HomLieAlgebra, seed=None, count=None) -> CheckReport:
    """Proves Jac_delta(x) = ad_{phi(x)} [r,r], all basis x, for every skew
    twist-compatible r, from the polarised identity at the pairs of the basis of
    skew_twist_compat_kernel. info holds kernel_dim; a failure names the first
    failing pair (case, 1-based (a, b) with a <= b), and its witness is the halved
    symmetrisation there. seed and count are ignored."""
    kernel = skew_twist_compat_kernel(a)
    n, y, z = a.dim, _SAMPLE, _SECOND

    def residuals(r, s):
        d = _basis_action(a, r, y)
        e = d if s is r else _basis_action(a, s, z)
        square = contract_sum(y + z + "abc", *_r_square(a, r, y, s, z))
        adjoint = [(-c, ops) for c, ops in _adjoint_on(a, square, y + z)]
        return [(y + z + "kabc", [*_co_jacobiator(a, d, y, e, z), *adjoint], (n,) * 4, 1)]

    found = _first_failure(kernel, _chunk(a, len(kernel), True), residuals, paired=True)
    if found is None:
        return passed("jacobiator-bracket-suite", kernel_dim=len(kernel))
    case, _, at, block = found
    return failed(
        "jacobiator-bracket-suite", [Witness(at, block)], case=case, kernel_dim=len(kernel)
    )


# --- the r# operator calculus ------------------------------------------------

def dual_bracket_from_r(r: RMatrix) -> HomLieAlgebra:
    """The bracket on g* (g the algebra r lives on) via the operator route

        [f_a, f_b] = ad"_{r#(f_a)} f_b + ad"_{sigma(r)#(f_b)} f_a

    (ad" the dual of the adjoint action), asserted equal, entry for entry,
    to dual_algebra(cobracket_from_r(r)).
    """
    a = r.base
    require(is_weakly_involutive(a), "operator route assumes a weakly involutive base")
    require(check_twist_compat(r), "operator route assumes phi r# = r# phi*")
    # ad"_x f_b = -sum_p phi(x)_p [e_p, .]_b, at x = r#(f_a) = row a of r and
    # at x = sigma(r)#(f_b) = column b of r
    c, phi = a.bracket, a.twist
    rc = r.coeffs
    box = contract_sum(
        "abl", (-1, [("aq", rc), ("pq", phi), ("plb", c)]), (-1, [("qb", rc), ("pq", phi), ("pla", c)])
    )
    operator_route = HomLieAlgebra(
        dense(box, (a.dim,) * 3), phi.transpose(), f"{a.label or 'g'}* (operator route)"
    )

    cobracket_route = r.bialgebra.dual
    require(
        scan("dual-bracket-routes-agree", operator_route.bracket - cobracket_route.bracket),
        "operator and cobracket routes to the dual bracket disagree",
    )
    return operator_route


def form_from_invertible_r(r: RMatrix) -> tuple["BilinearFormB", CheckReport]:
    """For skew invertible twist-compatible r: the form B(x,y) =
    <(r#)^{-1}(x), y> on the algebra r lives on, whose Gram matrix is the
    inverse of the coefficient matrix. Reports the cyclic 2-cocycle identity

        B(phi x,[y,z]) + B(phi y,[z,x]) + B(phi z,[x,y]) = 0

    and B(phi x, y) = B(x, phi y). These hold iff r solves the
    Hom-Yang-Baxter equation; agreement of the two sides is recorded in
    info (a discrepancy is flagged, not failed)."""
    from .hom_lie import BilinearFormB

    a = r.base
    require(scan("r-skew", r.coeffs + r.coeffs.transpose()), "form_from_invertible_r needs a skew r")
    if r.coeffs.det() == 0:
        raise InvalidStructureError(
            "form_from_invertible_r needs invertible r#",
            failed("r-sharp-invertible", [Witness((0,), Q(0), "determinant is zero")]),
        )
    require(check_twist_compat(r), "form_from_invertible_r assumes twist compat")

    gram = r.coeffs.inverse()
    # entry (i, j, k): B(phi e_i, [e_j, e_k]), then summed over cyclic shifts of (i, j, k)
    t = contract_sum("ijk", (1, [("pi", a.twist), ("pq", gram), ("jkq", a.bracket)], "ijk", "jki", "kij"))
    cyclic = scan("cyclic-cocycle", t, (a.dim,) * 3, 3)
    twist_sym = twist_symmetry(a, gram, "form-twist-symmetry")

    chybe = r_square_bracket(r).is_zero()
    report = combined(
        "form-from-r",
        [cyclic, twist_sym],
        chybe=chybe,
        converse_discrepancy=(cyclic.ok and twist_sym.ok) != chybe,
    )
    return BilinearFormB(gram), report


def hom_double(bi: HomLieBialgebra) -> tuple[HomLieBialgebra, RMatrix, CheckReport]:
    """The canonical structure on g (+) g*: the d-bracket double with the
    cobracket of r = sum_i e_i (x) f_i, as a bialgebra, together with r. Asserts,
    over the double: twist compatibility of r, [r,r] = 0, invariance of the
    symmetric part, and that both block inclusions (x |-> phi(x) from (g, Delta);
    a |-> phi*(a) from (g*, -delta_{g*})) are bialgebra homomorphisms."""
    require(validate_bialgebra(bi), "hom_double needs a valid bialgebra")
    a = bi.algebra
    n = a.dim
    big = d_double(bi)

    r = RMatrix(big, dense({(i, n + i): Q(1) for i in range(n)}, (2 * n, 2 * n)))

    compat = check_twist_compat(r)
    chybe = check_chybe(r)
    sym_inv = symmetric_part_invariance(r)

    big_bi = r.bialgebra

    # inclusion of (g, Delta) through phi
    inc1 = dense(sparse(a.twist), (2 * n, n))
    hom1 = check_bialgebra_homomorphism(inc1, bi, big_bi)

    # inclusion of (g*, -delta_{g*}) through phi*
    dual = bi.dual
    minus_dual_cb = Cobracket(
        dual, cobracket_from_bracket(a, dual).coeffs.scale(Q(-1))
    )
    dual_bi = HomLieBialgebra(minus_dual_cb)
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
    return big_bi, r, report
