"""Hom-Lie algebras over the rationals.

A Hom-Lie algebra is a finite-dimensional space with a skew bracket and a
linear twist phi that preserves the bracket, where the usual Jacobi
identity is deformed to the cyclic sum of [phi(x), [y, z]]. Setting
phi = Id recovers an ordinary Lie algebra.

Everything is stored in structure constants relative to a fixed basis:
bracket[i][j][k] is the e_k coefficient of [e_i, e_j], and the twist is
the matrix of phi. Constructors only enforce shapes; the mathematical
axioms are checked by validators that return CheckReports, so the CLI can
diagnose a bad structure instead of refusing to look at it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .report import CheckReport, combined, scan
from .tensor import Matrix, ShapeError, Tensor3, Vector, Q


@dataclass(frozen=True)
class HomLieAlgebra:
    bracket: Tensor3  # bracket[i][j][k]: coefficient of e_k in [e_i, e_j]
    twist: Matrix
    label: str = ""

    def __post_init__(self):
        n = self.twist.nrows
        if self.twist.ncols != n:
            raise ShapeError("twist must be square")
        if self.bracket.dims != (n, n, n):
            raise ShapeError(
                f"bracket dims {self.bracket.dims} do not match twist size {n}"
            )

    @property
    def dim(self) -> int:
        return self.twist.nrows

    def bracket_of(self, x: Vector, y: Vector) -> Vector:
        """[x, y] by bilinear extension of the structure constants."""
        n = self.dim
        out = [Q(0)] * n
        for i in range(n):
            xi = x[i]
            if xi == 0:
                continue
            for j in range(n):
                yj = y[j]
                if yj == 0:
                    continue
                c = xi * yj
                row = self.bracket.entries[i][j]
                for k in range(n):
                    if row[k]:
                        out[k] += c * row[k]
        return Vector(out)

    def ad(self, i: int) -> Matrix:
        """Matrix of ad_{e_i}: column j is [e_i, e_j]."""
        n = self.dim
        return Matrix(
            [[self.bracket[i, j, k] for j in range(n)] for k in range(n)]
        )

    def ad_of(self, x: Vector) -> Matrix:
        """Matrix of ad_x = sum_i x_i ad_{e_i}."""
        out = Matrix.zero(self.dim)
        for i in range(self.dim):
            if x[i]:
                out = out + self.ad(i).scale(x[i])
        return out

    def basis(self, i: int) -> Vector:
        return Vector.basis(self.dim, i)

    def twisted(self, x: Vector) -> Vector:
        return self.twist.apply(x)


@dataclass(frozen=True)
class BilinearFormB:
    """A bilinear form given by its Gram matrix, B(e_i, e_j) = gram[i][j].

    Nothing is assumed: symmetry, nondegeneracy, and invariance are all
    checked by check_invariant_form, never baked in.
    """

    gram: Matrix

    def __post_init__(self):
        if self.gram.nrows != self.gram.ncols:
            raise ShapeError("Gram matrix must be square")

    @property
    def dim(self) -> int:
        return self.gram.nrows

    def evaluate(self, x: Vector, y: Vector) -> Q:
        return x.dot(self.gram.apply(y))


def validate_hom_lie(a: HomLieAlgebra) -> CheckReport:
    """Skew bracket, bracket-preserving twist, Hom-Jacobi, all on basis tuples."""
    n = a.dim
    e = a.basis
    skew = scan(
        "bracket-skew",
        (
            ((i + 1, j + 1), a.bracket.plane(i).row(j) + a.bracket.plane(j).row(i))
            for i, j in product(range(n), repeat=2)
        ),
    )
    mult = scan(
        "twist-multiplicative",
        (
            (
                (i + 1, j + 1),
                a.twisted(a.bracket_of(e(i), e(j)))
                - a.bracket_of(a.twisted(e(i)), a.twisted(e(j))),
            )
            for i, j in product(range(n), repeat=2)
        ),
    )
    jac = scan(
        "hom-jacobi",
        (
            ((i + 1, j + 1, k + 1), hom_jacobiator(a, e(i), e(j), e(k)))
            for i, j, k in product(range(n), repeat=3)
        ),
    )
    return combined("hom-lie", [skew, mult, jac])


def hom_jacobiator(a: HomLieAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """[phi(x),[y,z]] + [phi(y),[z,x]] + [phi(z),[x,y]]."""
    return (
        a.bracket_of(a.twisted(x), a.bracket_of(y, z))
        + a.bracket_of(a.twisted(y), a.bracket_of(z, x))
        + a.bracket_of(a.twisted(z), a.bracket_of(x, y))
    )


def is_weakly_involutive(a: HomLieAlgebra) -> CheckReport:
    """[phi^2(x), y] = [x, y] on all basis pairs."""
    n = a.dim
    e = a.basis
    phi2 = a.twist @ a.twist

    def cases():
        for i in range(n):
            xi2 = phi2.apply(e(i))
            for j in range(n):
                yield (i + 1, j + 1), a.bracket_of(xi2, e(j)) - a.bracket_of(e(i), e(j))

    return scan("weakly-involutive", cases())


def check_invariant_form(a: HomLieAlgebra, b: BilinearFormB) -> CheckReport:
    """B([x,y],z) = B(x,[phi(y),z]) and B(phi(x),y) = B(x,phi(y)).

    The scan walks the target argument z in the outer loop ("for each
    probe direction, try all pairs"), so the reported witness is the
    first (i, j, k) in that order. Symmetry and nondegeneracy of the Gram
    matrix are reported as informational flags, not as pass/fail input.
    """
    if b.dim != a.dim:
        raise ShapeError("form dimension does not match algebra")
    n = a.dim
    e = a.basis
    bracket_inv = scan(
        "form-invariance-bracket",
        (
            (
                (i + 1, j + 1, k + 1),
                b.evaluate(a.bracket_of(e(i), e(j)), e(k))
                - b.evaluate(e(i), a.bracket_of(a.twisted(e(j)), e(k))),
            )
            for k, i, j in product(range(n), repeat=3)
        ),
    )
    twist_inv = scan(
        "form-invariance-twist",
        (
            (
                (i + 1, j + 1),
                b.evaluate(a.twisted(e(i)), e(j)) - b.evaluate(e(i), a.twisted(e(j))),
            )
            for i, j in product(range(n), repeat=2)
        ),
    )
    return combined(
        "invariant-form",
        [bracket_inv, twist_inv],
        symmetric=b.gram.is_symmetric(),
        nondegenerate=b.gram.det() != 0,
    )


def form_to_equivalence(a: HomLieAlgebra, b: BilinearFormB) -> Matrix:
    """Matrix of x |-> B(x, .) as a map into the dual, columns in the dual basis.

    Requires B nondegenerate. The returned map intertwines the adjoint
    action with the dual action and phi with phi*; that is asserted here
    (it is equivalent to invariance of B), so a non-invariant form is
    rejected with the failing report attached.
    """
    from .report import require
    from .representation import adjoint_rep, check_rep_equivalence, dual_action_candidate

    if b.gram.det() == 0:
        raise ShapeError("form_to_equivalence needs a nondegenerate form")
    m = b.gram.transpose()  # column i = coordinates of B(e_i, .) in the dual basis
    require(
        check_rep_equivalence(adjoint_rep(a), dual_action_candidate(adjoint_rep(a)), m),
        "the form map does not intertwine the adjoint and dual actions "
        "(the form is not invariant)",
    )
    return m


def equivalence_to_form(a: HomLieAlgebra, psi: Matrix) -> BilinearFormB:
    """Gram matrix of B(x, y) := <psi(x), y> for an equivalence psi: g -> g*.

    Invariance of the resulting form is asserted; symmetry is not (and
    genuinely can fail), so callers that need a symmetric form must check
    the flag themselves.
    """
    from .report import require

    if psi.nrows != a.dim or psi.ncols != a.dim:
        raise ShapeError("equivalence matrix has wrong shape")
    if psi.det() == 0:
        raise ShapeError("equivalence_to_form needs an invertible map")
    b = BilinearFormB(psi.transpose())  # gram[i][j] = <psi(e_i), e_j> = psi[j][i]
    require(
        check_invariant_form(a, b),
        "the map is not an equivalence onto the dual action: induced form "
        "is not invariant",
    )
    return b


@dataclass(frozen=True)
class InvariantFormSpace:
    """Solution space of the invariance equations, as Gram matrices."""

    basis: tuple[Matrix, ...]
    symmetric_basis: tuple[Matrix, ...]
    has_nondegenerate: bool
    has_nondegenerate_symmetric: bool


def invariant_form_space(a: HomLieAlgebra) -> InvariantFormSpace:
    """Solve the invariance identities as a linear system in the Gram entries.

    Existence of a nondegenerate solution is decided by whether the
    determinant of a generic element of the solution space is the zero
    polynomial (over an infinite field a nonzero polynomial has a rational
    non-root), computed symbolically.
    """
    n = a.dim
    nun = n * n  # unknowns g[i][j] at index i*n + j
    rows: list[list[Q]] = []

    for i in range(n):
        for j in range(n):
            bij = a.bracket.entries[i][j]
            phiy = a.twisted(a.basis(j))
            for k in range(n):
                row = [Q(0)] * nun
                # B([e_i,e_j], e_k) = sum_l c_ij^l g[l][k]
                for l in range(n):
                    row[l * n + k] += bij[l]
                # minus B(e_i, [phi(e_j), e_k]) = sum_l [phi e_j, e_k]_l g[i][l]
                w = a.bracket_of(phiy, a.basis(k))
                for l in range(n):
                    row[i * n + l] -= w[l]
                rows.append(row)

    for i in range(n):
        for j in range(n):
            row = [Q(0)] * nun
            # B(phi e_i, e_j) - B(e_i, phi e_j)
            for p in range(n):
                row[p * n + j] += a.twist[p, i]
            for q in range(n):
                row[i * n + q] -= a.twist[q, j]
            rows.append(row)

    from .tensor import nullspace

    sols = nullspace(Matrix(rows))
    basis = tuple(
        Matrix([[v[i * n + j] for j in range(n)] for i in range(n)]) for v in sols
    )

    sym_rows = list(rows)
    for i in range(n):
        for j in range(i + 1, n):
            row = [Q(0)] * nun
            row[i * n + j] = Q(1)
            row[j * n + i] = Q(-1)
            sym_rows.append(row)
    sym_sols = nullspace(Matrix(sym_rows))
    sym_basis = tuple(
        Matrix([[v[i * n + j] for j in range(n)] for i in range(n)]) for v in sym_sols
    )

    return InvariantFormSpace(
        basis,
        sym_basis,
        _generic_det_nonzero(basis, n),
        _generic_det_nonzero(sym_basis, n),
    )


def _generic_det_nonzero(mats: tuple[Matrix, ...], n: int) -> bool:
    if not mats:
        return False
    import sympy

    ts = sympy.symbols(f"t0:{len(mats)}")
    generic = sympy.zeros(n, n)
    for t, m in zip(ts, mats):
        generic += t * sympy.Matrix([[sympy.Rational(x) for x in row] for row in m.rows])
    return sympy.expand(generic.det()) != 0


def change_of_basis(a: HomLieAlgebra, p: Matrix) -> HomLieAlgebra:
    """Rewrite the structure in the basis e'_i = sum_k p[k][i] e_k.

    Used by the basis-independence tests; the verdict of every validator
    is invariant under this operation.
    """
    n = a.dim
    if p.nrows != n or p.ncols != n:
        raise ShapeError("change of basis matrix has wrong shape")
    pinv = p.inverse()
    new_twist = pinv @ a.twist @ p
    planes = []
    for i in range(n):
        plane = []
        for j in range(n):
            w = a.bracket_of(p.col(i), p.col(j))
            plane.append(pinv.apply(w).entries)
        planes.append(plane)
    return HomLieAlgebra(Tensor3(planes), new_twist, a.label)


def direct_sum(a1: HomLieAlgebra, a2: HomLieAlgebra, label: str = "") -> HomLieAlgebra:
    """Block-diagonal sum: brackets and twists act componentwise, cross terms 0."""
    n1, n2 = a1.dim, a2.dim
    n = n1 + n2
    box = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            for k in range(n1):
                box[i][j][k] = a1.bracket[i, j, k]
    for i in range(n2):
        for j in range(n2):
            for k in range(n2):
                box[n1 + i][n1 + j][n1 + k] = a2.bracket[i, j, k]
    tw = [[Q(0)] * n for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            tw[i][j] = a1.twist[i, j]
    for i in range(n2):
        for j in range(n2):
            tw[n1 + i][n1 + j] = a2.twist[i, j]
    return HomLieAlgebra(Tensor3(box), Matrix(tw), label or f"{a1.label}(+){a2.label}")
