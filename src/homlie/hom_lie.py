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

from .report import CheckReport, Witness, combined, failed, scan
from .tensor import (
    _SAMPLE,
    Matrix,
    PencilCertificate,
    ShapeError,
    Sparse,
    Tensor3,
    contract,
    contract_sum,
    decide_pencil,
    dense,
    matrix_kernels,
    sparse,
    unit_stack,
)


@dataclass(frozen=True)
class HomLieAlgebra:
    bracket: Tensor3  # bracket[i][j][k]: coefficient of e_k in [e_i, e_j]
    twist: Matrix
    label: str = ""

    def __post_init__(self):
        n = self.twist.nrows
        if self.twist.ncols != n:
            raise ShapeError("twist must be square")
        if self.bracket.shape != (n, n, n):
            raise ShapeError(f"bracket dims {self.bracket.shape} do not match twist size {n}")

    @property
    def dim(self) -> int:
        return self.twist.nrows


def twisted_ad(a: HomLieAlgebra) -> Sparse:
    """Entry (i, j, k): the e_k coefficient of [phi(e_i), e_j]."""
    return contract("ijk", ("pi", a.twist), ("pjk", a.bracket))


def require_same_algebra(a: HomLieAlgebra, b: HomLieAlgebra, message: str) -> None:
    """ShapeError(message) unless a and b are one object or share bracket and twist."""
    if a is not b and (a.bracket != b.bracket or a.twist != b.twist):
        raise ShapeError(message)


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


def validate_hom_lie(a: HomLieAlgebra) -> CheckReport:
    """Skew bracket, bracket-preserving twist, Hom-Jacobi; each residual is
    scanned over basis tuples in row-major order."""
    shape = (a.dim,) * 4
    return combined(
        "hom-lie",
        [
            scan("bracket-skew", _skew(a), shape[:3], 2),
            scan("twist-multiplicative", _multiplicative(a.twist, a.bracket, a.bracket), shape[:3], 2),
            scan("hom-jacobi", _jacobiator(a), shape, 3),
        ],
    )


def _skew(a: HomLieAlgebra) -> Sparse:
    """Entry (i, j, k): the e_k coefficient of [e_i, e_j] + [e_j, e_i]."""
    return contract_sum("ijk", (1, [("ijk", a.bracket)], "ijk", "jik"))


def _multiplicative(f, source, target) -> Sparse:
    """Entry (i, j, l): the e_l coefficient of f(e_i e_j) - f(e_i) f(e_j), for the
    map with matrix f and the products with structure constants source on its
    domain and target on its codomain."""
    return contract_sum("ijl", (1, [("ijk", source), ("lk", f)]), (-1, [("pi", f), ("pql", target), ("qj", f)]))


def _intertwining(x, source, target, batch: str = "") -> Sparse:
    """Entry (i, j) of X A - B X, for the map X with matrix x from the space with the
    map A = source to the space with B = target. With a batch letter, x and the
    result carry a sample index first: one slice per sample."""
    z = batch
    return contract_sum(z + "ij", (1, [(z + "ik", x), ("kj", source)]), (-1, [("ik", target), (z + "kj", x)]))


def _jacobiator(a: HomLieAlgebra) -> Sparse:
    """Entry (i, j, k, l): the e_l coefficient of
    [phi e_i, [e_j, e_k]] + [phi e_j, [e_k, e_i]] + [phi e_k, [e_i, e_j]]."""
    c = a.bracket
    return contract_sum("ijkl", (1, [("pi", a.twist), ("pql", c), ("jkq", c)], "ijkl", "jkil", "kijl"))


def is_weakly_involutive(a: HomLieAlgebra) -> CheckReport:
    """[phi^2(x), y] = [x, y] on all basis pairs."""
    return scan("weakly-involutive", _square_defect(a.bracket, a.twist), (a.dim,) * 3, 2)


def _square_defect(t, m) -> Sparse:
    """Entry (i, j, k) of t(m^2 e_i, e_j) - t(e_i, e_j) for the order-3 tensor t
    (entry (i, j, k) of t is the k-th coordinate of t(e_i, e_j)): the bracket, an
    action or a product, with m its twist."""
    return contract_sum("ijk", (1, [("pq", m), ("qi", m), ("pjk", t)]), (-1, [("ijk", t)]))


def check_invariant_form(a: HomLieAlgebra, b: BilinearFormB) -> CheckReport:
    """B([x,y],z) = B(x,[phi(y),z]) and B(phi(x),y) = B(x,phi(y)).

    The scan walks the target argument z in the outer loop ("for each
    probe direction, try all pairs"), so the reported witness is the
    first (i, j, k) in that order. Symmetry and nondegeneracy of the Gram
    matrix are reported as informational flags, not as pass/fail input.
    """
    if b.dim != a.dim:
        raise ShapeError("form dimension does not match algebra")
    bracket_inv = scan("form-invariance-bracket", _form_invariance(a, b.gram), (a.dim,) * 3, 3)
    if not bracket_inv.ok:  # scanned as (k, i, j), named as (i, j, k)
        (k, i, j), r = bracket_inv.witnesses[0].indices, bracket_inv.witnesses[0].residual
        bracket_inv = failed("form-invariance-bracket", [Witness((i, j, k), r)])
    return combined(
        "invariant-form",
        [bracket_inv, twist_symmetry(a, b.gram, "form-invariance-twist")],
        symmetric=b.gram.is_symmetric(),
        nondegenerate=b.gram.det() != 0,
    )


def _form_invariance(a: HomLieAlgebra, gram, batch: str = "") -> Sparse:
    """Entry (k, i, j): B([e_i, e_j], e_k) - B(e_i, [phi e_j, e_k]). With a batch
    letter, gram and the result carry a sample index first: one slice per sample."""
    z, c = batch, a.bracket
    return contract_sum(
        z + "kij", (1, [("ijl", c), (z + "lk", gram)]), (-1, [("pj", a.twist), ("pkl", c), (z + "il", gram)])
    )


def _twist_symmetry(m, x, batch: str = "") -> Sparse:
    """Entry (i, j) of m^T x - x m, batched as _form_invariance. At m = phi and x a
    Gram matrix it is B(phi e_i, e_j) - B(e_i, phi e_j); at m = phi^T and x the
    coefficients of r it is (phi (x) id) r - (id (x) phi) r, as phi r - r phi^T."""
    # kept apart from _intertwining: through it, every call would pay for m^T and a negation
    z = batch
    return contract_sum(z + "ij", (1, [("pi", m), (z + "pj", x)]), (-1, [(z + "ip", x), ("pj", m)]))


def twist_symmetry(a: HomLieAlgebra, gram: Matrix, condition: str) -> CheckReport:
    """B(phi e_i, e_j) = B(e_i, phi e_j) for the form with this Gram matrix."""
    return scan(condition, _twist_symmetry(a.twist, gram), (a.dim,) * 2, 2)


@dataclass(frozen=True)
class InvariantFormSpace:
    """Solution space of the invariance equations, as Gram matrices, with the
    certificate that decides each flag (see tensor.decide_pencil): a nondegenerate
    Gram matrix in the space, a subspace U that every form in it maps into a smaller
    space, or the verdict of the determinant expansion."""

    basis: tuple[Matrix, ...]
    symmetric_basis: tuple[Matrix, ...]
    certificate: PencilCertificate
    symmetric_certificate: PencilCertificate

    @property
    def has_nondegenerate(self) -> bool:
        return self.certificate.nonsingular

    @property
    def has_nondegenerate_symmetric(self) -> bool:
        return self.symmetric_certificate.nonsingular


def invariant_form_space(a: HomLieAlgebra) -> InvariantFormSpace:
    """Solve the invariance identities as a linear system in the Gram entries,
    then add B(e_i, e_j) = B(e_j, e_i) for the symmetric forms.

    Whether a space holds a nondegenerate form is decided by decide_pencil on its
    basis, with a certificate: a Gram matrix of the space with a nonzero
    determinant, or a subspace U with dim(sum_a B_a U) < dim U, found by exact
    ranks; the n!-sized determinant expansion pencil_det runs only when neither is
    found.
    """
    n, z = a.dim, _SAMPLE
    stack = unit_stack(n, n)
    invariance = [_form_invariance(a, stack, z), _twist_symmetry(a.twist, stack, z)]
    symmetry = [contract_sum(z + "ij", (1, [(z + "ij", stack)]), (-1, [(z + "ij", stack)], z + "ji"))]
    bases = [tuple(b) for b in matrix_kernels(stack, invariance, symmetry)]
    return InvariantFormSpace(*bases, *(decide_pencil(b, n) for b in bases))


def change_of_basis(a: HomLieAlgebra, p: Matrix) -> HomLieAlgebra:
    """Rewrite the structure in the basis e'_i = sum_k p[k][i] e_k.

    Used by the basis-independence tests; the verdict of every validator
    is invariant under this operation.
    """
    n = a.dim
    if p.nrows != n or p.ncols != n:
        raise ShapeError("change of basis matrix has wrong shape")
    pinv = p.inverse()
    bracket = contract("ijk", ("pi", p), ("pql", a.bracket), ("qj", p), ("kl", pinv))
    return HomLieAlgebra(dense(bracket, (n,) * 3), pinv @ a.twist @ p, a.label)


def direct_sum(a1: HomLieAlgebra, a2: HomLieAlgebra) -> HomLieAlgebra:
    """Block-diagonal sum: brackets and twists act componentwise, cross terms 0."""
    return block_sum(a1, a2, f"{a1.label}(+){a2.label}")


def block_sum(
    g: HomLieAlgebra,
    h: HomLieAlgebra,
    label: str,
    rho=(),
    rho_prime=(),
) -> HomLieAlgebra:
    """g (+) h with twist phi (+) phi', where g acts on h by rho and h acts on g by
    rho_prime (an action tensor, a representation's stack; none for no action):

        [(x,x'), (y,y')] = ([x,y] - rho'(y')x + rho'(x')y, [x',y'] + rho(x)y' - rho(y)x').
    """
    n = g.dim
    d = n + h.dim
    on_h = sparse(rho)  # (i, k, c): the f_k coefficient of rho(e_i) f_c
    on_g = sparse(rho_prime)  # (c, k, i): the e_k coefficient of rho'(f_c) e_i
    bracket = (
        sparse(g.bracket)
        + sparse(h.bracket).moved(lambda i, j, k: (n + i, n + j, n + k))
        + on_h.moved(lambda i, k, c: (i, n + c, n + k))
        - on_h.moved(lambda i, k, c: (n + c, i, n + k))
        - on_g.moved(lambda c, k, i: (i, n + c, k))
        + on_g.moved(lambda c, k, i: (n + c, i, k))
    )
    twist = sparse(g.twist) + sparse(h.twist).moved(lambda i, j: (n + i, n + j))
    return HomLieAlgebra(dense(bracket, (d,) * 3), dense(twist, (d, d)), label)
