"""The Gauss-Jordan elimination and the integer kernels against Fraction
arithmetic: the elimination against oracle_rref on rank-deficient Kronecker sums, the skew
kernel over the skew unknowns against the nullspace of the system in all n^2
entries of r, and the solvers, which read integer equations off each identity's
residual on a stack of unknowns, against the same identities written here as
equations with Fraction coefficients and reduced by oracle_rref."""

import random
from fractions import Fraction as Q
from itertools import product

import pytest

from homlie.coboundary import skew_twist_compat_kernel, twist_compat_kernel
from homlie.corpus import BUILTINS
from homlie.hom_lie import HomLieAlgebra, change_of_basis, invariant_form_space
from homlie.operators import commutator_hom_lie, intertwining_t_space
from homlie.representation import adjoint_rep
from homlie.structure_io import builtin_structure
from homlie.tensor import Matrix, Tensor3, contract, matrix_kernel, unit_stack

from oracles import oracle_form_invariance, oracle_kernel, oracle_rref
from sampling import reduce_rows


def dense_twist(n: int, seed: int, diagonal=None) -> Matrix:
    """L D L^-1 for a seeded unit lower triangular L of +-1 entries; D is
    diag(-1, 1, -1, ...), an involution, unless a diagonal is given."""
    rng = random.Random(seed)
    lower = Matrix(
        [[1 if i == j else rng.choice((-1, 1)) if i > j else 0 for j in range(n)] for i in range(n)]
    )
    d = diagonal or [(-1) ** (i + 1) for i in range(n)]
    diag = Matrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return lower @ diag @ lower.inverse()


def kronecker_sum(phi: Matrix) -> list[list[Q]]:
    """The rows of phi (x) I - I (x) phi, row and column (i, k) at i n + k."""
    n, a = phi.nrows, phi.rows
    return [
        [a[i][j] * (k == l) - (i == j) * a[k][l] for j in range(n) for l in range(n)]
        for i in range(n)
        for k in range(n)
    ]


def fraction_kernels(nrows: int, ncols: int, *groups) -> list[list[Matrix]]:
    """matrix_kernels in Fractions: the equations of the first group, of the first
    two, and so on, as dense Fraction rows through oracle_kernel."""
    rows, kernels = [], []
    for group in groups:
        for eq in group:
            row = [Q(0)] * (nrows * ncols)
            for p, q, c in eq:
                row[p * ncols + q] += Q(c)
            rows.append(row)
        kernels.append(
            [
                Matrix([v[p * ncols : (p + 1) * ncols] for p in range(nrows)])
                for v in oracle_kernel(rows, nrows * ncols)
            ]
        )
    return kernels


def fraction_sylvester(a: Matrix, b: Matrix):
    """(A X - X B)[i][j] = 0 with A's and B's own Fraction entries."""
    ar, br = a.rows, b.rows
    for i in range(a.nrows):
        for j in range(b.ncols):
            yield [(p, j, ar[i][p]) for p in range(a.ncols) if ar[i][p]] + [
                (i, q, -br[q][j]) for q in range(b.nrows) if br[q][j]
            ]


def fraction_invariance(a: HomLieAlgebra):
    """B([e_i,e_j], e_k) - B(e_i, [phi(e_j), e_k]) = 0 for each (i, j, k) in
    row-major order: its coefficient at B[p][q] is oracle_form_invariance at the
    unit Gram matrix E_pq."""
    n = a.dim
    units = {
        (p, q): Matrix([[int((i, j) == (p, q)) for j in range(n)] for i in range(n)])
        for p, q in product(range(n), repeat=2)
    }
    for i, j, k in product(range(n), repeat=3):
        yield [(p, q, c) for (p, q), e in units.items() if (c := oracle_form_invariance(a, e, i, j, k))]


def old_skew_system(phi: Matrix):
    """The compat equations in the n^2 entries of r, then r + r^T = 0."""
    n = phi.nrows
    skew = ([(i, j, 1), (j, i, 1)] for i in range(n) for j in range(n))
    return [*fraction_sylvester(phi, phi.transpose()), *skew]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", range(2, 6))
def test_elimination_matches_the_oracle_on_kronecker_sums_of_dense_involutions(n, seed):
    rows = kronecker_sum(dense_twist(n, seed))
    reduced, pivots = oracle_rref(rows)
    # the kernel of X -> phi X - X phi is the commutant of the involution phi, of
    # dimension p^2 + q^2 for its eigenvalues 1 and -1 of multiplicities p and q
    assert len(pivots) == n * n - (n * n + n % 2) // 2
    assert reduce_rows(rows) == (reduced, pivots)
    augmented = [row + [Q(int(i == j)) for j in range(n * n)] for i, row in enumerate(rows)]
    assert reduce_rows(augmented) == oracle_rref(augmented)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("n", range(3, 9))
def test_the_skew_kernel_is_the_nullspace_of_the_system_in_all_entries(n, seed):
    rng = random.Random(n + seed)
    for phi in (dense_twist(n, seed), dense_twist(n, seed, [rng.choice((-1, 1, 2)) for _ in range(n)])):
        got = skew_twist_compat_kernel(HomLieAlgebra(Tensor3.zero(n), phi))
        (want,) = fraction_kernels(n, n, old_skew_system(phi))
        assert got == want


def _seeded_basis(n: int, seed: int) -> Matrix:
    rng = random.Random(seed)
    while True:
        p = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if p.det() != 0:
            return p


def _builtin_algebras():
    for b in BUILTINS:
        s = builtin_structure(b.name)
        a = s.algebra if s.algebra is not None else commutator_hom_lie(s.lsa)
        yield b.name, a
        yield f"{b.name}, dense basis", change_of_basis(a, _seeded_basis(a.dim, 5))


ALGEBRAS = dict(_builtin_algebras())


@pytest.mark.parametrize("name", ALGEBRAS)
def test_integer_kernels_equal_the_fraction_path(name):
    a = ALGEBRAS[name]
    phi, n = a.twist, a.dim
    (compat,) = fraction_kernels(n, n, fraction_sylvester(phi, phi.transpose()))
    assert twist_compat_kernel(a) == compat
    assert skew_twist_compat_kernel(a) == fraction_kernels(n, n, old_skew_system(phi))[0]
    rep = adjoint_rep(a)
    assert intertwining_t_space(a, rep) == fraction_kernels(n, n, fraction_sylvester(phi, rep.beta))[0]
    # a rectangular T against a 2 x 2 beta that shares the eigenvalue 1
    beta = Matrix([[1, Q(1, 2)], [0, 1]])
    (intertwining,) = fraction_kernels(n, 2, fraction_sylvester(phi, beta))
    stack = unit_stack(n, 2)
    residual = contract("zij", ("ik", phi), ("zkj", stack)) - contract("zij", ("zik", stack), ("kj", beta))
    assert matrix_kernel(stack, residual) == intertwining
    space = invariant_form_space(a)
    symmetry = [[(i, j, 1), (j, i, -1)] for i in range(n) for j in range(i + 1, n)]
    invariance = [*fraction_invariance(a), *fraction_sylvester(phi.transpose(), phi)]
    want = fraction_kernels(n, n, invariance, symmetry)
    assert [list(space.basis), list(space.symmetric_basis)] == want
