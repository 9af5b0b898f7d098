"""The matrix-valued linear systems, pinned by probing the naive identities.

Each solution space the library solves for (twist-compatible r, skew
twist-compatible r, intertwining T, invariant and symmetric invariant forms) is
recomputed here by evaluating the identity, written naively, on every unit
matrix E_pq: the residuals are the columns of the system, in the same order of
unknowns. Equal row spaces have equal reduced row echelon forms, so the
library's basis must equal the nullspace that the naive oracle_kernel reads off
them, entry for entry. Every basis element must also pass the library's own
checker of that identity.
"""

import random
from functools import cache
from fractions import Fraction as Q

import pytest

from homlie.coboundary import RMatrix, check_twist_compat, skew_twist_compat_kernel, twist_compat_kernel
from homlie.corpus import aff2, aff2phi, heis3, sl2
from homlie.hom_lie import (
    BilinearFormB,
    HomLieAlgebra,
    change_of_basis,
    check_invariant_form,
    invariant_form_space,
)
from homlie.operators import OOperatorCandidate, intertwining_t_space, validate_o_operator
from homlie.representation import adjoint_rep
from homlie.tensor import Matrix, Tensor3

from oracles import oracle_form_invariance, oracle_kernel


def entries(m: Matrix) -> list[Q]:
    return [x for row in m.rows for x in row]


def probed_kernel(residual, nrows: int, ncols: int) -> list[Matrix]:
    """Basis of {X : residual(X) = 0} for a linear residual, probed on units."""
    units = [
        Matrix([[int((p, q) == (i, j)) for j in range(ncols)] for i in range(nrows)])
        for p in range(nrows)
        for q in range(ncols)
    ]
    rows = [list(row) for row in zip(*(residual(e) for e in units))]
    return [
        Matrix(v[p * ncols : (p + 1) * ncols] for p in range(nrows))
        for v in oracle_kernel(rows, nrows * ncols)
    ]


def seeded_basis(n: int, seed: int) -> Matrix:
    rng = random.Random(seed)
    while True:
        p = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if p.det() != 0:
            return p


def dense_twist5() -> HomLieAlgebra:
    """phi = L D L^-1 on an empty bracket of dim 5: L seeded unit lower triangular
    of +-1 entries, D = diag(-1, 1, -1, 1, -1), so phi has both eigenvalues."""
    n, rng = 5, random.Random(5)
    lower = Matrix([[1 if i == j else rng.choice((-1, 1)) if i > j else 0 for j in range(n)] for i in range(n)])
    d = Matrix([[(-1) ** (i + 1) if i == j else 0 for j in range(n)] for i in range(n)])
    return HomLieAlgebra(Tensor3.zero(n), lower @ d @ lower.inverse(), "twist5")


ALGEBRAS = {"aff2": aff2, "aff2phi": aff2phi, "heis3": heis3, "sl2": sl2}


@pytest.fixture(params=[(name, seed) for name in ALGEBRAS for seed in (None, 3)] + [("twist5", None)])
def algebra(request):
    name, seed = request.param
    if name == "twist5":
        return dense_twist5()
    a = ALGEBRAS[name]()
    return a if seed is None else change_of_basis(a, seeded_basis(a.dim, seed))


def test_twist_compat_kernels(algebra):
    phi, n = algebra.twist, algebra.dim

    def compat(e):
        return entries(phi @ e - e @ phi.transpose())

    compat_kernel, skew_kernel = twist_compat_kernel(algebra), skew_twist_compat_kernel(algebra)
    assert compat_kernel == probed_kernel(compat, n, n)
    assert skew_kernel == probed_kernel(lambda e: compat(e) + entries(e + e.transpose()), n, n)
    for r in compat_kernel + skew_kernel:
        assert check_twist_compat(RMatrix(algebra, r)).ok
    assert all(r.is_skew() for r in skew_kernel)


def test_intertwining_t_space(algebra):
    rep = adjoint_rep(algebra)
    phi, beta = algebra.twist, rep.beta
    space = intertwining_t_space(algebra, rep)
    assert space == probed_kernel(lambda e: entries(e @ beta - phi @ e), algebra.dim, rep.carrier_dim)
    for t in space:
        (intertwines,) = [s for s in validate_o_operator(OOperatorCandidate(algebra, rep, t)).subreports
                          if s.checked_condition == "twist-intertwines-t"]
        assert intertwines.ok


def test_invariant_form_space(algebra):
    phi, n = algebra.twist, algebra.dim
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]

    @cache  # the symmetric probe reuses each unit's invariance column
    def invariance(e):
        return [oracle_form_invariance(algebra, e, *t) for t in triples] + entries(
            phi.transpose() @ e - e @ phi
        )

    space = invariant_form_space(algebra)
    assert list(space.basis) == probed_kernel(invariance, n, n)
    assert list(space.symmetric_basis) == probed_kernel(
        lambda e: invariance(e) + entries(e - e.transpose()), n, n
    )
    for gram in space.basis + space.symmetric_basis:
        assert check_invariant_form(algebra, BilinearFormB(gram)).ok
    assert all(gram.is_symmetric() for gram in space.symmetric_basis)
