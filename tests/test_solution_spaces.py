"""The matrix-valued linear systems, pinned by probing the naive identities.

Each solution space the library builds from equations (twist-compatible r,
skew twist-compatible r, intertwining T, invariant and symmetric invariant
forms) is recomputed here by evaluating the identity itself on every unit
matrix E_pq: the residuals are the columns of the system, in the same order
of unknowns. Equal row spaces have equal reduced row echelon forms, so the
library's basis must equal this nullspace entry for entry.
"""

import random
from fractions import Fraction as Q

import pytest

from homlie.coboundary import skew_twist_compat_kernel, twist_compat_kernel
from homlie.corpus import aff2, aff2phi, heis3, sl2
from homlie.hom_lie import change_of_basis, invariant_form_space
from homlie.operators import intertwining_t_space
from homlie.representation import adjoint_rep
from homlie.tensor import Matrix, nullspace

from oracles import oracle_form_invariance


def entries(m: Matrix) -> list[Q]:
    return [x for row in m.rows for x in row]


def probed_kernel(residual, nrows: int, ncols: int) -> list[Matrix]:
    """Basis of {X : residual(X) = 0} for a linear residual, probed on units."""
    units = [
        Matrix([[int((p, q) == (i, j)) for j in range(ncols)] for i in range(nrows)])
        for p in range(nrows)
        for q in range(ncols)
    ]
    columns = [residual(e) for e in units]
    return [
        Matrix(v.entries[p * ncols : (p + 1) * ncols] for p in range(nrows))
        for v in nullspace(Matrix(zip(*columns)).rows, nrows * ncols)
    ]


def seeded_basis(n: int, seed: int) -> Matrix:
    rng = random.Random(seed)
    while True:
        p = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if p.det() != 0:
            return p


ALGEBRAS = {"aff2": aff2, "aff2phi": aff2phi, "heis3": heis3, "sl2": sl2}


@pytest.fixture(params=[(name, seed) for name in ALGEBRAS for seed in (None, 3)])
def algebra(request):
    name, seed = request.param
    a = ALGEBRAS[name]()
    return a if seed is None else change_of_basis(a, seeded_basis(a.dim, seed))


def test_twist_compat_kernels(algebra):
    phi, n = algebra.twist, algebra.dim

    def compat(e):
        return entries(phi @ e - e @ phi.transpose())

    assert twist_compat_kernel(algebra) == probed_kernel(compat, n, n)
    assert skew_twist_compat_kernel(algebra) == probed_kernel(
        lambda e: compat(e) + entries(e + e.transpose()), n, n
    )


def test_intertwining_t_space(algebra):
    rep = adjoint_rep(algebra)
    phi, beta = algebra.twist, rep.beta
    assert intertwining_t_space(algebra, rep) == probed_kernel(
        lambda e: entries(e @ beta - phi @ e), algebra.dim, rep.carrier_dim
    )


def test_invariant_form_space(algebra):
    phi, n = algebra.twist, algebra.dim
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]

    def invariance(e):
        return [oracle_form_invariance(algebra, e, *t) for t in triples] + entries(
            phi.transpose() @ e - e @ phi
        )

    space = invariant_form_space(algebra)
    assert list(space.basis) == probed_kernel(invariance, n, n)
    assert list(space.symmetric_basis) == probed_kernel(
        lambda e: invariance(e) + entries(e - e.transpose()), n, n
    )
