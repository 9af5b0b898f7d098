"""Every verdict is invariant under a change of basis: for seeded invertible
P, the structures rewritten in the basis e'_i = sum_k P[k][i] e_k must get the
verdicts the originals get."""

import random
from fractions import Fraction

import pytest

from homlie.bialgebra import (
    Cobracket,
    HomLieBialgebra,
    check_triple_equivalence,
    validate_bialgebra,
)
from homlie.coboundary import RMatrix, check_chybe, validate_coboundary
from homlie.corpus import (
    aff2,
    aff2_triangular_bialgebra,
    aff2bad,
    aff2phi,
    heis3,
    lsa2,
    lsa2psi,
    notjac3,
    sl2,
)
from homlie.hom_lie import change_of_basis
from homlie.operators import OOperatorCandidate, left_mult_rep, validate_o_operator
from homlie.representation import Representation, adjoint_rep, validate_representation
from homlie.tensor import Matrix, Tensor3, random_matrix

SEEDS = range(3)


def _invertible(rng, n):
    while True:
        p = random_matrix(rng, n)
        if p.det() != 0:
            return p


def _moved_rep(r: Representation, p: Matrix, q: Matrix) -> Representation:
    """r over change_of_basis(r.base, p), with carrier basis changed by q:
    rho'(e'_i) = q^-1 rho(p e'_i) q and beta' = q^-1 beta q."""
    qinv = q.inverse()
    action = [
        qinv @ sum((r.action[k].scale(p[k, i]) for k in range(p.nrows)), Matrix.zero(q.nrows)) @ q
        for i in range(p.ncols)
    ]
    return Representation(change_of_basis(r.base, p), qinv @ r.beta @ q, action)


def _moved_cobracket(cb: Cobracket, base, p: Matrix) -> Cobracket:
    """Delta'(e'_k) = (p^-1 (x) p^-1) Delta(p e'_k)."""
    pinv, n = p.inverse(), p.nrows
    planes = []
    for k in range(n):
        d = sum((cb.delta(x).scale(p[x, k]) for x in range(n)), Matrix.zero(n))
        planes.append((pinv @ d @ pinv.transpose()).rows)
    return Cobracket(base, Tensor3(planes))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "make", (aff2, aff2phi, aff2bad, heis3, sl2, notjac3), ids=lambda f: f.__name__
)
def test_adjoint_representation_verdict(make, seed):
    a = make()
    p = _invertible(random.Random(seed), a.dim)
    verdict = validate_representation(adjoint_rep(a)).ok
    assert validate_representation(adjoint_rep(change_of_basis(a, p))).ok == verdict
    # the same representation, carried over with its carrier basis changed too
    q = _invertible(random.Random(seed + 10), a.dim)
    assert validate_representation(_moved_rep(adjoint_rep(a), p, q)).ok == verdict


@pytest.mark.parametrize("seed", SEEDS)
def test_bialgebra_and_triple_equivalence_on_aff2_triangular(seed):
    a, cb = aff2_triangular_bialgebra()
    broken = Cobracket(a, Tensor3([[[1, 0], [0, 0]], [[0, 0], [0, 0]]]))
    p = _invertible(random.Random(seed), 2)
    moved_a = change_of_basis(a, p)
    for c in (cb, broken):
        bi = HomLieBialgebra(a, c)
        moved = HomLieBialgebra(moved_a, _moved_cobracket(c, moved_a, p))
        assert validate_bialgebra(moved).ok == validate_bialgebra(bi).ok
        triple, moved_triple = check_triple_equivalence(bi), check_triple_equivalence(moved)
        assert moved_triple.ok == triple.ok
        assert moved_triple.info == triple.info


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "make, rows",
    [
        (aff2, [[0, 1], [-1, 0]]),  # triangular
        (aff2, [[1, 0], [0, 0]]),
        (aff2, [[0, 1], [1, 0]]),
        (sl2, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        (sl2, [[Fraction(1, 2), 0, 0], [0, 0, 1], [0, 1, 0]]),  # the Casimir
        (heis3, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
    ],
)
def test_coboundary_classification_and_chybe_on_a_transported_r(make, rows, seed):
    a = make()
    r = RMatrix(a, Matrix(rows))
    p = _invertible(random.Random(seed), a.dim)
    moved_a = change_of_basis(a, p)
    pinv = p.inverse()
    moved_r = RMatrix(moved_a, pinv @ r.coeffs @ pinv.transpose())
    report, moved = validate_coboundary(a, r), validate_coboundary(moved_a, moved_r)
    assert (moved.ok, moved.info["classification"]) == (report.ok, report.info["classification"])
    assert check_chybe(moved_r).ok == check_chybe(r).ok


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("make", (lsa2, lsa2psi), ids=lambda f: f.__name__)
def test_o_operator_verdict(make, seed):
    rep = left_mult_rep(make())
    rng = random.Random(seed)
    p, q = _invertible(rng, 2), _invertible(rng, 2)
    moved = _moved_rep(rep, p, q)
    for t in (Matrix.identity(2), rep.beta @ rep.beta, random_matrix(rng, 2)):
        verdict = validate_o_operator(OOperatorCandidate(rep.base, rep, t)).ok
        moved_t = p.inverse() @ t @ q
        assert validate_o_operator(OOperatorCandidate(moved.base, moved, moved_t)).ok == verdict
