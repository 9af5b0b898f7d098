"""First witnesses read from residuals summed packed. With a random rational
twist on sl2^2 and sl2^3 in a dense basis, the residuals of Hom-Lie validity, of
the adjoint representation and of form invariance are summed packed over their
last index (large numerators over large denominators) inside contract_sum, and
each check's first witness, indices and residual, must be the first nonzero case
of the naive oracle in the check's scan order, at each scan depth first_case is
called with."""

import random
from fractions import Fraction as Q
from itertools import product

import pytest

from homlie import hom_lie, representation, tensor
from homlie.corpus import sl2
from homlie.hom_lie import BilinearFormB, HomLieAlgebra, change_of_basis, direct_sum
from homlie.representation import adjoint_rep
from homlie.tensor import Matrix

from oracles import (
    oracle_form_invariance,
    oracle_hom_jacobi,
    oracle_multiplicative,
    oracle_rep_bracket,
    oracle_rep_twist,
    oracle_skew,
    oracle_twist_symmetry,
)


def _rational(rng) -> Q:
    return Q(rng.randint(-9, 9), rng.randint(1, 12))


def _twisted(k: int, seed: int) -> HomLieAlgebra:
    """sl2^k after a seeded dense change of basis (unit lower times unit upper
    triangular, entries +-1), with a random rational twist in place of its own."""
    rng = random.Random(seed)
    n = 3 * k
    lower = [[1 if i == j else (rng.choice((-1, 1)) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.choice((-1, 1)) if i < j else 0) for j in range(n)] for i in range(n)]
    a = sl2()
    for _ in range(k - 1):
        a = direct_sum(a, sl2())
    a = change_of_basis(a, Matrix(lower) @ Matrix(upper))
    return HomLieAlgebra(a.bracket, Matrix([[_rational(rng) for _ in range(n)] for _ in range(n)]), "twisted")


def _first(shape, oracle, order=lambda at: at):
    """The first case (scan indices, residual) at which the oracle is nonzero,
    walking the scan indices in row-major order; the witness indices are
    order(at). None when the oracle is zero everywhere."""
    for at in product(*map(range, shape)):
        r = oracle(*at)
        if not r.is_zero() if hasattr(r, "is_zero") else r != 0:
            return tuple(i + 1 for i in order(at)), r
    return None


def _agrees(report, first):
    if first is None:
        assert report.ok
    else:
        assert not report.ok
        w = report.witnesses[0]
        assert (w.indices, w.residual) == first


CASES = [(2, 0), (2, 1), (3, 2)]


@pytest.mark.parametrize("k, seed", CASES)
def test_hom_lie_witnesses_from_packed_residuals(k, seed):
    a = _twisted(k, seed)
    n = a.dim
    reports = {s.checked_condition: s for s in hom_lie.validate_hom_lie(a).subreports}
    _agrees(reports["bracket-skew"], _first((n, n), lambda i, j: oracle_skew(a, i, j)))
    _agrees(reports["twist-multiplicative"], _first((n, n), lambda i, j: oracle_multiplicative(a, i, j)))
    _agrees(reports["hom-jacobi"], _first((n,) * 3, lambda i, j, l: oracle_hom_jacobi(a, i, j, l)))
    assert not reports["twist-multiplicative"].ok and not reports["hom-jacobi"].ok


@pytest.mark.parametrize("k, seed", CASES)
def test_adjoint_representation_witnesses_from_packed_residuals(k, seed):
    a = _twisted(k, seed)
    n = a.dim
    r = adjoint_rep(a)
    action = list(r.action)
    reports = {s.checked_condition: s for s in representation.validate_representation(r).subreports}
    _agrees(reports["rep-axiom-twist"], _first((n,), lambda i: oracle_rep_twist(a, a.twist, action, i)))
    _agrees(
        reports["rep-axiom-bracket"],
        _first((n, n), lambda i, j: oracle_rep_bracket(a, a.twist, action, i, j)),
    )
    assert not reports["rep-axiom-bracket"].ok


@pytest.mark.parametrize("k, seed", CASES)
def test_invariant_form_witnesses_from_packed_residuals(k, seed):
    a = _twisted(k, seed)
    n = a.dim
    rng = random.Random(100 + seed)
    gram = Matrix([[_rational(rng) for _ in range(n)] for _ in range(n)])
    reports = {s.checked_condition: s for s in hom_lie.check_invariant_form(a, BilinearFormB(gram)).subreports}
    # the target argument k is the outer scan index; the witness reads (i, j, k)
    _agrees(
        reports["form-invariance-bracket"],
        _first((n,) * 3, lambda k, i, j: oracle_form_invariance(a, gram, i, j, k), lambda at: (*at[1:], at[0])),
    )
    _agrees(reports["form-invariance-twist"], _first((n, n), lambda i, j: oracle_twist_symmetry(a, gram, i, j)))
    assert not reports["form-invariance-bracket"].ok


def test_repeated_validation_works_out_no_new_plan():
    # everything contract derives from a spec is worked out once: validating the
    # same inputs again adds no plan and compiles no kernel
    a = _twisted(2, 0)
    r = adjoint_rep(a)
    hom_lie.validate_hom_lie(a)
    representation.validate_representation(r)
    misses = tensor._plan.cache_info().misses, tensor._compiled.cache_info().misses
    hom_lie.validate_hom_lie(a)
    representation.validate_representation(r)
    assert (tensor._plan.cache_info().misses, tensor._compiled.cache_info().misses) == misses
