import random

import pytest

from homlie.corpus import (
    abelian2,
    aff2,
    aff2bad,
    aff2phi,
    heis3,
    notjac3,
    sl2,
    sl2_killing_gram,
)
from homlie.hom_lie import (
    BilinearFormB,
    HomLieAlgebra,
    change_of_basis,
    check_invariant_form,
    direct_sum,
    invariant_form_space,
    is_weakly_involutive,
    validate_hom_lie,
)
from homlie.representation import adjoint_rep
from homlie.tensor import Matrix, Tensor3, Vector

from oracles import (
    oracle_form_invariance,
    oracle_hom_jacobi,
    oracle_weak_involutivity,
)
from sampling import random_matrix

VALID = (abelian2, aff2, aff2phi, aff2bad, heis3, sl2)


@pytest.mark.parametrize("make", VALID, ids=lambda f: f.__name__)
def test_corpus_algebras_are_hom_lie(make):
    assert validate_hom_lie(make()).ok


def test_notjac3_fails_jacobi_with_pinned_witness():
    a = notjac3()
    # the oracle fixes the expected residual before asking the library
    assert oracle_hom_jacobi(a, 0, 1, 2) == Vector([0, 0, -1])
    rep = validate_hom_lie(a)
    assert not rep.ok
    w = rep.first_witness()
    assert w.indices == (1, 2, 3)
    assert w.residual == Vector([0, 0, -1])
    sub = {s.checked_condition: s.ok for s in rep.subreports}
    assert sub == {
        "bracket-skew": True,
        "twist-multiplicative": True,
        "hom-jacobi": False,
    }


def test_weak_involutivity_verdicts():
    for make in (abelian2, aff2, heis3, sl2):
        assert is_weakly_involutive(make()).ok

    bad = is_weakly_involutive(aff2bad())
    assert oracle_weak_involutivity(aff2bad(), 0, 1) == Vector([3, 0])
    assert not bad.ok
    assert bad.witnesses[0].indices == (1, 2)
    assert bad.witnesses[0].residual == Vector([3, 0])


def test_aff2phi_is_valid_but_not_weakly_involutive():
    """The twist e2 -> e2+e1 is multiplicative, but since aff2 has trivial
    center no twist with phi^2 != Id can satisfy [phi^2(x), y] = [x, y];
    the first failing pair is (2,2) with residual 2e1."""
    a = aff2phi()
    assert validate_hom_lie(a).ok
    assert oracle_weak_involutivity(a, 1, 1) == Vector([2, 0])
    rep = is_weakly_involutive(a)
    assert not rep.ok
    assert rep.witnesses[0].indices == (2, 2)
    assert rep.witnesses[0].residual == Vector([2, 0])


def test_heis3phi_fixture_is_weakly_involutive_with_phi2_not_id(heis3phi):
    assert validate_hom_lie(heis3phi).ok
    assert is_weakly_involutive(heis3phi).ok
    phi2 = heis3phi.twist @ heis3phi.twist
    assert phi2 != Matrix.identity(3)


def test_ad_matrices_read_off_structure_constants():
    ad = adjoint_rep(aff2()).action
    assert ad[0] == Matrix([[0, 1], [0, 0]])
    assert ad[1] == Matrix([[-1, 0], [0, 0]])
    ad_e1 = adjoint_rep(heis3()).action[0]
    assert ad_e1.apply(Vector([0, 1, 0])) == Vector([0, 0, 1])
    assert ad_e1.transpose().row(0).is_zero() and ad_e1.transpose().row(2).is_zero()


def test_sl2_killing_form_is_invariant():
    a = sl2()
    gram = sl2_killing_gram()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert oracle_form_invariance(a, gram, i, j, k) == 0
    rep = check_invariant_form(a, BilinearFormB(gram))
    assert rep.ok
    assert rep.info["symmetric"] is True
    assert rep.info["nondegenerate"] is True


def test_abelian2_accepts_any_gram():
    rng = random.Random(12)
    a = abelian2()
    for _ in range(5):
        gram = random_matrix(rng, 2)
        rep = check_invariant_form(a, BilinearFormB(gram))
        assert rep.ok


def test_invariant_form_space_members_are_invariant():
    for make in (abelian2, aff2, aff2phi, heis3, sl2):
        a = make()
        space = invariant_form_space(a)
        for gram in space.basis:
            for i in range(a.dim):
                for j in range(a.dim):
                    for k in range(a.dim):
                        assert oracle_form_invariance(a, gram, i, j, k) == 0
            assert check_invariant_form(a, BilinearFormB(gram)).ok


def test_nondegenerate_symmetric_invariant_form_implies_weakly_involutive():
    """Forward direction of the form/involutivity link, asserted on every
    builtin algebra: such a form can only exist on weakly involutive ones."""
    for make in (abelian2, aff2, aff2phi, aff2bad, heis3, sl2, notjac3):
        a = make()
        space = invariant_form_space(a)
        if space.has_nondegenerate_symmetric:
            assert is_weakly_involutive(a).ok, a.label


def test_sl2_has_nondegenerate_symmetric_form_aff2phi_does_not():
    assert invariant_form_space(sl2()).has_nondegenerate_symmetric
    assert not invariant_form_space(aff2phi()).has_nondegenerate_symmetric


def test_invariant_form_space_reduces_the_invariance_rows_once(monkeypatch):
    import homlie.tensor

    sizes = []
    real = homlie.tensor._reduce

    def spy(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(homlie.tensor, "_reduce", spy)
    n = 3
    space = invariant_form_space(sl2())
    # the nonzero invariance rows of the n^3 + n^2 equations (the 36 with zeros)
    # are reduced once; the symmetry rows, one per ordered pair i != j of
    # B[i][j] - B[j][i], go in with the reduced rows, one per pivot; then each
    # space's nondegenerate member is found at the first point, one rank of n rows
    rank = n * n - len(space.basis)
    assert sizes == [22, rank + n * (n - 1), n, n]


def test_nondegenerate_forms_decided_exactly_on_large_form_spaces():
    heis = direct_sum(heis3(), heis3())
    dense = change_of_basis(heis, _random_invertible(random.Random(4), 6))
    space = invariant_form_space(dense)
    assert (len(space.basis), len(space.symmetric_basis)) == (16, 10)
    assert (space.has_nondegenerate, space.has_nondegenerate_symmetric) == (False, False)

    abelian6 = HomLieAlgebra(Tensor3.zero(6), Matrix.identity(6), "abelian6")
    space = invariant_form_space(abelian6)
    assert (len(space.basis), len(space.symmetric_basis)) == (36, 21)
    assert (space.has_nondegenerate, space.has_nondegenerate_symmetric) == (True, True)


def _random_invertible(rng, n):
    while True:
        p = random_matrix(rng, n)
        if p.det() != 0:
            return p


def test_validators_are_basis_independent(heis3phi):
    rng = random.Random(41)
    cases = [
        (aff2(), True, True),
        (notjac3(), False, None),
        (aff2bad(), True, False),
        (heis3phi, True, True),
        (aff2phi(), True, False),
    ]
    for a, valid, wi in cases:
        for _ in range(4):
            p = _random_invertible(rng, a.dim)
            moved = change_of_basis(a, p)
            assert validate_hom_lie(moved).ok == valid, a.label
            if wi is not None:
                assert is_weakly_involutive(moved).ok == wi, a.label


def test_change_of_basis_round_trip():
    rng = random.Random(8)
    a = sl2()
    p = _random_invertible(rng, 3)
    assert change_of_basis(change_of_basis(a, p), p.inverse()) == a


def test_direct_sum_blocks():
    s = direct_sum(aff2(), heis3())
    assert s.dim == 5
    assert validate_hom_lie(s).ok
    assert is_weakly_involutive(s).ok
    # cross brackets vanish
    assert s.bracket.plane(0).row(3).is_zero()
    bad = direct_sum(aff2bad(), abelian2())
    assert validate_hom_lie(bad).ok
    assert not is_weakly_involutive(bad).ok
