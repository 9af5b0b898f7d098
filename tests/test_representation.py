from fractions import Fraction as Q

import pytest

from homlie.corpus import abelian2, aff2, aff2bad, aff2phi, heis3, sl2, sl2_killing_gram
from homlie.hom_lie import (
    BilinearFormB,
    check_invariant_form,
    is_weakly_involutive,
    validate_hom_lie,
)
from homlie.report import InvalidStructureError, Witness
from homlie.representation import (
    Representation,
    adjoint_rep,
    dual_action_candidate,
    fixes_carrier_square,
    hom_dual_exists,
    hom_dual_representation,
    is_weakly_involutive_rep,
    semidirect_product,
    twisted_action_fixes_carrier_square,
    validate_representation,
)
from homlie.tensor import Matrix, Vector

from oracles import oracle_dual_exists_i


def semidirect_verdicts(r: Representation) -> tuple[tuple[bool, ...], bool]:
    """The parts and the whole of weak involutivity of g |x V, g the algebra r
    represents: g, rho, and rho(x) beta^2 = rho(x); the statement is that the whole
    holds exactly when every part does."""
    parts = (
        is_weakly_involutive(r.base).ok,
        is_weakly_involutive_rep(r).ok,
        fixes_carrier_square("action-fixes-carrier-square", r).ok,
    )
    return parts, is_weakly_involutive(semidirect_product(r)).ok


def dual_semidirect_verdicts(r: Representation) -> tuple[tuple[bool, ...], bool]:
    """As semidirect_verdicts for g |x V* through the Hom-dual action of a weakly
    involutive r: the parts are g and rho(phi(x)) beta^2 = rho(phi(x))."""
    parts = (is_weakly_involutive(r.base).ok, twisted_action_fixes_carrier_square(r).ok)
    return parts, is_weakly_involutive(semidirect_product(hom_dual_representation(r))).ok


def test_abelian2_adjoint_is_zero_and_valid():
    r = adjoint_rep(abelian2())
    assert all(m.is_zero() for m in r.action)
    assert validate_representation(r).ok
    assert is_weakly_involutive_rep(r).ok


@pytest.mark.parametrize("make", (aff2, aff2bad, aff2phi, heis3, sl2),
                         ids=lambda f: f.__name__)
def test_adjoint_of_valid_algebra_is_a_representation(make):
    assert validate_representation(adjoint_rep(make())).ok


def test_explicit_aff2_action_passes():
    r = Representation(
        aff2(),
        Matrix.identity(2),
        (Matrix.zero(2), Matrix.identity(2)),
    )
    assert validate_representation(r).ok


def test_explicit_aff2_action_fails_with_bracket_witness():
    r = Representation(
        aff2(),
        Matrix.identity(2),
        (Matrix.identity(2), Matrix.zero(2)),
    )
    rep = validate_representation(r)
    assert not rep.ok
    sub = {s.checked_condition: s.ok for s in rep.subreports}
    assert sub == {"rep-axiom-twist": True, "rep-axiom-bracket": False}
    w = rep.first_witness()
    assert w.indices == (1, 2)
    assert w.residual == Matrix.identity(2)


def test_adjoint_weak_involutivity_tracks_the_algebra():
    """ad_{phi^2 x} = ad_x is verbatim the algebra's weak involutivity, so
    the two verdicts must agree on every builtin."""
    for make in (abelian2, aff2, aff2bad, aff2phi, heis3, sl2):
        a = make()
        assert is_weakly_involutive_rep(adjoint_rep(a)).ok == is_weakly_involutive(a).ok


def test_aff2bad_adjoint_valid_but_not_weakly_involutive():
    r = adjoint_rep(aff2bad())
    assert validate_representation(r).ok
    rep = is_weakly_involutive_rep(r)
    assert not rep.ok
    assert rep.witnesses[0].indices == (1,)
    assert rep.witnesses[0].residual == Matrix([[0, 3], [0, 0]])


def test_aff2phi_adjoint_dual_pipeline_fails_throughout():
    """aff2phi is not weakly involutive, and with beta = phi invertible the
    dual-existence identities are equivalent to weak involutivity, so the
    whole dual pipeline fails on its adjoint representation."""
    r = adjoint_rep(aff2phi())
    wi = is_weakly_involutive_rep(r)
    assert not wi.ok
    assert wi.witnesses[0].indices == (2,)
    assert wi.witnesses[0].residual == Matrix([[0, 2], [0, 0]])

    gate = hom_dual_exists(r)
    assert not gate.ok
    assert gate.info["weakly_involutive"] is False
    with pytest.raises(InvalidStructureError):
        hom_dual_representation(r)
    assert dual_action_candidate(dual_action_candidate(r)) != r


def test_dual_exists_i_witness_matches_the_oracle():
    """Condition (i) of hom_dual_exists on the adjoint action of aff2phi, which no
    CLI check reaches: every entry agrees with the naive sum, and the witness is
    its first nonzero matrix, at (2) with residual [0 -2; 0 0]."""
    r = adjoint_rep(aff2phi())
    cond = hom_dual_exists(r).subreports[0]
    want = [oracle_dual_exists_i(r.base, r.beta, list(r.action), i) for i in range(r.base.dim)]
    first = next(i for i, m in enumerate(want) if not m.is_zero())
    assert (cond.checked_condition, cond.ok) == ("dual-exists-i", False)
    assert cond.witnesses == (Witness((first + 1,), want[first]),)
    assert cond.witnesses[0] == Witness((2,), Matrix([[0, -2], [0, 0]]))


@pytest.mark.parametrize("make", (aff2phi, heis3), ids=lambda f: f.__name__)
def test_hom_dual_exists_evaluates_the_square_defect_once(make, monkeypatch):
    """Condition (i) and the weakly_involutive flag both read one square defect,
    whose verdict is is_weakly_involutive_rep's."""
    from homlie import representation

    r = adjoint_rep(make())
    want = hom_dual_exists(r)
    calls, real = [], representation._square_defect

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(representation, "_square_defect", counting)
    got = hom_dual_exists(r)
    assert len(calls) == 1
    assert got == want and got.to_json() == want.to_json()
    assert got.info["weakly_involutive"] is is_weakly_involutive_rep(r).ok


@pytest.mark.parametrize("make", (abelian2, aff2, heis3, sl2),
                         ids=lambda f: f.__name__)
def test_dual_of_weakly_involutive_rep_is_weakly_involutive_rep(make):
    r = adjoint_rep(make())
    dual = hom_dual_representation(r)
    assert validate_representation(dual).ok
    assert is_weakly_involutive_rep(dual).ok
    assert dual_action_candidate(dual_action_candidate(r)) == r


def test_heis3phi_adjoint_dual_pipeline(heis3phi):
    r = adjoint_rep(heis3phi)
    assert is_weakly_involutive_rep(r).ok
    dual = hom_dual_representation(r)
    assert validate_representation(dual).ok
    assert is_weakly_involutive_rep(dual).ok
    assert dual_action_candidate(dual_action_candidate(r)) == r
    assert dual.beta == heis3phi.twist.transpose()


def test_aff2_dual_is_classical_coadjoint():
    dual = hom_dual_representation(adjoint_rep(aff2()))
    assert dual.beta == Matrix.identity(2)
    assert dual.action[0] == Matrix([[0, 0], [-1, 0]])
    assert dual.action[1] == Matrix([[1, 0], [0, 0]])


@pytest.mark.parametrize(
    "make, gram, invariant",
    [
        (sl2, sl2_killing_gram(), True),
        (sl2, Matrix.identity(3), False),
        (aff2, Matrix.identity(2), False),
        (abelian2, Matrix([[1, 1], [0, 1]]), True),  # not symmetric
    ],
    ids=("sl2-killing", "sl2-identity", "aff2-identity", "abelian2-shear"),
)
def test_a_nondegenerate_form_is_invariant_iff_its_map_is_an_equivalence(make, gram, invariant):
    """x |-> B(x, .), whose matrix into the dual basis is the transposed Gram
    matrix, intertwines the adjoint action with its dual action, and phi with
    phi^T, exactly when the nondegenerate form B is invariant."""
    a = make()
    r = adjoint_rep(a)
    dual, m = dual_action_candidate(r), gram.transpose()
    assert gram.det() != 0
    assert check_invariant_form(a, BilinearFormB(gram)).ok == invariant
    intertwines = all(m @ x == y @ m for x, y in zip(r.action, dual.action)) and dual.beta @ m == m @ r.beta
    assert intertwines == invariant


def test_semidirect_product_with_adjoint():
    a = aff2()
    s = semidirect_product(adjoint_rep(a))
    assert s.dim == 4
    assert validate_hom_lie(s).ok
    # carrier block copies the algebra action: [e1, v2] = ad_{e1} e2 = e1 -> v1
    out = s.bracket_of(Vector.basis(4, 0), Vector.basis(4, 3))
    assert out == Vector([0, 0, 1, 0])
    # carrier is abelian
    assert s.bracket_of(Vector.basis(4, 2), Vector.basis(4, 3)).is_zero()


def test_constructions_read_the_algebra_off_the_action():
    from homlie.bialgebra import MatchedPair, matched_pair_components

    # aff2bad is not weakly involutive, and its adjoint action is over it
    rep = adjoint_rep(aff2bad())
    g = rep.base
    s = semidirect_product(rep)
    assert s.label == "aff2bad|xV"
    assert s.twist == Matrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]])
    for i in range(2):
        for j in range(2):
            inner = g.bracket_of(Vector.basis(2, i), Vector.basis(2, j))
            outer = s.bracket_of(Vector.basis(4, i), Vector.basis(4, j))
            assert outer == Vector([*inner.entries, 0, 0])

    # ad heis3 acts on a 3-dim space with identity twist, as ad sl2 does
    rho, rho_prime = adjoint_rep(heis3()), adjoint_rep(sl2())
    mp = MatchedPair(rho, rho_prime)
    assert mp.left is rho.base and mp.right is rho_prime.base
    parts = {p.checked_condition: p for p in matched_pair_components(mp).subreports}
    assert parts["left-hom-lie"] == validate_hom_lie(heis3()).renamed("left-hom-lie")
    assert parts["left-action-representation"].ok
    assert parts["right-action-representation"].ok


def test_semidirect_with_zero_rep_is_abelian_extension():
    r = Representation(abelian2(), Matrix.identity(1), (Matrix.zero(1), Matrix.zero(1)))
    s = semidirect_product(r)
    assert s.dim == 3
    assert validate_hom_lie(s).ok
    assert s.bracket.is_zero()


@pytest.mark.parametrize("make, holds", [(aff2, True), (aff2bad, False)], ids=("aff2", "aff2bad"))
def test_semidirect_weak_involutivity_by_parts(make, holds):
    parts, whole = semidirect_verdicts(adjoint_rep(make()))
    assert all(parts) == whole == holds


def test_dual_semidirect_weak_involutivity_by_parts(heis3phi):
    parts, whole = dual_semidirect_verdicts(adjoint_rep(heis3phi))
    assert all(parts) == whole is True


def test_representation_value_equality_ignores_construction_route():
    a = aff2()
    assert adjoint_rep(a) == Representation(a, a.twist, (a.ad(0), a.ad(1)))


def test_rho_of_extends_linearly():
    r = adjoint_rep(sl2())
    x = Vector([1, Q(1, 2), -2])
    expect = r.action[0] + r.action[1].scale(Q(1, 2)) - r.action[2].scale(2)
    assert r.rho_of(x) == expect
