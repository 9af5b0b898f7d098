from fractions import Fraction as Q

import pytest

from homlie.coboundary import r_square_bracket
from homlie.corpus import aff2, aff2phi, lsa2, lsa2psi
from homlie.operators import (
    HomLeftSymmetric,
    OOperatorCandidate,
    _square_twist_condition,
    bialgebra_from_o_operator,
    commutator_hom_lie,
    intertwining_t_space,
    left_mult_rep,
    r_from_o_operator,
    run_defect_expansion_suite,
    validate_hlsa,
    validate_o_operator,
    wedge_solutions,
)
from homlie.report import InvalidStructureError, Witness
from homlie.representation import adjoint_rep, is_weakly_involutive_rep
from homlie.tensor import Matrix, ShapeError, Tensor3, Vector

from oracles import oracle_o_defect, oracle_r_square, oracle_square_twist_product


def _planes(m):
    return [[[Q(0)] * m for _ in range(m)] for _ in range(m)]


def _dim1_psi0():
    planes = [[[Q(1)]]]
    return HomLeftSymmetric(Tensor3(planes), Matrix.zero(1))


R_LIFTED = Matrix(
    [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
)


def test_square_twist_product_witness_matches_the_oracle():
    """u.v = psi^2(u).v on the 1-dim algebra with psi = 0, which no CLI check
    reaches: the residual at each (i, j) is the naive e_i.e_j - psi^2(e_i).e_j, and
    the witness is the first nonzero one, at (1, 1) with residual (1)."""
    p = _dim1_psi0()
    report = _square_twist_condition(p)
    want = {(i, j): oracle_square_twist_product(p.product, p.psi, i, j) for i in range(p.dim) for j in range(p.dim)}
    (i, j), first = next((at, v) for at, v in want.items() if not v.is_zero())
    assert (report.checked_condition, report.ok) == ("square-twist-product-condition", False)
    assert report.witnesses == (Witness((i + 1, j + 1), first),)
    assert report.witnesses[0] == Witness((1, 1), Vector([1]))


def test_validate_hlsa_builtins():
    assert validate_hlsa(lsa2()).ok
    assert validate_hlsa(lsa2psi()).ok


def test_validate_hlsa_multiplicativity_witness():
    planes = [[[Q(1)]]]
    p = HomLeftSymmetric(Tensor3(planes), Matrix([[2]]))
    rep = validate_hlsa(p)
    assert not rep.ok
    w = rep.first_witness()
    assert w.indices == (1, 1)
    assert w.residual == Vector([-2])


def test_validate_hlsa_associator_witness():
    planes = _planes(2)
    planes[0][1][0] = Q(1)  # e1.e2 = e1, nothing else
    p = HomLeftSymmetric(Tensor3(planes), Matrix.identity(2))
    rep = validate_hlsa(p)
    assert not rep.ok
    sub = {s.checked_condition: s.ok for s in rep.subreports}
    assert sub == {
        "product-twist-multiplicative": True,
        "associator-twist-symmetric": False,
    }
    w = rep.first_witness()
    assert w.indices == (1, 2, 2)
    assert w.residual == Vector([1, 0])


def test_commutator_and_left_multiplication():
    p = lsa2()
    g = commutator_hom_lie(p)
    assert g.bracket.is_zero()  # e2.e2 = e1 is commutative
    assert g.twist == Matrix.identity(2)
    assert g.label == "g(lsa2)"

    assert p.left_mult(0).is_zero()
    assert p.left_mult(1) == Matrix([[0, 1], [0, 0]])

    rep = left_mult_rep(p)
    assert rep.base == g
    assert list(rep.action) == [p.left_mult(0), p.left_mult(1)]


def test_commutator_rejects_non_jacobi_products():
    # e1.e2 = e1 and e1.e3 = e3 antisymmetrize to a bracket that breaks
    # the Jacobi identity, so the constructor must refuse
    planes = _planes(3)
    planes[0][1][0] = Q(1)
    planes[0][2][2] = Q(1)
    p = HomLeftSymmetric(Tensor3(planes), Matrix.identity(3))
    with pytest.raises(InvalidStructureError):
        commutator_hom_lie(p)


def test_o_operator_defect_on_aff2_adjoint():
    a = aff2()
    cand = OOperatorCandidate(a, adjoint_rep(a), Matrix.identity(2))
    expected = oracle_o_defect([a.ad(0), a.ad(1)], a, Matrix.identity(2), 0, 1)
    assert expected == Vector([-1, 0])
    assert cand.defect(0, 1) == expected
    assert cand.defect(1, 0) == -expected
    assert cand.defect(0, 0).is_zero()

    rep = validate_o_operator(cand)
    assert not rep.ok
    w = rep.first_witness()
    assert w.indices == (1, 2)
    assert w.residual == Vector([-1, 0])


def test_identity_is_o_operator_for_left_multiplication():
    p = lsa2()
    rep = left_mult_rep(p)
    cand = OOperatorCandidate(rep.base, rep, Matrix.identity(2))
    assert validate_o_operator(cand).ok
    for i in range(2):
        assert (
            oracle_o_defect(list(rep.action), rep.base, Matrix.identity(2), i, 1 - i)
            == Vector([0, 0])
        )


def test_r_from_non_o_operator_expands_defects():
    a = aff2()
    cand = OOperatorCandidate(a, adjoint_rep(a), Matrix.identity(2))
    big, r, rep = r_from_o_operator(cand)

    assert big.dim == 4
    assert r.coeffs == R_LIFTED

    entries = {
        (0, 2, 3): Q(-1),
        (2, 0, 3): Q(1),
        (2, 3, 0): Q(-1),
        (0, 3, 2): Q(1),
        (3, 0, 2): Q(-1),
        (3, 2, 0): Q(1),
    }
    box = [[[entries.get((i, j, k), Q(0)) for k in range(4)] for j in range(4)]
           for i in range(4)]
    expected = Tensor3(box)
    assert oracle_r_square(big, r.coeffs) == expected
    assert r_square_bracket(r) == expected

    assert rep.ok  # expansion + vacuous implications all hold
    assert rep.info["chybe"] is False
    assert rep.info["o_operator"] == "fail"
    assert rep.info["phi_invertible"] is True
    names = [s.checked_condition for s in rep.subreports]
    assert names == [
        "twist-compat",
        "defect-expansion",
        "o-operator-implies-chybe",
        "invertible-twist-converse",
    ]


def test_r_from_genuine_o_operator_solves_chybe():
    p = lsa2()
    rep = left_mult_rep(p)
    cand = OOperatorCandidate(rep.base, rep, Matrix.identity(2))
    big, r, report = r_from_o_operator(cand)

    assert r.coeffs == R_LIFTED
    assert oracle_r_square(big, r.coeffs).is_zero()
    assert r_square_bracket(r).is_zero()
    assert report.ok
    assert report.info["chybe"] is True
    assert report.info["o_operator"] == "pass"

    from homlie.hom_lie import validate_hom_lie

    assert validate_hom_lie(big).ok


def test_r_from_o_operator_gates():
    bad_rep = adjoint_rep(aff2phi())
    with pytest.raises(InvalidStructureError):
        r_from_o_operator(OOperatorCandidate(aff2phi(), bad_rep, Matrix.identity(2)))

    p = lsa2psi()
    rep = left_mult_rep(p)
    t = Matrix([[0, 0], [1, 0]])  # T psi != psi T
    with pytest.raises(InvalidStructureError):
        r_from_o_operator(OOperatorCandidate(rep.base, rep, t))


def test_o_operator_candidate_shape_gates():
    a = aff2()
    with pytest.raises(ShapeError):
        OOperatorCandidate(a, adjoint_rep(aff2phi()), Matrix.identity(2))
    with pytest.raises(ShapeError):
        OOperatorCandidate(a, adjoint_rep(a), Matrix.zero(3, 2))


@pytest.mark.parametrize(
    "make, holds", [(lsa2, True), (lsa2psi, True), (_dim1_psi0, False)], ids=("lsa2", "lsa2psi", "dim1-psi0")
)
def test_left_multiplication_is_weakly_involutive_iff_u_v_is_psi2_u_v(make, holds):
    """(V, psi, L) is weakly involutive exactly when u.v = psi^2(u).v, and then
    psi^2 is an O-operator; on the 1-dim algebra with psi = 0 both fail."""
    p = make()
    assert validate_hlsa(p).ok
    rep = left_mult_rep(p)
    assert is_weakly_involutive_rep(rep).ok == _square_twist_condition(p).ok == holds
    if holds:
        assert validate_o_operator(OOperatorCandidate(rep.base, rep, p.psi @ p.psi)).ok


def test_wedge_solutions_on_lsa2psi():
    p = lsa2psi()
    r1, r2, rep = wedge_solutions(p)

    assert r1.coeffs == R_LIFTED
    assert r2.coeffs == Matrix(
        [[0, 0, -1, -2], [0, 0, 0, -1], [1, 0, 0, 0], [2, 1, 0, 0]]
    )
    assert r1.coeffs != r2.coeffs

    assert rep.ok
    assert rep.info["shared_cobracket_hypotheses"] is True
    names = [s.checked_condition for s in rep.subreports]
    assert names == [
        "chybe-r1",
        "chybe-r2",
        "induced-cobrackets-coincide",
        "coboundary-r1",
        "coboundary-r2",
    ]
    cob1 = next(s for s in rep.subreports if s.checked_condition == "coboundary-r1")
    assert cob1.info["classification"] == "triangular"


def test_wedge_solutions_gate():
    with pytest.raises(InvalidStructureError):
        wedge_solutions(_dim1_psi0())


def test_bialgebra_from_o_operator():
    p = lsa2()
    rep = left_mult_rep(p)
    cand = OOperatorCandidate(rep.base, rep, Matrix.identity(2))
    bi, report = bialgebra_from_o_operator(cand)
    assert bi.algebra.dim == 4
    assert report.ok
    names = [s.checked_condition for s in report.subreports]
    assert names == ["bialgebra", "triple-equivalence"]


def test_bialgebra_from_o_operator_validates_the_bialgebra_once(monkeypatch):
    import homlie.bialgebra
    import homlie.operators

    calls = []
    real = homlie.bialgebra.validate_bialgebra

    def counting(bi):
        calls.append(bi)
        return real(bi)

    for module in (homlie.bialgebra, homlie.operators):
        if hasattr(module, "validate_bialgebra"):
            monkeypatch.setattr(module, "validate_bialgebra", counting)
    rep = left_mult_rep(lsa2())
    bi, report = bialgebra_from_o_operator(
        OOperatorCandidate(rep.base, rep, Matrix.identity(2))
    )
    assert len(calls) == 1
    assert report.subreports[0] == report.subreports[1].subreports[0]


def test_bialgebra_from_o_operator_gates_on_defect():
    a = aff2()
    cand = OOperatorCandidate(a, adjoint_rep(a), Matrix.identity(2))
    with pytest.raises(InvalidStructureError):
        bialgebra_from_o_operator(cand)


def test_intertwining_t_space_dimensions():
    a = aff2()
    assert len(intertwining_t_space(a, adjoint_rep(a))) == 4

    rep2 = left_mult_rep(lsa2())
    assert len(intertwining_t_space(rep2.base, rep2)) == 4

    rep3 = left_mult_rep(lsa2psi())
    space = intertwining_t_space(rep3.base, rep3)
    assert len(space) == 2
    for t in space:
        assert t @ rep3.beta == rep3.base.twist @ t


def test_defect_expansion_suite():
    a = aff2()
    rep = run_defect_expansion_suite(a, adjoint_rep(a))
    assert rep.ok
    assert rep.info == {"space_dim": 4}

    rep3 = left_mult_rep(lsa2psi())
    out = run_defect_expansion_suite(rep3.base, rep3)
    assert out.ok
    assert out.info == {"space_dim": 2}
    # seed and count stay accepted positionally, and change nothing
    assert run_defect_expansion_suite(rep3.base, rep3, 9, 20) == out


def test_wedge_solutions_computes_each_r_square_once(monkeypatch):
    import homlie.coboundary
    import homlie.operators

    calls = []

    def counting(r):
        calls.append(r)
        return r_square_bracket(r)

    for module in (homlie.coboundary, homlie.operators):
        monkeypatch.setattr(module, "r_square_bracket", counting)
    r1, r2, report = wedge_solutions(lsa2())
    assert report.ok and report.info["shared_cobracket_hypotheses"]
    assert calls == [r1, r2]


def test_wedge_solutions_build_each_induced_cobracket_once(monkeypatch):
    """induced-cobrackets-coincide and the two coboundary verdicts read one
    bialgebra per r."""
    import homlie.coboundary
    import homlie.operators

    calls, real = [], homlie.coboundary.cobracket_from_r

    def counting(r):
        calls.append(r)
        return real(r)

    for module in (homlie.coboundary, homlie.operators):
        if hasattr(module, "cobracket_from_r"):
            monkeypatch.setattr(module, "cobracket_from_r", counting)
    r1, r2, report = wedge_solutions(lsa2())
    assert report.ok and report.info["shared_cobracket_hypotheses"]
    assert calls == [r1, r2]


def test_wedge_solutions_build_the_semidirect_algebra_once(monkeypatch):
    """T = id and T = psi^2 are lifted into one g(V) |x V*: the Hom-dual action
    behind it is built once, and both r live in that one algebra."""
    from homlie import operators

    duals = _counting(monkeypatch, operators, "hom_dual_representation")
    r1, r2, report = wedge_solutions(lsa2())
    assert report.ok and len(duals) == 1
    assert r1.base is r2.base


def _counting(monkeypatch, module, name):
    """A list that grows by one for each call of module.name from now on."""
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_the_o_operator_bialgebra_evaluates_the_defects_once(monkeypatch):
    from homlie import operators

    p = lsa2psi()
    rep = left_mult_rep(p)
    cand = OOperatorCandidate(rep.base, rep, p.psi @ p.psi)
    want = bialgebra_from_o_operator(cand)[1]
    defects = _counting(monkeypatch, operators, "_defect_tensor")
    involutive = _counting(monkeypatch, operators, "is_weakly_involutive_rep")
    got = bialgebra_from_o_operator(cand)[1]
    assert got == want and got.to_json() == want.to_json()
    assert (len(defects), len(involutive)) == (1, 1)
    defects.clear(), involutive.clear()
    r_from_o_operator(cand)
    assert (len(defects), len(involutive)) == (1, 1)


def test_wedge_solutions_build_no_o_operator_report(monkeypatch):
    """Both lifts skip the O-operator defects, their expansion and r's own
    twist-compatibility scan: the two scans left are the coboundary verdicts'."""
    from homlie import coboundary, operators

    defects = _counting(monkeypatch, operators, "_defect_tensor")
    expansions = _counting(monkeypatch, operators, "_expansion")
    compat = _counting(monkeypatch, coboundary, "check_twist_compat")
    monkeypatch.setattr(operators, "check_twist_compat", coboundary.check_twist_compat)
    _, _, report = wedge_solutions(lsa2())
    assert report.ok and report.info["shared_cobracket_hypotheses"]
    assert (len(defects), len(expansions), len(compat)) == (0, 0, 2)


def test_the_o_operator_bialgebra_neither_expands_nor_squares_r(monkeypatch):
    from homlie import coboundary, operators

    p = lsa2psi()
    rep = left_mult_rep(p)
    cand = OOperatorCandidate(rep.base, rep, p.psi @ p.psi)
    expansions = _counting(monkeypatch, operators, "_expansion")
    squares = _counting(monkeypatch, coboundary, "r_square_bracket")
    monkeypatch.setattr(operators, "r_square_bracket", coboundary.r_square_bracket)
    _, report = bialgebra_from_o_operator(cand)
    assert report.ok
    assert (expansions, squares) == ([], [])
