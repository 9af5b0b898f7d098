import random
from fractions import Fraction as Q
from itertools import product

import pytest

from homlie.bialgebra import HomLieBialgebra, dual_algebra, validate_bialgebra
from homlie.coboundary import (
    RMatrix,
    _adjoint_kills,
    _adjoint_on,
    _co_jacobiator,
    check_chybe,
    check_twist_compat,
    cobracket_from_r,
    dual_side_verdict,
    form_from_invertible_r,
    hom_double,
    r_square_bracket,
    run_jacobiator_suite,
    run_residual_suite,
    skew_twist_compat_kernel,
    symmetric_part_invariance,
    twist_compat_kernel,
    validate_coboundary,
)
from homlie.corpus import (
    abelian2,
    aff2,
    aff2_triangular_bialgebra,
    aff2_zero_bialgebra,
    aff2phi,
    heis3,
    sl2,
)
from homlie.hom_lie import HomLieAlgebra, validate_hom_lie
from homlie.report import InvalidStructureError
from homlie.tensor import Matrix, ShapeError, Tensor3, Vector, contract_sum, dense

from oracles import (
    bracket_vec,
    oracle_ad3,
    oracle_cobracket,
    oracle_jac_delta,
    oracle_operator_route,
    oracle_r_square,
)
from sampling import random_combination, random_matrix


def _wedge12():
    return RMatrix(aff2(), Matrix([[0, 1], [-1, 0]]))


def _e11():
    return RMatrix(aff2(), Matrix([[1, 0], [0, 0]]))


def _sym12():
    return RMatrix(aff2(), Matrix([[0, 1], [1, 0]]))


def test_cobracket_of_wedge_r():
    r = _wedge12()
    expected = oracle_cobracket(aff2(), r.coeffs)
    assert expected.plane(0).is_zero()
    assert expected.plane(1) == Matrix([[0, -1], [1, 0]])
    cb = cobracket_from_r(r)
    assert cb.coeffs == expected
    assert dual_algebra(cb).bracket.plane(0).row(1) == Vector([0, -1])


def test_cobracket_of_e11_r():
    r = _e11()
    expected = oracle_cobracket(aff2(), r.coeffs)
    assert expected.plane(0).is_zero()
    assert expected.plane(1) == Matrix([[-2, 0], [0, 0]])
    assert cobracket_from_r(r).coeffs == expected


def test_r_square_of_wedge_vanishes():
    r = _wedge12()
    assert oracle_r_square(aff2(), r.coeffs).is_zero()
    assert r_square_bracket(r).is_zero()
    assert check_chybe(r).ok
    assert check_chybe(r).info["skew"] is True


def test_r_square_of_symmetric_r_has_two_entries():
    r = _sym12()
    expected = oracle_r_square(aff2(), r.coeffs)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                want = {(0, 0, 1): Q(-2), (1, 0, 0): Q(2)}.get((i, j, k), Q(0))
                assert expected[i, j, k] == want
    assert r_square_bracket(r) == expected

    rep = check_chybe(r)
    assert not rep.ok
    assert rep.witnesses[0].indices == (1, 1, 2)
    assert rep.witnesses[0].residual == Q(-2)
    assert rep.info["skew"] is False


@pytest.mark.parametrize("make", (abelian2, aff2, heis3, sl2), ids=lambda f: f.__name__)
def test_r_square_matches_oracle_on_random_r(make):
    rng = random.Random(97)
    a = make()
    for _ in range(8):
        rc = random_matrix(rng, a.dim)
        assert r_square_bracket(RMatrix(a, rc)) == oracle_r_square(a, rc)
        assert cobracket_from_r(RMatrix(a, rc)).coeffs == oracle_cobracket(a, rc)


def test_symmetric_part_invariance_witness_is_first_failure():
    # sym(r) = 2(e1 (x) e2 + e2 (x) e1) already breaks at x = e1
    rep = symmetric_part_invariance(_sym12())
    assert not rep.ok
    assert rep.witnesses[0].indices == (1,)
    assert rep.witnesses[0].residual == Matrix([[4, 0], [0, 0]])

    # for r = e1 (x) e1 the first failure is at x = e2 instead
    rep2 = symmetric_part_invariance(_e11())
    assert not rep2.ok
    assert rep2.witnesses[0].indices == (2,)
    assert rep2.witnesses[0].residual == Matrix([[-4, 0], [0, 0]])


def test_twist_compat_kernels():
    # phi = Id puts no constraint at all
    assert len(twist_compat_kernel(aff2())) == 4
    skew = skew_twist_compat_kernel(aff2())
    assert len(skew) == 1
    m = skew[0]
    assert m.is_skew() and m[0, 1] != 0

    # aff2phi: phi r = r phi^T forces r = [[a, b], [b, 0]], all symmetric
    kernel = twist_compat_kernel(aff2phi())
    assert len(kernel) == 2
    for m in kernel:
        assert m == m.transpose()
        assert check_twist_compat(RMatrix(aff2phi(), m)).ok
    assert skew_twist_compat_kernel(aff2phi()) == []


def test_twist_compat_kernel_heis3phi(heis3phi):
    skew = skew_twist_compat_kernel(heis3phi)
    assert len(skew) == 1
    assert check_twist_compat(RMatrix(heis3phi, skew[0])).ok
    assert skew[0].is_skew()


def test_check_twist_compat_failure():
    rep = check_twist_compat(RMatrix(aff2phi(), Matrix([[0, 1], [-1, 0]])))
    assert not rep.ok


def test_validate_coboundary_triangular():
    rep = validate_coboundary(aff2(), _wedge12())
    assert rep.ok
    assert rep.info["classification"] == "triangular"
    assert rep.info["chybe"] is True
    names = [s.checked_condition for s in rep.subreports]
    assert names == [
        "symmetric-part-invariance",
        "adjoint-kills-r-square",
        "dual-weakly-involutive-hom-lie",
        "conditions-match-dual-side",
    ]


def test_validate_coboundary_zero_r_is_triangular():
    rep = validate_coboundary(aff2(), RMatrix(aff2(), Matrix.zero(2)))
    assert rep.ok
    assert rep.info["classification"] == "triangular"


def test_validate_coboundary_rejecting_e11():
    rep = validate_coboundary(aff2(), _e11())
    assert not rep.ok
    assert rep.info["classification"] == "none"
    sub = {s.checked_condition: s.ok for s in rep.subreports}
    assert sub["symmetric-part-invariance"] is False
    assert sub["dual-weakly-involutive-hom-lie"] is False
    assert sub["conditions-match-dual-side"] is True


def test_validate_coboundary_gates():
    from homlie.corpus import aff2bad

    with pytest.raises(InvalidStructureError):
        validate_coboundary(aff2bad(), RMatrix(aff2bad(), Matrix.zero(2)))
    with pytest.raises(InvalidStructureError):
        validate_coboundary(aff2phi(), RMatrix(aff2phi(), Matrix([[0, 1], [-1, 0]])))


def test_dual_side_verdict_matches_conditions_on_kernel_samples(heis3phi):
    """Both directions of the equivalence, on seeded twist-compatible skew r."""
    rng = random.Random(2024)
    for a in (aff2(), heis3(), sl2(), heis3phi):
        kernel = skew_twist_compat_kernel(a)
        if not kernel:
            continue
        for _ in range(10):
            r = RMatrix(a, random_combination(rng, kernel))
            conds = symmetric_part_invariance(r).ok and _adjoint_kills(a, r_square_bracket(r)).ok
            assert conds == dual_side_verdict(r).ok


def test_jac_delta_matches_oracle_and_bracket_action(heis3phi):
    rng = random.Random(5)
    for a in (aff2(), heis3phi):
        kernel = twist_compat_kernel(a)
        n = a.dim
        for _ in range(6):
            rc = random_combination(rng, kernel)
            r = RMatrix(a, rc)
            cb = cobracket_from_r(r)
            rr = r_square_bracket(r)
            jd = contract_sum("kabc", *_co_jacobiator(a, cb.coeffs, "", cb.coeffs, ""))
            adj = contract_sum("kabc", *_adjoint_on(a, rr))
            for k in range(n):
                assert dense(jd, (n,) * 4, (k,)) == oracle_jac_delta(a, cb.coeffs, k)
                assert dense(adj, (n,) * 4, (k,)) == oracle_ad3(a, list(Vector.basis(n, k).entries), rr)
                # skew twist-compatible r makes the two sides equal; here r
                # need not be skew, so only the oracle agreement is asserted


def test_jacobiator_identity_on_skew_kernel(heis3phi):
    rng = random.Random(6)
    for a in (aff2(), heis3(), sl2(), heis3phi):
        kernel = skew_twist_compat_kernel(a)
        if not kernel:
            continue
        n = a.dim
        for _ in range(10):
            rc = random_combination(rng, kernel)
            r = RMatrix(a, rc)
            cb = cobracket_from_r(r)
            jd = contract_sum("kabc", *_co_jacobiator(a, cb.coeffs, "", cb.coeffs, ""))
            adj = contract_sum("kabc", *_adjoint_on(a, r_square_bracket(r)))
            for k in range(n):
                assert dense(jd, (n,) * 4, (k,)) == dense(adj, (n,) * 4, (k,))


def test_residual_suites_pass_on_weakly_involutive_corpus(heis3phi):
    for a in (abelian2(), aff2(), heis3(), sl2(), heis3phi):
        rep = run_residual_suite(a)
        assert rep.ok, a.label
        assert rep.info == {"space_dim": a.dim**2}
        rep2 = run_jacobiator_suite(a)
        assert rep2.ok, a.label
        assert rep2.info == {"kernel_dim": len(skew_twist_compat_kernel(a))}


def test_residual_identities_reject_non_weakly_involutive_base():
    with pytest.raises(InvalidStructureError):
        run_residual_suite(aff2phi())


def test_jacobiator_suite_on_empty_kernel_has_nothing_to_prove():
    rep = run_jacobiator_suite(aff2phi())
    assert rep.ok
    assert rep.info == {"kernel_dim": 0}


def test_operator_route():
    """The operator route [f_a, f_b] = ad"_{r#(f_a)} f_b + ad"_{sigma(r)#(f_b)} f_a
    gives the bracket that r's cobracket induces on g*: [f1, f2] = -f2 for e1^e2."""
    r = _wedge12()
    dual = r.bialgebra.dual
    assert oracle_operator_route(r.base, r.coeffs) == dual.bracket
    assert dual.bracket.plane(0).row(1) == Vector([0, -1])
    assert dual.twist == Matrix.identity(2)


def test_operator_route_matches_cobracket_route_on_kernel_samples(heis3phi):
    """The two routes agree on seeded twist-compatible r over weakly involutive bases."""
    rng = random.Random(14)
    nonzero = 0
    for a in (aff2(), heis3(), sl2(), heis3phi):
        kernel = twist_compat_kernel(a)
        for _ in range(6):
            rc = random_combination(rng, kernel)
            dual = dual_algebra(cobracket_from_r(RMatrix(a, rc)))
            assert oracle_operator_route(a, rc) == dual.bracket
            nonzero += not dual.bracket.is_zero()
    assert nonzero


def test_sharp_bracket_defect_is_r_square():
    """[r# phi* (f_a), r# phi* (f_b)] - r# phi* [f_a, f_b]_{g*} is [r,r] contracted
    with (f_a, f_b) in its first two slots, for twist-compatible r over a weakly
    involutive base; r# has the matrix r^T. It is zero for the solution e1^e2, and
    -2 e2 at (f1, f1) for the symmetric non-solution."""
    for r in (_wedge12(), _sym12()):
        assert check_twist_compat(r).ok
        a, n = r.base, r.dim
        s = r.coeffs.transpose() @ a.twist.transpose()  # r# phi*
        dual = dual_algebra(cobracket_from_r(r))
        rr = r_square_bracket(r)
        for i, j in product(range(n), repeat=2):
            x, y = (list(s.apply(Vector.basis(n, k)).entries) for k in (i, j))
            defect = Vector(bracket_vec(a, x, y)) - s.apply(dual.bracket.plane(i).row(j))
            assert defect == Vector([rr[i, j, l] for l in range(n)])
    assert r_square_bracket(_wedge12()).is_zero()
    assert dense(r_square_bracket(_sym12()), (2,) * 3, (0, 0)) == Vector([0, -2])


def test_form_from_invertible_r():
    b, rep = form_from_invertible_r(_wedge12())
    assert b.gram == Matrix([[0, -1], [1, 0]])
    assert rep.ok
    assert rep.info["chybe"] is True
    assert rep.info["converse_discrepancy"] is False


def test_form_from_invertible_r_gates():
    with pytest.raises(InvalidStructureError):
        form_from_invertible_r(_sym12())  # not skew
    with pytest.raises(InvalidStructureError):
        form_from_invertible_r(RMatrix(aff2(), Matrix.zero(2)))  # singular


def test_hom_double_on_builtin_bialgebras():
    for builder in (aff2_zero_bialgebra, aff2_triangular_bialgebra):
        a, cb = builder()
        big, r, rep = hom_double(HomLieBialgebra(cb))
        assert big.algebra.dim == 4
        assert validate_hom_lie(big.algebra).ok
        assert r.coeffs == Matrix(
            [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        assert rep.ok
        names = [s.checked_condition for s in rep.subreports]
        assert names == [
            "canonical-r-twist-compat",
            "canonical-r-chybe",
            "canonical-r-symmetric-part",
            "primal-inclusion-homomorphism",
            "dual-inclusion-homomorphism",
        ]
        # the induced cobracket makes the double itself a bialgebra
        assert big.cobracket == cobracket_from_r(r)
        assert validate_bialgebra(big).ok


def test_hom_double_gates_on_broken_bialgebra():
    planes = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    planes[1][0][0] = Q(1)
    from homlie.bialgebra import Cobracket

    bi = HomLieBialgebra(Cobracket(aff2(), Tensor3(planes)))
    with pytest.raises(InvalidStructureError):
        hom_double(bi)


def test_rmatrix_is_skew():
    assert not _sym12().coeffs.is_skew()
    assert _wedge12().coeffs.is_skew()


def test_r_on_another_algebra_is_rejected():
    on_sl2 = RMatrix(sl2(), Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    on_abelian2 = RMatrix(abelian2(), Matrix([[0, 1], [-1, 0]]))
    for a, r in ((abelian2(), on_sl2), (aff2(), on_abelian2)):
        with pytest.raises(ShapeError, match="different algebra"):
            validate_coboundary(a, r)
    # another object with the same bracket and twist is the same algebra
    base = on_abelian2.base
    copy = HomLieAlgebra(base.bracket, base.twist, base.label)
    assert validate_coboundary(copy, on_abelian2) == validate_coboundary(base, on_abelian2)
