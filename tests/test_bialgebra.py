from fractions import Fraction as Q

import pytest

from homlie.bialgebra import (
    Cobracket,
    HomLieBialgebra,
    MatchedPair,
    check_bialgebra_homomorphism,
    check_triple_equivalence,
    cobracket_from_bracket,
    d_double,
    double_bracket,
    double_from_matched_pair,
    dual_algebra,
    standard_form,
    validate_bialgebra,
    validate_manin_triple,
    validate_matched_pair,
    zero_cobracket,
)
from homlie.corpus import aff2, aff2_triangular_bialgebra, aff2_zero_bialgebra, heis3
from homlie.hom_lie import HomLieAlgebra, is_weakly_involutive, validate_hom_lie
from homlie.report import InvalidStructureError
from homlie.tensor import ShapeError
from homlie.representation import adjoint_rep, fixes_carrier_square, is_weakly_involutive_rep
from homlie.tensor import Matrix, Tensor3, Vector


def _triangular():
    _, cb = aff2_triangular_bialgebra()
    return HomLieBialgebra(cb)


def _zero():
    _, cb = aff2_zero_bialgebra()
    return HomLieBialgebra(cb)


def _cobracket(a, planes):
    return Cobracket(a, Tensor3(planes))


def test_dual_of_triangular_cobracket():
    _, cb = aff2_triangular_bialgebra()
    dual = dual_algebra(cb)
    # [f1, f2] = -f2
    assert dual.bracket_of(Vector.basis(2, 0), Vector.basis(2, 1)) == Vector([0, -1])
    assert dual.twist == Matrix.identity(2)
    assert validate_hom_lie(dual).ok
    assert is_weakly_involutive(dual).ok


def test_dual_of_zero_cobracket_is_abelian_with_transposed_twist():
    from homlie.corpus import aff2phi

    a = aff2phi()
    dual = dual_algebra(zero_cobracket(a))
    assert dual.bracket.is_zero()
    assert dual.twist == a.twist.transpose()


def test_cobracket_bracket_round_trip():
    a, cb = aff2_triangular_bialgebra()
    assert cobracket_from_bracket(dual_algebra(cb), a).coeffs == cb.coeffs
    # and in the other direction, reading heis3's bracket as a cobracket
    h = heis3()
    assert dual_algebra(cobracket_from_bracket(h, h)).bracket == h.bracket


def test_builtin_bialgebras_validate():
    for bi in (_zero(), _triangular()):
        rep = validate_bialgebra(bi)
        assert rep.ok
        names = [s.checked_condition for s in rep.subreports]
        assert names == [
            "primal-hom-lie",
            "primal-weakly-involutive",
            "dual-hom-lie",
            "dual-weakly-involutive",
            "cobracket-compatibility",
        ]


def test_scaled_cobracket_is_still_a_bialgebra():
    """Compatibility is linear in the cobracket and the dual bracket scales,
    so any rational multiple of a genuine cobracket is again one."""
    a, cb = aff2_triangular_bialgebra()
    scaled = _cobracket(a, [[[x * Q(-3, 2) for x in row] for row in plane]
                            for plane in cb.coeffs.entries])
    assert validate_bialgebra(HomLieBialgebra(scaled)).ok


def test_non_skew_cobracket_fails_on_the_dual_side():
    # delta(e2) = e1 (x) e1 makes [f1, f1] = f2 on the dual: not skew
    a = aff2()
    planes = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    planes[1][0][0] = Q(1)
    bi = HomLieBialgebra(_cobracket(a, planes))
    rep = validate_bialgebra(bi)
    assert not rep.ok
    sub = {s.checked_condition: s.ok for s in rep.subreports}
    assert sub["dual-hom-lie"] is False
    assert sub["primal-hom-lie"] is True
    assert sub["cobracket-compatibility"] is True


def test_incompatible_cobracket_witness():
    # delta(e1) = e2 (x) e2, delta(e2) = 0: Delta([e1,e2]) = Delta(e1) != 0
    # while the right side vanishes, so compatibility fails at (1,2).
    a = aff2()
    planes = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    planes[0][1][1] = Q(1)
    bi = HomLieBialgebra(_cobracket(a, planes))
    rep = validate_bialgebra(bi)
    assert not rep.ok
    compat = next(
        s for s in rep.subreports if s.checked_condition == "cobracket-compatibility"
    )
    assert not compat.ok
    assert compat.witnesses[0].indices == (1, 2)
    assert compat.witnesses[0].residual == Matrix([[0, 0], [0, 1]])


def test_canonical_matched_pair_of_triangular_bialgebra():
    bi = _triangular()
    mp = bi.matched_pair
    assert validate_matched_pair(mp).ok
    dbl = double_from_matched_pair(mp)
    assert dbl.dim == 4
    assert validate_hom_lie(dbl).ok
    assert dbl == d_double(bi)


def test_d_double_mixed_bracket_is_coadjoint_on_zero_cobracket():
    dbl = d_double(_zero())
    # [e1, f1] = -f2: classical coadjoint action, dual side abelian
    assert dbl.bracket_of(Vector.basis(4, 0), Vector.basis(4, 2)) == Vector([0, 0, 0, -1])
    assert dbl.bracket_of(Vector.basis(4, 2), Vector.basis(4, 3)).is_zero()
    assert validate_hom_lie(dbl).ok


def test_double_from_matched_pair_gates_on_broken_input():
    # an incompatible cobracket gives a quadruple that is not a matched
    # pair of valid algebras; the gated constructor must refuse it
    planes = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    planes[0][1][1] = Q(1)
    broken_bi = HomLieBialgebra(_cobracket(aff2(), planes))
    broken = broken_bi.matched_pair
    assert not (
        validate_matched_pair(broken).ok
        and validate_hom_lie(broken.right).ok
    )
    with pytest.raises(InvalidStructureError):
        double_from_matched_pair(broken)


def test_manin_triple_on_builtin_doubles():
    for bi in (_zero(), _triangular()):
        rep = validate_manin_triple(d_double(bi), 2)
        assert rep.ok
        names = [s.checked_condition for s in rep.subreports]
        assert names == [
            "ambient-hom-lie",
            "blocks-are-subalgebras",
            "blocks-isotropic",
            "standard-form-invariant",
        ]


def test_manin_triple_detects_non_isotropic_blocks():
    # aff2 (+) aff2 with an identification bracket is not block-split;
    # simplest failure: the double of a broken bialgebra
    planes = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    planes[1][0][0] = Q(1)
    bi = HomLieBialgebra(_cobracket(aff2(), planes))
    rep = validate_manin_triple(d_double(bi), 2)
    assert not rep.ok


def test_manin_triple_requires_even_split():
    with pytest.raises(ShapeError):
        validate_manin_triple(heis3(), 1)


def test_standard_form_gram():
    assert standard_form(2).gram == Matrix(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_standard_form_pairs_each_block_only_with_the_other(n):
    """No Gram entry of the standard pairing lies inside either n-dim block, which
    is why validate_manin_triple reports blocks-isotropic without a scan."""
    gram = standard_form(n).gram
    assert all(gram[i, j] == 0 for i in range(2 * n) for j in range(2 * n) if (i >= n) == (j >= n))


def test_triple_equivalence_positive():
    for bi in (_zero(), _triangular()):
        rep = check_triple_equivalence(bi)
        assert rep.ok
        assert rep.info["common_verdict"] == "pass"
        assert rep.info["bialgebra"] == "pass"
        assert rep.info["matched_pair"] == "pass"
        assert rep.info["manin_triple"] == "pass"


def test_triple_equivalence_agrees_in_the_negative():
    planes = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    planes[1][0][0] = Q(1)
    bi = HomLieBialgebra(_cobracket(aff2(), planes))
    rep = check_triple_equivalence(bi)
    assert rep.ok  # the three verdicts agree...
    assert rep.info["common_verdict"] == "fail"  # ...on failure


def double_verdicts(mp: MatchedPair) -> tuple[tuple[bool, ...], bool]:
    """The parts and the whole of weak involutivity of the double of a matched
    pair: each algebra with its action, rho(x) phi'^2 = rho(x) and
    rho'(x') phi^2 = rho'(x') (each action's carrier twist is the other algebra's);
    the statement is that the whole holds exactly when every part does."""
    parts = (
        is_weakly_involutive(mp.left).ok and is_weakly_involutive_rep(mp.rho).ok,
        is_weakly_involutive(mp.right).ok and is_weakly_involutive_rep(mp.rho_prime).ok,
        fixes_carrier_square("left-action-fixes-right-twist-square", mp.rho).ok,
        fixes_carrier_square("right-action-fixes-left-twist-square", mp.rho_prime).ok,
    )
    return parts, is_weakly_involutive(double_bracket(mp)).ok


@pytest.mark.parametrize("make", (_zero, _triangular), ids=("aff2-zero", "aff2-triangular"))
def test_double_weak_involutivity_by_parts_on_canonical_pair(make):
    parts, whole = double_verdicts(make().matched_pair)
    assert all(parts) == whole is True


def test_bialgebra_homomorphism_identity_and_scaling():
    bi = _triangular()
    assert check_bialgebra_homomorphism(Matrix.identity(2), bi, bi).ok

    rep = check_bialgebra_homomorphism(Matrix([[2, 0], [0, 1]]), bi, bi)
    assert not rep.ok
    sub = {s.checked_condition: s.ok for s in rep.subreports}
    assert sub == {
        "algebra-homomorphism": True,
        "twist-intertwined": True,
        "cobracket-intertwined": False,
    }
    assert rep.first_witness().indices == (2,)


def test_identity_is_not_a_homomorphism_between_different_cobrackets():
    rep = check_bialgebra_homomorphism(Matrix.identity(2), _zero(), _triangular())
    assert not rep.ok
    assert rep.first_witness().indices == (2,)


def test_matched_pair_shape_gates():
    a = aff2()
    with pytest.raises(ShapeError):
        MatchedPair(adjoint_rep(a), adjoint_rep(heis3()))


def test_delta_of_extends_linearly():
    _, cb = aff2_triangular_bialgebra()
    x = Vector([Q(3), Q(-1, 2)])
    assert cb.delta_of(x) == cb.delta(0).scale(3) + cb.delta(1).scale(Q(-1, 2))


def test_triple_equivalence_builds_the_dual_algebra_once(monkeypatch):
    import homlie.bialgebra

    calls = []
    real = homlie.bialgebra.dual_algebra

    def counting(cb):
        calls.append(cb)
        return real(cb)

    monkeypatch.setattr(homlie.bialgebra, "dual_algebra", counting)
    _, cb = aff2_triangular_bialgebra()
    assert check_triple_equivalence(HomLieBialgebra(cb)).ok
    assert calls == [cb]


def _non_skew():
    """delta(e2) = e1 (x) e1 on aff2: the dual bracket [f1, f1] = f2 is not skew."""
    planes = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    planes[1][0][0] = Q(1)
    return HomLieBialgebra(_cobracket(aff2(), planes))


@pytest.mark.parametrize("make", (_zero, _triangular, _non_skew), ids=("aff2-zero", "aff2-triangular", "non-skew"))
def test_each_side_is_judged_once_and_read_by_name(make, monkeypatch):
    """V1 and V2 carry the two side verdicts, the algebra's as primal-*/left-*
    and the dual's as dual-*/right-*, and each side's two reports are evaluated
    once however many verdicts read them."""
    import homlie.bialgebra

    calls = []
    for name in ("validate_hom_lie", "is_weakly_involutive"):
        real = getattr(homlie.bialgebra, name)
        monkeypatch.setattr(homlie.bialgebra, name, lambda a, real=real, name=name: calls.append((name, a)) or real(a))
    bi = make()
    v1, v2 = bi.verdict, bi.matched_pair_verdict
    check_triple_equivalence(bi)
    for side, algebra in ((bi.primal_side, bi.algebra), (bi.dual_side, bi.dual)):
        assert [c for c in calls if c[1] is algebra] == [("validate_hom_lie", algebra), ("is_weakly_involutive", algebra)]
        assert side.hom_lie == validate_hom_lie(algebra)
        assert side.weakly_involutive == is_weakly_involutive(algebra)
    parts1 = {s.checked_condition: s for s in v1.subreports}
    parts2 = {s.checked_condition: s for s in v2.subreports}
    for side, name1, name2 in ((bi.primal_side, "primal", "left"), (bi.dual_side, "dual", "right")):
        for report, what in ((side.hom_lie, "hom-lie"), (side.weakly_involutive, "weakly-involutive")):
            assert parts1[f"{name1}-{what}"] == report.renamed(f"{name1}-{what}")
            assert parts2[f"{name2}-{what}"] == report.renamed(f"{name2}-{what}")


# Doubles on e1..e4 with blocks {e1, e2} and {e3, e4}, identity twist plus the
# given twist entries (row, column), and the given skew bracket entries
# [e_i, e_j] (i, j, k): blocks-are-subalgebras scans each block, and in it each
# i, the twist case (i,) before the bracket cases (i, j); the residual is the
# part of phi(e_i) or [e_i, e_j] outside the block.
BLOCK_LEAKS = {
    "twist-first": (
        {(2, 1): Q(5), (0, 1): Q(1)}, {}, (2,), [0, 0, 5, 0],
        "twist leaves the first block",
    ),
    "bracket-first": (
        {}, {(0, 1, 3): Q(1), (0, 1, 0): Q(1)}, (1, 2), [0, 0, 0, 1],
        "bracket leaves the first block",
    ),
    "both-first-bracket-wins": (
        {(2, 1): Q(5)}, {(0, 1, 2): Q(-1, 3)}, (1, 2), [0, 0, Q(-1, 3), 0],
        "bracket leaves the first block",
    ),
    "both-first-twist-wins": (
        {(3, 0): Q(3)}, {(0, 1, 2): Q(1)}, (1,), [0, 0, 0, 3],
        "twist leaves the first block",
    ),
    "twist-second": (
        {(0, 3): Q(2), (2, 3): Q(7)}, {}, (4,), [2, 0, 0, 0],
        "twist leaves the second block",
    ),
    "bracket-second": (
        {}, {(2, 3, 1): Q(1, 2), (2, 3, 3): Q(4)}, (3, 4), [0, Q(1, 2), 0, 0],
        "bracket leaves the second block",
    ),
    "both-second-bracket-wins": (
        {(1, 3): Q(1)}, {(2, 3, 0): Q(-2)}, (3, 4), [-2, 0, 0, 0],
        "bracket leaves the second block",
    ),
    "both-second-twist-wins": (
        {(0, 2): Q(1)}, {(2, 3, 0): Q(-2)}, (3,), [1, 0, 0, 0],
        "twist leaves the second block",
    ),
    "first-block-before-second": (
        {(0, 3): Q(2)}, {(0, 1, 2): Q(1)}, (1, 2), [0, 0, 1, 0],
        "bracket leaves the first block",
    ),
}


@pytest.mark.parametrize("case", BLOCK_LEAKS)
def test_manin_triple_names_the_first_block_leak(case):
    twist_extra, bracket, indices, residual, note = BLOCK_LEAKS[case]
    twist = [[Q(int(i == j)) + twist_extra.get((i, j), 0) for j in range(4)] for i in range(4)]
    planes = [[[Q(0)] * 4 for _ in range(4)] for _ in range(4)]
    for (i, j, k), c in bracket.items():
        planes[i][j][k] += c
        planes[j][i][k] -= c
    big = HomLieAlgebra(Tensor3(planes), Matrix(twist))
    leak = validate_manin_triple(big, 2).subreports[1]
    assert leak.checked_condition == "blocks-are-subalgebras" and not leak.ok
    (w,) = leak.witnesses
    assert (w.indices, w.residual, w.note) == (indices, Vector(residual), note)


def test_manin_triple_blocks_without_leaks():
    twist = Matrix([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 3, 1]])
    planes = [[[Q(0)] * 4 for _ in range(4)] for _ in range(4)]
    planes[0][1][0], planes[1][0][0] = Q(1), Q(-1)
    planes[2][3][3], planes[3][2][3] = Q(1), Q(-1)
    report = validate_manin_triple(HomLieAlgebra(Tensor3(planes), twist), 2)
    assert [s.ok for s in report.subreports[1:3]] == [True, True]
