"""End-to-end gate. Each test prints one ACCEPTANCE verdict line directly on
sys.__stdout__ so the lines survive pytest's capture and land in the report.

Every numeric claim here is checked at exact equality. Frozen values were
computed by hand or by the independent oracles in oracles.py, which are
evaluated before the library call they certify.
"""

import random
import sys
from contextlib import contextmanager
from fractions import Fraction as Q

from homlie.bialgebra import (
    Cobracket,
    HomLieBialgebra,
    check_triple_equivalence,
    double_bracket,
    validate_bialgebra,
    validate_manin_triple,
    validate_matched_pair,
)
from homlie.cli import main
from homlie.coboundary import (
    RMatrix,
    _adjoint_kills,
    check_chybe,
    dual_side_verdict,
    hom_double,
    r_square_bracket,
    run_jacobiator_suite,
    run_residual_suite,
    skew_twist_compat_kernel,
    symmetric_part_invariance,
    twist_compat_kernel,
)
from homlie.corpus import (
    BUILTINS,
    abelian2,
    aff2,
    aff2_triangular_bialgebra,
    aff2_zero_bialgebra,
    aff2bad,
    aff2phi,
    heis3,
    lsa2,
    lsa2psi,
    notjac3,
    sl2,
)
from homlie.hom_lie import is_weakly_involutive, validate_hom_lie
from homlie.operators import (
    OOperatorCandidate,
    commutator_hom_lie,
    intertwining_t_space,
    left_mult_rep,
    r_from_o_operator,
    run_defect_expansion_suite,
    validate_hlsa,
    validate_o_operator,
    wedge_solutions,
)
from homlie.representation import adjoint_rep
from homlie.structure_io import (
    builtin_structure,
    emit_structure,
    parse_structure,
)
from homlie.tensor import Matrix, Tensor3, Vector

from oracles import oracle_hom_jacobi, oracle_r_square, oracle_weak_involutivity
from sampling import random_combination, random_matrix


@contextmanager
def acceptance(n, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL — {label}", file=sys.__stdout__)
        raise
    print(f"ACCEPTANCE {n} PASS — {label}", file=sys.__stdout__)


def _kernel_rmatrix(a, rng, kernel):
    return RMatrix(a, random_combination(rng, kernel))


def test_acceptance_1_corpus_validity(heis3phi):
    with acceptance(1, "corpus validity and pinned witnesses"):
        for make in (abelian2, aff2, aff2phi, aff2bad, heis3, sl2):
            assert validate_hom_lie(make()).ok
        assert validate_hom_lie(heis3phi).ok
        for make in (lsa2, lsa2psi):
            assert validate_hlsa(make()).ok
        for a, cb in (aff2_zero_bialgebra(), aff2_triangular_bialgebra()):
            assert validate_bialgebra(HomLieBialgebra(cb)).ok

        bad = notjac3()
        expected = oracle_hom_jacobi(bad, 0, 1, 2)
        assert expected == Vector([0, 0, -1])
        rep = validate_hom_lie(bad)
        assert not rep.ok
        w = rep.first_witness()
        assert w.indices == (1, 2, 3)
        assert w.residual == expected

        drifted = aff2bad()
        expected = oracle_weak_involutivity(drifted, 0, 1)
        assert expected == Vector([3, 0])
        rep = is_weakly_involutive(drifted)
        assert not rep.ok
        assert rep.first_witness().indices == (1, 2)
        assert rep.first_witness().residual == expected

        # the shear twist squares to a nontrivial map, and the bracket sees it
        sheared = aff2phi()
        expected = oracle_weak_involutivity(sheared, 1, 1)
        assert expected == Vector([2, 0])
        rep = is_weakly_involutive(sheared)
        assert not rep.ok
        assert rep.first_witness().indices == (2, 2)
        assert rep.first_witness().residual == expected


def test_acceptance_2_residual_suite(heis3phi):
    with acceptance(2, "cobracket residual identities proved for every r"):
        for a in (abelian2(), aff2(), heis3(), sl2(), heis3phi):
            rep = run_residual_suite(a)
            assert rep.ok
            assert rep.info == {"space_dim": a.dim**2}


def test_acceptance_3_jacobiator_suite(heis3phi):
    with acceptance(3, "jacobiator identity proved on every skew compatible r"):
        for a in (abelian2(), aff2(), heis3(), sl2(), heis3phi):
            rep = run_jacobiator_suite(a)
            assert rep.ok
            assert rep.info == {"kernel_dim": len(skew_twist_compat_kernel(a))}
        # shear twist: the skew compatible space is zero, so there is nothing to prove
        rep = run_jacobiator_suite(aff2phi())
        assert rep.ok
        assert rep.info == {"kernel_dim": 0}


def test_acceptance_4_coboundary_biconditional():
    with acceptance(4, "invariance + adjoint kill iff dual side, 100+ cases"):
        rng = random.Random(4747)
        cases = 0
        positives = 0
        negatives = 0

        def check(r):
            nonlocal cases, positives, negatives
            lhs = symmetric_part_invariance(r).ok and _adjoint_kills(r.base, r_square_bracket(r)).ok
            rhs = dual_side_verdict(r).ok
            assert lhs == rhs
            cases += 1
            if lhs:
                positives += 1
            else:
                negatives += 1

        a = aff2()
        for _ in range(60):
            check(RMatrix(a, random_matrix(rng, 2)))
        sheared = aff2phi()
        kernel = twist_compat_kernel(sheared)
        for _ in range(50):
            check(_kernel_rmatrix(sheared, rng, kernel))

        # engineered cases so both branches of the biconditional are exercised
        check(RMatrix(a, Matrix.zero(2)))
        check(RMatrix(sheared, Matrix.zero(2)))
        for q in (Q(1), Q(-2), Q(1, 2)):
            check(RMatrix(a, Matrix([[0, q], [-q, 0]])))
        check(RMatrix(a, Matrix([[0, 1], [1, 0]])))
        check(RMatrix(a, Matrix([[1, 0], [0, 0]])))

        assert cases >= 100
        assert positives >= 4
        assert negatives >= 4


def test_acceptance_5_frozen_chybe_witnesses():
    with acceptance(5, "frozen Hom-Yang-Baxter tensors match the oracle"):
        a = aff2()

        wedge = Matrix([[0, 1], [-1, 0]])
        expected = Tensor3.zero(2)
        assert oracle_r_square(a, wedge) == expected
        r = RMatrix(a, wedge)
        assert r_square_bracket(r) == expected
        assert check_chybe(r).ok

        sym = Matrix([[0, 1], [1, 0]])
        planes = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
        planes[0][0][1] = Q(-2)
        planes[1][0][0] = Q(2)
        expected = Tensor3(planes)
        assert oracle_r_square(a, sym) == expected
        r = RMatrix(a, sym)
        assert r_square_bracket(r) == expected
        rep = check_chybe(r)
        assert not rep.ok
        w = rep.first_witness()
        assert w.indices == (1, 1, 2)
        assert w.residual == Q(-2)


def test_acceptance_6_triple_equivalence():
    with acceptance(6, "bialgebra, matched pair and Manin triple agree"):
        for a, cb in (aff2_zero_bialgebra(), aff2_triangular_bialgebra()):
            bi = HomLieBialgebra(cb)
            assert validate_bialgebra(bi).ok
            mp = bi.matched_pair
            assert validate_matched_pair(mp).ok
            assert validate_manin_triple(double_bracket(mp), a.dim).ok
            eq = check_triple_equivalence(bi)
            assert eq.ok
            assert eq.info["common_verdict"] == "pass"

        rng = random.Random(606)
        a = aff2()
        for _ in range(50):
            planes = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
            for k in range(2):
                for i in range(2):
                    for j in range(2):
                        planes[k][i][j] = Q(rng.randint(-2, 2))
            # a diagonal self-pairing coefficient breaks skewness of the dual
            planes[0][0][0] = Q(rng.choice([1, -1, 2, -2, 3]))
            bi = HomLieBialgebra(Cobracket(a, Tensor3(planes)))
            assert not validate_bialgebra(bi).ok
            mp = bi.matched_pair
            assert not validate_matched_pair(mp).ok
            assert not validate_manin_triple(double_bracket(mp), 2).ok
            eq = check_triple_equivalence(bi)
            assert eq.ok
            assert eq.info["common_verdict"] == "fail"


def test_acceptance_7_hom_double():
    with acceptance(7, "canonical double carries a twist compatible solution"):
        expected_subs = [
            "canonical-r-twist-compat",
            "canonical-r-chybe",
            "canonical-r-symmetric-part",
            "primal-inclusion-homomorphism",
            "dual-inclusion-homomorphism",
        ]
        for a, cb in (aff2_zero_bialgebra(), aff2_triangular_bialgebra()):
            big, r, rep = hom_double(HomLieBialgebra(cb))
            assert big.algebra.dim == 4
            assert r.base is big.algebra
            assert rep.ok
            assert [s.checked_condition for s in rep.subreports] == expected_subs
            assert all(s.ok for s in rep.subreports)


def test_acceptance_8_o_operator_pipeline():
    with acceptance(8, "O-operator lift, defect expansion and wedge solutions"):
        lifted = Matrix(
            [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
        )

        p = lsa2()
        base = commutator_hom_lie(p)
        rep = left_mult_rep(p)
        cand = OOperatorCandidate(base, rep, Matrix.identity(2))
        assert validate_o_operator(cand).ok
        big, r, report = r_from_o_operator(cand)
        assert report.ok
        assert r.coeffs == lifted
        zero4 = Tensor3.zero(4)
        assert oracle_r_square(big, r.coeffs) == zero4
        assert r_square_bracket(r) == zero4

        pairs = [
            (aff2(), adjoint_rep(aff2())),
            (base, rep),
        ]
        p2 = lsa2psi()
        pairs.append((commutator_hom_lie(p2), left_mult_rep(p2)))
        for a, rho in pairs:
            suite = run_defect_expansion_suite(a, rho)
            assert suite.ok
            assert suite.info == {"space_dim": len(intertwining_t_space(a, rho))}

        r1, r2, rep = wedge_solutions(p2)
        assert rep.ok
        assert r1.coeffs == lifted
        names = [s.checked_condition for s in rep.subreports]
        assert "induced-cobrackets-coincide" in names
        assert all(s.ok for s in rep.subreports)


def test_acceptance_9_round_trip_and_cli(capsys, tmp_path):
    with acceptance(9, "structure files round trip and CLI exits honestly"):
        for b in BUILTINS:
            s = builtin_structure(b.name)
            text = emit_structure(s)
            again = parse_structure(text)
            assert emit_structure(again) == text

        def run(*argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out

        builds = [
            ("build", "cobracket", "builtin:aff2", "--rmatrix", "e1^e2"),
            ("build", "hom-double", "builtin:aff2-triangular"),
            ("build", "semidirect", "builtin:aff2", "--rep", "adjoint"),
            ("build", "dual", "builtin:aff2-triangular"),
            ("build", "commutator", "builtin:lsa2psi"),
            ("build", "r-from-o", "builtin:lsa2"),
        ]
        for argv in builds:
            code, out = run(*argv)
            assert code == 0
            parsed = parse_structure(out)
            assert emit_structure(parsed) == out

        code, _ = run("validate", "builtin:aff2", "--check", "hom-lie")
        assert code == 0
        code, out = run("validate", "builtin:notjac3", "--check", "hom-lie")
        assert code == 1
        assert "(1,2,3)" in out.replace(", ", ",")
        code, _ = run(
            "validate", "builtin:aff2", "--rmatrix", "e1^e2", "--check", "chybe"
        )
        assert code == 0
