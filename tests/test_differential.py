"""Differential residual tests: every identity written as a contraction of
structure constants is compared, entry for entry over its whole residual
tensor, with the per-tuple oracle in tests/oracles.py, on seeded inputs that
break it (perturbed bracket, twist, action and cobracket entries). The
reported witness must be the oracle's first nonzero tuple in scan order."""

import random
from fractions import Fraction as Q
from itertools import product

import pytest

from homlie import bialgebra, coboundary, hom_lie, operators, representation
from homlie.bialgebra import Cobracket, HomLieBialgebra, MatchedPair
from homlie.coboundary import RMatrix, cobracket_from_r, r_square_bracket
from homlie.corpus import abelian2, aff2, aff2_triangular_bialgebra, aff2bad, aff2phi, heis3, notjac3, sl2
from homlie.hom_lie import BilinearFormB, HomLieAlgebra, change_of_basis, direct_sum
from homlie.report import Witness, scan
from homlie.representation import Representation, adjoint_rep
from homlie.tensor import Matrix, Sparse, Tensor3, contract, contract_sum, dense, sparse

from oracles import (
    oracle_ad3,
    oracle_algebra_homomorphism,
    oracle_cobracket,
    oracle_cobracket_intertwined,
    oracle_form_invariance,
    oracle_hom_jacobi,
    oracle_jac_delta,
    oracle_matched_pair,
    oracle_multiplicative,
    oracle_o_defect,
    oracle_r_square,
    oracle_rep_bracket,
    oracle_rep_twist,
    oracle_residual_lhs,
    oracle_residual_rhs,
    oracle_skew,
    oracle_twist_compat,
    oracle_twist_intertwined,
    oracle_weak_involutivity,
)
from sampling import random_matrix

SEEDS = range(4)


def _bump(rng) -> Q:
    return Q(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))


def _perturbed(a: HomLieAlgebra, seed: int) -> HomLieAlgebra:
    """A seeded bracket entry and a seeded twist entry moved."""
    rng = random.Random(seed)
    n = a.dim
    box = [[list(r) for r in p] for p in a.bracket.entries]
    box[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += _bump(rng)
    twist = [list(r) for r in a.twist.rows]
    if seed % 2:
        twist[rng.randrange(n)][rng.randrange(n)] += _bump(rng)
    return HomLieAlgebra(Tensor3(box), Matrix(twist), a.label)


def _inputs(seed: int) -> list[HomLieAlgebra]:
    return [_perturbed(a, seed) for a in (aff2phi(), heis3(), sl2(), direct_sum(aff2(), aff2()))]


def _agrees(residual, shape, nscan, oracle, report, order=None):
    """The library's residual tensor equals the oracle on every tuple, and the
    report's witness is the oracle's first nonzero tuple in scan order."""
    first = None
    for at in product(*(range(d) for d in shape[:nscan])):
        want = oracle(*at)
        assert dense(residual, shape, at) == want, at
        nonzero = not want.is_zero() if hasattr(want, "is_zero") else want != 0
        if first is None and nonzero:
            first = (at, want)
    if first is None:
        assert report.ok
        return False
    at, want = first
    w = report.witnesses[0]
    assert w.indices == tuple(i + 1 for i in (order(at) if order else at))
    assert w.residual == want
    return True


@pytest.mark.parametrize("seed", SEEDS)
def test_hom_lie_identities_match_the_oracles(seed):
    failures = 0
    for a in _inputs(seed):
        n = a.dim
        report = {s.checked_condition: s for s in hom_lie.validate_hom_lie(a).subreports}
        failures += _agrees(
            hom_lie._skew(a), (n,) * 3, 2, lambda i, j: oracle_skew(a, i, j), report["bracket-skew"]
        )
        failures += _agrees(
            hom_lie._multiplicative(a.twist, a.bracket, a.bracket),
            (n,) * 3,
            2,
            lambda i, j: oracle_multiplicative(a, i, j),
            report["twist-multiplicative"],
        )
        failures += _agrees(
            hom_lie._jacobiator(a),
            (n,) * 4,
            3,
            lambda i, j, k: oracle_hom_jacobi(a, i, j, k),
            report["hom-jacobi"],
        )
        failures += _agrees(
            hom_lie._square_defect(a.bracket, a.twist),
            (n,) * 3,
            2,
            lambda i, j: oracle_weak_involutivity(a, i, j),
            hom_lie.is_weakly_involutive(a),
        )
    assert failures


@pytest.mark.parametrize("seed", SEEDS)
def test_form_invariance_matches_the_oracle(seed):
    failures = 0
    for a in _inputs(seed):
        n = a.dim
        gram = random_matrix(random.Random(seed), n)
        report = hom_lie.check_invariant_form(a, BilinearFormB(gram)).subreports[0]
        failures += _agrees(
            hom_lie._form_invariance(a, gram),
            (n,) * 3,
            3,
            lambda k, i, j: oracle_form_invariance(a, gram, i, j, k),
            report,
            order=lambda kij: (kij[1], kij[2], kij[0]),
        )
    assert failures


def _perturbed_rep(a: HomLieAlgebra, seed: int) -> Representation:
    """The adjoint representation with a seeded action entry moved."""
    rng = random.Random(seed)
    n = a.dim
    action = [[list(r) for r in m.rows] for m in adjoint_rep(a).action]
    action[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += _bump(rng)
    return Representation(a, a.twist, [Matrix(m) for m in action])


@pytest.mark.parametrize("seed", SEEDS)
def test_representation_axioms_match_the_oracles(seed):
    failures = 0
    for a in (aff2phi(), heis3(), sl2()):
        r = _perturbed_rep(a, seed)
        n, shape = a.dim, r.shape
        action = list(r.action)
        twist, bracket = representation.validate_representation(r).subreports
        failures += _agrees(
            representation._twist_axiom(r),
            shape,
            1,
            lambda i: oracle_rep_twist(a, r.beta, action, i),
            twist,
        )
        failures += _agrees(
            representation._bracket_axiom(r),
            (n, *shape),
            2,
            lambda i, j: oracle_rep_bracket(a, r.beta, action, i, j),
            bracket,
        )
    assert failures


def _perturbed_pair(seed: int) -> MatchedPair:
    """The canonical pair of aff2-triangular, with a seeded entry of each
    action moved and a seeded cobracket entry moved."""
    rng = random.Random(seed)
    a, cb = aff2_triangular_bialgebra()
    coeffs = [[list(r) for r in p] for p in cb.coeffs.entries]
    coeffs[rng.randrange(2)][rng.randrange(2)][rng.randrange(2)] += _bump(rng)
    mp = HomLieBialgebra(Cobracket(a, Tensor3(coeffs))).matched_pair

    def moved(r: Representation) -> Representation:
        action = [[list(row) for row in m.rows] for m in r.action]
        action[rng.randrange(2)][rng.randrange(2)][rng.randrange(2)] += _bump(rng)
        return Representation(r.base, r.beta, [Matrix(m) for m in action])

    return MatchedPair(moved(mp.rho), moved(mp.rho_prime))


@pytest.mark.parametrize("seed", SEEDS)
def test_matched_pair_identities_match_the_oracles(seed):
    mp = _perturbed_pair(seed)
    g, h = mp.left, mp.right
    on_g, on_h = list(mp.rho_prime.action), list(mp.rho.action)
    left, right = bialgebra.validate_matched_pair(mp).subreports
    left_failed = _agrees(
        bialgebra.matched_pair_compatibility(g, h, on_g, on_h),
        (h.dim, g.dim, g.dim, g.dim),
        3,
        lambda c, i, j: oracle_matched_pair(g, h, on_g, on_h, c, i, j),
        left,
    )
    right_failed = _agrees(
        bialgebra.matched_pair_compatibility(h, g, on_h, on_g),
        (g.dim, h.dim, h.dim, h.dim),
        3,
        lambda i, c, d: oracle_matched_pair(h, g, on_h, on_g, i, c, d),
        right,
    )
    assert left_failed or right_failed


@pytest.mark.parametrize("seed", SEEDS)
def test_bialgebra_homomorphism_witnesses_match_the_oracles(seed):
    """A seeded 3 x 2 f from a bialgebra on aff2phi to one on a perturbed heis3,
    each with a seeded cobracket tensor: both of f's residuals that the library
    contracts apart equal the oracles, and each part fails at the oracle's first
    nonzero tuple in scan order (the twist part names the whole matrix, at (0,))."""
    rng = random.Random(seed)
    a1, a2 = aff2phi(), _perturbed(heis3(), seed)
    d1, d2 = (Tensor3([[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for _ in range(n)]) for n in (2, 3))
    f = random_matrix(rng, 3, 2)
    report = bialgebra.check_bialgebra_homomorphism(
        f, HomLieBialgebra(Cobracket(a1, d1)), HomLieBialgebra(Cobracket(a2, d2))
    )
    bracket, twist, co = report.subreports
    assert _agrees(
        hom_lie._multiplicative(f, a1.bracket, a2.bracket),
        (2, 2, 3),
        2,
        lambda i, j: oracle_algebra_homomorphism(f, a1, a2, i, j),
        bracket,
    )
    want = oracle_twist_intertwined(f, a1, a2)
    assert dense(hom_lie._intertwining(f, a1.twist, a2.twist), (3, 2)) == want
    assert not want.is_zero() and twist.witnesses == (Witness((0,), want),)
    co_want = [oracle_cobracket_intertwined(f, d1, d2, k) for k in range(2)]
    failing = [Witness((k + 1,), m) for k, m in enumerate(co_want) if not m.is_zero()]
    assert failing and co.witnesses == tuple(failing[:1])
    assert report.first_witness() == bracket.witnesses[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_o_operator_defect_matches_the_oracle(seed):
    rng = random.Random(seed)
    for a in (aff2phi(), heis3(), sl2()):
        r = _perturbed_rep(a, seed)
        cand = operators.OOperatorCandidate(a, r, random_matrix(rng, a.dim))
        report = operators.validate_o_operator(cand).subreports[1]
        assert _agrees(
            operators._defects(cand),
            cand.shape,
            2,
            lambda i, j: oracle_o_defect(list(r.action), a, cand.t, i, j),
            report,
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_r_matrix_tensors_match_the_oracles(seed):
    """[r,r] with the chybe witness, the induced cobracket, its co-Jacobiator
    and the three-slot adjoint action, on seeded r over broken algebras."""
    rng = random.Random(seed)
    for a in _inputs(seed)[:3]:
        n = a.dim
        rc = random_matrix(rng, n)
        r = RMatrix(a, rc)
        rr = r_square_bracket(r)
        want = oracle_r_square(a, rc)
        assert rr == want
        _agrees(
            sparse(rr), (n,) * 3, 3, lambda i, j, k: want[i, j, k], coboundary.check_chybe(r)
        )
        cb = cobracket_from_r(r)
        assert cb.coeffs == oracle_cobracket(a, rc)
        jd = contract_sum("kabc", *coboundary._co_jacobiator(a, cb.coeffs, "", cb.coeffs, ""))
        adj = contract_sum("kabc", *coboundary._adjoint_on(a, rr))
        for k in range(n):
            assert dense(jd, (n,) * 4, (k,)) == oracle_jac_delta(a, cb.coeffs, k)
            unit = [Q(int(i == k)) for i in range(n)]
            assert dense(adj, (n,) * 4, (k,)) == oracle_ad3(a, unit, rr)


def _yau_sl2_dense() -> HomLieAlgebra:
    """sl2 with the Yau twist of its Chevalley involution theta (bracket theta[x,y],
    twist theta), in a seeded dense basis: weakly involutive, with w = (phi (x) id -
    id (x) phi) r nonzero for a generic r."""
    a = sl2()
    theta = Matrix([[-1, 0, 0], [0, 0, -1], [0, -1, 0]])
    bracket = dense(contract("ijl", ("ijk", a.bracket), ("lk", theta)), (3,) * 3)
    rng = random.Random(1)
    p = random_matrix(rng, 3)
    while p.det() == 0:
        p = random_matrix(rng, 3)
    return change_of_basis(HomLieAlgebra(bracket, theta, "yau-sl2"), p)


def _sample(t: Sparse, s: int) -> Sparse:
    """The slice of a stacked tensor at sample s."""
    return Sparse({key[1:]: v for key, v in t.items() if key[0] == s}, t.den)


# For each input: which of (a), (b), (c) have a nonzero right side on a generic
# r, and whether the residuals are nonzero. With an involutive twist the right
# side of (b) vanishes identically, so heis3phi (phi^2 != id) is there for (b);
# with the identity twist w = 0 and every right side vanishes.
RESIDUAL_INPUTS = {
    "yau-sl2-dense": ((True, False, True), False),
    "heis3phi": ((True, True, False), False),
    "notjac3": ((False, False, False), True),
}


def _sides(sides):
    """Each (left, right) side of coboundary._residual_sides, evaluated."""
    return [(contract_sum(out, *lhs), contract_sum(out, *rhs)) for out, lhs, rhs in sides]


@pytest.mark.parametrize("name", RESIDUAL_INPUTS)
def test_residual_identity_sides_match_the_oracles(name, request):
    """Both sides of (a)-(c), for seeded r stacked with a sample index and for
    each r alone, against the naive sums. notjac3 passes the weak-involutivity
    precondition (its twist is the identity) but is not Hom-Lie, so its
    residuals are nonzero; the identities hold on the other two."""
    a = {"yau-sl2-dense": _yau_sl2_dense, "notjac3": notjac3}.get(name)
    a = a() if a else request.getfixturevalue(name)
    assert hom_lie.is_weakly_involutive(a).ok
    bracket, twist = a.bracket.entries, a.twist.rows
    samples = [random_matrix(random.Random(seed), a.dim) for seed in range(4)]
    adjoints = coboundary._twisted_adjoints(a)
    stacked = _sides(coboundary._residual_sides(a, sparse(samples), adjoints, "z"))
    nonzero_rhs, nonzero_residuals = [False] * 3, False
    for s, rc in enumerate(samples):
        lhs_want = oracle_residual_lhs(bracket, twist, oracle_cobracket(a, rc).entries)
        rhs_want = oracle_residual_rhs(bracket, twist, rc.rows)
        alone = _sides(coboundary._residual_sides(a, rc, adjoints))
        for i, ((lhs, rhs), (lhs1, rhs1), want_l, want_r) in enumerate(
            zip(stacked, alone, lhs_want, rhs_want)
        ):
            assert _sample(lhs, s) == want_l
            assert _sample(rhs, s) == want_r
            assert lhs1 == want_l
            assert rhs1 == want_r
            nonzero_rhs[i] |= bool(want_r)
            nonzero_residuals |= bool(lhs1 - rhs1)
    assert (tuple(nonzero_rhs), nonzero_residuals) == RESIDUAL_INPUTS[name]


@pytest.mark.parametrize("seed", SEEDS)
def test_twist_compatibility_matches_the_oracle(seed):
    """(phi (x) id) r - (id (x) phi) r against the oracle's term-by-term sum, on
    seeded r over the algebra builtins and a seeded dense change of basis of each:
    entry for entry, scanned entrywise to the oracle's first nonzero entry, and
    reported whole by check_twist_compat."""
    rng = random.Random(seed)
    failures = 0
    for make in (abelian2, aff2, aff2phi, aff2bad, heis3, sl2, notjac3):
        a = make()
        p = random_matrix(rng, a.dim)
        while p.det() == 0:
            p = random_matrix(rng, a.dim)
        for a in (a, change_of_basis(a, p)):
            n, rc = a.dim, random_matrix(rng, a.dim)
            want = oracle_twist_compat(a, rc)
            res = hom_lie._twist_symmetry(a.twist.transpose(), rc)
            entrywise = scan("twist-compat", res, (n, n), 2)
            failures += _agrees(res, (n, n), 2, lambda i, j: want[i, j], entrywise)
            whole = coboundary.check_twist_compat(RMatrix(a, rc))
            assert whole.witnesses == (() if want.is_zero() else (Witness((0,), want),))
    assert failures


def _polarisation_agrees(form, quadratic, x, y) -> bool:
    """The bilinear form on one-element stacks of x (on the batch letter z) and of y
    (on y), symmetrised, equals Q(x + y) - Q(x) - Q(y) for the oracle's Q, whose
    entries quadratic gives as a Sparse. Returns whether that is nonzero."""
    xs, ys = sparse([x]), sparse([y])
    both = (form(xs, ys) + form(ys, xs)).moved(lambda z, y, *rest: rest)
    want = sparse(quadratic(x + y)) - sparse(quadratic(x)) - sparse(quadratic(y))
    assert both == want
    return bool(want)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_bilinear_forms_polarise_the_oracles(seed):
    """[r,s], the co-Jacobiator form and the O-operator defect form, each with one
    operand on each of two batch letters, on seeded operands over broken algebras
    and a broken action."""
    rng = random.Random(seed)
    nonzero = 0
    for a in _inputs(seed)[:3]:
        n = a.dim
        r, s = random_matrix(rng, n), random_matrix(rng, n)
        nonzero += _polarisation_agrees(
            lambda x, y: contract_sum("zyabc", *coboundary._r_square(a, x, "z", y, "y")),
            lambda rc: oracle_r_square(a, rc),
            r,
            s,
        )
        nonzero += _polarisation_agrees(
            lambda x, y: contract_sum("zykabc", *coboundary._co_jacobiator(a, x, "z", y, "y")),
            lambda cb: [oracle_jac_delta(a, cb, k) for k in range(n)],
            oracle_cobracket(a, r),
            oracle_cobracket(a, s),
        )
        rep = _perturbed_rep(a, seed)
        nonzero += _polarisation_agrees(
            lambda x, y: operators._defect_tensor(rep, x, "z", y, "y"),
            lambda t: [[oracle_o_defect(list(rep.action), a, t, i, j) for j in range(n)] for i in range(n)],
            r,
            s,
        )
    assert nonzero == 9
