"""The three proofs. Each suite proves one identity on a whole space from exact
evaluations at a basis: the residual identities at the unit matrices E_pq, the
Jacobiator identity and the defect expansion at the pairs of a basis, through
their polarisations. A failure must name what the oracles in tests/oracles.py
predict: the first failing unit matrix or pair, and the witness there."""

from fractions import Fraction as Q
from itertools import product

import pytest

import homlie
from homlie import coboundary, operators, tensor
from homlie.coboundary import (
    _SECOND,
    _first_failure,
    run_jacobiator_suite,
    run_residual_suite,
    skew_twist_compat_kernel,
)
from homlie.corpus import aff2, aff2phi, lsa2psi, notjac3, sl2
from homlie.hom_lie import HomLieAlgebra, direct_sum
from homlie.operators import intertwining_t_space, left_mult_rep, run_defect_expansion_suite
from homlie.report import Witness, scan
from homlie.representation import adjoint_rep, hom_dual_representation, semidirect_product
from homlie.tensor import (
    _SAMPLE,
    Matrix,
    Sparse,
    Tensor3,
    Vector,
    contract,
    contract_sum,
    dense,
    sparse,
)

from oracles import (
    oracle_ad3,
    oracle_cobracket,
    oracle_jac_delta,
    oracle_o_defect,
    oracle_r_square,
    oracle_residual_lhs,
    oracle_residual_rhs,
)

SUITES = {
    "residual": lambda a: run_residual_suite(a),
    "jacobiator": lambda a: run_jacobiator_suite(a),
    "defect-expansion": lambda a: run_defect_expansion_suite(a, adjoint_rep(a)),
}


def _unit(n: int, p: int, q: int) -> Matrix:
    return Matrix([[int((i, j) == (p, q)) for j in range(n)] for i in range(n)])


def _empty(n: int) -> HomLieAlgebra:
    """The zero bracket with the zero twist, as in a document with empty sections."""
    return HomLieAlgebra(Tensor3.zero(n), Matrix.zero(n), f"empty{n}")


@pytest.mark.parametrize("suite", SUITES)
def test_a_suite_over_empty_structure_constants_evaluates_one_chunk_at_any_dimension(suite, monkeypatch):
    """With a zero bracket and a zero twist every term is zero, and the whole basis
    (16 or 900 unit matrices, 6 or 435 skew r, 16 or 900 intertwining T) goes in
    one chunk."""
    calls, contract = [], tensor.contract

    def counting(*args, **kwargs):
        calls.append(args[0])
        return contract(*args, **kwargs)

    modules = (tensor, homlie.hom_lie, homlie.representation, homlie.bialgebra, coboundary, operators)
    for module in modules:
        monkeypatch.setattr(module, "contract", counting)
    made = []
    for n in (4, 30):
        calls.clear()
        assert SUITES[suite](_empty(n)).ok
        made.append(len(calls))
    assert made[0] == made[1]


@pytest.mark.parametrize("suite", SUITES)
def test_a_pass_gives_the_dimension_of_the_proved_space(suite):
    a = sl2()
    want = {
        "residual": {"space_dim": 9},
        "jacobiator": {"kernel_dim": len(skew_twist_compat_kernel(a))},
        "defect-expansion": {"space_dim": len(intertwining_t_space(a, adjoint_rep(a)))},
    }
    assert SUITES[suite](a).info == want[suite]


def test_an_empty_basis_passes_with_nothing_to_prove():
    assert run_jacobiator_suite(aff2phi()).info == {"kernel_dim": 0}


def _first_nonzero(entries: dict, nscan: int):
    """The least prefix of nscan indices among the nonzero entries of an oracle
    residual, and the entries there by the rest of their indices."""
    at = min(key[:nscan] for key, v in entries.items() if v)
    return at, {key[nscan:]: v for key, v in entries.items() if key[:nscan] == at and v}


def test_the_residual_proof_fails_at_the_first_unit_matrix_the_oracle_breaks():
    """notjac3 (a weakly involutive base that is not Hom-Lie): the report names
    the first E_pq in row-major order at which an identity fails by the oracle's
    sums, that E_pq's first failing identity, and the oracle's witness there,
    which is also the first failure of the three identities evaluated at that E_pq
    alone."""
    a = notjac3()
    n, bracket, twist = a.dim, a.bracket.entries, a.twist.rows
    for p, q in product(range(n), repeat=2):
        unit = _unit(n, p, q)
        lhs = oracle_residual_lhs(bracket, twist, oracle_cobracket(a, unit).entries)
        rhs = oracle_residual_rhs(bracket, twist, unit.rows)
        residuals = [
            {key: l.get(key, 0) - r.get(key, 0) for key in l.keys() | r.keys()} for l, r in zip(lhs, rhs)
        ]
        failing = [pos for pos, res in enumerate(residuals) if any(res.values())]
        if failing:
            break
    pos = failing[0]
    name, nscan = coboundary._RESIDUALS[pos]
    at, block = _first_nonzero(residuals[pos], nscan)

    report = run_residual_suite(a)
    assert not report.ok
    assert report.info == {"case": (p + 1, q + 1), "identity": name}
    (w,) = report.witnesses
    assert w.indices == tuple(i + 1 for i in at)
    assert sparse(w.residual) == sparse(block)
    evaluated = zip(coboundary._RESIDUALS, coboundary._residuals(a, unit, coboundary._twisted_adjoints(a)))
    alone = [
        scan(name, contract_sum(out, *terms), (n,) * (2 + k), k)
        for (name, k), (out, terms) in evaluated
    ]
    assert next(i for i, s in enumerate(alone) if not s.ok) == pos
    assert alone[pos].witnesses == report.witnesses


def _polarised(quadratic, basis):
    """((i, j), (Q(K_i + K_j) - Q(K_i) - Q(K_j)) / 2) at the pairs i <= j in order,
    as a Sparse: the symmetric bilinear form of the quadratic Q (whose values
    quadratic gives as anything sparse() takes), which is Q(K_i) at i = j."""
    alone = [sparse(quadratic(x)) for x in basis]
    for i, j in product(range(len(basis)), repeat=2):
        if i <= j:
            twice = sparse(quadratic(basis[i] + basis[j])) - alone[i] - alone[j]
            yield (i, j), Sparse(twice.items(), 2 * twice.den)


def _aff2_notjac3() -> HomLieAlgebra:
    """aff2 (+) notjac3: the first pair at which the Jacobiator proof fails is (2, 5)."""
    return direct_sum(aff2(), notjac3())


@pytest.mark.parametrize("make", [notjac3, _aff2_notjac3], ids=["notjac3", "aff2+notjac3"])
def test_the_jacobiator_proof_fails_at_the_pair_the_oracle_predicts(make):
    """The failing pair, its k and its block are those of the polarised oracle
    residual Jac_delta(e_k) - ad_{phi e_k}[r,r], at the first pair a <= b and the
    first k where it is nonzero: (1, 1) on notjac3, and a pair of two elements on
    aff2 (+) notjac3."""
    a = make()
    n, kernel = a.dim, skew_twist_compat_kernel(a)

    def quadratic(rc: Matrix) -> list[Tensor3]:
        """The oracle residual of r at each e_k."""
        cb, rr = oracle_cobracket(a, rc), oracle_r_square(a, rc)
        unit = [[Q(int(i == k)) for i in range(n)] for k in range(n)]
        return [oracle_jac_delta(a, cb, k) - oracle_ad3(a, unit[k], rr) for k in range(n)]

    (i, j), form = next(((i, j), form) for (i, j), form in _polarised(quadratic, kernel) if form)
    k = min(key[0] for key in form)
    report = run_jacobiator_suite(a)
    assert not report.ok
    assert report.info == {"case": (i + 1, j + 1), "kernel_dim": len(kernel)}
    assert report.witnesses == (Witness((k + 1,), dense(form, (n,) * 4, (k,))),)
    assert (i == j) == (make is notjac3)


def _pair_tensors(form, basis, shape):
    """The halved symmetrisation of a bilinear form evaluated on the stacked basis,
    on _SAMPLE and on _SECOND: its block at every pair (i, j)."""
    stack, k = sparse(basis), len(basis)
    t = form(stack, stack)
    swapped = contract(_SECOND + _SAMPLE + "abc"[: len(shape)], (_SAMPLE + _SECOND + "abc"[: len(shape)], t))
    sym = t + swapped
    return {
        (i, j): dense(sym, (k, k, *shape), (i, j)).scale(Q(1, 2)) for i in range(k) for j in range(k)
    }


@pytest.mark.parametrize("which, nonzero", [("sl2-adjoint", True), ("lsa2psi", False)])
def test_the_defect_expansion_pair_tensors_polarise_the_oracles(which, nonzero):
    """No builtin breaks the defect expansion, so both of its sides are checked on
    their own: at every pair of the intertwining basis, the symmetrised [r,s] of the
    lifted r equals the polarisation of oracle_r_square, and the symmetrised
    expansion of the defect form equals the polarisation of the expansion summed
    from oracle_o_defect. On lsa2psi every pair tensor is zero; on sl2 some are not."""
    rep = adjoint_rep(sl2()) if which == "sl2-adjoint" else left_mult_rep(lsa2psi())
    a = rep.base
    n, m = a.dim, rep.carrier_dim
    space = intertwining_t_space(a, rep)
    big = semidirect_product(hom_dual_representation(rep))
    d, y, z = big.dim, _SAMPLE, _SECOND
    assert space and run_defect_expansion_suite(a, rep).info == {"space_dim": len(space)}

    def lifted(t: Matrix) -> Matrix:
        return dense(operators._lifted_r(t, n), (d, d))

    def expansion(t: Matrix) -> Tensor3:
        """sum_{i,j} phi(OT(v_i,v_j)) placed in the three slots, from the oracle."""
        box = {}
        for i, j in product(range(m), repeat=2):
            value = a.twist.apply(oracle_o_defect(list(rep.action), a, t, i, j))
            for l in range(n):
                for key, sign in (((l, n + i, n + j), 1), ((n + i, l, n + j), -1), ((n + i, n + j, l), 1)):
                    box[key] = box.get(key, 0) + sign * value[l]
        return dense(box, (d,) * 3)

    squares = _pair_tensors(
        lambda t, u: contract_sum(
            y + z + "abc", *coboundary._r_square(big, operators._lifted_r(t, n, y), y, operators._lifted_r(u, n, z), z)
        ),
        space,
        (d,) * 3,
    )
    expansions = _pair_tensors(
        lambda t, u: operators._expansion(a, operators._defect_tensor(rep, t, y, u, z), y + z), space, (d,) * 3
    )
    for (i, j), square in _polarised(lambda t: oracle_r_square(big, lifted(t)), space):
        assert sparse(squares[i, j]) == sparse(squares[j, i]) == square
    for (i, j), form in _polarised(expansion, space):
        assert sparse(expansions[i, j]) == sparse(expansions[j, i]) == form
    assert any(not square.is_zero() for square in squares.values()) == nonzero


def _vector_basis(k: int) -> list[Vector]:
    return [Vector.basis(k, i) for i in range(k)]


@pytest.mark.parametrize("step", [1, 2, 3, 5])
def test_pairs_are_read_through_the_symmetrised_form_in_any_chunks(step):
    """B(x, y) = x^T M y on unit vectors: the form vanishes where M is skew, and the
    proof fails at the least pair a <= b with M_ab + M_ba != 0, in chunks of any
    size, with the halved symmetrisation as its block."""
    k = 5
    skew = {(i, j): v for i in range(k) for j in range(i + 1, k) if (v := (i + 2 * j) % 3 - 1)}
    entries = {**{(i, j, 0): v for (i, j), v in skew.items()}, **{(j, i, 0): -v for (i, j), v in skew.items()}}

    def residuals(m):
        def of(x, y):
            out = _SAMPLE + _SECOND + "c"
            return [(out, [(1, [(_SAMPLE + "i", x), ("ijc", m), (_SECOND + "j", y)])], (1,), 0)]

        return of

    assert _first_failure(_vector_basis(k), step, residuals(Sparse(entries)), paired=True) is None
    broken = dict(entries)
    broken[3, 1, 0] = broken.get((3, 1, 0), 0) + 3  # M_31 + M_13 = 3: pair (2, 4), 1-based
    broken[2, 2, 0] = 1  # a later diagonal pair
    found = _first_failure(_vector_basis(k), step, residuals(Sparse(broken)), paired=True)
    assert found == ((2, 4), 0, (), Vector([Q(3, 2)]))


def test_chunks_do_not_change_a_report(monkeypatch):
    """The reports in chunks of one element, against those in one chunk; the
    Jacobiator proof on aff2 (+) notjac3 fails at a pair across chunks."""
    a, b, rep = notjac3(), _aff2_notjac3(), adjoint_rep(sl2())

    def reports():
        return [run_residual_suite(a), run_jacobiator_suite(b), run_defect_expansion_suite(rep.base, rep)]

    want = reports()
    assert coboundary._chunk(b, 10, True) >= 10
    monkeypatch.setattr(coboundary, "_SUITE_ENTRIES", 1)
    assert reports() == want
    assert [r.ok for r in want] == [False, False, True]
    assert want[1].info["case"] == (2, 5)
