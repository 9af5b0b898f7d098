"""Nonsingular members of a pencil, decided by certificate (tensor.decide_pencil).

pencil_det, the exact expansion of det(sum_a t_a M_a), is the oracle: every
decision agrees with it, and every certificate is checked apart from homlie, by
ranks in Fraction arithmetic. The form spaces of the builtins, of their seeded
changes of basis, of the benchmark's `solve` inputs and of the abelian algebras
of dims 9 and 12 are all decided without the expansion.
"""

import importlib
import os
import random
import types
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homlie.tensor
from homlie.corpus import BUILTINS
from homlie.hom_lie import HomLieAlgebra, change_of_basis, invariant_form_space
from homlie.operators import left_mult_rep
from homlie.structure_io import builtin_structure
from homlie.tensor import Matrix, PencilCertificate, Tensor3, decide_pencil, pencil_det
from oracles import oracle_det, oracle_rref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rank(rows) -> int:
    return len(oracle_rref(rows)[1]) if rows else 0


def _flat(m) -> list:
    return [x for row in m.rows for x in row]


def check_certificate(cert, mats, n):
    """The certificate proves its answer: a member of the span with det != 0, or a
    subspace U (by an independent basis) whose image under all M_a has a smaller
    dimension, which it states."""
    if cert.member is not None:
        assert cert.nonsingular and not cert.subspace
        flat = [_flat(m) for m in mats]
        assert cert.member.shape == (n, n)
        assert _rank(flat + [_flat(cert.member)]) == _rank(flat)
        gram = [list(row) for row in cert.member.rows]
        # the cofactor expansion takes n! steps: past n = 6, full rank stands for it
        assert oracle_det(gram) != 0 if n <= 6 else _rank(gram) == n
    elif cert.subspace:
        assert not cert.nonsingular
        basis = [list(v.entries) for v in cert.subspace]
        assert basis and all(len(u) == n for u in basis) and _rank(basis) == len(basis)
        image = [[sum(row[j] * u[j] for j in range(n)) for row in m.rows] for m in mats for u in basis]
        assert _rank(image) == cert.image_dim < len(basis)
    else:
        assert cert.expanded and cert.image_dim == 0


def _forbid_expansion(monkeypatch):
    def refuse(*args):
        raise AssertionError("pencil_det ran")

    monkeypatch.setattr(homlie.tensor, "pencil_det", refuse)


# --- pencils against the expansion ----------------------------------------------


def _skew3():
    return [Matrix([[int((i, j) == (p, q)) - int((i, j) == (q, p)) for j in range(3)] for i in range(3)])
            for p, q in ((0, 1), (0, 2), (1, 2))]


def _unimodular(draw, n: int) -> Matrix:
    """Unit lower times unit upper triangular, entries in -1..1: det 1."""
    low = [[1 if i == j else draw(st.integers(-1, 1)) if i > j else 0 for j in range(n)] for i in range(n)]
    up = [[1 if i == j else draw(st.integers(-1, 1)) if i < j else 0 for j in range(n)] for i in range(n)]
    return Matrix(low) @ Matrix(up)


@st.composite
def pencils(draw):
    """(shape, matrices, n): generic; with a common kernel (a zero column); with a
    proper joint image (a zero row); with a zero block of rows r..n-1 by columns
    n-q..n-1, q > r >= 1 and q < n, so that U = the last q coordinates is shrunk
    though the kernels meet in 0 and the images span; or the 3 x 3 skew matrices,
    whose members are all singular with no shrunk subspace. Each is moved by an
    equivalence P M Q, which keeps every property."""
    shape = draw(st.sampled_from(["generic", "kernel", "image", "block", "skew"]))
    if shape == "skew":
        n, mats = 3, _skew3()
    else:
        n = draw(st.integers(3 if shape == "block" else 1, 5))
        q = draw(st.integers(2, n - 1)) if shape == "block" else 0
        r = draw(st.integers(1, q - 1)) if shape == "block" else 0

        def zero(i, j):
            return ((shape == "kernel" and j == n - 1) or (shape == "image" and i == n - 1)
                    or (shape == "block" and i >= r and j >= n - q))

        size = draw(st.integers(0 if shape == "generic" else 1, 4))
        mats = [Matrix([[0 if zero(i, j) else draw(st.integers(-3, 3)) for j in range(n)] for i in range(n)])
                for _ in range(size)]
    p, q = _unimodular(draw, n), _unimodular(draw, n)
    return shape, [p @ m @ q for m in mats], n


@settings(max_examples=300, deadline=None)
@given(pencils())
def test_decisions_agree_with_the_expansion_and_certify_it(pencil):
    shape, mats, n = pencil
    cert = decide_pencil(mats, n)
    assert cert.nonsingular == bool(pencil_det(mats, n))
    check_certificate(cert, mats, n)
    if shape == "skew":
        assert cert == PencilCertificate(False) and cert.expanded
    if shape in ("kernel", "image", "block"):
        assert cert.subspace


def test_the_skew_3x3_matrices_reach_the_expansion():
    assert decide_pencil(_skew3(), 3) == PencilCertificate(False)


def test_a_block_shape_is_shrunk_by_the_wong_sequence(monkeypatch):
    """[[a, b, c], [d, 0, 0], [e, 0, 0]]: the kernels meet in 0 and the images span
    the space, but U = span(e_2, e_3) goes into span(e_1)."""
    _forbid_expansion(monkeypatch)
    mats = [Matrix([[1, 2, 0], [1, 0, 0], [0, 0, 0]]), Matrix([[0, 1, 3], [0, 0, 0], [1, 0, 0]]),
            Matrix([[2, 0, 1], [1, 0, 0], [1, 0, 0]])]
    cert = decide_pencil(mats, 3)
    assert (cert.nonsingular, len(cert.subspace), cert.image_dim) == (False, 2, 1)
    check_certificate(cert, mats, 3)


def test_the_greedy_point_reaches_full_rank_on_the_unit_matrices(monkeypatch):
    """sum_a (a + 1) E_a has rank 2; the unit matrices raise it to n."""
    _forbid_expansion(monkeypatch)
    units = [Matrix([[int((i, j) == (p, q)) for j in range(4)] for i in range(4)])
             for p, q in product(range(4), repeat=2)]
    cert = decide_pencil(units, 4)
    assert cert.member is not None
    check_certificate(cert, units, 4)


def test_empty_pencils():
    assert decide_pencil([], 0).member == Matrix.zero(0)
    cert = decide_pencil([], 2)
    assert (cert.nonsingular, len(cert.subspace), cert.image_dim) == (False, 2, 0)


# --- form spaces: decisions and bases stay put ----------------------------------


def _builtin_algebras():
    for b in BUILTINS:
        s = builtin_structure(b.name)
        yield b.name, s.algebra if s.algebra is not None else left_mult_rep(s.lsa).base


def _dense(rng, n: int) -> Matrix:
    while True:
        p = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if p.det() != 0:
            return p


def _check_space(space, n):
    for basis, flag, cert in (
        (space.basis, space.has_nondegenerate, space.certificate),
        (space.symmetric_basis, space.has_nondegenerate_symmetric, space.symmetric_certificate),
    ):
        assert cert.nonsingular is flag
        check_certificate(cert, basis, n)


@pytest.mark.parametrize("name", [b.name for b in BUILTINS])
def test_form_spaces_of_builtins_are_certified_and_stay_put(name, monkeypatch):
    """On the builtin and its transport by three seeded dense P: the flags are the
    expansion's, the same in every basis; the basis spans the transported forms
    P^T B P; and the expansion never runs."""
    a = dict(_builtin_algebras())[name]
    n = a.dim
    want = invariant_form_space(a)
    oracle = [bool(pencil_det(b, n)) for b in (want.basis, want.symmetric_basis)]
    assert [want.has_nondegenerate, want.has_nondegenerate_symmetric] == oracle
    _forbid_expansion(monkeypatch)
    rng = random.Random(sum(map(ord, name)))
    for p in [Matrix.identity(n)] + [_dense(rng, n) for _ in range(3)]:
        space = invariant_form_space(change_of_basis(a, p))
        assert [space.has_nondegenerate, space.has_nondegenerate_symmetric] == oracle
        _check_space(space, n)
        for mine, theirs in ((space.basis, want.basis), (space.symmetric_basis, want.symmetric_basis)):
            moved = [_flat(p.transpose() @ g @ p) for g in theirs]
            assert len(mine) == len(theirs) == _rank(moved) == _rank(moved + [_flat(g) for g in mine])


def test_solve_form_inputs_are_decided_without_the_expansion(monkeypatch):
    """The invariant-form operations of the benchmark's solve workload: each answer
    matches the workload's own independent expectation, with a checked
    certificate, and the expansion never runs."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    wl_solve = importlib.import_module("wl_solve")
    names = ("tensor", "hom_lie", "representation", "coboundary", "operators", "corpus")
    hl = types.SimpleNamespace(**{m: importlib.import_module(f"homlie.{m}") for m in names})
    ops = [op for op in wl_solve.build(hl, 1, False, ROOT) if op.name.startswith("invariant-forms/")]
    assert len(ops) == 5
    _forbid_expansion(monkeypatch)
    for op in ops:
        space = op.call()
        assert op.summarize(space) == op.expect(), op.name
        _check_space(space, op.dim)


@pytest.mark.parametrize("n", [9, 12])
def test_abelian_form_spaces_are_decided_by_a_point(n, monkeypatch):
    _forbid_expansion(monkeypatch)
    space = invariant_form_space(HomLieAlgebra(Tensor3.zero(n), Matrix.identity(n)))
    assert (space.has_nondegenerate, space.has_nondegenerate_symmetric) == (True, True)
    assert space.certificate.member is not None
    assert space.symmetric_certificate.member is not None
    _check_space(space, n)


def test_the_line_search_takes_no_rank_of_a_lone_matrix(monkeypatch):
    """_grown bounds c by a count of nonzero rows and columns, not by a rank: on the
    abelian algebra of dim 12, both form spaces take 228 exact ranks, each of a
    point tried."""
    calls, real = [], homlie.tensor._rank
    monkeypatch.setattr(homlie.tensor, "_rank", lambda point, n: calls.append(n) or real(point, n))
    space = invariant_form_space(HomLieAlgebra(Tensor3.zero(12), Matrix.identity(12)))
    assert space.certificate.member is not None and space.symmetric_certificate.member is not None
    assert len(calls) == 228
