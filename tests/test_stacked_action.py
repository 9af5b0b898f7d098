"""A representation stacks its action once, when it is built, and every
contraction of the action reads that stack: no library call hands contract_sum a
tuple or list operand to restack. The constructions that start from a tensor
(adjoint_rep, left_mult_rep, dual_action_candidate) split the stack into the
action's matrices in one pass, and they agree with the slice-by-slice
constructions written out here."""

import contextlib
import io
import os
import sys
from fractions import Fraction as Q
from math import gcd

import pytest

from homlie import tensor
from homlie.cli import CHECKS, CONSTRUCTIONS, main
from homlie.corpus import BUILTINS, sl2
from homlie.hom_lie import HomLieAlgebra, change_of_basis, direct_sum
from homlie.operators import left_mult_rep
from homlie.report import InvalidStructureError
from homlie.representation import (
    Representation,
    adjoint_rep,
    dual_action_candidate,
    hom_dual_exists,
    hom_dual_representation,
    is_weakly_involutive_rep,
    semidirect_product,
    twisted_action_fixes_carrier_square,
    validate_representation,
)
from homlie.structure_io import builtin_structure
from homlie.tensor import Matrix, contract, contract_sum, dense, sparse

# the options each construction takes, where one applies
OPTIONS = {"semidirect": ["--rep", "adjoint"], "dual": ["--cobracket", "zero"], "cobracket": ["--rmatrix", "e1^e2"]}


def _runs():
    """Every CHECKS row on every builtin, with and without an attached r-matrix, and
    every CONSTRUCTIONS row on every builtin, with and without its option."""
    for b in BUILTINS:
        for check in CHECKS:
            yield ["validate", f"builtin:{b.name}", "--format", "json", "--check", check]
            yield ["validate", f"builtin:{b.name}", "--format", "json", "--check", check, "--rmatrix", "e1^e2"]
        for construction in CONSTRUCTIONS:
            yield ["build", construction, f"builtin:{b.name}"]
            if construction in OPTIONS:
                yield ["build", construction, f"builtin:{b.name}", *OPTIONS[construction]]


def _representations():
    """The adjoint representation of every builtin algebra and left multiplication
    of every builtin lsa."""
    for b in BUILTINS:
        s = builtin_structure(b.name)
        yield adjoint_rep(s.algebra) if s.lsa is None else left_mult_rep(s.lsa)


# the library functions that contract a representation's action
READERS = (validate_representation, is_weakly_involutive_rep, hom_dual_exists, twisted_action_fixes_carrier_square,
           semidirect_product, dual_action_candidate)


def _caller(frame) -> str:
    """The first frame outside tensor.py, as file:line."""
    while os.path.basename(frame.f_code.co_filename) == "tensor.py":
        frame = frame.f_back
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"


def test_no_library_call_hands_contract_sum_a_sequence(monkeypatch):
    real, code = tensor.sparse, contract_sum.__code__
    calls, sequences = [0], set()

    def spy(x):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "<listcomp>":  # a comprehension's own frame, before Python 3.12
            frame = frame.f_back
        if frame.f_code is code:
            calls[0] += 1
            if isinstance(x, (tuple, list)):
                sequences.add(_caller(frame))
        return real(x)

    monkeypatch.setattr(tensor, "sparse", spy)
    for argv in _runs():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)
    for r in _representations():  # and the functions of an action that no CLI row reaches
        for f in READERS:
            f(r)
    assert calls[0] > 1000
    assert not sequences, "contract_sum restacks a sequence from " + ", ".join(sorted(sequences))


# --- the one-pass constructions against the slice-by-slice ones -----------------


def _yau_sl2_squared_dense() -> HomLieAlgebra:
    """sl2 (+) sl2 with the Yau twist of the swap theta of its summands (bracket
    theta[x, y], twist theta), after a change of basis whose entries have the
    denominators 1, 2, 3 and 5, so that the brackets have mixed denominators."""
    a = direct_sum(sl2(), sl2())
    theta = Matrix([[int(j == (i + 3) % 6) for j in range(6)] for i in range(6)])
    bracket = dense(contract("ijl", ("ijk", a.bracket), ("lk", theta)), (6,) * 3)
    p = Matrix([[Q(1 + (i * j) % 3, (1, 2, 3, 5)[(i + j) % 4]) if i <= j else Q(i - j, 2) for j in range(6)] for i in range(6)])
    assert p.det() != 0
    return change_of_basis(HomLieAlgebra(bracket, theta, "yau-sl2^2"), p)


ALGEBRAS = [b.name for b in BUILTINS if builtin_structure(b.name).algebra is not None]


def _lowest(x) -> bool:
    view = sparse(x)
    return view.den > 0 and gcd(view.den, *view.values()) == 1


def _same(got: tuple, want: tuple):
    """Equal matrices, each in lowest terms, with the same denominators."""
    assert got == want
    assert all(_lowest(m) for m in got)
    assert [sparse(m).den for m in got] == [sparse(m).den for m in want]


def _sliced_dual(r: Representation) -> tuple:
    """-rho(phi e_i)^T, one dense slice per i of the contraction."""
    dual = contract("its", ("ui", r.base.twist), ("ust", list(r.action)))
    return tuple(-dense(dual, r.shape, (i,)) for i in range(r.base.dim))


def _check_stack(r: Representation):
    """The stack is sparse(r.action), and no contraction changes it."""
    view = sparse(r._stack)
    whole = sparse(r.action)
    assert r._stack.shape == r.shape
    assert dict(view) == dict(whole) and view.den == whole.den
    before = (dict(view), view.den)
    for f in READERS:
        f(r)
    assert sparse(r._stack) is view and (dict(view), view.den) == before


def _check_dual(r: Representation):
    want = _sliced_dual(r)
    candidate = dual_action_candidate(r)
    _same(candidate.action, want)
    assert candidate.beta == r.beta.transpose()
    _check_stack(candidate)
    if hom_dual_exists(r).ok:
        _same(hom_dual_representation(r).action, want)
    else:
        with pytest.raises(InvalidStructureError):
            hom_dual_representation(r)


@pytest.mark.parametrize("name", [*ALGEBRAS, "heis3phi", "yau-sl2^2-dense"])
def test_adjoint_rep_and_its_dual_match_the_sliced_constructions(name, request):
    if name == "heis3phi":
        a = request.getfixturevalue(name)
    elif name == "yau-sl2^2-dense":
        a = _yau_sl2_squared_dense()
    else:
        a = builtin_structure(name).algebra
    r = adjoint_rep(a)
    _same(r.action, tuple(a.bracket.plane(i).transpose() for i in range(a.dim)))
    assert r.beta == a.twist
    assert r == Representation(a, a.twist, r.action)
    _check_stack(r)
    _check_stack(Representation(a, a.twist, r.action))
    _check_dual(r)


@pytest.mark.parametrize("name", [b.name for b in BUILTINS if builtin_structure(b.name).lsa is not None])
def test_left_mult_rep_and_its_dual_match_the_sliced_constructions(name):
    p = builtin_structure(name).lsa
    r = left_mult_rep(p)
    _same(r.action, tuple(p.product.plane(i).transpose() for i in range(p.dim)))
    assert r.beta == p.psi
    _check_stack(r)
    _check_dual(r)
