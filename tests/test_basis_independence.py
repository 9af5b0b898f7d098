"""Every verdict is invariant under a change of basis: for seeded invertible
P, the structures rewritten in the basis e'_i = sum_k P[k][i] e_k must get the
verdicts the originals get."""

import contextlib
import dataclasses
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homlie.bialgebra import (
    Cobracket,
    HomLieBialgebra,
    MatchedPair,
    check_triple_equivalence,
    validate_bialgebra,
    validate_matched_pair,
    zero_cobracket,
)
from homlie.cli import CHECKS, main, parse_rmatrix_expr
from homlie.coboundary import RMatrix, check_chybe, validate_coboundary
from homlie.corpus import (
    BUILTINS,
    abelian2,
    aff2,
    aff2_triangular_bialgebra,
    aff2bad,
    aff2phi,
    heis3,
    lsa2,
    lsa2psi,
    notjac3,
    sl2,
)
from homlie.hom_lie import change_of_basis
from homlie.operators import HomLeftSymmetric, OOperatorCandidate, left_mult_rep, validate_o_operator
from homlie.representation import (
    Representation,
    adjoint_rep,
    is_weakly_involutive_rep,
    validate_representation,
)
from homlie.structure_io import (
    Structure,
    StructureParseError,
    builtin_structure,
    emit_structure,
    parse_structure,
)
from homlie.tensor import Matrix, Tensor3, contract, dense

from sampling import random_matrix
from test_bialgebra import double_verdicts
from test_cli_fuzz import documents
from test_representation import dual_semidirect_verdicts, semidirect_verdicts

SEEDS = range(3)


def _invertible(rng, n):
    while True:
        p = random_matrix(rng, n)
        if p.det() != 0:
            return p


def _moved_rep(r: Representation, p: Matrix, q: Matrix) -> Representation:
    """r over change_of_basis(r.base, p), with carrier basis changed by q:
    rho'(e'_i) = q^-1 rho(p e'_i) q and beta' = q^-1 beta q."""
    qinv = q.inverse()
    action = [
        qinv @ sum((r.action[k].scale(p[k, i]) for k in range(p.nrows)), Matrix.zero(q.nrows)) @ q
        for i in range(p.ncols)
    ]
    return Representation(change_of_basis(r.base, p), qinv @ r.beta @ q, action)


def _moved_cobracket(cb: Cobracket, base, p: Matrix) -> Cobracket:
    """Delta'(e'_k) = (p^-1 (x) p^-1) Delta(p e'_k)."""
    pinv, n = p.inverse(), p.nrows
    planes = []
    for k in range(n):
        d = sum((cb.coeffs.plane(x).scale(p[x, k]) for x in range(n)), Matrix.zero(n))
        planes.append((pinv @ d @ pinv.transpose()).rows)
    return Cobracket(base, Tensor3(planes))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "make", (aff2, aff2phi, aff2bad, heis3, sl2, notjac3), ids=lambda f: f.__name__
)
def test_adjoint_representation_verdict(make, seed):
    a = make()
    p = _invertible(random.Random(seed), a.dim)
    verdict = validate_representation(adjoint_rep(a)).ok
    assert validate_representation(adjoint_rep(change_of_basis(a, p))).ok == verdict
    # the same representation, carried over with its carrier basis changed too
    q = _invertible(random.Random(seed + 10), a.dim)
    assert validate_representation(_moved_rep(adjoint_rep(a), p, q)).ok == verdict


@pytest.mark.parametrize("seed", SEEDS)
def test_bialgebra_and_triple_equivalence_on_aff2_triangular(seed):
    a, cb = aff2_triangular_bialgebra()
    broken = Cobracket(a, Tensor3([[[1, 0], [0, 0]], [[0, 0], [0, 0]]]))
    p = _invertible(random.Random(seed), 2)
    moved_a = change_of_basis(a, p)
    for c in (cb, broken):
        bi = HomLieBialgebra(c)
        moved = HomLieBialgebra(_moved_cobracket(c, moved_a, p))
        assert validate_bialgebra(moved).ok == validate_bialgebra(bi).ok
        triple, moved_triple = check_triple_equivalence(bi), check_triple_equivalence(moved)
        assert moved_triple.ok == triple.ok
        assert moved_triple.info == triple.info


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "make, rows",
    [
        (aff2, [[0, 1], [-1, 0]]),  # triangular
        (aff2, [[1, 0], [0, 0]]),
        (aff2, [[0, 1], [1, 0]]),
        (sl2, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        (sl2, [[Fraction(1, 2), 0, 0], [0, 0, 1], [0, 1, 0]]),  # the Casimir
        (heis3, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
    ],
)
def test_coboundary_classification_and_chybe_on_a_transported_r(make, rows, seed):
    a = make()
    r = RMatrix(a, Matrix(rows))
    p = _invertible(random.Random(seed), a.dim)
    moved_a = change_of_basis(a, p)
    pinv = p.inverse()
    moved_r = RMatrix(moved_a, pinv @ r.coeffs @ pinv.transpose())
    report, moved = validate_coboundary(a, r), validate_coboundary(moved_a, moved_r)
    assert (moved.ok, moved.info["classification"]) == (report.ok, report.info["classification"])
    assert check_chybe(moved_r).ok == check_chybe(r).ok


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("make", (lsa2, lsa2psi), ids=lambda f: f.__name__)
def test_o_operator_verdict(make, seed):
    rep = left_mult_rep(make())
    rng = random.Random(seed)
    p, q = _invertible(rng, 2), _invertible(rng, 2)
    moved = _moved_rep(rep, p, q)
    for t in (Matrix.identity(2), rep.beta @ rep.beta, random_matrix(rng, 2)):
        verdict = validate_o_operator(OOperatorCandidate(rep.base, rep, t)).ok
        moved_t = p.inverse() @ t @ q
        assert validate_o_operator(OOperatorCandidate(moved.base, moved, moved_t)).ok == verdict


def _verdicts(report):
    """What a change of basis must keep of a report: its verdict, its parts'
    verdicts and its info."""
    return report.ok, [sub.ok for sub in report.subreports], report.info


def _dual_semidirect_verdicts(rep):
    """dual_semidirect_verdicts, whose statement needs a weakly involutive rep."""
    return dual_semidirect_verdicts(rep) if is_weakly_involutive_rep(rep).ok else None


# one action of abelian2 on a line with twist 2: weakly involutive, but the
# twist square does not fix the action, so both semidirect criteria fail (iii)
_SCALED_LINE = Representation(abelian2(), Matrix([[2]]), (Matrix([[1]]), Matrix([[0]])))

SEMIDIRECT_REPS = {
    "ad-aff2": lambda: adjoint_rep(aff2()),
    "ad-aff2phi": lambda: adjoint_rep(aff2phi()),
    "ad-aff2bad": lambda: adjoint_rep(aff2bad()),
    "ad-sl2": lambda: adjoint_rep(sl2()),
    "L-lsa2psi": lambda: left_mult_rep(lsa2psi()),
    "scaled-line": lambda: _SCALED_LINE,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SEMIDIRECT_REPS)
def test_semidirect_criteria_verdicts(name, seed):
    rep = SEMIDIRECT_REPS[name]()
    rng = random.Random(seed)
    p, q = _invertible(rng, rep.base.dim), _invertible(rng, rep.carrier_dim)
    moved = _moved_rep(rep, p, q)
    parts, whole = semidirect_verdicts(moved)
    assert all(parts) == whole
    assert (parts, whole) == semidirect_verdicts(rep)
    dual = _dual_semidirect_verdicts(moved)
    assert dual is None or all(dual[0]) == dual[1]
    assert dual == _dual_semidirect_verdicts(rep)


def _pairs():
    """Canonical matched pairs: of aff2-triangular, of a broken cobracket on aff2,
    and of the zero cobracket on algebras that are not weakly involutive."""
    a, cb = aff2_triangular_bialgebra()
    broken = Cobracket(a, Tensor3([[[1, 0], [0, 0]], [[0, 0], [0, 0]]]))
    cobrackets = (cb, broken, zero_cobracket(aff2bad()), zero_cobracket(aff2phi()))
    return [HomLieBialgebra(c).matched_pair for c in cobrackets]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("which", range(4))
def test_matched_pair_and_double_criteria_verdicts(which, seed):
    mp = _pairs()[which]
    rng = random.Random(seed)
    p, q = _invertible(rng, mp.left.dim), _invertible(rng, mp.right.dim)
    # the left algebra moves by p and the right by q, each action with them
    moved = MatchedPair(_moved_rep(mp.rho, p, q), _moved_rep(mp.rho_prime, q, p))
    assert _verdicts(validate_matched_pair(moved)) == _verdicts(validate_matched_pair(mp))
    parts, whole = double_verdicts(moved)
    assert all(parts) == whole
    assert (parts, whole) == double_verdicts(mp)


def _moved_structure(s: Structure, p: Matrix) -> Structure:
    """The whole document in the basis e'_i = sum_k p[k][i] e_k of each of its
    spaces, which must all have p's dimension: the bracket and the twist, a
    representation (its carrier moved by p too), the cobracket, r as
    p^-1 r p^-T, the lsa product and psi, and T as p^-1 T p."""
    pinv, n = p.inverse(), p.nrows
    assert {n} >= {x.dim for x in (s.algebra, s.lsa) if x is not None}
    a = None if s.algebra is None else change_of_basis(s.algebra, p)
    lsa = s.lsa
    if lsa is not None:
        product = contract("ijk", ("pi", p), ("pql", lsa.product), ("qj", p), ("kl", pinv))
        lsa = HomLeftSymmetric(dense(product, (n,) * 3), pinv @ lsa.psi @ p, lsa.label)
    return Structure(
        s.name,
        a,
        None if s.representation is None else _moved_rep(s.representation, p, p),
        None if s.cobracket is None else _moved_cobracket(s.cobracket, a, p),
        None if s.rmatrix is None else RMatrix(a, pinv @ s.rmatrix.coeffs @ pinv.transpose()),
        lsa,
        None if s.ooperator_t is None else pinv @ s.ooperator_t @ p,
    )


def _documents():
    """Every builtin, and aff2 with r = e1^e2."""
    docs = {b.name: builtin_structure(b.name) for b in BUILTINS}
    aff2_doc = docs["aff2"]
    docs["aff2+e1^e2"] = dataclasses.replace(
        aff2_doc, rmatrix=RMatrix(aff2_doc.algebra, parse_rmatrix_expr("e1^e2", 2))
    )
    return docs


DOCUMENTS = _documents()


def _exit_codes(s: Structure, tmp_path) -> dict[str, int]:
    """The exit code of `homlie validate` with each check of the CLI's table."""
    path = tmp_path / "doc.json"
    path.write_text(emit_structure(s))
    codes = {}
    for name in CHECKS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[name] = main(["validate", str(path), "--check", name])
    return codes


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", DOCUMENTS)
def test_every_check_exits_alike_on_a_transported_document(name, seed, tmp_path):
    s = DOCUMENTS[name]
    n = (s.algebra or s.lsa).dim
    p = _invertible(random.Random(seed), n)
    assert _exit_codes(_moved_structure(s, p), tmp_path) == _exit_codes(s, tmp_path)


@st.composite
def transported(draw):
    """A valid generated document, less the sections whose spaces are not of the
    dimension n of its algebra (or else of its lsa), and an invertible n x n P with
    entries p/q, p in -2..2 and q in 1..2. Sections are left out rather than the
    document rejected, so that few draws are rejected."""
    try:
        s = parse_structure(json.dumps(draw(documents())))
    except StructureParseError:
        assume(False)
    base = s.algebra or s.lsa
    assume(base is not None)
    n = base.dim
    if s.lsa is not None and s.lsa.dim != n:
        s = dataclasses.replace(s, lsa=None)
    if s.representation is not None and s.representation.carrier_dim != n:
        s = dataclasses.replace(s, representation=None)
    acted_on = s.representation is not None or s.lsa is not None
    if s.ooperator_t is not None and (s.ooperator_t.shape != (n, n) or not acted_on):
        s = dataclasses.replace(s, ooperator_t=None)
    entry = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
    p = Matrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    assume(p.det() != 0)
    return s, p


@settings(max_examples=50, deadline=None)
@given(transported())
def test_every_check_exits_alike_on_any_transported_document(case):
    s, p = case
    with tempfile.TemporaryDirectory() as tmp:
        assert _exit_codes(_moved_structure(s, p), Path(tmp)) == _exit_codes(s, Path(tmp))
