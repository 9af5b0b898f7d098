"""Every refusal says what is wrong. One table per module: each row builds or
reads something malformed and asserts the exception's type and its message, or,
for the CLI, the exit code and what is written to stderr."""

import pytest

from homlie.bialgebra import (
    Cobracket,
    HomLieBialgebra,
    MatchedPair,
    check_bialgebra_homomorphism,
    cobracket_from_bracket,
    zero_cobracket,
)
from homlie.cli import main
from homlie.coboundary import RMatrix
from homlie.corpus import aff2, heis3
from homlie.hom_lie import BilinearFormB, HomLieAlgebra, change_of_basis, check_invariant_form
from homlie.operators import HomLeftSymmetric
from homlie.representation import Representation, adjoint_rep
from homlie.structure_io import StructureParseError, parse_structure
from homlie.tensor import Matrix, ShapeError, Tensor3, Vector, as_q


def _refuses(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == message


def _bialgebra(a):
    return HomLieBialgebra(zero_cobracket(a))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Cobracket(aff2(), Tensor3.zero(3)), "cobracket coefficient tensor has wrong dims"),
        (
            lambda: MatchedPair(adjoint_rep(aff2()), Representation(aff2(), Matrix.zero(2), [Matrix.zero(2)] * 2)),
            "rho' must act on the left algebra's space with its twist",
        ),
        (lambda: cobracket_from_bracket(heis3(), aff2()), "cobracket base has wrong dimension"),
        (
            lambda: check_bialgebra_homomorphism(Matrix.identity(3), _bialgebra(aff2()), _bialgebra(aff2())),
            "homomorphism matrix has wrong shape",
        ),
    ],
)
def test_bialgebra_refuses(make, message):
    _refuses(make, ShapeError, message)


def test_coboundary_refuses():
    _refuses(lambda: RMatrix(aff2(), Matrix.identity(3)), ShapeError, "r-matrix coefficients must be n x n")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: HomLieAlgebra(Tensor3.zero(2), Matrix([[1, 0]])), "twist must be square"),
        (lambda: HomLieAlgebra(Tensor3.zero(3), Matrix.identity(2)), "bracket dims (3, 3, 3) do not match twist size 2"),
        (lambda: BilinearFormB(Matrix([[1, 0]])), "Gram matrix must be square"),
        (
            lambda: check_invariant_form(aff2(), BilinearFormB(Matrix.identity(3))),
            "form dimension does not match algebra",
        ),
        (lambda: change_of_basis(aff2(), Matrix.identity(3)), "change of basis matrix has wrong shape"),
    ],
)
def test_hom_lie_refuses(make, message):
    _refuses(make, ShapeError, message)


def test_operators_refuses():
    _refuses(
        lambda: HomLeftSymmetric(Tensor3.zero(2), Matrix.identity(3)),
        ShapeError,
        "product tensor and twist dimensions disagree",
    )


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Representation(aff2(), Matrix([[1, 0]]), []), "carrier twist must be square"),
        (
            lambda: Representation(aff2(), Matrix.identity(2), [Matrix.zero(2)]),
            "need one action matrix per algebra basis vector (2), got 1",
        ),
        (
            lambda: Representation(aff2(), Matrix.identity(2), [Matrix.zero(2), Matrix.zero(3)]),
            "action matrices must match carrier dimension",
        ),
    ],
)
def test_representation_refuses(make, message):
    _refuses(make, ShapeError, message)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Matrix([[1, 2], [3]]), ShapeError, "ragged order-2 array"),
        (lambda: Matrix.identity(2).apply(Vector([1, 2, 3])), ShapeError, "apply 2x2 to dim-3 vector"),
        (lambda: Matrix([[1, 2]]).det(), ShapeError, "determinant of a non-square matrix"),
        (lambda: Matrix([[1, 2]]).inverse(), ShapeError, "inverse of a non-square matrix"),
        (lambda: as_q(1.5), TypeError, "not a rational: 1.5"),
    ],
)
def test_tensor_refuses(make, error, message):
    _refuses(make, error, message)


_ONE = '"twist":[["1"]]'


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"version":1,"algebra":{"dim":1,"bracket":{"entries":3},' + _ONE + "}}",
            "algebra.bracket.entries: expected an array",
        ),
        (
            '{"version":1,"algebra":{"dim":1,"bracket":{"entries":[[0,0]]},' + _ONE + "}}",
            "algebra.bracket.entries[0]: want 3 indices plus a value, got 2 items",
        ),
        ("[1]", "top level must be an object"),
        ('{"version":1,"builtin":3}', "builtin: must be a string"),
        ('{"version":1,"algebra":3}', "algebra: expected an object"),
        ('{"version":1,"builtin":"aff2","representation":3}', "representation: expected an object"),
        ('{"version":1,"lsa":3}', "lsa: expected an object"),
        ('{"version":1,"builtin":"lsa2","ooperator":{}}', 'ooperator: expected an object with "T"'),
    ],
)
def test_structure_io_refuses(text, message):
    _refuses(lambda: parse_structure(text), StructureParseError, message)


@pytest.mark.parametrize(
    "text, argv, stderr",
    [
        ('{"version":1}', [], "error: structure has no sections to validate\n"),
        ('{"version":1,"algebra":3}', [], "error: {path}: algebra: expected an object\n"),
    ],
)
def test_cli_refuses(tmp_path, capsys, text, argv, stderr):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code = main(["validate", str(path), *argv])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", stderr.format(path=path))
