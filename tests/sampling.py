"""Seeded random inputs for the tests: entries p/q with p uniform in {-2..2} and
q in {1, 2}, drawn from a caller-supplied random.Random, so that every test input
is reproducible from its seed. Also the library's elimination, read back in the
form oracle_rref returns, for the tests that compare the two."""

from fractions import Fraction
from math import lcm
from typing import Sequence

from homlie.tensor import Matrix, ShapeError, Sparse, _cleared, _reduce


def random_q(rng) -> Fraction:
    return Fraction(rng.randint(-2, 2), rng.randint(1, 2))


def random_matrix(rng, nrows: int, ncols: int | None = None) -> Matrix:
    ncols = nrows if ncols is None else ncols
    return Matrix([[random_q(rng) for _ in range(ncols)] for _ in range(nrows)])


def random_combination(rng, basis: Sequence):
    """Random rational combination of arrays of one shape, a coefficient drawn per
    element in order, summed in one pass over their integer views."""
    if not basis:
        raise ShapeError("random_combination needs at least one element")
    shape = basis[0].shape
    if any(v.shape != shape for v in basis):
        raise ShapeError(f"random_combination of shapes {sorted({v.shape for v in basis})}")
    terms = [(random_q(rng), v._view) for v in basis]
    den = lcm(*(q.denominator * view.den for q, view in terms))
    total: dict = {}
    for q, view in terms:
        s = den // (q.denominator * view.den) * q.numerator
        if s:
            for key, v in view.items():
                total[key] = total.get(key, 0) + s * v
    return basis[0]._of(shape, Sparse({key: v for key, v in total.items() if v}, den))


def reduce_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """tensor._reduce on Fraction rows, read as oracle_rref returns its result: the
    reduced rows, each pivot 1, the zero rows last, and the pivot columns."""
    reduced, pivots = _reduce([_cleared(enumerate(row))[0] for row in rows])
    ncols = len(rows[0]) if rows else 0
    out = [[Fraction(row.get(j, 0), row[c]) for j in range(ncols)] for row, c in zip(reduced, pivots)]
    return out + [[Fraction(0)] * ncols for _ in range(len(rows) - len(pivots))], pivots
