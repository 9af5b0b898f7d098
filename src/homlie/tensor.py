"""Exact tensors over the rationals, and one sparse contraction.

Everything downstream (brackets, twists, cobrackets, r-matrices) is a
vector, matrix, or order-3 tensor with Fraction entries in a fixed basis.
These values are stored dense and are immutable after construction. Every
identity the package checks is a multilinear expression in them, evaluated
by ``contract`` over the nonzero entries only, since structure constants are
mostly zeros. Every comparison is exact equality: there are no tolerances
anywhere in this package.

Conventions that the rest of the package relies on:

* a matrix acts on column coordinate vectors, so column j of ``A`` is the
  image of the j-th basis vector;
* a square matrix doubles as an element of V (x) V: entry ``r[i][j]`` is
  the coefficient of e_i (x) e_j;
* the matrix of a dual map on V* in the dual basis is the transpose of
  the primal matrix (forced by <f*(xi), v> = <xi, f(v)>).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Sequence, Union

Q = Fraction

Scalar = Union[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


class ShapeError(ValueError):
    """Operands with incompatible dimensions."""


def as_q(x: Scalar | str) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not a rational: {x!r}")


def format_q(x: Fraction) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Vector:
    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable[Scalar]):
        object.__setattr__(self, "entries", tuple(as_q(e) for e in entries))

    @staticmethod
    def zero(n: int) -> "Vector":
        return Vector([ZERO] * n)

    @staticmethod
    def basis(n: int, i: int) -> "Vector":
        """The i-th (0-based) standard basis vector of dimension n."""
        return Vector([ONE if j == i else ZERO for j in range(n)])

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __add__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise ShapeError(f"vector dims {self.dim} != {other.dim}")
        return Vector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise ShapeError(f"vector dims {self.dim} != {other.dim}")
        return Vector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.entries)

    def scale(self, c: Scalar) -> "Vector":
        c = as_q(c)
        return Vector(c * a for a in self.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def dot(self, other: "Vector") -> Fraction:
        if self.dim != other.dim:
            raise ShapeError(f"vector dims {self.dim} != {other.dim}")
        return sum((a * b for a, b in zip(self.entries, other.entries)), ZERO)

    def __str__(self) -> str:
        return "(" + ", ".join(format_q(a) for a in self.entries) + ")"


@dataclass(frozen=True)
class Matrix:
    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        rs = tuple(tuple(as_q(e) for e in row) for row in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise ShapeError("ragged matrix rows")
        object.__setattr__(self, "rows", rs)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int | None = None) -> "Matrix":
        ncols = nrows if ncols is None else ncols
        return Matrix([[ZERO] * ncols for _ in range(nrows)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.rows[ij[0]][ij[1]]

    def row(self, i: int) -> Vector:
        return Vector(self.rows[i])

    def col(self, j: int) -> Vector:
        return Vector(r[j] for r in self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            tuple(a - b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)
        )

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(-a for a in r) for r in self.rows)

    def scale(self, c: Scalar) -> "Matrix":
        c = as_q(c)
        return Matrix(tuple(c * a for a in r) for r in self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError(f"matmul {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        ot = other.transpose().rows
        return Matrix(
            tuple(sum((a * b for a, b in zip(row, col)), ZERO) for col in ot)
            for row in self.rows
        )

    def apply(self, v: Vector) -> Vector:
        if self.ncols != v.dim:
            raise ShapeError(f"apply {self.nrows}x{self.ncols} to dim-{v.dim} vector")
        return Vector(sum((a * b for a, b in zip(row, v.entries)), ZERO) for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows)) if self.rows else self

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and self == self.transpose()

    def is_skew(self) -> bool:
        return self.nrows == self.ncols and self == self.transpose().__neg__()

    def det(self) -> Fraction:
        """Exact determinant by Gaussian elimination over the rationals."""
        if self.nrows != self.ncols:
            raise ShapeError("determinant of a non-square matrix")
        n = self.nrows
        a = [list(r) for r in self.rows]
        det = ONE
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                return ZERO
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det *= a[col][col]
            inv = ONE / a[col][col]
            for r in range(col + 1, n):
                f = a[r][col] * inv
                if f:
                    for c in range(col, n):
                        a[r][c] -= f * a[col][c]
        return det

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ShapeError("inverse of a non-square matrix")
        n = self.nrows
        a, pivots = rref([r + e for r, e in zip(self.rows, Matrix.identity(n).rows)])
        if pivots[:n] != list(range(n)):
            raise ShapeError("singular matrix has no inverse")
        return Matrix(row[n:] for row in a)

    def _same_shape(self, other: "Matrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError(
                f"matrix shapes {self.nrows}x{self.ncols} != {other.nrows}x{other.ncols}"
            )

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(format_q(a) for a in r) for r in self.rows) + "]"


@dataclass(frozen=True)
class Tensor3:
    entries: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __init__(self, entries: Iterable[Iterable[Iterable[Scalar]]]):
        box = tuple(tuple(tuple(as_q(e) for e in row) for row in plane) for plane in entries)
        d2 = {len(p) for p in box}
        d3 = {len(r) for p in box for r in p}
        if len(d2) > 1 or len(d3) > 1:
            raise ShapeError("ragged order-3 tensor")
        object.__setattr__(self, "entries", box)

    @staticmethod
    def zero(d1: int, d2: int | None = None, d3: int | None = None) -> "Tensor3":
        d2 = d1 if d2 is None else d2
        d3 = d1 if d3 is None else d3
        return Tensor3([[[ZERO] * d3 for _ in range(d2)] for _ in range(d1)])

    @property
    def dims(self) -> tuple[int, int, int]:
        d1 = len(self.entries)
        d2 = len(self.entries[0]) if d1 else 0
        d3 = len(self.entries[0][0]) if d1 and d2 else 0
        return (d1, d2, d3)

    def __getitem__(self, ijk: tuple[int, int, int]) -> Fraction:
        i, j, k = ijk
        return self.entries[i][j][k]

    def __add__(self, other: "Tensor3") -> "Tensor3":
        if self.dims != other.dims:
            raise ShapeError(f"tensor dims {self.dims} != {other.dims}")
        return Tensor3(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(p1, p2))
            for p1, p2 in zip(self.entries, other.entries)
        )

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return self + (-other)

    def __neg__(self) -> "Tensor3":
        return Tensor3(tuple(tuple(-a for a in r) for r in p) for p in self.entries)

    def scale(self, c: Scalar) -> "Tensor3":
        c = as_q(c)
        return Tensor3(tuple(tuple(c * a for a in r) for r in p) for p in self.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for p in self.entries for r in p for a in r)

    def plane(self, i: int) -> Matrix:
        """Slice along the first slot: the matrix t[i][.][.]."""
        return Matrix(self.entries[i])


# --- sparse exact contraction -------------------------------------------------
#
# An identity is written once, as a sum of contractions of its structure
# constants; first_case then hands report.scan the first failing case of the
# residual in the identity's scan order, so scan alone makes witnesses.


class Sparse(dict):
    """A tensor as a dict from index tuples to entries; a missing key is a zero."""

    def __add__(self, other: dict) -> "Sparse":
        out = Sparse(self)
        for key, v in other.items():
            out[key] = out.get(key, ZERO) + v
        return out

    def __neg__(self) -> "Sparse":
        return Sparse({key: -v for key, v in self.items()})

    def __sub__(self, other: "Sparse") -> "Sparse":
        return self + -other


def sparse(x) -> dict:
    """The nonzero entries of a scalar, Vector, Matrix or Tensor3, or of a sequence
    of them (its position is the first index), by index tuple; a dict is returned
    as it is."""
    if isinstance(x, dict):
        return x
    out = Sparse()

    def walk(x, key):
        x = _array(x)
        if not isinstance(x, (tuple, list)):
            if x:
                out[key] = x
        elif x and isinstance(_array(x[0]), (tuple, list)):
            for i, sub in enumerate(x):
                walk(sub, (*key, i))
        else:
            for i, v in enumerate(x):
                if v:
                    out[(*key, i)] = v

    walk(x, ())
    return out


def _array(x):
    if isinstance(x, (Vector, Tensor3)):
        return x.entries
    return x.rows if isinstance(x, Matrix) else x


def _picker(positions: list[int]):
    """key -> the tuple of its entries at the given positions."""
    if len(positions) == 1:
        (p,) = positions
        return lambda key: (key[p],)
    return operator.itemgetter(*positions) if positions else (lambda key: ())


def contract(out: str, *operands: tuple[str, object]) -> Sparse:
    """Einstein summation over nonzero entries. Each operand is (labels, x), one
    distinct letter per index of x, with x anything sparse() takes; entry (i, j, ...)
    of the result, one index per letter of `out`, is the sum over all other letters
    of the product of the operands' entries. Operands are joined left to right, and
    a letter is summed out once neither `out` nor a later operand has it, so their
    order sets the cost but not the result. Sums that cancel are left out."""
    have, acc = "", {(): ONE}
    for pos, (labels, x) in enumerate(operands):
        later = set(out).union(*(l for l, _ in operands[pos + 1 :]))
        common = [l for l in have if l in labels]
        fresh = "".join(l for l in labels if l not in have)
        split_common = _picker([labels.index(l) for l in common])
        split_fresh = _picker([labels.index(l) for l in fresh])
        by_common: dict = {}
        for key, v in sparse(x).items():
            by_common.setdefault(split_common(key), []).append((split_fresh(key), v))
        joined = have + fresh
        lookup = _picker([have.index(l) for l in common])
        keep = _picker([i for i, l in enumerate(joined) if l in later])
        summed: dict = {}
        for key, v in acc.items():
            for rest, w in by_common.get(lookup(key), ()):
                k = keep(key + rest)
                summed[k] = summed.get(k, ZERO) + v * w
        have = "".join(l for l in joined if l in later)
        acc = {k: v for k, v in summed.items() if v}
    order = _picker([have.index(l) for l in out])
    return Sparse({order(k): v for k, v in acc.items()})


def dense(t: dict, shape: Sequence[int], at: tuple[int, ...] = ()):
    """The block of t at the index prefix `at`, over the rest of `shape`: a
    Fraction, Vector, Matrix or Tensor3."""
    rest = shape[len(at) :]
    if not rest:
        return t.get(at, ZERO)
    box = _zeros(rest)
    for key, v in t.items():
        if key[: len(at)] == at:
            cell = box
            for i in key[len(at) : -1]:
                cell = cell[i]
            cell[key[-1]] = v
    return (Vector, Matrix, Tensor3)[len(rest) - 1](box)


def _zeros(shape: Sequence[int]) -> list:
    if len(shape) == 1:
        return [ZERO] * shape[0]
    return [_zeros(shape[1:]) for _ in range(shape[0])]


def first_case(t: dict, shape: Sequence[int], nscan: int, note: str = "") -> list[tuple]:
    """The case report.scan needs of a residual tensor t over `shape`: the least
    prefix of nscan indices with a nonzero entry, as (1-based indices, the block of
    t there, note); no case when t is zero."""
    prefixes = [key[:nscan] for key, v in t.items() if v]
    if not prefixes:
        return []
    at = min(prefixes)
    return [(tuple(i + 1 for i in at), dense(t, shape, at), note)]


# --- seeded random generation ------------------------------------------------
#
# Fuzz suites draw entries p/q with p uniform in {-2..2} and q in {1, 2},
# from a caller-supplied random.Random so every run is reproducible from
# the recorded seed.

def random_q(rng) -> Fraction:
    return Fraction(rng.randint(-2, 2), rng.randint(1, 2))


def random_matrix(rng, nrows: int, ncols: int | None = None) -> Matrix:
    ncols = nrows if ncols is None else ncols
    return Matrix([[random_q(rng) for _ in range(ncols)] for _ in range(nrows)])


def random_combination(rng, basis: Sequence):
    """Random rational combination of the given vectors or matrices (anything
    with + and .scale)."""
    if not basis:
        raise ShapeError("random_combination needs at least one element")
    return reduce(operator.add, (v.scale(random_q(rng)) for v in basis))


# --- exact linear algebra helpers -------------------------------------------

def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        nonzero = [(j, y) for j, y in enumerate(a[r]) if y]
        for i in range(nrows):
            if i != r and a[i][c]:
                f, row = a[i][c], a[i]
                for j, y in nonzero:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vector]:
    """Exact basis of {x : rows x = 0} for x with ncols entries."""
    return _kernel(*rref(rows), ncols)


def _kernel(a: list[list[Fraction]], pivots: list[int], ncols: int) -> list[Vector]:
    """One basis vector per free column of a reduced row echelon form."""
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(Vector(v))
    return basis


# --- linear systems in the entries of a matrix -------------------------------
#
# An equation in the entries of an unknown nrows x ncols matrix X is a list
# of (p, q, c) terms, meaning sum c X[p][q] = 0, with zero coefficients left
# out. Only matrix_kernels knows where X[p][q] sits among the unknowns.

Equation = list[tuple[int, int, Fraction]]


def sylvester(a: Matrix, b: Matrix) -> Iterator[Equation]:
    """The equations (A X - X B)[i][j] = 0, in row-major order of (i, j)."""
    for i, arow in enumerate(a.rows):
        for j in range(b.ncols):
            yield [(p, j, c) for p, c in enumerate(arow) if c] + [
                (i, q, -brow[j]) for q, brow in enumerate(b.rows) if brow[j]
            ]


def matrix_kernels(nrows: int, ncols: int, *groups: Iterable[Equation]) -> list[list[Matrix]]:
    """Exact bases of the nrows x ncols matrices X that satisfy the first group of
    equations, the first two groups, and so on. Each group is reduced once, with the
    rows already reduced: a row space has one reduced row echelon form."""
    unknowns = nrows * ncols
    reduced: list[list[Fraction]] = []
    kernels = []
    for group in groups:
        rows = []
        for eq in group:
            row = [ZERO] * unknowns
            for p, q, c in eq:
                k = p * ncols + q
                # most entries get one term: skip the Fraction addition for those
                row[k] = row[k] + c if row[k] else c
            rows.append(row)
        reduced, pivots = rref(reduced + rows)
        del reduced[len(pivots) :]
        kernels.append(
            [
                Matrix(v.entries[p * ncols : (p + 1) * ncols] for p in range(nrows))
                for v in _kernel(reduced, pivots, unknowns)
            ]
        )
    return kernels


def matrix_kernel(equations: Iterable[Equation], nrows: int, ncols: int) -> list[Matrix]:
    """Exact basis of the nrows x ncols matrices X that satisfy every equation."""
    return matrix_kernels(nrows, ncols, equations)[0]


def pencil_det(mats: Sequence[Matrix], n: int) -> dict[tuple[int, ...], Fraction]:
    """det(sum_a t_a M_a) for n x n matrices M_a: each monomial, the sorted tuple of
    its variable indices a, maps to its nonzero coefficient, so the result is empty
    exactly when every member of the span is singular. Laplace expansion along the
    rows, the minor on the first i rows memoised by its set S of columns (at most
    2^n minors); entry (i, j), j not in S, has sign (-1)^(columns of S after j)."""
    minors = {0: {(): ONE}}  # keyed by S as a bit mask
    for i in range(n):
        entries = [[(a, m.rows[i][j]) for a, m in enumerate(mats) if m.rows[i][j]] for j in range(n)]
        grown = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(entries):
                if entry and not cols >> j & 1:
                    odd = (cols >> j).bit_count() % 2
                    poly = grown.setdefault(cols | 1 << j, {})
                    for mono, c in minor.items():
                        if c:  # terms that cancelled stay behind as zeros
                            for a, e in entry:
                                key = tuple(sorted((*mono, a)))
                                poly[key] = poly.get(key, ZERO) + (-c * e if odd else c * e)
        minors = grown
    return {mono: c for mono, c in minors.get((1 << n) - 1, {}).items() if c}
