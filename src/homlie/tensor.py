"""Dense exact tensors over the rationals.

Everything downstream (brackets, twists, cobrackets, r-matrices) is a
vector, matrix, or order-3 tensor with Fraction entries in a fixed basis.
Storage is dense tuples; target dimensions stay small (doubles of small
algebras, dim <= 8-ish), so simplicity wins over sparsity. All values are
immutable after construction and every comparison is exact equality —
there are no tolerances anywhere in this package.

Conventions that the rest of the package relies on:

* a matrix acts on column coordinate vectors, so column j of ``A`` is the
  image of the j-th basis vector;
* a square matrix doubles as an element of V (x) V: entry ``r[i][j]`` is
  the coefficient of e_i (x) e_j;
* the matrix of a dual map on V* in the dual basis is the transpose of
  the primal matrix (forced by <f*(xi), v> = <xi, f(v)>).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

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


def pair_dual(xi: Vector, v: Vector) -> Fraction:
    """<xi, v> with xi in coordinates of the dual basis (biorthogonal)."""
    return xi.dot(v)


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
        """Exact determinant by fraction-free-ish Gaussian elimination."""
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
        a = [list(r) + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(self.rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                raise ShapeError("singular matrix has no inverse")
            a[col], a[piv] = a[piv], a[col]
            inv = ONE / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
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


# --- tensor-product actions ------------------------------------------------

def apply_pair(a: Matrix, b: Matrix, t: Matrix) -> Matrix:
    """(A (x) B) t for t in V (x) W: entries sum_{p,q} A_ip B_jq t^{pq}.

    Rectangular maps are accepted so the same helper serves homomorphism
    checks between spaces of different dimension.
    """
    if a.ncols != t.nrows or b.ncols != t.ncols:
        raise ShapeError(
            f"apply_pair: A {a.nrows}x{a.ncols}, B {b.nrows}x{b.ncols} on tensor {t.nrows}x{t.ncols}"
        )
    return a @ t @ b.transpose()


def apply_triple(a: Matrix, b: Matrix, c: Matrix, t: Tensor3) -> Tensor3:
    """(A (x) B (x) C) t, dense triple sum."""
    d1, d2, d3 = t.dims
    if a.ncols != d1 or b.ncols != d2 or c.ncols != d3:
        raise ShapeError("apply_triple: map/tensor dimension mismatch")
    # contract slot by slot; cheap at these sizes
    out = [[[ZERO] * c.nrows for _ in range(b.nrows)] for _ in range(a.nrows)]
    for p in range(d1):
        for q in range(d2):
            row = t.entries[p][q]
            for s in range(d3):
                v = row[s]
                if v == 0:
                    continue
                for i in range(a.nrows):
                    aip = a.rows[i][p]
                    if aip == 0:
                        continue
                    av = aip * v
                    for j in range(b.nrows):
                        bjq = b.rows[j][q]
                        if bjq == 0:
                            continue
                        abv = av * bjq
                        for k in range(c.nrows):
                            cks = c.rows[k][s]
                            if cks:
                                out[i][j][k] += abv * cks
    return Tensor3(out)


def sigma2(t: Matrix) -> Matrix:
    """Swap the two tensor slots: sigma(x (x) y) = y (x) x."""
    return t.transpose()


def cyclic3(t: Tensor3, k: int = 1) -> Tensor3:
    """Rotate tensor slots k times; one application sends u(x)v(x)w to w(x)u(x)v."""
    k %= 3
    if k == 0:
        return t
    d1, d2, d3 = t.dims
    if k == 1:
        # out[a][b][c] = t[b][c][a]
        if not (d1 == d2 == d3):
            raise ShapeError("cyclic3 needs equal dims")
        out = [[[t.entries[b][c][a] for c in range(d1)] for b in range(d1)] for a in range(d1)]
        return Tensor3(out)
    return cyclic3(cyclic3(t, 1), 1)


def contract3_first_two(t: Tensor3, xi: Vector, eta: Vector) -> Vector:
    """Contract slots 1 and 2 of t against dual vectors xi, eta; a vector in slot 3."""
    d1, d2, d3 = t.dims
    if xi.dim != d1 or eta.dim != d2:
        raise ShapeError("contract3_first_two: dual vector dims do not match tensor")
    out = [ZERO] * d3
    for i in range(d1):
        a = xi[i]
        if a == 0:
            continue
        for j in range(d2):
            b = eta[j]
            if b == 0:
                continue
            ab = a * b
            for k in range(d3):
                v = t.entries[i][j][k]
                if v:
                    out[k] += ab * v
    return Vector(out)


def contract2_full(t: Matrix, xi: Vector, eta: Vector) -> Fraction:
    """<t, xi (x) eta> = sum t^{ij} xi_i eta_j."""
    return pair_dual(xi, t.apply(eta))


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


def random_skew_matrix(rng, n: int) -> Matrix:
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = random_q(rng)
            rows[i][j] = v
            rows[j][i] = -v
    return Matrix(rows)


def random_combination(rng, basis: Sequence[Vector]) -> Vector:
    """Random rational combination of the given vectors (zero if empty needs a dim)."""
    if not basis:
        raise ShapeError("random_combination needs at least one vector")
    out = Vector.zero(basis[0].dim)
    for v in basis:
        out = out + v.scale(random_q(rng))
    return out


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
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def nullspace(m: Matrix) -> list[Vector]:
    """Exact basis of {x : Mx = 0}."""
    ncols = m.ncols
    if ncols == 0:
        return []
    if m.nrows == 0:
        return [Vector.basis(ncols, j) for j in range(ncols)]
    a, pivots = rref(m.rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(Vector(v))
    return basis


def solve(m: Matrix, b: Vector) -> Vector | None:
    """One exact solution of Mx = b, or None when inconsistent."""
    aug = Matrix([list(r) + [b[i]] for i, r in enumerate(m.rows)])
    a, pivots = rref(aug.rows)
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    for r, p in enumerate(pivots):
        x[p] = a[r][m.ncols]
    return Vector(x)
