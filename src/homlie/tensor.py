"""Exact arrays over the rationals, and one sparse contraction.

Everything downstream (brackets, twists, cobrackets, r-matrices) is one
exact array type, ``Array``, of order 1 to 3 (``Vector``, ``Matrix`` and
``Tensor3``) with rational entries in a fixed basis. Structure constants are
mostly zeros, so an immutable array stores only its shape and its integer view,
which ``sparse(x)`` returns: a ``Sparse`` tensor of the nonzero entries as integer
numerators over one positive denominator, in lowest terms. Building, combining,
testing for zero, comparing, slicing and rendering arrays is decided once, in
``Array``, on that view. Every identity the package checks is a signed sum of
contractions of arrays, evaluated by ``contract_sum`` (``contract`` is its one-term
case) over the nonzero numerators, and ``dense`` slices a block of the result back
into an array.

``contract_sum`` joins each term's operands in the order of least estimated work
(``estimate``) and computes a contraction read under several key orders once. When
one operand alone has a contraction's last letter, the lane, it is packed along the
lane into one exact int per row, v_0 + v_1 2^B + v_2 2^(2B) + ... (Kronecker
substitution), so one bigint product covers the lane; all terms are summed packed at
one width B, from an exact bound on the whole sum, and the total is unpacked once
before it is returned. Packing lives only inside ``contract_sum``: every ``Sparse``
outside it holds plain numerators.

Fractions are built only in ``entries`` and ``rows``, single-entry reads, and the
result of ``Matrix.det``; rendering formats the integer view. ``Matrix.det``,
``Matrix.inverse`` and ``matrix_kernels`` eliminate on integer rows.
``matrix_kernels`` solves a linear identity in an unknown matrix from the identity's
own contraction on a stack of unknown matrices (``unit_stack``, ``skew_stack``), so
each identity is written once, for checking and solving alike. ``decide_pencil``
decides by exact ranks, with a certificate, whether a span of matrices holds a
nonsingular one. Every comparison is exact: there are no tolerances.

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
from bisect import bisect, insort
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from fractions import Fraction
from math import gcd, lcm, prod
from typing import ClassVar, Iterable, NamedTuple, Sequence, Union

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
    return _format_pq(x.numerator, x.denominator)


def _format_pq(p: int, q: int) -> str:
    """format_q of p/q, given in lowest terms with q > 0."""
    return _decimal(p) if q == 1 else f"{_decimal(p)}/{_decimal(q)}"


def _decimal(n: int) -> str:
    """str(n), exact at any length: an int with more digits than the interpreter
    converts at once (sys.get_int_max_str_digits) is split at 10^d, d about half its
    digits, and each part is rendered alone."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _decimal(-n)
        d = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
        high, low = divmod(n, 10**d)
        return _decimal(high) + _decimal(low).zfill(d)


@dataclass(frozen=True, eq=False)
class Array:
    """An exact array of order 1, 2 or 3: its shape and its integer view, the
    Sparse of its nonzero entries in lowest terms (the denominator is the LCM of
    the entries' denominators). Vector, Matrix and Tensor3 fix the order. Arrays
    are equal when their shapes and entries are; `entries` renders the nested
    tuples of Fractions on each access."""

    shape: tuple[int, ...]
    _view: Sparse
    order: ClassVar[int]

    def __init__(self, entries: Iterable):
        """From nested sequences, `order` deep, of ints, Fractions or "p/q"
        strings, with every sequence at one depth of one length."""
        shape, cells = [], [((), entries)]
        for _ in range(self.order):
            cells = [(key, list(x)) for key, x in cells]
            size = len(cells[0][1]) if cells else 0
            if any(len(x) != size for _, x in cells):
                raise ShapeError(f"ragged order-{self.order} array")
            shape.append(size)
            cells = [((*key, i), y) for key, x in cells for i, y in enumerate(x)]
        vars(self).update(shape=tuple(shape), _view=_integral((k, as_q(x)) for k, x in cells))

    @classmethod
    def _of(cls, shape: Sequence[int], view: Sparse):
        """The array of this shape whose nonzero entries are view's, in lowest terms."""
        g = gcd(view.den, *view.values())
        if g > 1:
            view = Sparse({key: v // g for key, v in view.items()}, view.den // g)
        out = object.__new__(cls)
        vars(out).update(shape=tuple(shape), _view=view)
        return out

    @classmethod
    def zero(cls, n: int, *rest: int):
        """The zero array with sizes (n, *rest); sizes left out are n."""
        return cls._of((n, *rest) + (n,) * (cls.order - 1 - len(rest)), Sparse())

    @property
    def entries(self) -> tuple:
        """The entries as nested tuples of Fractions, `order` deep."""
        den = self._view.den
        return _nested(self._view, self.shape, lambda v: Fraction(v, den), ZERO, tuple)

    def _at(self, index) -> tuple[int, ...]:
        """An index tuple, or an int, with negative indices counted from the end."""
        key = index if isinstance(index, tuple) else (index,)
        return tuple(range(n)[i] for i, n in zip(key, self.shape[: len(key)], strict=True))

    def __getitem__(self, index):
        """The entry at an index tuple, or at an int for a vector; fewer indices
        give the nested tuples of the block there."""
        block = dense(self, self.shape, self._at(index))
        return block if isinstance(block, Fraction) else block.entries

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.shape == other.shape and self._view == other._view

    def __hash__(self):
        return hash((self.shape, self._view.den, frozenset(self._view.items())))

    def __add__(self, other):
        if self.shape != other.shape:
            raise ShapeError(f"shapes {self.shape} != {other.shape}")
        return self._of(self.shape, self._view + other._view)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._of(self.shape, -self._view)

    def scale(self, c: Scalar | str):
        c = c if isinstance(c, (int, Fraction)) else as_q(c)
        p, view = c.numerator, self._view
        scaled = {key: p * v for key, v in view.items()} if p else {}
        return self._of(self.shape, Sparse(scaled, view.den * c.denominator))

    def is_zero(self) -> bool:
        return not self._view

    def __str__(self) -> str:
        """(a, b) for a vector, [a b; c d] for a matrix, and the planes of an
        order-3 array in brackets, [[a b; c d], [e f; g h]]."""
        return _render(self.to_json(), self.order)

    def to_json(self) -> list:
        """The entries as nested lists of "p/q" strings."""
        den = self._view.den

        def cell(v: int) -> str:
            g = gcd(v, den)
            return _format_pq(v // g, den // g)

        return _nested(self._view, self.shape, cell, "0", list)


def _nested(t: Sparse, shape: Sequence[int], cell, zero, make):
    """Sequences built by make, nested over the shape: cell(v) at each nonzero
    numerator v of t, zero elsewhere."""
    if len(shape) == 1:
        line = [zero] * shape[0]
        for (i,), v in t.items():
            line[i] = cell(v)
        return make(line)
    parts: list[dict] = [{} for _ in range(shape[0])]
    for (i, *key), v in t.items():
        parts[i][tuple(key)] = v
    return make(_nested(part, shape[1:], cell, zero, make) for part in parts)


def _render(x: list, order: int) -> str:
    if order == 1:
        return "(" + ", ".join(x) + ")"
    if order == 2:
        return "[" + "; ".join(" ".join(row) for row in x) + "]"
    return "[" + ", ".join(_render(sub, order - 1) for sub in x) + "]"


class Vector(Array):
    order = 1

    @staticmethod
    def basis(n: int, i: int) -> "Vector":
        """The i-th (0-based, negative counted from the end) standard basis vector
        of dimension n; IndexError when i is out of range."""
        return Vector._of((n,), Sparse({(range(n)[i],): 1}))

    @property
    def dim(self) -> int:
        return self.shape[0]

    def dot(self, other: "Vector") -> Fraction:
        if self.dim != other.dim:
            raise ShapeError(f"vector dims {self.dim} != {other.dim}")
        return dense(contract("", ("i", self), ("i", other)), ())


class Matrix(Array):
    order = 2

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.entries

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of((n, n), Sparse({(i, i): 1 for i in range(n)}))

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def row(self, i: int) -> Vector:
        return dense(self, self.shape, self._at(i))

    def col(self, j: int) -> Vector:
        return self.transpose().row(j)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError(f"matmul {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        return dense(contract("ik", ("ij", self), ("jk", other)), (self.nrows, other.ncols))

    def apply(self, v: Vector) -> Vector:
        if self.ncols != v.dim:
            raise ShapeError(f"apply {self.nrows}x{self.ncols} to dim-{v.dim} vector")
        return dense(contract("i", ("ij", self), ("j", v)), (self.nrows,))

    def transpose(self) -> "Matrix":
        return Matrix._of(self.shape[::-1], self._view.moved(lambda i, j: (j, i)))

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and self == self.transpose()

    def is_skew(self) -> bool:
        return self.nrows == self.ncols and self == -self.transpose()

    def det(self) -> Fraction:
        """Exact determinant by fraction-free (Bareiss) elimination on the
        numerators N of the integer view: det(A) = det(N) / den^n."""
        if self.nrows != self.ncols:
            raise ShapeError("determinant of a non-square matrix")
        n = self.nrows
        a = _row_dicts(self._view, n)
        sign, prev = 1, 1
        for k in range(n):
            piv = next((i for i in range(k, n) if k in a[i]), None)
            if piv is None:
                return ZERO
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            pivot_row = a[k]
            p = pivot_row[k]
            for i in range(k + 1, n):
                row = a[i]
                f = row.pop(k, 0)
                if not f and p == prev:
                    continue
                new = {j: p * v for j, v in row.items()}
                if f:
                    for j, v in pivot_row.items():
                        if j > k:
                            new[j] = new.get(j, 0) - f * v
                # Sylvester's identity: every entry is a multiple of the last pivot
                a[i] = {j: v // prev for j, v in new.items() if v}
            prev = p
        return Fraction(sign * prev, self._view.den**n)

    def inverse(self) -> "Matrix":
        """The right half of the reduced integer rows [numerators | den * I]."""
        if self.nrows != self.ncols:
            raise ShapeError("inverse of a non-square matrix")
        n = self.nrows
        a = _row_dicts(self._view, n)
        for i, row in enumerate(a):
            row[n + i] = self._view.den
        a, pivots = _reduce(a)
        if pivots[:n] != list(range(n)):
            raise ShapeError("singular matrix has no inverse")
        # row i over its pivot row[i], with every row brought to the pivots' LCM
        den = lcm(*(row[i] for i, row in enumerate(a)))
        inverse = {
            (i, j - n): den // row[i] * v for i, row in enumerate(a) for j, v in row.items() if j >= n
        }
        return Matrix._of((n, n), Sparse(inverse, den))


class Tensor3(Array):
    order = 3

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.shape

    def plane(self, i: int) -> Matrix:
        """Slice along the first slot: the matrix t[i][.][.]."""
        return dense(self, self.shape, self._at(i))


# --- sparse exact contraction -------------------------------------------------
#
# An identity is written once, as a sum of contractions of its structure
# constants; report.scan takes the residual itself and reads its witness, the
# least failing prefix in the identity's scan order, through first_case.


class Sparse(dict):
    """A tensor as integer numerators over one positive denominator: entry `key`
    is its value / self.den, a missing key is a zero, and no value is 0. Equality
    compares the rational entries. Every operation returns a new Sparse, and none
    changes the tensor one holds, so arrays can share their views with the kernel."""

    __slots__ = ("den",)

    def __init__(self, entries=(), den: int = 1):
        super().__init__(entries)
        self.den = den

    def __reduce__(self):
        """Copies and pickles hold the entries and the denominator."""
        return Sparse, (dict(self), self.den)

    def __add__(self, other) -> "Sparse":
        other = sparse(other)
        if not other:
            return self
        if not self:
            return other
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {key: a * v for key, v in self.items()} if a > 1 else dict(self)
        for key, v in other.items():
            w = out.get(key, 0) + b * v
            if w:
                out[key] = w
            else:
                del out[key]
        return Sparse(out, den)

    def __neg__(self) -> "Sparse":
        return Sparse({key: -v for key, v in self.items()}, self.den)

    def __sub__(self, other) -> "Sparse":
        return self + -sparse(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, dict):
            return NotImplemented
        other = sparse(other)
        return self.keys() == other.keys() and all(
            v * other.den == other[key] * self.den for key, v in self.items()
        )

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def moved(self, f) -> "Sparse":
        """The same entries at the keys f(*key); f must be one-to-one."""
        return Sparse({f(*key): v for key, v in self.items()}, self.den)


def sparse(x) -> Sparse:
    """The integer view of a scalar, Vector, Matrix, Tensor3, dict of rationals, or
    sequence of them (its position is the first index): the nonzero entries by index
    tuple, scaled by the LCM of their denominators. An array's view is its storage
    and a Sparse is returned as it is."""
    if isinstance(x, Sparse):
        return x
    if isinstance(x, Array):
        return x._view
    if isinstance(x, dict):
        return _integral(x.items())
    if isinstance(x, (tuple, list)):
        parts = [sparse(sub) for sub in x]
        den = lcm(*(p.den for p in parts))
        return Sparse(
            {(i, *key): den // p.den * v for i, p in enumerate(parts) for key, v in p.items()}, den
        )
    return _integral([((), x)])


def _integral(entries: Iterable[tuple[tuple, Scalar]]) -> Sparse:
    """The nonzero (key, rational) entries over the LCM of their denominators."""
    return Sparse(*_cleared(entries))


def _cleared(entries: Iterable[tuple[object, Scalar]]) -> tuple[dict, int]:
    """The nonzero (key, rational) entries as integer numerators over the LCM of
    their denominators, and that LCM."""
    nonzero = [(key, v) for key, v in entries if v]
    den = lcm(*(v.denominator for _, v in nonzero))
    return {key: den // v.denominator * v.numerator for key, v in nonzero}, den


# --- packed lanes ---------------------------------------------------------------
#
# Kronecker substitution (D. Harvey, J. Symbolic Comput. 44, 2009): the entries
# v_0, v_1, ... of a row along one index are the int sum of v_l 2^(width l). The
# map is Z-linear, so sums, differences and integer multiples of packed ints are
# the packed sums, differences and multiples of their rows, and a row is read
# back exactly as balanced digits while every |v_l| < 2^(width - 1). A read adds
# its scaled entries into the packed total straight away: a row of a job with no
# lane gains v 2^(width l) at slot l of out's last index. Unpacking reads a
# nonzero slot at a time and jumps a run of zero slots in one shift, so a sparse
# row, such as a residual's on a stack of unit matrices, costs per nonzero slot
# and per zero run.
# Only contract_sum packs and unpacks.


def _unpacked(rows: Iterable[tuple[tuple, int]], width: int) -> dict:
    """The entries of packed rows, each row's key followed by its slot: the nonzero
    balanced digits v_l of p = sum v_l 2^(width l). A zero slot jumps to the slot of
    p's lowest set bit, so a row pays per nonzero slot and per zero run."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    out: dict = {}
    for key, p in rows:
        l = 0
        while p:
            v = ((p & mask) ^ half) - half
            if v:
                out[(*key, l)] = v
                p = (p - v) >> width
                l += 1
            else:
                skip = ((p & -p).bit_length() - 1) // width
                p >>= width * skip
                l += skip
    return out


def _packed(entries: Iterable[tuple[tuple, int]], lane: int, rest, width: int) -> dict:
    """Entries packed over the index at position `lane`: key rest(key) holds the
    sum of v 2^(width key[lane])."""
    rows: dict = {}
    for key, v in entries:
        row = rest(key)
        rows[row] = rows.get(row, 0) + (v << width * key[lane])
    return rows


def _width(bound: int) -> int:
    """The slot width for entries whose |v| sum to at most bound, with a sign bit."""
    return bound.bit_length() + 1


# --- contraction ----------------------------------------------------------------


def _picker(positions: list[int]):
    """key -> the tuple of its entries at the given positions."""
    if len(positions) == 1:
        (p,) = positions
        return lambda key: (key[p],)
    return operator.itemgetter(*positions) if positions else (lambda key: ())


def _group(items, split, keep) -> dict:
    """The entries by split(key), as (keep(key), value) pairs."""
    out: dict = {}
    for key, v in items:
        out.setdefault(split(key), []).append((keep(key), v))
    return out


def _lane(out: str, specs: Sequence[str]) -> int | None:
    """The operand that alone has out's last letter, or None."""
    holders = [pos for pos, labels in enumerate(specs) if out and out[-1] in labels]
    return holders[0] if len(holders) == 1 else None


def estimate(out: str, specs: tuple[str, ...], sizes: tuple) -> tuple[int, tuple[int, ...]]:
    """The least _work of contract(out, *operands) with operands labelled specs over
    every operand order, and the order that attains it, the written one on a tie."""
    return min((_work(out, specs, sizes, order), order) for order in permutations(range(len(specs))))


def _work(out: str, specs: tuple[str, ...], sizes: tuple, order: tuple[int, ...]) -> int:
    """The estimated work of joining the operands in this order: each operand's keys
    (read or grouped), and per join one product per value of the letters that the
    accumulator and the operand touch; the lane is in no key. A pure function of
    the spec: sizes holds each operand's shape or None, and a letter counts at the
    largest extent a shape gives it, else at the largest of any."""
    extents: dict = {}
    for labels, shape in zip(specs, sizes):
        for l, e in zip(labels, shape or ()):
            extents[l] = max(extents.get(l, 0), e)
    lane, default = _lane(out, specs), max(extents.values(), default=2)
    have, total = set(), 0
    for step, pos in enumerate(order):
        keys = set(specs[pos]) - {out[-1]} if pos == lane else set(specs[pos])
        for letters in (keys, have | keys) if step else (keys,):
            total += prod(extents.get(l, default) for l in letters)
        have = (have | keys) & set(out).union(*(specs[p] for p in order[step + 1 :]))
    return total


@lru_cache(maxsize=1024)
def _plan(out: str, spec: tuple, reads: tuple[str, ...]) -> tuple:
    """What contract_sum does with one term, its operands' labels and shapes (or
    None) in spec, worked out once per spec: whether a job packs, the number of
    reads (out when there are none), and one job per letter that the reads put
    last, as (lane, lane_at, lane_rest, order, first, joins, keymaps). lane is the
    operand that alone has that letter, packed over it (or None), lane_at the
    letter's place in its labels, lane_rest the picker of a packed row's key; order
    is estimate()'s; first picks the first operand's kept indices; per later
    operand, joins holds the pickers of its indices shared with the accumulator and
    of its kept ones, and of the accumulator's shared and kept ones; per read,
    keymaps holds its sign and the picker of out's order. A picker that would keep
    a key as it is is None."""

    def pick(letters, labels: str):
        return _picker([labels.index(l) for l in letters])

    def keep(letters, labels: str):
        return None if "".join(letters) == labels else pick(letters, labels)

    specs, sizes = tuple(l for l, _ in spec), tuple(s for _, s in spec)
    groups: dict = {}
    for read in reads or (out,):
        sign, read = (-1, read[1:]) if read.startswith("-") else (1, read)
        letters = "".join(out[read.index(l)] for l in out)  # the term's, in out's order
        groups.setdefault(letters[-1:], []).append((sign, letters))
    jobs = []
    for group in groups.values():
        job_out = group[0][1]
        lane, (_, order) = _lane(job_out, specs), estimate(job_out, specs, sizes)
        letter, labels = (job_out[-1], specs[lane]) if lane is not None else ("", "")
        have, first, joins = "", None, []
        for step, pos in enumerate(order):
            row = specs[pos].replace(letter, "") if pos == lane else specs[pos]
            later = set(job_out).union(*(specs[p] for p in order[step + 1 :]))
            common = [l for l in have if l in row]
            kept_have = [l for l in have if l in later]
            kept_fresh = [l for l in row if l not in have and l in later]
            if step:
                shared = (pick(common, row), pick(kept_fresh, row), pick(common, have))
                joins.append((*shared, keep(kept_have, have)))
            else:
                first = keep(kept_fresh, row)
            have = "".join(kept_have + kept_fresh)
        keymaps = tuple((sign, keep(letters[:-1] if letter else letters, have)) for sign, letters in group)
        rest = pick(labels.replace(letter, ""), labels)
        jobs.append((lane, labels.index(letter), rest, order, first, tuple(joins), keymaps))
    return any(job[0] is not None for job in jobs), len(reads or (out,)), tuple(jobs)


def contract(out: str, *operands: tuple[str, object]) -> Sparse:
    """Einstein summation over nonzero entries. Each operand is (labels, x), one
    distinct letter per index of x, with x anything sparse() takes; entry (i, j, ...)
    of the result, one index per letter of `out`, is the sum over all other letters
    of the product of the operands' entries, over the product of their denominators.
    The one-term case of contract_sum."""
    return contract_sum(out, (1, operands))


def contract_sum(out: str, *terms) -> Sparse:
    """A signed sum of contractions in one pass. A term is (c, operands, *reads):
    an int c, operands as contract takes them, and permutations of out under which
    t = contract(out, *operands) is read (out when there are none); it adds c
    contract(out, (read, t)) per read, minus that for a read starting with "-".
    t is worked out once for all reads that put one of its letters last.

    Products and sums are of integer numerators, over the LCM of the terms'
    denominators; sums that cancel are left out. The operands join in estimate()'s
    order: the first one's kept indices start the accumulator, and each later one
    is grouped by the letters it shares with it and multiplied in; the first
    operand itself is the accumulator when it keeps all its indices. The operand
    that alone has a job's last letter, the lane, is packed over it (see "packed
    lanes" above). Each read is one loop that re-keys the job's entries, scales them
    by c den / the term's den and adds them into one total; in a call that packs,
    all terms are summed packed at one width from an exact bound on the sum (per
    term and read, |c| den / its den times the product of its operands' sums of
    |numerators|), and the total is unpacked once into the result."""
    live, dens = [], []
    for c, operands, *reads in terms:
        xs = [sparse(x) for _, x in operands]
        dens.append(prod([x.den for x in xs]))
        if all(xs):
            spec = tuple([(labels, getattr(x, "shape", None)) for labels, x in operands])
            live.append((c, xs, dens[-1], *_plan(out, spec, tuple(reads))))
    den = lcm(*dens)
    width = bound = 0
    if any([packs for _, _, _, packs, _, _ in live]):
        for c, xs, d, _, nreads, _ in live:
            bound += abs(c) * den // d * nreads * prod([sum(map(abs, x.values())) for x in xs])
        width = _width(bound)
    total: dict = {}
    for c, xs, d, _, _, jobs in live:
        for lane, lane_at, lane_rest, order, first, joins, keymaps in jobs:
            parts = [
                _packed(xs[pos].items(), lane_at, lane_rest, width) if pos == lane else xs[pos]
                for pos in order
            ]
            # the accumulator is only read, so it starts as the first operand itself
            acc = parts[0]
            if first is not None:
                acc = defaultdict(int)
                for key, v in parts[0].items():
                    acc[first(key)] += v
            for (split, keep, acc_split, acc_keep), part in zip(joins, parts[1:]):
                right = _group(part.items(), split, keep)
                summed = defaultdict(int)
                for key, v in acc.items():
                    pairs = right.get(acc_split(key))
                    if pairs:
                        head = key if acc_keep is None else acc_keep(key)
                        for rest, w in pairs:
                            summed[head + rest] += v * w
                acc = summed
            for sign, keymap in keymaps:
                f = sign * c * den // d
                if width and lane is None:
                    for k, v in acc.items():
                        if keymap is not None:
                            k = keymap(k)
                        row = k[:-1]
                        total[row] = total.get(row, 0) + (f * v << width * k[-1])
                else:
                    for k, v in acc.items():
                        if keymap is not None:
                            k = keymap(k)
                        total[k] = total.get(k, 0) + f * v
    if width:
        return Sparse(_unpacked(total.items(), width), den)
    return Sparse({k: v for k, v in total.items() if v}, den)


def dense(t, shape: Sequence[int], at: tuple[int, ...] = ()):
    """The block of t (anything sparse() takes, its keys inside `shape`) at the
    index prefix `at`, over the rest of `shape`: the Fraction there when `at` is a
    whole index, else the Vector, Matrix or Tensor3 whose view is the block's
    numerators, sliced from t without building a Fraction."""
    t = sparse(t)
    cut = len(at)
    rest = shape[cut:]
    if not rest:
        v = t.get(at)
        return Fraction(v, t.den) if v else ZERO
    if cut:
        t = Sparse({key[cut:]: v for key, v in t.items() if key[:cut] == at}, t.den)
    return _ARRAYS[len(rest) - 1]._of(rest, t)


_ARRAYS = (Vector, Matrix, Tensor3)


def first_case(t, shape: Sequence[int], nscan: int) -> tuple[tuple[int, ...], Fraction | Array] | None:
    """The least prefix of nscan indices at which the residual t over `shape` is
    nonzero, as (its 1-based indices, the block of t there); None when t is zero."""
    t = sparse(t)
    if not t:
        return None
    at = min(key[:nscan] for key in t)
    return tuple(i + 1 for i in at), dense(t, shape, at)


# --- exact linear algebra helpers -------------------------------------------

def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by the gcd of its entries."""
    d = gcd(*row.values())
    return {j: v // d for j, v in row.items()} if d > 1 else row


def _eliminate(row: dict[int, int], steps: list[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """The primitive row m row - sum of (m row[c] / p_c) pivot_row over the
    (c, pivot_row) steps, which has none of their columns c: p_c is pivot_row's
    entry at c, no pivot row holds another step's column, and m > 0 is the least
    multiplier that makes every coefficient an integer, the LCM of the
    p_c / gcd(p_c, row[c]). Rows are the caller's own: row may be changed in
    place and the pivot rows are not."""
    m = lcm(*(pivot_row[c] // gcd(pivot_row[c], row[c]) for c, pivot_row in steps))
    if m != 1:
        row = {j: m * v for j, v in row.items()}
    for c, pivot_row in steps:
        f = row[c] // pivot_row[c]
        for j, v in pivot_row.items():
            x = row.get(j, 0) - f * v
            if x:
                row[j] = x
            else:
                del row[j]
    return _primitive(row)


def _row_dicts(t: Sparse, nrows: int) -> list[dict[int, int]]:
    """The numerators of a matrix's view, row by row, by column."""
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
    for (i, j), v in t.items():
        rows[i][j] = v
    return rows


def _reduce(a: list[dict[int, int]]) -> tuple[list[dict[int, int]], list[int]]:
    """The reduced row echelon form of integer rows, which it may change: the
    nonzero rows of the reduced form, each a primitive multiple of the rational
    one, in the order of their pivot columns, and those columns. As the form is
    unique, the order in which the rows are taken does not change it.

    One left-looking Gauss-Jordan pass. The rows are taken by decreasing leading
    column, the shorter first among rows that lead at the same column, and each
    is cleared against a basis of rows kept fully reduced: a basis row holds no
    pivot column but its own, so clearing one pivot column of a row brings in no
    other, and one _eliminate clears a row of every pivot column it holds. A row
    left nonzero leads at a new pivot column c; only a basis row with an earlier
    pivot can hold c, found by bisecting the sorted pivots, and those are cleared
    of it, which keeps the basis reduced."""
    basis: dict[int, dict[int, int]] = {}
    pivots: list[int] = []
    for row in sorted((_primitive(row) for row in a if row), key=lambda row: (-min(row), len(row))):
        held = [(j, basis[j]) for j in row if j in basis]
        if held:
            row = _eliminate(row, held)
        if row:
            c = min(row)
            for p in pivots[: bisect(pivots, c)]:
                if c in basis[p]:
                    basis[p] = _eliminate(basis[p], [(c, row)])
            insort(pivots, c)
            basis[c] = row
    return [basis[c] for c in pivots], pivots


def _kernel(a: list[dict[int, int]], pivots: list[int], planes: Sequence[list]) -> list[Sparse]:
    """One basis vector per free column f of _reduce's rows and pivots, as the integer
    view of its entries x_c placed by planes: x_c u at key for each (key, u) in
    planes[c], the planes having disjoint keys. x_f is 1 and x_p is -row[f] / row[p]
    at the pivot p of each row that holds f, all over the LCM of those |row[p]|.
    Each row is read once."""
    free: dict[int, list] = {f: [] for f in sorted(set(range(len(planes))).difference(pivots))}
    for row, p in zip(a, pivots):
        d = row[p]
        for f, v in row.items():
            if f != p:
                free[f].append((p, v, d))
    views = []
    for f, held in free.items():
        den = lcm(*(d for _, _, d in held))
        view = {key: -v * (den // d) * u for p, v, d in held for key, u in planes[p]}
        view.update((key, den * u) for key, u in planes[f])
        views.append(Sparse(view, den))
    return views


# --- linear identities in an unknown matrix ----------------------------------
#
# An identity linear in an unknown matrix X is solved with the evaluator that
# checks it, applied with the batch letter _SAMPLE to a stack of unknown matrices:
# a Tensor3 whose plane z is U_z. Each index of the residual after z is one
# equation, sum_z residual[z, ...] x_z = 0, in the coordinates of X = sum_z x_z U_z.

_SAMPLE = "z"  # the batch letter: a sample index, or the index z of a stack


def unit_stack(nrows: int, ncols: int) -> Tensor3:
    """The unit matrices E_pq of nrows x ncols, E_pq at z = p ncols + q."""
    units = {(p * ncols + q, p, q): 1 for p in range(nrows) for q in range(ncols)}
    return Tensor3._of((nrows * ncols, nrows, ncols), Sparse(units))


def skew_stack(n: int) -> Tensor3:
    """The skew n x n matrices E_pq - E_qp for p > q, in row-major order of (p, q)."""
    units: dict = {}
    for z, (p, q) in enumerate((p, q) for p in range(n) for q in range(p)):
        units[z, p, q], units[z, q, p] = 1, -1
    return Tensor3._of((n * (n - 1) // 2, n, n), Sparse(units))


def _equations(residual: Sparse) -> Iterable[dict[int, int]]:
    """The nonzero equations of a residual, by z."""
    rows: dict = defaultdict(dict)
    for key, v in residual.items():
        rows[key[1:]][key[0]] = v
    return rows.values()


def matrix_kernels(stack: Tensor3, *groups: Iterable[Sparse]) -> list[list[Matrix]]:
    """Exact bases of the X = sum_z x_z U_z, over a stack of matrices U_z with
    disjoint supports, at which the residuals of the first group vanish, of the
    first two groups, and so on; a residual has z first and an index after it. Each
    group is reduced once, with the rows already reduced, so each basis is the
    canonical one of its row space, in the order of z, and integers stay integers
    from the residual to the basis."""
    count, nrows, ncols = stack.shape
    planes: list[list] = [[] for _ in range(count)]
    for (z, p, q), u in stack._view.items():
        planes[z].append(((p, q), u))
    reduced: list[dict[int, int]] = []
    kernels = []
    for group in groups:
        rows = [row for residual in group for row in _equations(sparse(residual))]
        reduced, pivots = _reduce(reduced + rows)
        kernels.append([Matrix._of((nrows, ncols), v) for v in _kernel(reduced, pivots, planes)])
    return kernels


def matrix_kernel(stack: Tensor3, *residuals: Sparse) -> list[Matrix]:
    """Exact basis of the combinations of the stack at which every residual vanishes."""
    return matrix_kernels(stack, residuals)[0]


def pencil_det(mats: Sequence[Matrix], n: int) -> dict[tuple[int, ...], Fraction]:
    """det(sum_a t_a M_a) for n x n matrices M_a: each monomial, the sorted tuple of
    its variable indices a, maps to its nonzero coefficient, so the result is empty
    exactly when every member of the span is singular. Laplace expansion along the
    rows, the minor on the first i rows memoised by its set S of columns (at most
    2^n minors); entry (i, j), j not in S, has sign (-1)^(columns of S after j).
    Its work grows like n! on a generic pencil, so decide_pencil runs it only on
    the pencils that neither a point nor a shrunk subspace decides."""
    minors = {0: {(): ONE}}  # keyed by S as a bit mask
    for i in range(n):
        entries = [[(a, e) for a, m in enumerate(mats) if (e := m[i, j])] for j in range(n)]
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


# --- nonsingular members of a pencil ------------------------------------------
#
# Whether the span of n x n matrices M_a holds a nonsingular member, decided with a
# certificate that is checked by exact ranks alone. A member of rank n answers
# "yes". A subspace U with dim(sum_a M_a U) < dim U answers "no": every member of
# the span maps U into that smaller space. The second Wong sequence of a point X of
# the span (Ivanyos, Karpinski and Saxena, SIAM J. Comput. 39, 2010), W_0 = 0 and
# W_(i+1) = sum_a M_a X^-1(W_i), grows to a limit W; when W lies in the image of X,
# U = X^-1(W) has dim U = dim W + dim ker X, which is more than dim W. Only when W
# leaves the image of X, as it does for every point of the 3 x 3 skew matrices
# (whose members all have rank 2 but whose non-commutative rank is 3; Lovasz 1989),
# is the expansion pencil_det run. All of it works on integer rows: M_a is read as
# its numerators, a positive multiple that spans the same line.


class PencilCertificate(NamedTuple):
    """decide_pencil's answer and its proof. A "yes" gives a member of the span whose
    determinant is not 0; a "no" gives a basis of a subspace U and dim(sum_a M_a U),
    which is less than dim U. When pencil_det decided, neither is given."""

    nonsingular: bool
    member: Matrix | None = None
    subspace: tuple[Vector, ...] = ()
    image_dim: int = 0

    @property
    def expanded(self) -> bool:
        """Whether the determinant expansion decided, for want of a certificate."""
        return self.member is None and not self.subspace


def decide_pencil(mats: Sequence[Matrix], n: int) -> PencilCertificate:
    """Whether the span of the n x n matrices M_a holds a nonsingular member, with
    the certificate that decides it, tried in this order:

    1. the point sum_a (a + 1) M_a, when its rank is n;
    2. the common kernel of the M_a, when it is not 0 (U is that kernel), and the
       whole space, when the joint image of the M_a is proper;
    3. the point grown greedily from 1: per M_a, the first c in 1..k+1 (k the fewer
       of M_a's nonzero rows and columns) for which the point plus c M_a has a
       higher rank replaces it, in passes while one raises the rank, up to rank n;
    4. the second Wong sequence of that point, when its limit lies in the image;
    5. pencil_det, only when none of these decides.

    Steps 1 to 4 take an exact rank (one _reduce) per point or subspace tried."""
    views = [[(i, j, v) for (i, j), v in sparse(m).items()] for m in mats]
    point = _combination({}, views, range(1, len(views) + 1))
    rank = _rank(point, n)
    if rank < n:
        kernel = _null(_stacked(views, False), n)
        if kernel:
            return _shrunk(kernel, 0, n)
        image_dim = len(_reduce(_stacked(views, True))[1])
        if image_dim < n:
            return _shrunk(({c: 1} for c in range(n)), image_dim, n)
        point, rank = _grown(views, point, rank, n)
    if rank == n:
        return PencilCertificate(True, Matrix._of((n, n), Sparse(point)))
    return _wong(views, point, rank, n) or PencilCertificate(bool(pencil_det(mats, n)))


def _grown(views: list, point: dict, rank: int, n: int) -> tuple[dict, int]:
    """The point and its rank after decide_pencil's step 3. Along a line X + c M the
    rank is largest at all but at most rank(M) values of c, as an s x s minor of
    X + c M has degree at most rank(M) in c, so c runs over 1..k + 1 for any k of at
    least rank(M), here the fewer of M's nonzero rows and columns, not a rank."""
    reach = [min(len({i for i, _, _ in view}), len({j for _, j, _ in view})) for view in views]
    grown = True
    while grown and rank < n:
        grown = False
        for view, m in zip(views, reach):
            for c in range(1, m + 2):
                trial = _combination(point, [view], [c])
                if (r := _rank(trial, n)) > rank:
                    point, rank, grown = trial, r, True
                    break
            if rank == n:
                break
    return point, rank


def _combination(point: dict, views: list, coefficients) -> dict:
    """point + sum of c M over the (M, c), M given by its (i, j, numerator)."""
    out = dict(point)
    for view, c in zip(views, coefficients):
        for i, j, v in view:
            w = out.get((i, j), 0) + c * v
            if w:
                out[i, j] = w
            else:
                del out[i, j]
    return out


def _rank(point: dict, n: int) -> int:
    return len(_reduce(_row_dicts(point, n))[1])


def _shrunk(rows: Iterable[dict[int, int]], image_dim: int, n: int) -> PencilCertificate:
    """The "no" certificate of U, spanned by these integer rows."""
    subspace = tuple(Vector._of((n,), Sparse({(c,): v for c, v in row.items()})) for row in rows)
    return PencilCertificate(False, subspace=subspace, image_dim=image_dim)


def _null(rows: list[dict[int, int]], n: int) -> list[dict[int, int]]:
    """A basis of {x : row . x = 0 for every row} as integer rows."""
    reduced, pivots = _reduce(rows)
    kernel = _kernel(reduced, pivots, [[((c,), 1)] for c in range(n)])
    return [{c: v for (c,), v in x.items()} for x in kernel]


def _times(view: list, x: dict[int, int]) -> dict[int, int]:
    """M x for M given by its (i, j, numerator) and x by its nonzero entries."""
    out: dict = defaultdict(int)
    for i, j, v in view:
        if j in x:
            out[i] += v * x[j]
    return {i: v for i, v in out.items() if v}


def _stacked(views: list, flip: bool) -> list[dict[int, int]]:
    """The rows of every M_a, or of every transpose when flip, in new dicts."""
    rows: dict = defaultdict(dict)
    for a, view in enumerate(views):
        for i, j, v in view:
            if flip:
                i, j = j, i
            rows[a, i][j] = v
    return list(rows.values())


def _wong(views: list, point: dict, rank: int, n: int) -> PencilCertificate | None:
    """U = X^-1(W) for the limit W of the second Wong sequence of the point X of this
    rank, when W lies in the image of X; None when it leaves it. X^-1(W) is the
    kernel of Y X for the rows Y of a basis of W's annihilator."""
    x_view = [(i, j, v) for (i, j), v in point.items()]
    transposed = [(j, i, v) for i, j, v in x_view]
    w: list[dict[int, int]] = []
    while True:
        u = _null([_times(transposed, y) for y in _null([dict(row) for row in w], n)], n)
        grown = _reduce([_times(view, x) for view in views for x in u])[0]
        if len(_reduce(_stacked([x_view], True) + [dict(row) for row in grown])[1]) > rank:
            return None
        if len(grown) == len(w):
            return _shrunk(u, len(w), n)
        w = grown
