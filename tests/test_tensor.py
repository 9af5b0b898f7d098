import random
import sys
from fractions import Fraction as Q
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie.tensor import (
    Matrix,
    ShapeError,
    Sparse,
    Tensor3,
    Vector,
    _cleared,
    _reduce,
    as_q,
    contract,
    contract_sum,
    dense,
    first_case,
    format_q,
    matrix_kernel,
    matrix_kernels,
    pencil_det,
    skew_stack,
    sparse,
    unit_stack,
)

from oracles import oracle_contract, oracle_det, oracle_rref
from sampling import random_combination, random_matrix, random_q, reduce_rows

rationals = st.fractions(min_value=Q(-3), max_value=Q(3), max_denominator=4)


def square(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix)


def test_as_q_and_format_q_round_trip():
    assert as_q("-3/2") == Q(-3, 2)
    assert as_q(5) == Q(5)
    assert format_q(Q(-3, 2)) == "-3/2"
    assert format_q(Q(4)) == "4"
    assert as_q(format_q(Q(22, 7))) == Q(22, 7)


@pytest.mark.parametrize("digits", [4300, 4301, 9000, 20000])
def test_format_q_and_to_json_render_ints_past_the_str_limit(digits):
    x = Q(-(10 ** (digits - 1)) - 7**500, 3 * 10**digits + 1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"{x.numerator}/{x.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert format_q(x) == want
    assert Vector([x, 0, x.numerator]).to_json() == [want, "0", want.partition("/")[0]]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=6))
def test_to_json_formats_each_entry_in_lowest_terms(xs):
    assert Vector(xs).to_json() == [format_q(x) for x in xs]


def test_vector_basics():
    v = Vector([1, Q(1, 2), -2])
    assert v.dim == 3 and v[1] == Q(1, 2)
    assert (v - v).is_zero()
    assert v.scale(2)[1] == 1
    with pytest.raises(ShapeError):
        v + Vector.zero(2)


def test_matrix_basics():
    m = Matrix([[1, 2], [3, 4]])
    assert m.row(0) == Vector([1, 2])
    assert (m @ Matrix.identity(2)) == m
    assert m.apply(Vector([1, 0])) == Vector([1, 3])
    assert m.transpose()[0, 1] == 3
    assert not m.is_symmetric()
    assert Matrix([[0, 1], [-1, 0]]).is_skew()
    with pytest.raises(ShapeError):
        m @ Matrix.identity(3)


@given(square(3))
@settings(max_examples=60, deadline=None)
def test_inverse_round_trip(m):
    if m.det() == 0:
        with pytest.raises(ShapeError):
            m.inverse()
    else:
        assert m @ m.inverse() == Matrix.identity(3)
        assert m.inverse() @ m == Matrix.identity(3)


@given(square(3), square(3))
@settings(max_examples=60, deadline=None)
def test_det_multiplicative(a, b):
    assert (a @ b).det() == a.det() * b.det()


@given(square(2))
@settings(max_examples=40, deadline=None)
def test_det_transpose_invariant(m):
    assert m.det() == m.transpose().det()


@given(square(3))
@settings(max_examples=40, deadline=None)
def test_reduce_is_idempotent(m):
    first = _reduce([_cleared(enumerate(row))[0] for row in m.rows])
    assert _reduce([dict(row) for row in first[0]]) == first


@given(square(3))
@settings(max_examples=40, deadline=None)
def test_kernel_rank_nullity(m):
    stack = unit_stack(3, 1)
    kernel = matrix_kernel(stack, contract("zik", ("ij", m), ("zjk", stack)))
    _, pivots = reduce_rows(m.rows)
    assert len(kernel) == 3 - len(pivots)
    for x in kernel:
        assert (m @ x).is_zero()
        assert not x.is_zero()


def test_pair_action_contraction_matches_raw_loops():
    # (A (x) B) t for rectangular A and B
    rng = random.Random(2024)
    a = random_matrix(rng, 3, 2)
    b = random_matrix(rng, 4, 3)
    t = random_matrix(rng, 2, 3)
    got = dense(contract("ij", ("ip", a), ("pq", t), ("jq", b)), (3, 4))
    assert (got.nrows, got.ncols) == (3, 4)
    for i in range(3):
        for j in range(4):
            want = sum(
                (a[i, p] * t[p, q] * b[j, q] for p in range(2) for q in range(3)),
                Q(0),
            )
            assert got[i, j] == want


def test_triple_action_contraction_matches_raw_loops():
    # (A (x) B (x) C) t
    rng = random.Random(7)
    a = random_matrix(rng, 2, 2)
    b = random_matrix(rng, 2, 2)
    c = random_matrix(rng, 2, 2)
    t = Tensor3([[[random_q(rng) for _ in range(2)] for _ in range(2)] for _ in range(2)])
    got = dense(contract("ijk", ("pqr", t), ("ip", a), ("jq", b), ("kr", c)), (2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                want = sum(
                    (
                        a[i, p] * b[j, q] * c[k, r] * t[p, q, r]
                        for p in range(2)
                        for q in range(2)
                        for r in range(2)
                    ),
                    Q(0),
                )
                assert got[i, j, k] == want


def test_slot_rotation_has_order_three():
    rng = random.Random(99)
    t = Tensor3([[[random_q(rng) for _ in range(3)] for _ in range(3)] for _ in range(3)])

    def rotate(x):  # u (x) v (x) w  ->  w (x) u (x) v
        return dense(contract("abc", ("bca", x)), (3, 3, 3))

    once = rotate(t)
    assert once[0, 1, 2] == t[1, 2, 0]
    assert rotate(rotate(rotate(t))) == t


def test_contractions_match_raw_loops():
    # slots 1 and 2 of t against dual vectors xi, eta
    rng = random.Random(5)
    t = Tensor3([[[random_q(rng) for _ in range(2)] for _ in range(3)] for _ in range(3)])
    xi = Vector([1, Q(1, 2), -1])
    eta = Vector([2, 0, 1])
    got = dense(contract("k", ("i", xi), ("j", eta), ("ijk", t)), (2,))
    for k in range(2):
        want = sum(
            (xi[i] * eta[j] * t[i, j, k] for i in range(3) for j in range(3)), Q(0)
        )
        assert got[k] == want


def test_full_contraction_to_a_scalar():
    rng = random.Random(11)
    m = random_matrix(rng, 3, 3)
    x = Vector([1, Q(-1, 2), 2])
    got = contract("", ("i", x), ("ij", m), ("j", x))
    want = sum((x[i] * m[i, j] * x[j] for i in range(3) for j in range(3)), Q(0))
    assert dense(got, ()) == want
    assert set(got) <= {()}


def test_zero_operand_gives_the_empty_tensor():
    rng = random.Random(12)
    m = random_matrix(rng, 3, 3)
    got = contract("ik", ("ij", m), ("jk", Matrix.zero(3)))
    assert got == {}
    assert dense(got, (3, 3)) == Matrix.zero(3)
    assert first_case(got, (3, 3), 1) is None


def test_first_case_is_the_least_nonzero_prefix():
    t = {(1, 0, 2): Q(3), (0, 2, 1): Q(-1), (0, 2, 0): Q(0), (2, 0, 0): Q(5)}
    assert first_case(t, (3, 3, 3), 2) == ((1, 3), Vector([0, -1, 0]))
    assert first_case(t, (3, 3, 3), 3) == ((1, 3, 2), Q(-1))


def test_tensor3_plane_and_algebra():
    t = Tensor3.zero(2, 2, 2)
    assert t.shape == (2, 2, 2)
    t2 = t + Tensor3([[[1, 0], [0, 0]], [[0, 0], [0, Q(1, 3)]]])
    assert t2.plane(1)[1, 1] == Q(1, 3)
    assert (t2 - t2).is_zero()
    assert t2.scale(3)[1, 1, 1] == 1
    with pytest.raises(ShapeError):
        t2 + Tensor3.zero(3)


def test_random_pool_is_small_rationals():
    rng = random.Random(0)
    seen = {random_q(rng) for _ in range(500)}
    assert all(-2 <= q <= 2 for q in seen)
    assert all(q.denominator in (1, 2) for q in seen)
    # both halves of the pool actually occur
    assert any(q.denominator == 2 for q in seen)
    assert any(q.denominator == 1 for q in seen)


def test_random_skew_and_combination():
    rng = random.Random(31)
    basis = [Vector([1, 0]), Vector([0, 1])]
    v = random_combination(rng, basis)
    assert v.dim == 2
    # matrices combine directly: a combination of skew matrices is skew
    skew = [
        Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        Matrix([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
    ]
    assert random_combination(rng, skew).is_skew()
    with pytest.raises(ShapeError):
        random_combination(rng, [])


def test_stacks_hold_the_unknown_matrices_in_row_major_order():
    assert [unit_stack(2, 3).plane(z) for z in range(6)] == [_unit(2, 3, p, q) for p in range(2) for q in range(3)]
    assert [skew_stack(3).plane(z) for z in range(3)] == [
        _unit(3, 3, p, q) - _unit(3, 3, q, p) for p, q in ((1, 0), (2, 0), (2, 1))
    ]
    assert skew_stack(1).shape == (0, 1, 1)


def _system(equations, stack):
    """The residual on a stack of the equations [(p, q, c), ...], each meaning
    sum c X[p][q] = 0: entry (z, e) is equation e at the stack's matrix z."""
    coeffs = {}
    for e, eq in enumerate(equations):
        for p, q, c in eq:
            coeffs[e, p, q] = coeffs.get((e, p, q), 0) + c
    return contract("ze", ("epq", coeffs), ("zpq", stack))


def test_matrix_kernel_lays_out_rectangular_unknowns():
    # X (2 x 3) with X[0][2] = X[1][0] and every other entry but X[0][1] zero
    equations = [[(0, 2, Q(1)), (1, 0, Q(-1))]] + [
        [(p, q, Q(1))] for p, q in ((0, 0), (1, 1), (1, 2))
    ]
    got = matrix_kernel(unit_stack(2, 3), _system(equations, unit_stack(2, 3)))
    assert got == [
        Matrix([[0, 1, 0], [0, 0, 0]]),
        Matrix([[0, 0, 1], [1, 0, 0]]),
    ]
    assert matrix_kernel(unit_stack(1, 2)) == [Matrix([[1, 0]]), Matrix([[0, 1]])]
    # over the skew unknowns: the skew 3 x 3 X with X[1][0] = X[2][1]
    skew = _system([[(1, 0, 1), (2, 1, -1)]], skew_stack(3))
    # free unknowns S_20 and S_21, in the order of z
    assert matrix_kernel(skew_stack(3), skew) == [
        Matrix([[0, 0, -1], [0, 0, 0], [1, 0, 0]]),
        Matrix([[0, -1, 0], [1, 0, -1], [0, 1, 0]]),
    ]


def test_the_kernel_of_a_system_with_no_equations():
    stack = unit_stack(2, 1)
    assert matrix_kernel(stack) == [Matrix([[1], [0]]), Matrix([[0], [1]])]
    assert matrix_kernel(stack, contract("zik", ("ij", Matrix.zero(2)), ("zjk", stack))) == matrix_kernel(stack)
    assert matrix_kernel(unit_stack(0, 1)) == []


def _random_equations(rng, count, nrows, ncols):
    unknowns = list(product(range(nrows), range(ncols)))
    return [
        [(p, q, random_q(rng)) for p, q in unknowns if rng.random() < 0.4]
        for _ in range(count)
    ]


@pytest.mark.parametrize("seed", range(8))
def test_matrix_kernels_equal_the_kernels_of_the_stacked_systems(seed):
    rng = random.Random(seed)
    stack = unit_stack(2, 3)
    first = _system(_random_equations(rng, 3, 2, 3), stack)
    second = _system(_random_equations(rng, 2, 2, 3), stack)
    assert matrix_kernels(stack, [first], [second], []) == [
        matrix_kernel(stack, first),
        matrix_kernel(stack, first, second),
        matrix_kernel(stack, first, second),
    ]


def _unit(nrows, ncols, p, q):
    return Matrix([[int((i, j) == (p, q)) for j in range(ncols)] for i in range(nrows)])


def _evaluate(poly, point):
    total = Q(0)
    for mono, c in poly.items():
        for t in mono:
            c *= point[t]
        total += c
    return total


def test_pencil_det_of_the_skew_3x3_matrices_is_zero():
    # every skew matrix of odd size is singular, though the space has rank 2
    skew = [_unit(3, 3, p, q) - _unit(3, 3, q, p) for p, q in ((0, 1), (0, 2), (1, 2))]
    assert pencil_det(skew, 3) == {}
    assert pencil_det([], 3) == {}


def test_pencil_det_of_the_unit_matrices_is_the_generic_determinant():
    poly = pencil_det([_unit(3, 3, p, q) for p, q in product(range(3), repeat=2)], 3)
    # t_(3i+j) stands for entry (i, j): det = sum over permutations
    assert len(poly) == 6 and poly[(0, 4, 8)] == 1 and poly[(1, 3, 8)] == -1
    assert all(c in (1, -1) for c in poly.values())


@pytest.mark.parametrize("seed", range(6))
def test_pencil_det_evaluates_to_the_determinant_of_the_combination(seed):
    rng = random.Random(seed)
    n, size = rng.randint(1, 4), rng.randint(1, 4)
    mats = [random_matrix(rng, n) for _ in range(size)]
    poly = pencil_det(mats, n)
    for mono, c in poly.items():
        assert c != 0 and list(mono) == sorted(mono) and len(mono) == n
    for _ in range(15):
        point = [random_q(rng) for _ in range(size)]
        combination = Matrix.zero(n)
        for t, m in zip(point, mats):
            combination = combination + m.scale(t)
        assert _evaluate(poly, point) == combination.det()


# --- exact elimination against the Fraction oracles ---------------------------


def _random_rows(rng, nrows, ncols):
    """Seeded rows of sparse entries p/q, q up to 10^6, with zero rows, duplicate
    rows and combinations of earlier rows mixed in, in a shuffled order."""

    def entry():
        if rng.random() < 0.4:
            return Q(0)
        return Q(rng.randint(-9, 9), rng.choice((1, 2, 3, rng.randint(1, 10**6))))

    rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, max(1, nrows)))]
    while len(rows) < nrows:
        kind = rng.randrange(3)
        if kind == 0:
            rows.append([Q(0)] * ncols)
        elif kind == 1:
            rows.append(list(rng.choice(rows)))
        else:
            x, y, c = rng.choice(rows), rng.choice(rows), entry() or Q(-1)
            rows.append([a + c * b for a, b in zip(x, y)])
    rng.shuffle(rows)
    return rows[:nrows]


def _yau_sl2_cubed_in_a_dense_basis():
    """Yau-twisted sl2^3, bracket theta[x, y] and twist theta for the automorphism
    theta that swaps the first two summands and maps h, e, f -> -h, -f, -e on the
    third, after a seeded dense change of basis with determinant 2, p = L diag(1,
    .., 1, 2) U for unit triangular L, U of +-1s."""
    from homlie.corpus import sl2
    from homlie.hom_lie import HomLieAlgebra, change_of_basis, direct_sum

    theta = [[0] * 9 for _ in range(9)]
    for i in range(3):
        theta[i][3 + i] = theta[3 + i][i] = 1
    for i, j in ((6, 6), (7, 8), (8, 7)):
        theta[i][j] = -1
    theta = Matrix(theta)
    a = direct_sum(direct_sum(sl2(), sl2()), sl2())
    bracket = dense(contract("ijl", ("ijk", a.bracket), ("lk", theta)), (9,) * 3)
    rng = random.Random(9)
    signs = {(i, j): rng.choice((-1, 1)) for i in range(9) for j in range(9) if i != j}
    lower = [[signs[i, j] if i > j else int(i == j) for j in range(9)] for i in range(9)]
    upper = [[signs[i, j] if i < j else int(i == j) for j in range(9)] for i in range(9)]
    upper[8] = [2 * x for x in upper[8]]
    return change_of_basis(HomLieAlgebra(bracket, theta), Matrix(lower) @ Matrix(upper))


def _yau_sl2_cubed_twist_in_a_dense_basis():
    return _yau_sl2_cubed_in_a_dense_basis().twist


def _twist_compat_rows(phi):
    """The rows of phi X - X phi^T = 0 over the n^2 entries of X, row-major: the
    library's twist-compat residual on the unit stack, read as its columns."""
    from homlie.hom_lie import _twist_symmetry

    n = phi.nrows
    residual = dense(_twist_symmetry(phi.transpose(), unit_stack(n, n), "z"), (n * n, n, n))
    return [[residual[z, i, j] for z in range(n * n)] for i in range(n) for j in range(n)]


EDGE_SYSTEMS = {
    "empty": [],
    "1x1": [[Q(-3, 7)]],
    "zero 1x1": [[Q(0)]],
    "zero rows": [[Q(0), Q(0), Q(0)], [Q(0), Q(1, 2), Q(1)], [Q(0), Q(0), Q(0)]],
    "duplicate rows": [[Q(1), Q(2), Q(3)], [Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(7)]],
    "negative pivots": [[Q(-2), Q(3), Q(1)], [Q(-4), Q(-1), Q(0)], [Q(0), Q(0), Q(-5)]],
    "wide": [[Q(0), Q(-1, 999983), Q(2), Q(5)], [Q(0), Q(3), Q(0), Q(-1)]],
    "tall": [[Q(1, 1000000)], [Q(-7, 999999)], [Q(0)], [Q(3)]],
}


def _assert_matches_the_oracles(rows):
    assert reduce_rows(rows) == oracle_rref(rows)
    if len(rows) == len(rows[0] if rows else ()) <= 6:
        assert Matrix(rows).det() == oracle_det(rows)


@pytest.mark.parametrize("name", EDGE_SYSTEMS)
def test_elimination_matches_the_oracles_on_edge_cases(name):
    _assert_matches_the_oracles(EDGE_SYSTEMS[name])


@pytest.mark.parametrize("seed", range(40))
def test_elimination_matches_the_oracles_on_seeded_systems(seed):
    rng = random.Random(seed)
    # shapes from 1x1 to 8x8, square (so det is checked too) every third seed
    nrows = rng.randint(1, 8)
    ncols = nrows if seed % 3 == 0 else rng.randint(1, 8)
    _assert_matches_the_oracles(_random_rows(rng, nrows, ncols))


@pytest.mark.parametrize("n", range(7))
def test_det_matches_the_cofactor_expansion(n):
    rng = random.Random(100 + n)
    for _ in range(5):
        rows = _random_rows(rng, n, n)
        assert Matrix(rows).det() == oracle_det(rows)


def test_elimination_matches_the_oracle_on_the_dense_yau_sl2_cubed_system():
    rows = _twist_compat_rows(_yau_sl2_cubed_twist_in_a_dense_basis())
    assert (len(rows), len(rows[0])) == (81, 81)
    reduced, pivots = reduce_rows(rows)
    assert (reduced, pivots) == oracle_rref(rows)
    # theta splits 9 = 5 + 4 into its +1 and -1 eigenspaces: a 5^2 + 4^2 kernel
    assert len(pivots) == 81 - 41
    assert Matrix(rows).det() == 0


@pytest.mark.parametrize("identity", ("twist-symmetry", "intertwining", "form-invariance"))
def test_unit_stack_residuals_on_dense_yau_sl2_cubed_match_the_oracles(identity):
    # on the unit stack most packed rows hold one slot, often far from slot 0, and
    # the rest are dense: each residual is read entrywise against the oracles
    from homlie.hom_lie import HomLieAlgebra, _form_invariance, _intertwining, _twist_symmetry, validate_hom_lie
    from oracles import oracle_form_invariance, oracle_twist_compat, oracle_twist_intertwined

    a = _yau_sl2_cubed_in_a_dense_basis()
    assert validate_hom_lie(a).ok
    n, phi = a.dim, a.twist
    stack = unit_stack(n, n)
    if identity == "twist-symmetry":
        # m^T X - X m at m = phi^T (twist compatibility of r = X) and at m = phi
        # (the form's twist symmetry, which is compatibility for the twist phi^T)
        transposed = HomLieAlgebra(Tensor3.zero(n), phi.transpose())
        for m, b in ((phi.transpose(), a), (phi, transposed)):
            residual = _twist_symmetry(m, stack, "z")
            for z in range(n * n):
                assert dense(residual, (n * n, n, n), (z,)) == oracle_twist_compat(b, _unit(n, n, *divmod(z, n)))
    elif identity == "intertwining":
        # X phi - phi X: the adjoint representation's intertwining T
        residual = _intertwining(stack, phi, phi, "z")
        for z in range(n * n):
            assert dense(residual, (n * n, n, n), (z,)) == oracle_twist_intertwined(_unit(n, n, *divmod(z, n)), a, a)
    else:
        # entry (z, k, i, j), at the last unit matrix, whose slot is the top one
        residual, z = _form_invariance(a, stack, "z"), n * n - 1
        for k, i, j in product(range(n), repeat=3):
            got = Q(residual.get((z, k, i, j), 0), residual.den)
            assert got == oracle_form_invariance(a, _unit(n, n, *divmod(z, n)), i, j, k)


def test_the_elimination_of_an_integer_system_builds_no_fraction(monkeypatch):
    rows = _twist_compat_rows(_yau_sl2_cubed_twist_in_a_dense_basis())
    rows = [{j: int(x * lcm(*(y.denominator for y in row))) for j, x in enumerate(row) if x} for row in rows]
    built = [0]
    real_new = Q.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in vars(Q):  # arithmetic bypasses __new__ from 3.12
        real_coprime = Q._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            built[0] += 1
            return real_coprime(cls, *args)

        monkeypatch.setattr(Q, "_from_coprime_ints", classmethod(counting_coprime))
    _, pivots = _reduce(rows)
    monkeypatch.undo()
    assert built[0] == 0 and len(pivots) == 81 - 41


# --- the integer contraction kernel against the brute-force oracle -------------
#
# Operands are seeded {index tuple: Fraction} dicts with denominators up to 10^6,
# handed to the kernel as plain dicts or as arrays; the oracle sums over every
# index tuple in Fraction arithmetic.

SPECS = [
    ("ik", ("ij", "jk")),
    ("i", ("ij", "j")),
    ("", ("i", "ij", "j")),
    ("", ("ijk", "ijk")),
    ("jik", ("ijk",)),
    ("k", ("i", "j", "ijk")),
    ("kij", ("ijl", "lk")),
    ("ijl", ("pi", "pql", "qj")),
    ("ij", ("ip", "pq", "jq")),
    ("ijkl", ("pi", "pql", "jkq")),
    ("kabc", ("kij", "ai", "jbc")),
]


def _random_tensor(rng, shape, density):
    return {
        key: Q(rng.choice((-9, -4, -1, 1, 2, 7)), rng.choice((1, 2, 3, rng.randint(1, 10**6))))
        for key in product(*map(range, shape))
        if rng.random() < density
    }


def _array_of(t, shape):
    """The Vector, Matrix or Tensor3 with these entries, filled by hand."""

    def box(prefix, rest):
        if not rest:
            return t.get(prefix, Q(0))
        return [box((*prefix, i), rest[1:]) for i in range(rest[0])]

    return (Vector, Matrix, Tensor3)[len(shape) - 1](box((), shape))


def _rationals(s):
    """The entries of a kernel result as Fractions, checking its form: integer
    numerators, none of them 0, over one positive integer denominator."""
    assert isinstance(s, Sparse) and type(s.den) is int and s.den > 0
    assert all(type(v) is int and v for v in s.values())
    return {key: Q(v, s.den) for key, v in s.items()}


def _seeded_operands(rng, spec_labels, sizes, seed):
    operands, plain = [], []
    for n, labels in enumerate(spec_labels):
        shape = tuple(sizes[l] for l in labels)
        # every fifth seed has an all-zero operand
        t = {} if seed % 5 == 4 and n == 0 else _random_tensor(rng, shape, rng.choice((0.3, 0.7, 1)))
        plain.append((labels, t))
        operands.append((labels, t if (seed + n) % 2 else _array_of(t, shape)))
    return operands, plain


@pytest.mark.parametrize("seed", range(44))
def test_contract_matches_the_oracle(seed):
    rng = random.Random(seed)
    out, spec_labels = SPECS[seed % len(SPECS)]
    sizes = {l: rng.randint(1, 3) for l in set(out).union(*spec_labels)}
    operands, plain = _seeded_operands(rng, spec_labels, sizes, seed)
    want = oracle_contract(out, sizes, *plain)
    got = contract(out, *operands)
    assert _rationals(got) == want
    shape = tuple(sizes[l] for l in out)
    # dense, at every prefix leaving at most three indices, and first_case, against
    # blocks filled by hand
    for cut in range(max(0, len(shape) - 3), len(shape) + 1):
        for at in product(*map(range, shape[:cut])):
            block = {key[cut:]: v for key, v in want.items() if key[:cut] == at}
            expect = block.get((), Q(0)) if cut == len(shape) else _array_of(block, shape[cut:])
            assert dense(got, shape, at) == expect
        case = first_case(got, shape, cut)
        nonzero = sorted(key[:cut] for key in want)
        if not nonzero:
            assert case is None
        else:
            at = nonzero[0]
            assert case == (tuple(i + 1 for i in at), dense(want, shape, at))


@pytest.mark.parametrize("seed", range(12))
def test_chained_contractions_and_sums_match_the_oracle(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(1, 3)
    sizes = dict.fromkeys("ijklpq", n)
    a, b, c = (_random_tensor(rng, (n,) * 3, rng.choice((0.3, 1))) for _ in range(3))
    m = _random_tensor(rng, (n, n), 0.6)
    # a contraction of a contraction, as the cyclic sums of the identities are built
    t = contract("ijkl", ("pi", m), ("pql", _array_of(a, (n,) * 3)), ("jkq", b))
    t_want = oracle_contract("ijkl", sizes, ("pi", m), ("pql", a), ("jkq", b))
    assert _rationals(t) == t_want
    cyc = t + contract("ijkl", ("jkil", t)) - contract("ijkl", ("kijl", t))
    want = {
        (i, j, k, l): t_want.get((i, j, k, l), Q(0))
        + t_want.get((j, k, i, l), Q(0))
        - t_want.get((k, i, j, l), Q(0))
        for i, j, k, l in product(range(n), repeat=4)
    }
    assert _rationals(cyc) == {key: v for key, v in want.items() if v}
    # sums and differences of operands over unequal denominators
    s1, s2 = sparse(a), sparse(_array_of(c, (n,) * 3))
    diff = {key: a.get(key, Q(0)) - c.get(key, Q(0)) for key in set(a) | set(c)}
    assert _rationals(s1 - s2) == {k: v for k, v in diff.items() if v}
    assert _rationals(-s1 + s1) == {} and _rationals(s1 - s1) == {}
    assert s1 + s2 == s2 + s1


def test_sums_that_cancel_leave_no_entries():
    rng = random.Random(7)
    square = _random_tensor(rng, (3, 3), 1)
    skew = {(i, j): square.get((i, j), Q(0)) - square.get((j, i), Q(0)) for i, j in product(range(3), repeat=2)}
    sym = {(i, j): square.get((i, j), Q(0)) + square.get((j, i), Q(0)) for i, j in product(range(3), repeat=2)}
    # the pairing of a skew with a symmetric form is 0 term by term in pairs
    zero = contract("", ("ij", _array_of(skew, (3, 3))), ("ij", sym))
    assert zero == {} and dense(zero, ()) == 0 and first_case(zero, (), 0) is None
    assert oracle_contract("", dict.fromkeys("ij", 3), ("ij", skew), ("ij", sym)) == {}
    t = contract("ij", ("ip", skew), ("pj", sym))
    assert (t - contract("ij", ("ip", skew), ("pj", _array_of(sym, (3, 3))))) == {}
    assert dense(t - t, (3, 3)) == Matrix.zero(3)


def test_plain_dicts_and_arrays_give_one_integer_view():
    t = {(0, 1): Q(1, 6), (1, 0): Q(-3, 4), (1, 1): Q(0), (0, 0): Q(2)}
    view = sparse(t)
    assert (dict(view), view.den) == ({(0, 1): 2, (1, 0): -9, (0, 0): 24}, 12)
    m = _array_of(t, (2, 2))
    assert sparse(m) is sparse(m)  # computed once per array
    assert (dict(sparse(m)), sparse(m).den) == (dict(view), 12)
    assert sparse(m) == t and sparse(m) != {(0, 1): Q(1, 6)}
    assert sparse((m, m)) == {(a, *k): v for a in range(2) for k, v in t.items() if v}
    assert sparse(Q(-5, 3)) == {(): Q(-5, 3)} and sparse(0) == {}


def _counting_fractions(monkeypatch):
    """A one-element list that counts the Fractions built from now on."""
    built = [0]
    real_new = Q.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in vars(Q):  # arithmetic bypasses __new__ from 3.12
        real_coprime = Q._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            built[0] += 1
            return real_coprime(cls, *args)

        monkeypatch.setattr(Q, "_from_coprime_ints", classmethod(counting_coprime))
    return built


def test_contract_builds_no_fraction_and_dense_one_per_entry(monkeypatch):
    rng = random.Random(3)
    n = 4
    bracket = _array_of(_random_tensor(rng, (n,) * 3, 0.8), (n,) * 3)
    twist = _array_of(_random_tensor(rng, (n, n), 0.8), (n, n))
    built = _counting_fractions(monkeypatch)
    # the Hom-Jacobi contraction and its cyclic sum, on arrays never seen before
    t = contract("ijkl", ("pi", twist), ("pql", bracket), ("jkq", bracket))
    t = t + contract("ijkl", ("jkil", t)) + contract("ijkl", ("kijl", t))
    assert built[0] == 0
    for at in ((1,), (2, 3), (0, 1, 2)):
        before = built[0]
        block = dense(t, (n,) * 4, at)
        assert built[0] - before == 0  # dense slices numerators: it builds none
        assert not block.is_zero()


def test_empty_arrays_cost_nothing_per_cell(monkeypatch):
    # an array is its shape and its nonzero entries: building, combining and
    # testing 10^6 zeros must not touch a single cell
    from homlie import tensor

    calls = [0]
    real = tensor.as_q

    def counting(x):
        calls[0] += 1
        return real(x)

    monkeypatch.setattr(tensor, "as_q", counting)
    t, u = Tensor3.zero(100), dense({}, (100,) * 3)
    m = Matrix.zero(100)
    made = [t, u, t + u, t - u, -t, t.scale(3), u.scale(Q(1, 2)), m.transpose(), m + m.transpose()]
    assert t == u and all(x.is_zero() and sparse(x) == {} for x in made)
    assert t.shape == (100,) * 3 and m.transpose().shape == (100, 100)
    assert calls[0] == 0


# --- the bucketed elimination on tall, redundant systems ----------------------


def _tall_redundant_rows(rng, ncols):
    """3 to 6 times as many rows as columns, each a combination of a few sparse
    base rows: duplicates, negated and scaled copies and sums of base rows cancel
    to zero partway through the elimination, entries of +-1 and +-2 tie rows in
    length and in |pivot|, and denominators go up to 10^6."""

    def entry():
        if rng.random() < 0.5:
            return Q(0)
        if rng.random() < 0.5:
            return Q(rng.choice((-2, -1, 1, 2)))
        return Q(rng.randint(-9, 9), rng.choice((1, 2, 3, rng.randint(1, 10**6))))

    def coefficient():
        return Q(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, rng.randint(1, 10**6))))

    base = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, min(4, ncols)))]
    rows = []
    for _ in range(ncols * rng.randint(3, 6)):
        picked = rng.sample(base, rng.randint(1, len(base)))
        terms = [[coefficient() * x for x in b] for b in picked]
        rows.append([sum(column, Q(0)) for column in zip(*terms)])
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(30))
def test_elimination_matches_the_oracle_on_tall_redundant_systems(seed):
    rng = random.Random(1000 + seed)
    rows = _tall_redundant_rows(rng, rng.randint(1, 8))
    assert reduce_rows(rows) == oracle_rref(rows)


def test_elimination_matches_the_oracle_on_ties_in_length_and_pivot():
    # every row has two entries and |leading entry| 1 or 2: the last row cancels
    # to zero in column 0, the second row and the fifth in column 1
    rows = [
        [Q(1), Q(-1), Q(0), Q(0)],
        [Q(-1), Q(0), Q(2), Q(0)],
        [Q(2), Q(0), Q(0), Q(1, 10**6)],
        [Q(0), Q(1), Q(-2), Q(0)],
        [Q(0), Q(2), Q(-4), Q(0)],
        [Q(-2), Q(2), Q(0), Q(0)],
    ]
    assert reduce_rows(rows) == oracle_rref(rows)


def test_the_zero_twist_skew_system_clears_each_row_at_most_once(monkeypatch):
    from homlie import tensor
    from homlie.coboundary import skew_twist_compat_kernel
    from homlie.hom_lie import HomLieAlgebra

    n = 60
    systems, calls = [], [0]
    real_reduce, real_eliminate = tensor._reduce, tensor._eliminate

    def spy_reduce(rows):
        systems.append([len(row) for row in rows])
        return real_reduce(rows)

    def counting_eliminate(*args):
        calls[0] += 1
        return real_eliminate(*args)

    monkeypatch.setattr(tensor, "_reduce", spy_reduce)
    monkeypatch.setattr(tensor, "_eliminate", counting_eliminate)
    kernel = skew_twist_compat_kernel(HomLieAlgebra(Tensor3.zero(n), Matrix.zero(n)))
    # diag(1, -1, 1, ...): phi S - S phi^T is 2 S_pq at (p, q) and at (q, p) for
    # the skew unknown S_pq = E_pq - E_qp with p + q odd, and 0 otherwise
    signs = Matrix([[(-1) ** i if i == j else 0 for j in range(n)] for i in range(n)])
    diagonal = skew_twist_compat_kernel(HomLieAlgebra(Tensor3.zero(n), signs))
    monkeypatch.undo()
    # the zero twist's equations are all zero, and none reaches the elimination
    assert systems[0] == [] and len(kernel) == n * (n - 1) // 2
    lengths = systems[1]
    assert len(lengths) == n * n // 2 and max(lengths) == 1
    assert 0 < calls[0] <= len(lengths)
    assert len(diagonal) == 2 * (n // 2) * (n // 2 - 1) // 2


@pytest.mark.parametrize("seed", range(10))
def test_random_combination_is_the_sum_of_the_scaled_elements(seed):
    basis = [random_matrix(random.Random(50 + k), 3) for k in range(4)]
    rng, again = random.Random(seed), random.Random(seed)
    total = Matrix.zero(3)
    for m in basis:
        total = total + m.scale(random_q(again))
    assert random_combination(rng, basis) == total
    assert rng.getstate() == again.getstate()
    with pytest.raises(ShapeError):
        random_combination(rng, [Matrix.zero(2), Matrix.zero(3)])


# --- packed lanes: contractions summed packed over their last index, against the oracle ---
#
# contract_sum packs the operand that alone holds the result's last index, the
# lane, sums packed, and unpacks the total before it returns it. Each result is
# read through dense, first_case and _rationals, and every reading is compared
# with oracle_contract.


def _packed_agrees(got, want, shape):
    """dense at every prefix leaving at most three indices, and first_case at the
    depth of each such prefix, read the result as the oracle's entries `want`, and
    so does _rationals."""
    for cut in range(max(0, len(shape) - 3), len(shape) + 1):
        for at in product(*map(range, shape[:cut])):
            block = {key[cut:]: v for key, v in want.items() if key[:cut] == at}
            expect = block.get((), Q(0)) if cut == len(shape) else _array_of(block, shape[cut:])
            assert dense(got, shape, at) == expect
        nonzero = sorted(key[:cut] for key in want)
        expect = (tuple(i + 1 for i in nonzero[0]), dense(want, shape, nonzero[0])) if nonzero else None
        assert first_case(got, shape, cut) == expect
    assert _rationals(got) == want


def test_packed_slots_of_both_signs_and_a_cancelled_slot():
    a = {(0, 0): Q(1), (0, 1): Q(2), (0, 2): Q(3), (1, 0): Q(-4), (1, 1): Q(5), (1, 2): Q(-6)}
    # column 1 is orthogonal to row 0 of a, so slot (0, 1) cancels between two
    # nonzero neighbours; row 1 has a negative slot next to a positive one
    b = {(0, 0): Q(7), (0, 1): Q(1), (0, 2): Q(-2), (1, 0): Q(-8), (1, 1): Q(1), (1, 2): Q(3)}
    b.update({(2, 0): Q(9), (2, 1): Q(-1), (2, 2): Q(1, 10**6)})
    sizes = {"i": 2, "j": 3, "k": 3}
    want = oracle_contract("ik", sizes, ("ij", a), ("jk", b))
    assert (0, 1) not in want and want[(1, 0)] < 0 < want[(1, 1)]
    got = contract("ik", ("ij", a), ("jk", _array_of(b, (3, 3))))
    _packed_agrees(got, want, (2, 3))


@pytest.mark.parametrize("bits", (1, 2, 31, 61, 64, 200))
def test_packed_slot_at_the_bound(bits):
    # one entry in each operand, so the slot is the whole bound: |slot| =
    # bound = 2^bits - 1, or 2^bits, the values at which bit_length steps
    for top in (2**bits - 1, 2**bits):
        for sign in (1, -1):
            x, m = {(0,): Q(sign * top)}, {(0, 1): Q(1)}
            got = contract("k", ("j", x), ("jk", m))
            _packed_agrees(got, {(1,): Q(sign * top)}, (3,))
            # the same bound spread over neighbours of both signs, one of them 0
            m = {(0, 0): Q(top - 1), (0, 2): Q(-1), (0, 3): Q(1)}
            got = contract("k", ("j", {(0,): Q(sign)}), ("jk", m))
            want = oracle_contract("k", {"j": 1, "k": 4}, ("j", {(0,): Q(sign)}), ("jk", m))
            _packed_agrees(got, want, (4,))


def test_packed_rows_read_back_at_the_edge_of_their_width():
    # slots at +-(2^(w-1) - 1), the most a width of w bits holds, next to zeros
    # and small slots of both signs: packing is Z-linear, so any packed int whose
    # slots are within the width reads back exactly
    from homlie import tensor

    w = 13
    edge = 2 ** (w - 1) - 1
    slots = {(0, 0): edge, (0, 1): -edge, (0, 3): 1, (1, 2): -1, (1, 4): edge, (2, 0): -edge}
    rows = _packed_rows(slots, w)
    assert tensor._unpacked(rows.items(), w) == slots
    t = Sparse(slots, 7)
    want = {key: Q(v, 7) for key, v in slots.items()}
    assert first_case(t, (3, 5), 2) == ((1, 1), Q(edge, 7))
    # the sum of two such tensors no longer fits in w bits: it is packed wider
    double = contract_sum("ij", *[(1, [("ij", t)])] * 2)
    _packed_agrees(double, {key: 2 * v for key, v in want.items()}, (3, 5))
    _packed_agrees(t, want, (3, 5))


def _packed_rows(slots, width):
    """The entries packed over their last index: row key[:-1] holds the sum of
    v 2^(width key[-1])."""
    rows = {}
    for key, v in slots.items():
        rows[key[:-1]] = rows.get(key[:-1], 0) + v * 2 ** (width * key[-1])
    return rows


def _slot_by_slot(rows, width):
    """The balanced digits of packed rows read one slot at a time, zero slots
    included: the low width bits of p, minus 2^width from 2^(width - 1) up."""
    out = {}
    for key, p in rows:
        slot = 0
        while p:
            low = p % (1 << width)
            v = low - (1 << width) if low >= 1 << (width - 1) else low
            if v:
                out[(*key, slot)] = v
            p = (p - v) >> width
            slot += 1
    return out


@pytest.mark.parametrize("width", (2, 13, 61, 64, 200))
def test_packed_rows_with_zero_runs_read_back_exactly(width):
    # zero runs shorter than a slot (adjacent digits) and longer than 64 bits, a
    # row whose one nonzero slot is its top one, and negative digits on either
    # side of a run, where the packed int borrows across the zeros below them
    from homlie import tensor

    edge, far = 2 ** (width - 1) - 1, 64 // width + 2
    slots = {
        (0, 0): edge, (0, 1): -1, (0, 2): 1, (0, 2 + far): -edge, (0, 3 + far): 1,
        (1, 3 * far): edge, (2, 3 * far): -edge,
        (3, 0): -1, (3, far): -1, (3, 2 * far + 1): -edge, (3, 2 * far + 2): edge,
    }
    rows = _packed_rows(slots, width)
    assert (far - 1) * width > 64
    assert tensor._unpacked(rows.items(), width) == slots == _slot_by_slot(rows.items(), width)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unpacked_reads_each_slot_as_the_slot_by_slot_reader_does(data):
    from homlie import tensor

    width = data.draw(st.sampled_from((2, 13, 61, 64, 200)) | st.integers(2, 130))
    top = 2 ** (width - 1) - 1
    digits = st.dictionaries(st.integers(0, 90), st.integers(-top, top), max_size=8)
    slots = {(row, l): v for row in range(3) for l, v in data.draw(digits).items() if v}
    rows = _packed_rows(slots, width)
    assert tensor._unpacked(rows.items(), width) == slots == _slot_by_slot(rows.items(), width)
    # any int is some row of balanced digits
    raw = data.draw(st.lists(st.integers(-(2**700), 2**700), max_size=3))
    rows = {(i,): p for i, p in enumerate(raw)}.items()
    assert tensor._unpacked(rows, width) == _slot_by_slot(rows, width)


# the lane (out's last letter) in the first, a middle and the last operand
LANE_SPECS = [
    ("ik", ("jk", "ij")),
    ("kil", ("ijl", "kj")),
    ("il", ("ij", "jkl", "k")),
    ("ijl", ("pi", "pql", "qj")),
    ("ik", ("ij", "jk")),
    ("ijkl", ("pi", "pql", "jkq")),
]


@pytest.mark.parametrize("seed", range(18))
def test_the_lane_in_any_operand_matches_the_oracle(seed):
    rng = random.Random(200 + seed)
    out, spec_labels = LANE_SPECS[seed % len(LANE_SPECS)]
    sizes = {l: rng.randint(1, 4) for l in set(out).union(*spec_labels)}
    operands, plain = _seeded_operands(rng, spec_labels, sizes, seed)
    got = contract(out, *operands)
    want = oracle_contract(out, sizes, *plain)
    _packed_agrees(got, want, tuple(sizes[l] for l in out))


@pytest.mark.parametrize(
    "out, spec_labels", [("ik", ("ik", "ik")), ("ik", ("ij", "jk", "k")), ("", ("ij", "ij")), ("", ("i",))]
)
def test_a_lane_letter_in_two_operands_packs_at_the_writes_and_a_scalar_out_stays_unpacked(out, spec_labels):
    from homlie import tensor

    # no operand alone holds out's last letter, so no operand is packed as it is
    # read: the kernel shifts at its writes, unless out is a scalar
    source = tensor._source(out, tuple((labels, None) for labels in spec_labels), ())
    assert ("<< width" in source) == bool(out)
    rng = random.Random(len(out) + len(spec_labels))
    sizes = dict.fromkeys("ijk", 3)
    plain = [(labels, _random_tensor(rng, tuple(sizes[l] for l in labels), 0.8)) for labels in spec_labels]
    got = contract(out, *plain)
    assert _rationals(got) == oracle_contract(out, sizes, *plain)


@pytest.mark.parametrize("seed", range(6))
def test_a_packed_sum_with_a_job_that_has_no_lane_matches_the_oracle(seed):
    # the first term packs over k; the second is read as it is and with j and k
    # swapped, so its "ikj" job puts j, held by both its operands, last: a job with
    # no lane, which packs at its writes. The terms' denominators differ, so each read
    # is scaled by c times the LCM over its own, never by +-1
    from homlie import tensor

    rng = random.Random(400 + seed)
    sizes = {"i": rng.randint(1, 3), "j": 3, "k": 3}
    x, y, t, s = (
        {key: v / den for key, v in _random_tensor(rng, tuple(sizes[l] for l in labels), 0.7).items()}
        for labels, den in (("ij", 2), ("jk", 1), ("ijk", 3), ("ij", 5))
    )
    terms = [(3, [("ij", x), ("jk", _array_of(y, (3, 3)))]), (-2, [("ijk", t), ("ij", s)], "ijk", "ikj")]
    assert [tensor._lane(job, ("ijk", "ij")) for job in ("ijk", "ikj")] == [0, None]
    got = contract_sum("ijk", *terms)
    once = oracle_contract("ijk", sizes, ("ijk", t), ("ij", s))
    want: dict = {}
    for c, part in (
        (3, oracle_contract("ijk", sizes, ("ij", x), ("jk", y))),
        (-2, once),
        (-2, {(i, j, k): v for (i, k, j), v in once.items()}),
    ):
        for key, v in part.items():
            want[key] = want.get(key, Q(0)) + c * v
    _packed_agrees(got, {key: v for key, v in want.items() if v}, tuple(sizes[l] for l in "ijk"))


@pytest.mark.parametrize("seed", range(8))
def test_sums_of_packed_results_of_unequal_width_and_denominator(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(1, 3)
    sizes = dict.fromkeys("ijk", n)

    def operand(scale):
        return {key: v * scale for key, v in _random_tensor(rng, (n, n), rng.choice((0.5, 1))).items()}

    def small():
        return {key: Q(rng.choice((-2, -1, 1, 2))) for key in product(range(n), repeat=2) if rng.random() < 0.7}

    a, b, c, d = small(), small(), operand(Q(2**50, rng.randint(1, 10**6))), operand(Q(3))
    plain = operand(Q(1, 7))

    # narrow and wide are each summed packed at their own width; a sum that reads
    # them packs them again at its own
    def narrow():
        return contract("ik", ("ij", a), ("jk", b))

    def wide():
        return contract("ik", ("ij", c), ("jk", _array_of(d, (n, n))))

    want_narrow = oracle_contract("ik", sizes, ("ij", a), ("jk", b))
    want_wide = oracle_contract("ik", sizes, ("ij", c), ("jk", d))

    def combined(*terms):
        total: dict = {}
        for sign, t in terms:
            for key, v in t.items():
                total[key] = total.get(key, Q(0)) + sign * v
        return {key: v for key, v in total.items() if v}

    def summed(*terms):
        return contract_sum("ik", *((sign, [("ik", t)]) for sign, t in terms))

    cases = [
        (summed((1, narrow()), (1, wide())), combined((1, want_narrow), (1, want_wide))),
        (summed((1, wide()), (-1, narrow())), combined((1, want_wide), (-1, want_narrow))),
        (summed((1, narrow()), (-1, plain)), combined((1, want_narrow), (-1, plain))),
        (summed((-1, wide()), (1, narrow()), (-1, narrow())), combined((-1, want_wide))),
        (summed((1, wide()), (-1, wide())), {}),
        # + and - of contractions
        (narrow() + wide(), combined((1, want_narrow), (1, want_wide))),
        (sparse(plain) - wide(), combined((1, plain), (-1, want_wide))),
    ]
    # one narrow result read seventeen times: the sum is packed wider
    total = summed(*[(1, narrow())] * 17)
    cases.append((total, combined((17, want_narrow))))
    # a later contraction reads the result as an operand, on or off its lane
    big = {(i,): Q(rng.choice((-1, 1)) * 2**90, rng.randint(1, 10**6)) for i in range(n)}
    cases.append((contract("ik", ("ik", narrow()), ("i", big)), oracle_contract("ik", sizes, ("ik", want_narrow), ("i", big))))
    cases.append((contract("ki", ("ik", wide())), {(k, i): v for (i, k), v in want_wide.items()}))
    for got, want in cases:
        _packed_agrees(got, want, (n, n))


def test_copies_of_a_packed_result_hold_its_entries():
    import copy
    import pickle

    m = Matrix([[1, Q(-2, 3)], [3, 4]])
    for dup in (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))):
        t = contract("ik", ("ij", m), ("jk", m))
        assert dense(dup(t), (2, 2)) == m @ m


def test_basis_vectors_index_like_arrays():
    assert Vector.basis(3, -1) == Vector([0, 0, 1]) and Vector.basis(3, -3) == Vector([1, 0, 0])
    for i in (3, 5, -4):
        with pytest.raises(IndexError):
            Vector.basis(3, i)


def test_an_index_that_is_not_an_int_is_refused():
    # a slice once indexed range(n) and read back zeros; each part of an index
    # must be an int, negative ints count from the end, and out of range refuses
    m, v = Matrix([[1, 2], [3, 4]]), Vector([5, 6])
    for read in (lambda: m[0:1], lambda: m[:, 0], lambda: v[0:1], lambda: m.row(slice(0, 1)), lambda: m[0, 1.0]):
        with pytest.raises(TypeError):
            read()
    assert m[-1, 0] == 3 and m[-1] == (3, 4) and v[-2] == 5 and m.row(-1) == Vector([3, 4])
    for read in (lambda: m[2, 0], lambda: m[0, -3], lambda: v[2], lambda: m.row(2)):
        with pytest.raises(IndexError):
            read()
