"""Brute-force reference implementations, kept deliberately dumb.

Everything here expands definitions into raw loops over structure
constants, with none of the matrix factoring the library uses. The
frozen numbers in the test suite were produced by these functions first
and then pinned; the tests assert library == oracle == frozen value.
"""

from fractions import Fraction as Q
from itertools import product

from homlie.hom_lie import HomLieAlgebra
from homlie.tensor import Matrix, Tensor3, Vector


def vec(a: HomLieAlgebra, i: int) -> list[Q]:
    return [Q(1) if k == i else Q(0) for k in range(a.dim)]


def twist_vec(a: HomLieAlgebra, x: list[Q]) -> list[Q]:
    n = a.dim
    return [sum((a.twist[k, m] * x[m] for m in range(n)), Q(0)) for k in range(n)]


def bracket_vec(a: HomLieAlgebra, x: list[Q], y: list[Q]) -> list[Q]:
    n = a.dim
    out = [Q(0)] * n
    for i in range(n):
        for j in range(n):
            c = x[i] * y[j]
            if c:
                for k in range(n):
                    out[k] += c * a.bracket[i, j, k]
    return out


def oracle_hom_jacobi(a: HomLieAlgebra, i: int, j: int, k: int) -> Vector:
    """[phi(e_i), [e_j, e_k]] + [phi(e_j), [e_k, e_i]] + [phi(e_k), [e_i, e_j]]."""
    total = [Q(0)] * a.dim
    for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
        term = bracket_vec(a, twist_vec(a, vec(a, p)), bracket_vec(a, vec(a, q), vec(a, r)))
        total = [s + t for s, t in zip(total, term)]
    return Vector(total)


def oracle_weak_involutivity(a: HomLieAlgebra, i: int, j: int) -> Vector:
    """[phi^2(e_i), e_j] - [e_i, e_j]."""
    phi2 = twist_vec(a, twist_vec(a, vec(a, i)))
    lhs = bracket_vec(a, phi2, vec(a, j))
    rhs = bracket_vec(a, vec(a, i), vec(a, j))
    return Vector([x - y for x, y in zip(lhs, rhs)])


def oracle_r_square(a: HomLieAlgebra, rc: Matrix) -> Tensor3:
    """[r,r] by expanding r into elementary tensors: for r = sum x_i (x) y_i,

        sum_{i,j}  [x_i,x_j] (x) phi(y_i) (x) phi(y_j)
                 + phi(x_i) (x) [y_i,x_j] (x) phi(y_j)
                 + phi(x_i) (x) phi(x_j) (x) [y_i,y_j].
    """
    n = a.dim
    out = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]

    def rank1(u: list[Q], v: list[Q], w: list[Q], c: Q):
        for x in range(n):
            if u[x]:
                for y in range(n):
                    if v[y]:
                        for z in range(n):
                            if w[z]:
                                out[x][y][z] += c * u[x] * v[y] * w[z]

    for p in range(n):
        for m in range(n):
            if rc[p, m] == 0:
                continue
            for s in range(n):
                for mm in range(n):
                    c = rc[p, m] * rc[s, mm]
                    if c == 0:
                        continue
                    ep, em = vec(a, p), vec(a, m)
                    es, emm = vec(a, s), vec(a, mm)
                    rank1(bracket_vec(a, ep, es), twist_vec(a, em), twist_vec(a, emm), c)
                    rank1(twist_vec(a, ep), bracket_vec(a, em, es), twist_vec(a, emm), c)
                    rank1(twist_vec(a, ep), twist_vec(a, es), bracket_vec(a, em, emm), c)
    return Tensor3(out)


def oracle_twist_compat(a: HomLieAlgebra, rc: Matrix) -> Matrix:
    """(phi (x) id) r - (id (x) phi) r, summed over the elementary tensors
    e_p (x) e_q of r: phi(e_p) (x) e_q - e_p (x) phi(e_q)."""
    n = a.dim
    out = [[Q(0)] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            c = rc[p, q]
            if c == 0:
                continue
            fp, fq = twist_vec(a, vec(a, p)), twist_vec(a, vec(a, q))
            for i in range(n):
                out[i][q] += c * fp[i]
                out[p][i] -= c * fq[i]
    return Matrix(out)


def oracle_cobracket(a: HomLieAlgebra, rc: Matrix) -> Tensor3:
    """delta(e_k) = sum over elementary tensors e_p (x) e_m of r of

        phi(e_p) (x) [e_k, e_m]  +  [e_k, e_p] (x) phi(e_m).
    """
    n = a.dim
    box = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        ek = vec(a, k)
        for p in range(n):
            for m in range(n):
                c = rc[p, m]
                if c == 0:
                    continue
                fp, fm = twist_vec(a, vec(a, p)), twist_vec(a, vec(a, m))
                bp = bracket_vec(a, ek, vec(a, p))
                bm = bracket_vec(a, ek, vec(a, m))
                for i in range(n):
                    for j in range(n):
                        box[k][i][j] += c * (fp[i] * bm[j] + bp[i] * fm[j])
    return Tensor3(box)


def oracle_jac_delta(a: HomLieAlgebra, delta: Tensor3, k: int) -> Tensor3:
    """Cyclic sum of (phi (x) delta) delta(e_k), written out per rotation."""
    n = a.dim
    out = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = delta[k, i, j]
            if v == 0:
                continue
            for aa in range(n):
                for b in range(n):
                    for c in range(n):
                        out[aa][b][c] += v * (
                            a.twist[aa, i] * delta[j, b, c]
                            + a.twist[b, i] * delta[j, c, aa]
                            + a.twist[c, i] * delta[j, aa, b]
                        )
    return Tensor3(out)


def oracle_ad3(a: HomLieAlgebra, x: list[Q], t: Tensor3) -> Tensor3:
    """ad_{phi(x)} acting on one slot at a time, phi on the others."""
    n = a.dim
    fx = twist_vec(a, x)
    ad = [[Q(0)] * n for _ in range(n)]  # ad[k][j] = coefficient of e_k in [phi(x), e_j]
    for j in range(n):
        col = bracket_vec(a, fx, vec(a, j))
        for k in range(n):
            ad[k][j] = col[k]
    phi = a.twist
    out = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                v = t[p, q, r]
                if v == 0:
                    continue
                for aa in range(n):
                    for b in range(n):
                        for c in range(n):
                            out[aa][b][c] += v * (
                                ad[aa][p] * phi[b, q] * phi[c, r]
                                + phi[aa, p] * ad[b][q] * phi[c, r]
                                + phi[aa, p] * phi[b, q] * ad[c][r]
                            )
    return Tensor3(out)


def oracle_o_defect(action: list[Matrix], a: HomLieAlgebra, t: Matrix, i: int, j: int) -> Vector:
    """OT(v_i, v_j) = [T(v_i), T(v_j)] - T(rho(T(v_i)) v_j - rho(T(v_j)) v_i)."""
    n, m = t.nrows, t.ncols
    tu = [t[k, i] for k in range(n)]
    tv = [t[k, j] for k in range(n)]

    def rho_apply(x: list[Q], col: int) -> list[Q]:
        out = [Q(0)] * m
        for b in range(n):
            if x[b]:
                for k in range(m):
                    out[k] += x[b] * action[b][k, col]
        return out

    inner = [p - q for p, q in zip(rho_apply(tu, j), rho_apply(tv, i))]
    t_inner = [
        sum((t[k, q] * inner[q] for q in range(m)), Q(0)) for k in range(n)
    ]
    lhs = bracket_vec(a, tu, tv)
    return Vector([x - y for x, y in zip(lhs, t_inner)])


def oracle_form_invariance(a: HomLieAlgebra, gram: Matrix, i: int, j: int, k: int) -> Q:
    """B([e_i,e_j], e_k) - B(e_i, [phi(e_j), e_k])."""
    n, g = a.dim, gram.rows

    def b(x: list[Q], y: list[Q]) -> Q:
        return sum(
            (x[p] * g[p][q] * y[q] for p in range(n) for q in range(n)), Q(0)
        )

    lhs = b(bracket_vec(a, vec(a, i), vec(a, j)), vec(a, k))
    rhs = b(vec(a, i), bracket_vec(a, twist_vec(a, vec(a, j)), vec(a, k)))
    return lhs - rhs


def oracle_skew(a: HomLieAlgebra, i: int, j: int) -> Vector:
    """[e_i, e_j] + [e_j, e_i]."""
    x, y = vec(a, i), vec(a, j)
    return Vector([p + q for p, q in zip(bracket_vec(a, x, y), bracket_vec(a, y, x))])


def oracle_multiplicative(a: HomLieAlgebra, i: int, j: int) -> Vector:
    """phi([e_i, e_j]) - [phi(e_i), phi(e_j)]."""
    x, y = vec(a, i), vec(a, j)
    lhs = twist_vec(a, bracket_vec(a, x, y))
    rhs = bracket_vec(a, twist_vec(a, x), twist_vec(a, y))
    return Vector([p - q for p, q in zip(lhs, rhs)])


def _rho(action: list[Matrix], x: list[Q]) -> list[list[Q]]:
    """rho(x) = sum_i x_i action[i], as a list of rows."""
    m = action[0].nrows
    return [
        [sum((x[i] * action[i][r, s] for i in range(len(x))), Q(0)) for s in range(m)]
        for r in range(m)
    ]


def _mat(p: list[list[Q]], q: list[list[Q]]) -> list[list[Q]]:
    return [
        [sum((p[r][t] * q[t][s] for t in range(len(q))), Q(0)) for s in range(len(q[0]))]
        for r in range(len(p))
    ]


def _apply(p: list[list[Q]], v: list[Q]) -> list[Q]:
    return [sum((p[r][t] * v[t] for t in range(len(v))), Q(0)) for r in range(len(p))]


def _rows(m: Matrix) -> list[list[Q]]:
    return [list(r) for r in m.rows]


def oracle_rep_twist(a: HomLieAlgebra, beta: Matrix, action: list[Matrix], i: int) -> Matrix:
    """rho(phi(e_i)) beta - beta rho(e_i)."""
    lhs = _mat(_rho(action, twist_vec(a, vec(a, i))), _rows(beta))
    rhs = _mat(_rows(beta), _rho(action, vec(a, i)))
    return Matrix([[p - q for p, q in zip(u, v)] for u, v in zip(lhs, rhs)])


def oracle_rep_bracket(
    a: HomLieAlgebra, beta: Matrix, action: list[Matrix], i: int, j: int
) -> Matrix:
    """rho([e_i, e_j]) beta - rho(phi(e_i)) rho(e_j) + rho(phi(e_j)) rho(e_i)."""
    x, y = vec(a, i), vec(a, j)
    t1 = _mat(_rho(action, bracket_vec(a, x, y)), _rows(beta))
    t2 = _mat(_rho(action, twist_vec(a, x)), _rho(action, y))
    t3 = _mat(_rho(action, twist_vec(a, y)), _rho(action, x))
    return Matrix(
        [[p - q + s for p, q, s in zip(u, v, w)] for u, v, w in zip(t1, t2, t3)]
    )


def oracle_dual_exists_i(a: HomLieAlgebra, beta: Matrix, action: list[Matrix], i: int) -> Matrix:
    """beta rho(e_i) - beta rho(phi^2(e_i))."""
    lhs = _mat(_rows(beta), _rho(action, vec(a, i)))
    rhs = _mat(_rows(beta), _rho(action, twist_vec(a, twist_vec(a, vec(a, i)))))
    return Matrix([[p - q for p, q in zip(u, v)] for u, v in zip(lhs, rhs)])


def oracle_square_twist_product(product: Tensor3, psi: Matrix, i: int, j: int) -> Vector:
    """e_i . e_j - psi^2(e_i) . e_j for the product with these structure constants."""
    n = psi.nrows
    x = [Q(1) if k == i else Q(0) for k in range(n)]
    sq = _apply(_rows(psi), _apply(_rows(psi), x))
    return Vector(
        [product[i, j, k] - sum((sq[p] * product[p, j, k] for p in range(n)), Q(0)) for k in range(n)]
    )


def oracle_matched_pair(
    g: HomLieAlgebra,
    h: HomLieAlgebra,
    on_g: list[Matrix],
    on_h: list[Matrix],
    c: int,
    i: int,
    j: int,
) -> Vector:
    """For x' = f_c in h acting on g by on_g, and x = e_i, y = e_j in g acting
    on h by on_h:

        rho'(phi'(x'))[x,y] - [rho'(x')x, phi(y)] - [phi(x), rho'(x')y]
        - rho'(rho(y)x')(phi x) + rho'(rho(x)x')(phi y).

    The left matched-pair identity is (g, h) = (left, right); the right one
    swaps the roles."""
    xp, x, y = vec(h, c), vec(g, i), vec(g, j)
    rp = _rho(on_g, xp)
    terms = [
        _apply(_rho(on_g, twist_vec(h, xp)), bracket_vec(g, x, y)),
        bracket_vec(g, _apply(rp, x), twist_vec(g, y)),
        bracket_vec(g, twist_vec(g, x), _apply(rp, y)),
        _apply(_rho(on_g, _apply(_rho(on_h, y), xp)), twist_vec(g, x)),
        _apply(_rho(on_g, _apply(_rho(on_h, x), xp)), twist_vec(g, y)),
    ]
    return Vector([t0 - t1 - t2 - t3 + t4 for t0, t1, t2, t3, t4 in zip(*terms)])


def oracle_rref(rows: list[list[Q]]) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination in Fraction
    arithmetic; returns (rows, pivot column indices)."""
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
        inv = Q(1) / a[r][c]
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


def oracle_kernel(rows: list[list[Q]], ncols: int) -> list[list[Q]]:
    """The canonical nullspace basis read off oracle_rref: per free column f,
    1 at f and -row[f] at each pivot."""
    reduced, pivots = oracle_rref(rows) if rows else ([], [])
    basis = []
    for f in (f for f in range(ncols) if f not in pivots):
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def oracle_det(rows: list[list[Q]]) -> Q:
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return Q(1)
    total = Q(0)
    for j, x in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * x * oracle_det(minor)
    return total


def oracle_contract(out: str, sizes: dict[str, int], *operands: tuple[str, dict]) -> dict:
    """Einstein summation by brute force over every index tuple. Each operand is
    (labels, {index tuple: Fraction}), a missing key being 0, and sizes gives the
    range of each letter; entry (i, j, ...) of the result, one index per letter of
    out, sums the product of the operands' entries over all other letters. Entries
    that come out 0 are left out."""
    letters = sorted(set(out).union(*(labels for labels, _ in operands)))
    result: dict = {}
    for values in product(*(range(sizes[l]) for l in letters)):
        at = dict(zip(letters, values))
        term = Q(1)
        for labels, t in operands:
            term *= t.get(tuple(at[l] for l in labels), Q(0))
        key = tuple(at[l] for l in out)
        result[key] = result.get(key, Q(0)) + term
    return {key: v for key, v in result.items() if v}


def _pair(p: list, q: list, t: list) -> list[list[Q]]:
    """(P (x) Q) t for a 2-tensor t: entry (i, j) is sum over u, v of
    P[i][u] t[u][v] Q[j][v]."""
    return [
        [
            sum((p[i][u] * t[u][v] * q[j][v] for u, v in product(range(len(t)), repeat=2)), Q(0))
            for j in range(len(q))
        ]
        for i in range(len(p))
    ]


def _ad(bracket: list, x: list) -> list[list[Q]]:
    """The matrix of ad_x: entry (m, j) is the e_m coefficient of [x, e_j]."""
    n = len(x)
    return [
        [sum((x[i] * bracket[i][j][m] for i in range(n)), Q(0)) for j in range(n)] for m in range(n)
    ]


def _entries(out: dict, at: tuple, m: list) -> None:
    """Put the nonzero entries of the matrix m into out, at the keys (*at, p, q)."""
    for p, row in enumerate(m):
        for q, v in enumerate(row):
            if v:
                out[(*at, p, q)] = v


def _add(*terms: tuple[Q, list]) -> list[list[Q]]:
    """sum of c * M over the (c, M) terms, for matrices M of one shape."""
    rows, cols = len(terms[0][1]), len(terms[0][1][0])
    return [[sum((c * m[i][j] for c, m in terms), Q(0)) for j in range(cols)] for i in range(rows)]


def oracle_residual_lhs(bracket: list, twist: list, delta: list) -> tuple[dict, dict, dict]:
    """The left sides of the residual identities (a), (b), (c) of
    homlie.coboundary, for the cobracket delta[k][p][q] (the coefficient of
    e_p (x) e_q in delta(e_k)):

        (a) delta(phi e_k) - (phi (x) phi) delta(e_k)
        (b) (phi^2 (x) id) delta(e_k) - delta(e_k)
        (c) delta[e_i,e_j] - (phi(e_i).delta(e_j) - phi(e_j).delta(e_i)),
            z.t = (ad_z (x) phi + phi (x) ad_z) t,

    all inputs plain nested lists. Each side is a dict of its nonzero entries,
    keyed (k, p, q) for (a) and (b) and (i, j, p, q) for (c)."""
    n = len(twist)
    phi = twist
    phi2 = _mat(phi, phi)
    a, b, c = {}, {}, {}
    for k in range(n):
        pushed = _add(*((phi[x][k], delta[x]) for x in range(n)))
        _entries(a, (k,), _add((1, pushed), (-1, _pair(phi, phi, delta[k]))))
        _entries(b, (k,), _add((1, _mat(phi2, delta[k])), (-1, delta[k])))

    def act(x: list, t: list) -> list[list[Q]]:
        adx = _ad(bracket, x)
        return _add((1, _pair(adx, phi, t)), (1, _pair(phi, adx, t)))

    for i, j in product(range(n), repeat=2):
        of_bracket = _add(*((bracket[i][j][s], delta[s]) for s in range(n)))
        phi_i = [phi[m][i] for m in range(n)]
        phi_j = [phi[m][j] for m in range(n)]
        terms = (1, of_bracket), (-1, act(phi_i, delta[j])), (1, act(phi_j, delta[i]))
        _entries(c, (i, j), _add(*terms))
    return a, b, c


def oracle_residual_rhs(bracket: list, twist: list, r: list) -> tuple[dict, dict, dict]:
    """The right sides of the residual identities (a), (b), (c) of
    homlie.coboundary, for r[i][j] (the coefficient of e_i (x) e_j) and
    w = (phi (x) id - id (x) phi) r:

        (a) (ad_{phi e_k} phi (x) phi - phi (x) ad_{phi e_k} phi) w
        (b) (phi (x) ad_{e_k})(phi (x) id + id (x) phi) w
        (c) (ad_{[e_i,e_j]} phi (x) phi - phi (x) ad_{[e_i,e_j]} phi) w,

    each (P (x) Q) t summed entry by entry, all inputs plain nested lists. Keys
    as in oracle_residual_lhs."""
    n = len(twist)
    phi = twist
    ident = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    w = _add((1, _pair(phi, ident, r)), (-1, _pair(ident, phi, r)))
    inner = _add((1, _pair(phi, ident, w)), (1, _pair(ident, phi, w)))

    def skew(x: list) -> list[list[Q]]:
        ad_phi = _mat(_ad(bracket, x), phi)
        return _add((1, _pair(ad_phi, phi, w)), (-1, _pair(phi, ad_phi, w)))

    a, b, c = {}, {}, {}
    for k in range(n):
        _entries(a, (k,), skew([phi[m][k] for m in range(n)]))
        unit = [Q(int(m == k)) for m in range(n)]
        _entries(b, (k,), _pair(phi, _ad(bracket, unit), inner))
    for i, j in product(range(n), repeat=2):
        _entries(c, (i, j), skew(list(bracket[i][j])))
    return a, b, c


def oracle_twist_symmetry(a: HomLieAlgebra, gram: Matrix, i: int, j: int) -> Q:
    """B(phi(e_i), e_j) - B(e_i, phi(e_j))."""
    n = a.dim

    def b(x: list[Q], y: list[Q]) -> Q:
        return sum((x[p] * gram[p, q] * y[q] for p in range(n) for q in range(n)), Q(0))

    return b(twist_vec(a, vec(a, i)), vec(a, j)) - b(vec(a, i), twist_vec(a, vec(a, j)))


def oracle_algebra_homomorphism(f: Matrix, a1: HomLieAlgebra, a2: HomLieAlgebra, i: int, j: int) -> Vector:
    """f([e_i, e_j]) - [f(e_i), f(e_j)], for f from a1 to a2."""
    x, y = vec(a1, i), vec(a1, j)
    lhs = _apply(_rows(f), bracket_vec(a1, x, y))
    rhs = bracket_vec(a2, _apply(_rows(f), x), _apply(_rows(f), y))
    return Vector([p - q for p, q in zip(lhs, rhs)])


def oracle_twist_intertwined(f: Matrix, a1: HomLieAlgebra, a2: HomLieAlgebra) -> Matrix:
    """f phi1 - phi2 f, for f from a1 to a2."""
    lhs = _mat(_rows(f), _rows(a1.twist))
    rhs = _mat(_rows(a2.twist), _rows(f))
    return Matrix([[p - q for p, q in zip(u, v)] for u, v in zip(lhs, rhs)])


def oracle_cobracket_intertwined(f: Matrix, d1: Tensor3, d2: Tensor3, k: int) -> Matrix:
    """(f (x) f) Delta1(e_k) - Delta2(f(e_k)), summed over the elementary tensors
    e_s (x) e_t of Delta1(e_k), with Delta(e_x) the matrix d[x]."""
    m, n = f.nrows, f.ncols
    out = [[Q(0)] * m for _ in range(m)]
    for s in range(n):
        for t in range(n):
            c = d1[k, s, t]
            for p in range(m):
                for q in range(m):
                    out[p][q] += c * f[p, s] * f[q, t]
    for x in range(m):
        for p in range(m):
            for q in range(m):
                out[p][q] -= f[x, k] * d2[x, p, q]
    return Matrix(out)
