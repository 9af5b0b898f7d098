"""Evaluators kept apart from homlie, for the benchmark's expected answers.

Everything here works on plain Python lists of ``Fraction`` and imports
nothing from homlie. Vectors are sparse dicts {index: value}; matrices
are lists of rows acting on column vectors; a bracket is c[i][j][k], the
e_k coefficient of [e_i, e_j]. Each ``*_parts`` function scans its
identity in the order the homlie check documents and returns, per
sub-identity, the first failing tuple as (1-based indices, residual) or
None. Residuals are tuples of Fractions (vector or matrix) or a Fraction.
"""

from __future__ import annotations

from fractions import Fraction

ONE = Fraction(1)


def clean(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def e(i: int) -> dict:
    return {i: ONE}


def combo(*terms) -> dict:
    """sum of coefficient * sparse vector."""
    out: dict = {}
    for coef, v in terms:
        for k, x in v.items():
            out[k] = out.get(k, 0) + coef * x
    return clean(out)


def dense(v: dict, n: int) -> tuple:
    return tuple(Fraction(v.get(k, 0)) for k in range(n))


def columns(m: list) -> list[dict]:
    return [clean({r: m[r][c] for r in range(len(m))}) for c in range(len(m[0]))]


def apply_cols(cols: list[dict], x: dict) -> dict:
    out: dict = {}
    for c, xc in x.items():
        for r, v in cols[c].items():
            out[r] = out.get(r, 0) + v * xc
    return clean(out)


def matmul(a: list, b: list) -> list:
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def madd(a: list, b: list, sign: int = 1) -> list:
    return [[x + sign * y for x, y in zip(r, s)] for r, s in zip(a, b)]


def transpose(a: list) -> list:
    return [list(r) for r in zip(*a)]


def is_zero_m(a: list) -> bool:
    return all(x == 0 for r in a for x in r)


def tup(a: list) -> tuple:
    return tuple(tuple(Fraction(x) for x in r) for r in a)


class Alg:
    """A bracket and a twist, evaluated sparsely."""

    def __init__(self, bracket, twist):
        self.n = n = len(twist)
        self.c = [[clean({k: Fraction(bracket[i][j][k]) for k in range(n)}) for j in range(n)] for i in range(n)]
        self.twist = [[Fraction(x) for x in row] for row in twist]
        self.tcols = columns(self.twist)

    def br(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for i, xi in x.items():
            ci = self.c[i]
            for j, yj in y.items():
                for k, v in ci[j].items():
                    out[k] = out.get(k, 0) + xi * yj * v
        return clean(out)

    def tw(self, x: dict) -> dict:
        return apply_cols(self.tcols, x)

    def ad(self, x: dict) -> list:
        """Matrix of ad_x: column j is [x, e_j]."""
        n = self.n
        cols = [dense(self.br(x, e(j)), n) for j in range(n)]
        return [[cols[j][k] for j in range(n)] for k in range(n)]


def first(scan):
    return next((w for w in scan if w is not None), None)


def hom_lie_parts(a: Alg) -> list:
    n = a.n
    skew = first(
        ((i + 1, j + 1), dense(combo((1, a.c[i][j]), (1, a.c[j][i])), n))
        if combo((1, a.c[i][j]), (1, a.c[j][i]))
        else None
        for i in range(n)
        for j in range(n)
    )
    tws = [a.tw(e(i)) for i in range(n)]

    def mult(i, j):
        res = combo((1, a.tw(a.c[i][j])), (-1, a.br(tws[i], tws[j])))
        return ((i + 1, j + 1), dense(res, n)) if res else None

    def jac(i, j, k):
        res = combo(
            (1, a.br(tws[i], a.c[j][k])),
            (1, a.br(tws[j], a.c[k][i])),
            (1, a.br(tws[k], a.c[i][j])),
        )
        return ((i + 1, j + 1, k + 1), dense(res, n)) if res else None

    return [
        ("bracket-skew", skew),
        ("twist-multiplicative", first(mult(i, j) for i in range(n) for j in range(n))),
        ("hom-jacobi", first(jac(i, j, k) for i in range(n) for j in range(n) for k in range(n))),
    ]


def weakly_involutive(a: Alg):
    n = a.n

    def res(i, j):
        r = combo((1, a.br(a.tw(a.tw(e(i))), e(j))), (-1, a.c[i][j]))
        return ((i + 1, j + 1), dense(r, n)) if r else None

    return first(res(i, j) for i in range(n) for j in range(n))


def rep_parts(a: Alg, beta: list, action: list) -> list:
    """The two representation axioms for rho(e_i) = action[i] with twist beta."""
    n = a.n
    m = len(beta)

    def rho(x: dict) -> list:
        out = [[Fraction(0)] * m for _ in range(m)]
        for i, xi in x.items():
            out = madd(out, [[xi * v for v in r] for r in action[i]])
        return out

    def ax1(i):
        res = madd(matmul(rho(a.tw(e(i))), beta), matmul(beta, action[i]), -1)
        return None if is_zero_m(res) else ((i + 1,), tup(res))

    def ax2(i, j):
        lhs = matmul(rho(a.c[i][j]), beta)
        rhs = madd(matmul(rho(a.tw(e(i))), action[j]), matmul(rho(a.tw(e(j))), action[i]), -1)
        res = madd(lhs, rhs, -1)
        return None if is_zero_m(res) else ((i + 1, j + 1), tup(res))

    return [
        ("rep-axiom-twist", first(ax1(i) for i in range(n))),
        ("rep-axiom-bracket", first(ax2(i, j) for i in range(n) for j in range(n))),
    ]


def form_parts(a: Alg, gram: list) -> list:
    """B([x,y],z) = B(x,[phi y,z]) scanned k outermost, then B(phi x,y) = B(x,phi y)."""
    n = a.n

    def b(x: dict, y: dict):
        return sum((xi * gram[i][j] * yj for i, xi in x.items() for j, yj in y.items()), Fraction(0))

    tws = [a.tw(e(i)) for i in range(n)]

    def inv(i, j, k):
        d = b(a.c[i][j], e(k)) - b(e(i), a.br(tws[j], e(k)))
        return ((i + 1, j + 1, k + 1), d) if d else None

    def twist(i, j):
        d = b(tws[i], e(j)) - b(e(i), tws[j])
        return ((i + 1, j + 1), d) if d else None

    return [
        ("form-invariance-bracket", first(inv(i, j, k) for k in range(n) for i in range(n) for j in range(n))),
        ("form-invariance-twist", first(twist(i, j) for i in range(n) for j in range(n))),
    ]



def form_space_dims(a: Alg) -> tuple[int, int]:
    """Dimensions of the space of invariant forms and of its symmetric part.

    Each is n^2 minus the rank of the equations of ``form_parts`` written
    in the Gram entries g[i][j] (unknown i*n + j), with the equations
    g[i][j] = g[j][i] added for the symmetric part.
    """
    n = a.n
    tws = [a.tw(e(i)) for i in range(n)]
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                for l, v in a.c[i][j].items():
                    row[l * n + k] += v
                for l, v in a.br(tws[j], e(k)).items():
                    row[i * n + l] -= v
                rows.append(row)
            row = [Fraction(0)] * (n * n)
            for p, v in tws[i].items():
                row[p * n + j] += v
            for q, v in tws[j].items():
                row[i * n + q] -= v
            rows.append(row)
    rows = [r for r in rows if any(r)]
    sym = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [Fraction(0)] * (n * n)
            row[i * n + j], row[j * n + i] = ONE, -ONE
            sym.append(row)
    return n * n - rank(rows), n * n - rank(rows + sym)

# --- bialgebras and doubles ------------------------------------------------


def dual_of(a: Alg, cob: list) -> Alg:
    """[f_a, f_b] = sum_k cob[k][a][b] f_k with twist phi^T."""
    n = a.n
    box = [[[cob[k][i][j] for k in range(n)] for j in range(n)] for i in range(n)]
    return Alg(box, transpose(a.twist))


def act2(a: Alg, x: dict, t: list) -> list:
    """(ad_x (x) phi + phi (x) ad_x) t, with (A (x) B) t = A t B^T."""
    adx = a.ad(x)
    phit = transpose(a.twist)
    return madd(matmul(matmul(adx, t), phit), matmul(matmul(a.twist, t), transpose(adx)))


def compat_witness(a: Alg, cob: list):
    n = a.n

    def delta(x: dict) -> list:
        out = [[Fraction(0)] * n for _ in range(n)]
        for k, xk in x.items():
            out = madd(out, [[xk * v for v in r] for r in cob[k]])
        return out

    tws = [a.tw(e(i)) for i in range(n)]

    def res(i, j):
        lhs = delta(a.c[i][j])
        rhs = madd(act2(a, tws[i], cob[j]), act2(a, tws[j], cob[i]), -1)
        r = madd(lhs, rhs, -1)
        return None if is_zero_m(r) else ((i + 1, j + 1), tup(r))

    return first(res(i, j) for i in range(n) for j in range(n))


def bialgebra_parts(a: Alg, cob: list) -> list:
    d = dual_of(a, cob)
    return [
        ("primal-hom-lie", first(w for _, w in hom_lie_parts(a))),
        ("primal-weakly-involutive", weakly_involutive(a)),
        ("dual-hom-lie", first(w for _, w in hom_lie_parts(d))),
        ("dual-weakly-involutive", weakly_involutive(d)),
        ("cobracket-compatibility", compat_witness(a, cob)),
    ]


def double_of(a: Alg, cob: list) -> tuple[list, list]:
    """Bracket and twist of the d-double g (+) g*, basis (e_1..e_n, f_1..f_n).

    [e_i, f_c] has g-part sum_k <[phi* f_c, f_k]*, e_i> e_k and g*-part
    -sum_k <f_c, [phi e_i, e_k]> f_k: each side acts on the other by
    the dual of its twisted adjoint action.
    """
    n = a.n
    d = dual_of(a, cob)
    size = 2 * n
    box = [[[Fraction(0)] * size for _ in range(size)] for _ in range(size)]
    for i in range(n):
        for j in range(n):
            for k, v in a.c[i][j].items():
                box[i][j][k] = v
            for k, v in d.c[i][j].items():
                box[n + i][n + j][n + k] = v
    for i in range(n):
        phi_ei = a.tw(e(i))
        for c in range(n):
            phi_fc = d.tw(e(c))
            for k in range(n):
                g_part = d.br(phi_fc, e(k)).get(i, 0)
                v_part = -a.br(phi_ei, e(k)).get(c, 0)
                box[i][n + c][k] = g_part
                box[n + c][i][k] = -g_part
                box[i][n + c][n + k] = v_part
                box[n + c][i][n + k] = -v_part
    twist = [[Fraction(0)] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            twist[i][j] = a.twist[i][j]
            twist[n + i][n + j] = a.twist[j][i]
    return box, twist


def canonical_r(n: int) -> list:
    r = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        r[i][n + i] = ONE
    return r


def cobracket_of_r(a: Alg, r: list) -> list:
    """delta(e_k) = (phi (x) ad_k + ad_k (x) phi) r."""
    return [act2(a, e(k), r) for k in range(a.n)]


# --- the square bracket of r ----------------------------------------------


def r_square(a: Alg, r: list) -> dict:
    """[r,r] as a sparse dict {(a, b, c): value}.

    With A_i = sum_j r_ij phi(e_j) and B_j = sum_i r_ij phi(e_i):
    [r,r] = sum [e_i,e_p] (x) A_i (x) A_p + B_j (x) [e_j,e_p] (x) A_p
            + B_j (x) B_q (x) [e_j,e_q].
    """
    n = a.n
    tws = [a.tw(e(i)) for i in range(n)]
    A = [combo(*((r[i][j], tws[j]) for j in range(n))) for i in range(n)]
    B = [combo(*((r[i][j], tws[i]) for i in range(n))) for j in range(n)]
    out: dict = {}

    def add3(x, y, z):
        for p, xp in x.items():
            for q, yq in y.items():
                xy = xp * yq
                for s, zs in z.items():
                    key = (p, q, s)
                    out[key] = out.get(key, 0) + xy * zs

    for i in range(n):
        for p in range(n):
            add3(a.c[i][p], A[i], A[p])
            add3(B[i], a.c[i][p], A[p])
            add3(B[i], B[p], a.c[i][p])
    return clean(out)


def chybe_witness(a: Alg, r: list):
    rr = r_square(a, r)
    if not rr:
        return None
    i, j, k = min(rr)
    return ((i + 1, j + 1, k + 1), rr[(i, j, k)])


def adjoint_kills(a: Alg, t: dict) -> bool:
    """(ad_{phi x} (x) phi (x) phi + ...) t = 0 for every basis x."""
    n = a.n
    phi = a.tcols
    for x in range(n):
        adc = columns(a.ad(a.tw(e(x))))
        maps = ((adc, phi, phi), (phi, adc, phi), (phi, phi, adc))
        out: dict = {}
        for (p, q, s), v in t.items():
            for m1, m2, m3 in maps:
                for i, u in m1[p].items():
                    for j, w in m2[q].items():
                        uw = u * w * v
                        for k, z in m3[s].items():
                            out[(i, j, k)] = out.get((i, j, k), 0) + uw * z
        if clean(out):
            return False
    return True


def o_defect_zero(a: Alg, action: list, t: list) -> bool:
    """OT(v_i, v_j) = [T v_i, T v_j] - T(rho(T v_i) v_j - rho(T v_j) v_i) = 0."""
    m = len(action[0])
    tcols = columns(t)
    acts = [columns(x) for x in action]

    def rho(x: dict, v: dict) -> dict:
        return combo(*((xi, apply_cols(acts[i], v)) for i, xi in x.items()))

    for i in range(m):
        for j in range(m):
            tu, tv = tcols[i], tcols[j]
            inner = combo((1, rho(tu, e(j))), (-1, rho(tv, e(i))))
            if combo((1, a.br(tu, tv)), (-1, apply_cols(tcols, inner))):
                return False
    return True


def rank(rows: list) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        for i in range(rk + 1, len(a)):
            if a[i][c]:
                f = a[i][c] / a[rk][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rk])]
        rk += 1
    return rk
