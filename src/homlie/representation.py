"""Representations of Hom-Lie algebras and their Hom-duals.

A representation is a carrier space with a twist beta and an action rho
satisfying two compatibility axioms (checked, never assumed):

    (i)  rho(phi(x)) beta = beta rho(x)
    (ii) rho([x,y]) beta = rho(phi(x)) rho(y) - rho(phi(y)) rho(x)

The dual action on V* twists rho by phi before dualizing:
rho"(x) = -(rho(phi(x)))^T in the dual basis, with twist beta^T. That
candidate is always well defined as data but is a representation exactly
when two extra identities hold; weak involutivity rho(phi^2(x)) = rho(x)
is the sufficient condition everything downstream leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

from .hom_lie import HomLieAlgebra, is_weakly_involutive
from .report import CheckReport, InvalidStructureError, combined, holds, scan
from .tensor import Matrix, ShapeError, Tensor3, Vector, Q


@dataclass(frozen=True)
class Representation:
    base: HomLieAlgebra
    beta: Matrix
    action: tuple[Matrix, ...]  # action[i] = rho(e_i), one m x m matrix per basis vector

    def __init__(self, base: HomLieAlgebra, beta: Matrix, action):
        action = tuple(action)
        m = beta.nrows
        if beta.ncols != m:
            raise ShapeError("carrier twist must be square")
        if len(action) != base.dim:
            raise ShapeError(
                f"need one action matrix per algebra basis vector "
                f"({base.dim}), got {len(action)}"
            )
        for a in action:
            if a.nrows != m or a.ncols != m:
                raise ShapeError("action matrices must match carrier dimension")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "action", action)

    @property
    def carrier_dim(self) -> int:
        return self.beta.nrows

    def rho_of(self, x: Vector) -> Matrix:
        """rho(x) for x in algebra coordinates."""
        out = Matrix.zero(self.carrier_dim)
        for i in range(self.base.dim):
            if x[i]:
                out = out + self.action[i].scale(x[i])
        return out

    def rho_twisted(self, i: int) -> Matrix:
        """rho(phi(e_i))."""
        return self.rho_of(self.base.twisted(self.base.basis(i)))


def validate_representation(r: Representation) -> CheckReport:
    a = r.base
    n = a.dim

    ax1 = scan(
        "rep-axiom-twist",
        (
            ((i + 1,), r.rho_twisted(i) @ r.beta - r.beta @ r.action[i])
            for i in range(n)
        ),
    )
    ax2 = scan(
        "rep-axiom-bracket",
        (
            (
                (i + 1, j + 1),
                r.rho_of(a.bracket_of(a.basis(i), a.basis(j))) @ r.beta
                - (r.rho_twisted(i) @ r.action[j] - r.rho_twisted(j) @ r.action[i]),
            )
            for i, j in product(range(n), repeat=2)
        ),
    )
    return combined("representation", [ax1, ax2])


def adjoint_rep(a: HomLieAlgebra) -> Representation:
    """(g, phi, ad): the algebra acting on itself by the bracket."""
    return Representation(a, a.twist, tuple(a.ad(i) for i in range(a.dim)))


def is_weakly_involutive_rep(r: Representation) -> CheckReport:
    """rho(phi^2(x)) = rho(x) on basis vectors."""
    phi2 = r.base.twist @ r.base.twist
    return scan(
        "weakly-involutive-rep",
        (
            ((i + 1,), r.rho_of(phi2.apply(r.base.basis(i))) - r.action[i])
            for i in range(r.base.dim)
        ),
    )


def dual_action_candidate(r: Representation) -> Representation:
    """The dual-action data on V*: twist beta^T, rho"(e_i) = -rho(phi(e_i))^T.

    Purely mechanical; whether this is an actual representation is not
    automatic (see hom_dual_representation), and some verdict pipelines
    need the raw candidate even when it fails to be one.
    """
    return Representation(
        r.base,
        r.beta.transpose(),
        tuple(-(r.rho_twisted(i).transpose()) for i in range(r.base.dim)),
    )


def hom_dual_exists(r: Representation) -> CheckReport:
    """The two identities that make the dual candidate a representation:

        (i)  beta rho(x) = beta rho(phi^2(x))
        (ii) rho(phi^2([x,y])) beta = rho(phi(x)) rho(phi^2(y))
                                      - rho(phi(y)) rho(phi^2(x))

    Weak involutivity of r implies both, so the info field records that
    verdict alongside.
    """
    a = r.base
    n = a.dim
    phi2 = a.twist @ a.twist

    def rho_sq(x: Vector) -> Matrix:
        return r.rho_of(phi2.apply(x))

    cond1 = scan(
        "dual-exists-i",
        (
            ((i + 1,), r.beta @ r.action[i] - r.beta @ rho_sq(a.basis(i)))
            for i in range(n)
        ),
    )
    cond2 = scan(
        "dual-exists-ii",
        (
            (
                (i + 1, j + 1),
                rho_sq(a.bracket_of(a.basis(i), a.basis(j))) @ r.beta
                - (
                    r.rho_twisted(i) @ rho_sq(a.basis(j))
                    - r.rho_twisted(j) @ rho_sq(a.basis(i))
                ),
            )
            for i, j in product(range(n), repeat=2)
        ),
    )
    return combined(
        "hom-dual-exists",
        [cond1, cond2],
        weakly_involutive=is_weakly_involutive_rep(r).ok,
    )


def hom_dual_representation(r: Representation) -> Representation:
    """The Hom-dual representation (V*, beta^T, rho" = rho* after phi).

    Raises with the diagnostic report when the existence identities fail;
    the weakly involutive case always passes the gate.
    """
    gate = hom_dual_exists(r)
    if not gate.ok:
        raise InvalidStructureError(
            "dual action candidate is not a representation", gate
        )
    return dual_action_candidate(r)


def rep_double_dual_is_identity(r: Representation) -> CheckReport:
    """Dualizing twice returns the original action matrices exactly."""
    dd = dual_action_candidate(dual_action_candidate(r))
    return scan(
        "double-dual-identity",
        chain(
            [((0,), dd.beta - r.beta, "twist differs")],
            (((i + 1,), dd.action[i] - r.action[i]) for i in range(r.base.dim)),
        ),
    )


def semidirect_product(a: HomLieAlgebra, r: Representation) -> HomLieAlgebra:
    """g acting on an abelian copy of V:

        [(x,u), (y,v)] = ([x,y], rho(x)v - rho(y)u),  twist phi (+) beta.
    """
    n, m = a.dim, r.carrier_dim
    d = n + m
    box = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                box[i][j][k] = a.bracket[i, j, k]
    for i in range(n):
        rho_i = r.action[i]
        for b in range(m):
            # [(e_i,0),(0,v_b)] = (0, rho(e_i) v_b)
            col = rho_i.col(b)
            for k in range(m):
                box[i][n + b][n + k] = col[k]
                box[n + b][i][n + k] = -col[k]
    tw = [[Q(0)] * d for _ in range(d)]
    for i in range(n):
        for j in range(n):
            tw[i][j] = a.twist[i, j]
    for i in range(m):
        for j in range(m):
            tw[n + i][n + j] = r.beta[i, j]
    return HomLieAlgebra(Tensor3(box), Matrix(tw), f"{a.label or 'g'}|xV")


CRITERIA_DISAGREE = "conjunction of criteria differs from direct check"


def semidirect_weak_involutivity_criteria(
    a: HomLieAlgebra, r: Representation
) -> CheckReport:
    """Weak involutivity of g |x V by parts, cross-checked against the
    direct verdict on the constructed product:

        (i)   g weakly involutive
        (ii)  rho weakly involutive
        (iii) rho(x) beta^2 = rho(x)

    The conjunction provably equals the direct check; 'criteria-match-direct'
    records that the two verdicts agree on this instance.
    """
    c1 = is_weakly_involutive(a)
    c2 = is_weakly_involutive_rep(r)
    beta2 = r.beta @ r.beta
    c3 = scan(
        "action-fixes-carrier-square",
        (((i + 1,), r.action[i] @ beta2 - r.action[i]) for i in range(a.dim)),
    )
    direct = is_weakly_involutive(semidirect_product(a, r))
    match = holds(
        "criteria-match-direct",
        (c1.ok and c2.ok and c3.ok) == direct.ok,
        CRITERIA_DISAGREE,
    )
    return combined(
        "semidirect-weak-involutivity",
        [c1, c2, c3, match],
        direct_verdict=direct.verdict,
    )


def dual_semidirect_weak_involutivity_criteria(
    a: HomLieAlgebra, r: Representation
) -> CheckReport:
    """Variant for g |x V* via the dual action (r must be weakly involutive):

        (i)  g weakly involutive
        (ii) rho(phi(x)) beta^2 = rho(phi(x))

    Cross-checked against the direct verdict on the constructed product.
    """
    wi = is_weakly_involutive_rep(r)
    if not wi.ok:
        raise InvalidStructureError(
            "dual semidirect criteria need a weakly involutive representation", wi
        )
    c1 = is_weakly_involutive(a)
    c2 = twisted_action_fixes_carrier_square(r)
    direct = is_weakly_involutive(semidirect_product(a, hom_dual_representation(r)))
    match = holds(
        "criteria-match-direct", (c1.ok and c2.ok) == direct.ok, CRITERIA_DISAGREE
    )
    return combined(
        "dual-semidirect-weak-involutivity",
        [c1, c2, match],
        direct_verdict=direct.verdict,
    )


def twisted_action_fixes_carrier_square(r: Representation) -> CheckReport:
    """rho(phi(e_i)) beta^2 = rho(phi(e_i)) for every basis element."""
    beta2 = r.beta @ r.beta

    def cases():
        for i in range(r.base.dim):
            rt = r.rho_twisted(i)
            yield (i + 1,), rt @ beta2 - rt

    return scan("twisted-action-fixes-carrier-square", cases())


def check_rep_equivalence(r1: Representation, r2: Representation, varphi: Matrix) -> CheckReport:
    """varphi rho1(x) = rho2(x) varphi and beta2 varphi = varphi beta1."""
    if varphi.nrows != r2.carrier_dim or varphi.ncols != r1.carrier_dim:
        raise ShapeError("equivalence map has wrong shape")
    if varphi.nrows != varphi.ncols or varphi.det() == 0:
        raise ShapeError("equivalence map must be square and invertible")
    if r1.base.dim != r2.base.dim:
        raise ShapeError("representations live over different algebras")

    inter = scan(
        "equivalence-intertwines-action",
        (
            ((i + 1,), varphi @ r1.action[i] - r2.action[i] @ varphi)
            for i in range(r1.base.dim)
        ),
    )
    tw = scan(
        "equivalence-intertwines-twist", [((0,), r2.beta @ varphi - varphi @ r1.beta)]
    )
    return combined("rep-equivalence", [inter, tw])

