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

from .hom_lie import HomLieAlgebra, _square_defect, block_sum
from .report import CheckReport, InvalidStructureError, combined, scan
from .tensor import (
    Matrix,
    ShapeError,
    Sparse,
    Tensor3,
    Vector,
    contract,
    contract_sum,
    dense,
)


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

    @property
    def shape(self) -> tuple[int, int, int]:
        """The shape of the action tensor: (dim g, carrier dim, carrier dim)."""
        return (self.base.dim, self.carrier_dim, self.carrier_dim)

    def rho_of(self, x: Vector) -> Matrix:
        """rho(x) for x in algebra coordinates."""
        return dense(contract("rs", ("i", x), ("irs", self.action)), self.shape[1:])


def _after(action, m, i: str, s: str, t: str) -> list:
    """The operands of entry (s, t) of the action tensor's matrix at m e_i, on the
    letters i, s, t and a summed letter u: the action itself when m is None."""
    return [(i + s + t, action)] if m is None else [("u" + i, m), ("u" + s + t, action)]


def validate_representation(r: Representation) -> CheckReport:
    """(i) rho(phi e_i) beta = beta rho(e_i) and (ii) rho([e_i, e_j]) beta =
    rho(phi e_i) rho(e_j) - rho(phi e_j) rho(e_i), scanned in row-major order."""
    return combined(
        "representation",
        [
            scan("rep-axiom-twist", _twist_axiom(r), r.shape, 1),
            scan("rep-axiom-bracket", _bracket_axiom(r), (r.base.dim, *r.shape), 2),
        ],
    )


def _twist_axiom(r: Representation) -> Sparse:
    """Entry (i, s, t) of rho(phi e_i) beta - beta rho(e_i)."""
    act, beta = r.action, r.beta
    twisted = _after(act, r.base.twist, "i", "r", "t")
    return contract_sum("irs", (1, [*twisted, ("ts", beta)]), (-1, [("rt", beta), ("its", act)]))


def _bracket_axiom(r: Representation, m=None) -> Sparse:
    """Entry (i, j, s, t) of inner([e_i, e_j]) beta - rho(phi e_i) inner(e_j)
    + rho(phi e_j) inner(e_i), for inner = rho after m, rho itself when m is None."""
    act = r.action
    return contract_sum(
        "ijrs",
        (1, [("ijk", r.base.bracket), *_after(act, m, "k", "r", "t"), ("ts", r.beta)]),
        (-1, [("pi", r.base.twist), ("prt", act), *_after(act, m, "j", "t", "s")], "ijrs", "-jirs"),
    )


def adjoint_rep(a: HomLieAlgebra) -> Representation:
    """(g, phi, ad): the algebra acting on itself by the bracket."""
    return Representation(a, a.twist, tuple(a.ad(i) for i in range(a.dim)))


def is_weakly_involutive_rep(r: Representation) -> CheckReport:
    """rho(phi^2(x)) = rho(x) on basis vectors."""
    return scan("weakly-involutive-rep", _square_defect(r.action, r.base.twist), r.shape, 1)


def dual_action_candidate(r: Representation) -> Representation:
    """The dual-action data on V*: twist beta^T, rho"(e_i) = -rho(phi(e_i))^T.

    Purely mechanical; whether this is an actual representation is not
    automatic (see hom_dual_representation), and some verdict pipelines
    need the raw candidate even when it fails to be one.
    """
    dual = contract_sum("its", (-1, _after(r.action, r.base.twist, "i", "s", "t")))
    return Representation(
        r.base,
        r.beta.transpose(),
        tuple(dense(dual, r.shape, (i,)) for i in range(r.base.dim)),
    )


def hom_dual_exists(r: Representation) -> CheckReport:
    """The two identities that make the dual candidate a representation:

        (i)  beta rho(x) = beta rho(phi^2(x))
        (ii) rho(phi^2([x,y])) beta = rho(phi(x)) rho(phi^2(y))
                                      - rho(phi(y)) rho(phi^2(x))

    Weak involutivity of r implies both. (i) is -beta times the square defect
    rho(phi^2(x)) - rho(x), and the info field records whether that defect is 0,
    the weak involutivity verdict.
    """
    defect = _square_defect(r.action, r.base.twist)
    cond1 = contract_sum("irs", (-1, [("rt", r.beta), ("its", defect)]))
    square = r.base.twist @ r.base.twist
    return combined(
        "hom-dual-exists",
        [
            scan("dual-exists-i", cond1, r.shape, 1),
            scan("dual-exists-ii", _bracket_axiom(r, square), (r.base.dim, *r.shape), 2),
        ],
        weakly_involutive=not defect,
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


def semidirect_product(r: Representation) -> HomLieAlgebra:
    """g, the algebra r represents, acting on an abelian copy of V:

        [(x,u), (y,v)] = ([x,y], rho(x)v - rho(y)u),  twist phi (+) beta.
    """
    abelian = HomLieAlgebra(Tensor3.zero(r.carrier_dim), r.beta)
    return block_sum(r.base, abelian, f"{r.base.label or 'g'}|xV", rho=r.action)


def twisted_action_fixes_carrier_square(r: Representation) -> CheckReport:
    """rho(phi(e_i)) beta^2 = rho(phi(e_i)) for every basis element."""
    return fixes_carrier_square("twisted-action-fixes-carrier-square", r, r.base.twist)


def fixes_carrier_square(condition: str, r: Representation, m=None) -> CheckReport:
    """M_i beta^2 = M_i for each matrix M_i = rho(m e_i), rho(e_i) when m is None."""
    act, beta = r.action, r.beta
    fixed = [*_after(act, m, "i", "r", "t"), ("tv", beta), ("vs", beta)]
    res = contract_sum("irs", (1, fixed), (-1, _after(act, m, "i", "r", "s")))
    return scan(condition, res, r.shape, 1)
