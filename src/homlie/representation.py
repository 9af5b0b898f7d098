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

A representation stacks its action once, when it is built, into one order-3
array of shape (dim g, m, m), and every contraction of the action reads that
stack. The constructions that start from a tensor (the adjoint action, left
multiplication, the dual candidate) build the stack first and split it into
the action's matrices in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hom_lie import HomLieAlgebra, _square_defect, block_sum
from .report import CheckReport, InvalidStructureError, combined, scan
from .tensor import Matrix, ShapeError, Sparse, Tensor3, contract_sum, dense, sparse


@dataclass(frozen=True)
class Representation:
    """(V, beta, rho) over base. `action` is the tuple of matrices rho(e_i); it is
    also stacked once, when the representation is built, into the private Tensor3
    `_stack` of shape (dim g, m, m), and every contraction reads that stack."""

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
        vars(self).update(base=base, beta=beta, action=action, _stack=dense(action, (base.dim, m, m)))

    @classmethod
    def _of(cls, base: HomLieAlgebra, beta: Matrix, view: Sparse) -> "Representation":
        """The representation whose action tensor has the entries of view, keys
        (i, s, t) inside (dim g, m, m): its matrices split off in one pass."""
        stack = dense(view, (base.dim, beta.nrows, beta.nrows))
        out = object.__new__(cls)
        vars(out).update(base=base, beta=beta, action=stack.planes(), _stack=stack)
        return out

    @property
    def carrier_dim(self) -> int:
        return self.beta.nrows

    @property
    def shape(self) -> tuple[int, int, int]:
        """The shape of the action tensor: (dim g, carrier dim, carrier dim)."""
        return (self.base.dim, self.carrier_dim, self.carrier_dim)


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
    act, beta = r._stack, r.beta
    twisted = _after(act, r.base.twist, "i", "r", "t")
    return contract_sum("irs", (1, [*twisted, ("ts", beta)]), (-1, [("rt", beta), ("its", act)]))


def _bracket_axiom(r: Representation, m=None) -> Sparse:
    """Entry (i, j, s, t) of inner([e_i, e_j]) beta - rho(phi e_i) inner(e_j)
    + rho(phi e_j) inner(e_i), for inner = rho after m, rho itself when m is None."""
    act = r._stack
    return contract_sum(
        "ijrs",
        (1, [("ijk", r.base.bracket), *_after(act, m, "k", "r", "t"), ("ts", r.beta)]),
        (-1, [("pi", r.base.twist), ("prt", act), *_after(act, m, "j", "t", "s")], "ijrs", "-jirs"),
    )


def adjoint_rep(a: HomLieAlgebra) -> Representation:
    """(g, phi, ad): the algebra acting on itself by the bracket."""
    return _acting_by(a, a.bracket, a.twist)


def _acting_by(base: HomLieAlgebra, t: Tensor3, beta: Matrix) -> Representation:
    """(V, beta, L) over base, with L(e_i) the matrix of v |-> t(e_i, v): plane i
    of t transposed, so entry (i, j, k) of t is entry (i, k, j) of the stack."""
    return Representation._of(base, beta, sparse(t).moved(lambda i, j, k: (i, k, j)))


def is_weakly_involutive_rep(r: Representation) -> CheckReport:
    """rho(phi^2(x)) = rho(x) on basis vectors."""
    return scan("weakly-involutive-rep", _square_defect(r._stack, r.base.twist), r.shape, 1)


def dual_action_candidate(r: Representation) -> Representation:
    """The dual-action data on V*: twist beta^T, rho"(e_i) = -rho(phi(e_i))^T.

    Purely mechanical; whether this is an actual representation is not
    automatic (see hom_dual_representation), and some verdict pipelines
    need the raw candidate even when it fails to be one.
    """
    dual = contract_sum("its", (-1, _after(r._stack, r.base.twist, "i", "s", "t")))
    return Representation._of(r.base, r.beta.transpose(), dual)


def hom_dual_exists(r: Representation) -> CheckReport:
    """The two identities that make the dual candidate a representation:

        (i)  beta rho(x) = beta rho(phi^2(x))
        (ii) rho(phi^2([x,y])) beta = rho(phi(x)) rho(phi^2(y))
                                      - rho(phi(y)) rho(phi^2(x))

    Weak involutivity of r implies both. (i) is -beta times the square defect
    rho(phi^2(x)) - rho(x), and the info field records whether that defect is 0,
    the weak involutivity verdict.
    """
    defect = _square_defect(r._stack, r.base.twist)
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
    return block_sum(r.base, abelian, f"{r.base.label or 'g'}|xV", rho=r._stack)


def twisted_action_fixes_carrier_square(r: Representation) -> CheckReport:
    """rho(phi(e_i)) beta^2 = rho(phi(e_i)) for every basis element."""
    act, beta, phi = r._stack, r.beta, r.base.twist
    fixed = [*_after(act, phi, "i", "r", "t"), ("tv", beta), ("vs", beta)]
    res = contract_sum("irs", (1, fixed), (-1, _after(act, phi, "i", "r", "s")))
    return scan("twisted-action-fixes-carrier-square", res, r.shape, 1)
