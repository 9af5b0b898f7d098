"""Built-in example structures, reproducible by name.

Every worked example in the test suite and CLI docs refers to one of
these. Negative entries (notjac3, aff2bad) are constructible on purpose:
validation is a separate step, and the witnesses they produce are pinned
in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bialgebra import Cobracket, zero_cobracket
from .hom_lie import HomLieAlgebra
from .operators import HomLeftSymmetric
from .tensor import Matrix, Q, Tensor3


def _box(n: int):
    return [[[Q(0)] * n for _ in range(n)] for _ in range(n)]


def abelian2() -> HomLieAlgebra:
    """Two-dimensional abelian algebra, identity twist."""
    return HomLieAlgebra(Tensor3.zero(2, 2, 2), Matrix.identity(2), "abelian2")


def aff2() -> HomLieAlgebra:
    """[e1,e2] = e1, identity twist."""
    b = _box(2)
    b[0][1][0] = Q(1)
    b[1][0][0] = Q(-1)
    return HomLieAlgebra(Tensor3(b), Matrix.identity(2), "aff2")


def aff2phi() -> HomLieAlgebra:
    """[e1,e2] = e1 with twist e1 -> e1, e2 -> e2 + e1.

    The twist is multiplicative, so this is a Hom-Lie algebra, but it is
    not weakly involutive: the bracket has trivial centralizer behaviour
    ([phi^2(e2), e2] = 2e1 != 0), and indeed no twist other than the
    identity can be weakly involutive here since the center is zero.
    """
    b = _box(2)
    b[0][1][0] = Q(1)
    b[1][0][0] = Q(-1)
    tw = Matrix([[Q(1), Q(1)], [Q(0), Q(1)]])
    return HomLieAlgebra(Tensor3(b), tw, "aff2phi")


def aff2bad() -> HomLieAlgebra:
    """[e1,e2] = e1 with twist e1 -> 2e1, e2 -> e2.

    Valid as a Hom-Lie algebra; fails weak involutivity at (1,2) with
    residual [phi^2(e1), e2] - [e1, e2] = 3e1.
    """
    b = _box(2)
    b[0][1][0] = Q(1)
    b[1][0][0] = Q(-1)
    tw = Matrix([[Q(2), Q(0)], [Q(0), Q(1)]])
    return HomLieAlgebra(Tensor3(b), tw, "aff2bad")


def heis3() -> HomLieAlgebra:
    """Heisenberg: [e1,e2] = e3, identity twist."""
    b = _box(3)
    b[0][1][2] = Q(1)
    b[1][0][2] = Q(-1)
    return HomLieAlgebra(Tensor3(b), Matrix.identity(3), "heis3")


def sl2() -> HomLieAlgebra:
    """(h, e, f) = (e1, e2, e3): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    b = _box(3)
    b[0][1][1] = Q(2)
    b[1][0][1] = Q(-2)
    b[0][2][2] = Q(-2)
    b[2][0][2] = Q(2)
    b[1][2][0] = Q(1)
    b[2][1][0] = Q(-1)
    return HomLieAlgebra(Tensor3(b), Matrix.identity(3), "sl2")


def sl2_killing_gram() -> Matrix:
    """Killing-proportional invariant form for sl2: B(h,h)=2, B(e,f)=1."""
    return Matrix(
        [[Q(2), Q(0), Q(0)], [Q(0), Q(0), Q(1)], [Q(0), Q(1), Q(0)]]
    )


def notjac3() -> HomLieAlgebra:
    """[e1,e2] = e1, [e1,e3] = e3, identity twist.

    Skew and twist-multiplicative, but the Jacobi sum at (1,2,3) leaves
    the residual -e3, so validation fails there.
    """
    b = _box(3)
    b[0][1][0] = Q(1)
    b[1][0][0] = Q(-1)
    b[0][2][2] = Q(1)
    b[2][0][2] = Q(-1)
    return HomLieAlgebra(Tensor3(b), Matrix.identity(3), "notjac3")


def lsa2() -> HomLeftSymmetric:
    """Left-symmetric product e2.e2 = e1 with identity twist.

    The commutator algebra is abelian and the identity map is an
    O-operator for left multiplication.
    """
    p = _box(2)
    p[1][1][0] = Q(1)
    return HomLeftSymmetric(Tensor3(p), Matrix.identity(2), "lsa2")


def lsa2psi() -> HomLeftSymmetric:
    """Same product as lsa2 with twist e1 -> e1, e2 -> e2 + e1."""
    p = _box(2)
    p[1][1][0] = Q(1)
    return HomLeftSymmetric(
        Tensor3(p), Matrix([[Q(1), Q(1)], [Q(0), Q(1)]]), "lsa2psi"
    )


def aff2_zero_bialgebra() -> tuple[HomLieAlgebra, Cobracket]:
    """aff2 with the zero cobracket."""
    a = aff2()
    return a, zero_cobracket(a)


def aff2_triangular_bialgebra() -> tuple[HomLieAlgebra, Cobracket]:
    """aff2 with delta(e1) = 0, delta(e2) = -e1^e2 (the cobracket that
    r = e1^e2 induces)."""
    a = aff2()
    box = _box(2)
    box[1][0][1] = Q(-1)
    box[1][1][0] = Q(1)
    return a, Cobracket(a, Tensor3(box))


@dataclass(frozen=True)
class Builtin:
    name: str
    kind: str  # "hom-lie" | "lsa" | "bialgebra"
    description: str
    build: Callable[[], dict]
    aliases: tuple[str, ...] = ()


def _algebra_sections(make: Callable[[], HomLieAlgebra]) -> Callable[[], dict]:
    return lambda: {"algebra": make()}


def _lsa_sections(make: Callable[[], HomLeftSymmetric]) -> Callable[[], dict]:
    # each left-symmetric builtin ships T = id as its stock O-operator
    def build():
        p = make()
        return {"lsa": p, "ooperator": Matrix.identity(p.dim)}

    return build


def _bialgebra_sections(
    make: Callable[[], tuple[HomLieAlgebra, Cobracket]]
) -> Callable[[], dict]:
    def build():
        a, cb = make()
        return {"algebra": a, "cobracket": cb}

    return build


BUILTINS: tuple[Builtin, ...] = (
    Builtin(
        "abelian2",
        "hom-lie",
        "2-dim abelian, identity twist",
        _algebra_sections(abelian2),
    ),
    Builtin(
        "aff2",
        "hom-lie",
        "[e1,e2] = e1, identity twist",
        _algebra_sections(aff2),
    ),
    Builtin(
        "aff2phi",
        "hom-lie",
        "[e1,e2] = e1, twist e2 -> e2+e1; valid but not weakly involutive",
        _algebra_sections(aff2phi),
        aliases=("aff2φ",),
    ),
    Builtin(
        "aff2bad",
        "hom-lie",
        "[e1,e2] = e1, twist e1 -> 2e1; weak involutivity fails at (1,2)",
        _algebra_sections(aff2bad),
    ),
    Builtin(
        "heis3",
        "hom-lie",
        "Heisenberg [e1,e2] = e3, identity twist",
        _algebra_sections(heis3),
    ),
    Builtin(
        "sl2",
        "hom-lie",
        "[h,e] = 2e, [h,f] = -2f, [e,f] = h, identity twist",
        _algebra_sections(sl2),
    ),
    Builtin(
        "notjac3",
        "hom-lie",
        "[e1,e2] = e1, [e1,e3] = e3; Jacobi fails at (1,2,3)",
        _algebra_sections(notjac3),
    ),
    Builtin(
        "lsa2",
        "lsa",
        "left-symmetric e2.e2 = e1, identity twist; T = id attached",
        _lsa_sections(lsa2),
    ),
    Builtin(
        "lsa2psi",
        "lsa",
        "left-symmetric e2.e2 = e1, twist e2 -> e2+e1; T = id attached",
        _lsa_sections(lsa2psi),
        aliases=("lsa2ψ",),
    ),
    Builtin(
        "aff2-zero",
        "bialgebra",
        "aff2 with the zero cobracket",
        _bialgebra_sections(aff2_zero_bialgebra),
    ),
    Builtin(
        "aff2-triangular",
        "bialgebra",
        "aff2 with the cobracket induced by r = e1^e2",
        _bialgebra_sections(aff2_triangular_bialgebra),
    ),
)

_BY_NAME: dict[str, Builtin] = {}
for _b in BUILTINS:
    _BY_NAME[_b.name] = _b
    for _al in _b.aliases:
        _BY_NAME[_al] = _b


def lookup_builtin(name: str) -> Builtin:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(b.name for b in BUILTINS)
        raise KeyError(f"unknown builtin {name!r}; known: {known}") from None


def builtin_sections(name: str) -> dict:
    """Fresh domain objects for the named builtin, as a sections dict with
    keys among: algebra, lsa, ooperator, cobracket."""
    return lookup_builtin(name).build()
