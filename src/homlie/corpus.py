"""Built-in example structures, reproducible by name.

Every worked example in the test suite and CLI docs refers to one of
these. Each builtin is stored once, as the sections of a structure document
in the on-disk format (see structure_io), and the constructors below read
their part of its parse. Negative entries (notjac3, aff2bad) are
constructible on purpose: validation is a separate step, and the witnesses
they produce are pinned in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bialgebra import Cobracket
from .hom_lie import HomLieAlgebra
from .operators import HomLeftSymmetric
from .tensor import Matrix

# The sections are in the on-disk format. One with no dim of its own (a cobracket,
# a T) is written dense, so that beneath a document's sections of another size it
# is a parse error, not an array padded with zeros.
_ID2 = [["1", "0"], ["0", "1"]]
_ID3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
_SHEAR = [["1", "1"], ["0", "1"]]  # e1 -> e1, e2 -> e2 + e1

# [e1,e2] = e1
_AFF2 = {"dim": 2, "bracket": {"entries": [[1, 2, 1, "1"], [2, 1, 1, "-1"]]}, "twist": _ID2}
# e2.e2 = e1
_LSA2 = {"dim": 2, "product": {"entries": [[2, 2, 1, "1"]]}, "psi": _ID2}
# each left-symmetric builtin ships T = id as its stock O-operator
_T_ID = {"T": _ID2}


@dataclass(frozen=True)
class Builtin:
    name: str
    description: str
    sections: dict  # the sections of its structure document
    aliases: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        if "cobracket" in self.sections:
            return "bialgebra"
        return "lsa" if "lsa" in self.sections else "hom-lie"


BUILTINS: tuple[Builtin, ...] = (
    Builtin(
        "abelian2",
        "2-dim abelian, identity twist",
        {"algebra": {"dim": 2, "bracket": {"entries": []}, "twist": _ID2}},
    ),
    Builtin("aff2", "[e1,e2] = e1, identity twist", {"algebra": _AFF2}),
    Builtin(
        "aff2phi",
        "[e1,e2] = e1, twist e2 -> e2+e1; valid but not weakly involutive",
        {"algebra": {**_AFF2, "twist": _SHEAR}},
        aliases=("aff2φ",),
    ),
    Builtin(
        "aff2bad",
        "[e1,e2] = e1, twist e1 -> 2e1; weak involutivity fails at (1,2)",
        {"algebra": {**_AFF2, "twist": [["2", "0"], ["0", "1"]]}},
    ),
    Builtin(
        "heis3",
        "Heisenberg [e1,e2] = e3, identity twist",
        {"algebra": {"dim": 3, "bracket": {"entries": [[1, 2, 3, "1"], [2, 1, 3, "-1"]]}, "twist": _ID3}},
    ),
    Builtin(
        "sl2",
        "[h,e] = 2e, [h,f] = -2f, [e,f] = h, identity twist",
        {
            "algebra": {
                "dim": 3,
                "bracket": {
                    "entries": [
                        [1, 2, 2, "2"], [2, 1, 2, "-2"],
                        [1, 3, 3, "-2"], [3, 1, 3, "2"],
                        [2, 3, 1, "1"], [3, 2, 1, "-1"],
                    ]
                },
                "twist": _ID3,
            }
        },
    ),
    Builtin(
        "notjac3",
        "[e1,e2] = e1, [e1,e3] = e3; Jacobi fails at (1,2,3)",
        {
            "algebra": {
                "dim": 3,
                "bracket": {"entries": [[1, 2, 1, "1"], [2, 1, 1, "-1"], [1, 3, 3, "1"], [3, 1, 3, "-1"]]},
                "twist": _ID3,
            }
        },
    ),
    Builtin(
        "lsa2",
        "left-symmetric e2.e2 = e1, identity twist; T = id attached",
        {"lsa": _LSA2, "ooperator": _T_ID},
    ),
    Builtin(
        "lsa2psi",
        "left-symmetric e2.e2 = e1, twist e2 -> e2+e1; T = id attached",
        {"lsa": {**_LSA2, "psi": _SHEAR}, "ooperator": _T_ID},
        aliases=("lsa2ψ",),
    ),
    Builtin(
        "aff2-zero",
        "aff2 with the zero cobracket",
        {"algebra": _AFF2, "cobracket": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]},
    ),
    Builtin(
        "aff2-triangular",
        "aff2 with the cobracket induced by r = e1^e2",
        # delta(e1) = 0, delta(e2) = -e1^e2
        {"algebra": _AFF2, "cobracket": [[["0", "0"], ["0", "0"]], [["0", "-1"], ["1", "0"]]]},
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


def _read(builtin: str, name: str = ""):
    """The parse of the document that names the builtin, under the name if one is
    given and else under the builtin's."""
    from .structure_io import structure_from_doc  # which resolves builtins here

    return structure_from_doc({"version": 1, "builtin": builtin, "name": name})


def abelian2() -> HomLieAlgebra:
    """Two-dimensional abelian algebra, identity twist."""
    return _read("abelian2").algebra


def aff2() -> HomLieAlgebra:
    """[e1,e2] = e1, identity twist."""
    return _read("aff2").algebra


def aff2phi() -> HomLieAlgebra:
    """[e1,e2] = e1 with twist e1 -> e1, e2 -> e2 + e1.

    The twist is multiplicative, so this is a Hom-Lie algebra, but it is
    not weakly involutive: the bracket has trivial centralizer behaviour
    ([phi^2(e2), e2] = 2e1 != 0), and indeed no twist other than the
    identity can be weakly involutive here since the center is zero.
    """
    return _read("aff2phi").algebra


def aff2bad() -> HomLieAlgebra:
    """[e1,e2] = e1 with twist e1 -> 2e1, e2 -> e2.

    Valid as a Hom-Lie algebra; fails weak involutivity at (1,2) with
    residual [phi^2(e1), e2] - [e1, e2] = 3e1.
    """
    return _read("aff2bad").algebra


def heis3() -> HomLieAlgebra:
    """Heisenberg: [e1,e2] = e3, identity twist."""
    return _read("heis3").algebra


def sl2() -> HomLieAlgebra:
    """(h, e, f) = (e1, e2, e3): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return _read("sl2").algebra


def sl2_killing_gram() -> Matrix:
    """Killing-proportional invariant form for sl2: B(h,h)=2, B(e,f)=1."""
    return Matrix([[2, 0, 0], [0, 0, 1], [0, 1, 0]])


def notjac3() -> HomLieAlgebra:
    """[e1,e2] = e1, [e1,e3] = e3, identity twist.

    Skew and twist-multiplicative, but the Jacobi sum at (1,2,3) leaves
    the residual -e3, so validation fails there.
    """
    return _read("notjac3").algebra


def lsa2() -> HomLeftSymmetric:
    """Left-symmetric product e2.e2 = e1 with identity twist.

    The commutator algebra is abelian and the identity map is an
    O-operator for left multiplication.
    """
    return _read("lsa2").lsa


def lsa2psi() -> HomLeftSymmetric:
    """Same product as lsa2 with twist e1 -> e1, e2 -> e2 + e1."""
    return _read("lsa2psi").lsa


def aff2_zero_bialgebra() -> tuple[HomLieAlgebra, Cobracket]:
    """aff2 with the zero cobracket."""
    s = _read("aff2-zero", "aff2")
    return s.algebra, s.cobracket


def aff2_triangular_bialgebra() -> tuple[HomLieAlgebra, Cobracket]:
    """aff2 with delta(e1) = 0, delta(e2) = -e1^e2 (the cobracket that
    r = e1^e2 induces)."""
    s = _read("aff2-triangular", "aff2")
    return s.algebra, s.cobracket
