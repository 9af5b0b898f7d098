"""Exact-arithmetic Hom-Lie structures: build them, twist them, verify them.

Everything is finite-dimensional over the rationals, given by structure
constants, and every verdict is a CheckReport with an exact witness when
it fails. No floats anywhere.
"""

from .bialgebra import (
    Cobracket,
    HomLieBialgebra,
    MatchedPair,
    check_bialgebra_homomorphism,
    check_triple_equivalence,
    cobracket_from_bracket,
    dual_algebra,
    validate_bialgebra,
    validate_manin_triple,
    validate_matched_pair,
    zero_cobracket,
)
from .coboundary import (
    RMatrix,
    check_chybe,
    check_twist_compat,
    cobracket_from_r,
    form_from_invertible_r,
    hom_double,
    r_square_bracket,
    validate_coboundary,
)
from .hom_lie import (
    BilinearFormB,
    HomLieAlgebra,
    change_of_basis,
    check_invariant_form,
    direct_sum,
    invariant_form_space,
    is_weakly_involutive,
    validate_hom_lie,
)
from .operators import (
    HomLeftSymmetric,
    OOperatorCandidate,
    bialgebra_from_o_operator,
    commutator_hom_lie,
    left_mult_rep,
    r_from_o_operator,
    validate_hlsa,
    validate_o_operator,
    wedge_solutions,
)
from .report import CheckReport, InvalidStructureError, Witness
from .representation import (
    Representation,
    adjoint_rep,
    hom_dual_representation,
    is_weakly_involutive_rep,
    semidirect_product,
    validate_representation,
)
from .structure_io import (
    Structure,
    StructureParseError,
    builtin_structure,
    emit_structure,
    load_structure,
    parse_structure,
)
from .tensor import Matrix, Q, ShapeError, Tensor3, Vector

__version__ = "0.1.0"

__all__ = [
    "BilinearFormB",
    "CheckReport",
    "Cobracket",
    "HomLeftSymmetric",
    "HomLieAlgebra",
    "HomLieBialgebra",
    "InvalidStructureError",
    "MatchedPair",
    "Matrix",
    "OOperatorCandidate",
    "Q",
    "RMatrix",
    "Representation",
    "ShapeError",
    "Structure",
    "StructureParseError",
    "Tensor3",
    "Vector",
    "Witness",
    "adjoint_rep",
    "bialgebra_from_o_operator",
    "builtin_structure",
    "change_of_basis",
    "check_bialgebra_homomorphism",
    "check_chybe",
    "check_invariant_form",
    "check_triple_equivalence",
    "check_twist_compat",
    "cobracket_from_bracket",
    "cobracket_from_r",
    "commutator_hom_lie",
    "direct_sum",
    "dual_algebra",
    "emit_structure",
    "form_from_invertible_r",
    "hom_double",
    "hom_dual_representation",
    "invariant_form_space",
    "is_weakly_involutive",
    "is_weakly_involutive_rep",
    "left_mult_rep",
    "load_structure",
    "parse_structure",
    "r_from_o_operator",
    "r_square_bracket",
    "semidirect_product",
    "validate_bialgebra",
    "validate_coboundary",
    "validate_hlsa",
    "validate_hom_lie",
    "validate_manin_triple",
    "validate_matched_pair",
    "validate_o_operator",
    "validate_representation",
    "wedge_solutions",
    "zero_cobracket",
]
