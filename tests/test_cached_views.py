"""Each array keeps the integer view sparse() returns, and that view is shared by
every contraction it enters. No construction or validator may change it: after
the constructions and validators run on the builtins and on seeded dense changes
of basis, the view of every input array must still equal a fresh scan of its
entries, and validating again must give the same report."""

import dataclasses
import random
from math import lcm

import pytest

from homlie.bialgebra import (
    HomLieBialgebra,
    check_triple_equivalence,
    d_double,
    validate_bialgebra,
    validate_manin_triple,
    validate_matched_pair,
    zero_cobracket,
)
from homlie.coboundary import (
    RMatrix,
    check_chybe,
    check_twist_compat,
    hom_double,
    skew_twist_compat_kernel,
    validate_coboundary,
)
from homlie.corpus import BUILTINS
from homlie.hom_lie import (
    BilinearFormB,
    change_of_basis,
    check_invariant_form,
    direct_sum,
    invariant_form_space,
    is_weakly_involutive,
    validate_hom_lie,
)
from homlie.operators import (
    OOperatorCandidate,
    intertwining_t_space,
    left_mult_rep,
    r_from_o_operator,
    validate_hlsa,
    validate_o_operator,
)
from homlie.report import InvalidStructureError
from homlie.representation import (
    adjoint_rep,
    hom_dual_exists,
    is_weakly_involutive_rep,
    semidirect_product,
    validate_representation,
)
from homlie.structure_io import builtin_structure
from homlie.tensor import Array, ShapeError, sparse

from sampling import random_combination, random_matrix


def _arrays(x, found: dict) -> dict:
    """Every array reachable from x through dataclass fields and sequences."""
    if isinstance(x, Array):
        found[id(x)] = x
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            _arrays(getattr(x, f.name), found)
    elif isinstance(x, (tuple, list)):
        for sub in x:
            _arrays(sub, found)
    return found


def _fresh_scan(x: Array) -> tuple[dict, int]:
    """The nonzero entries by index tuple, scaled by the LCM of their denominators."""
    entries = {}

    def walk(sub, key):
        if len(key) == x.order:
            if sub:
                entries[key] = sub
        else:
            for i, y in enumerate(sub):
                walk(y, (*key, i))

    walk(x.entries, ())
    den = lcm(*(v.denominator for v in entries.values()))
    return {key: v.numerator * (den // v.denominator) for key, v in entries.items()}, den


def _attempt(f, *args):
    """Run a construction or validator whose preconditions may not hold."""
    try:
        return f(*args)
    except (InvalidStructureError, ShapeError):
        return None


def _exercise(a, rng, lsa=None):
    """The constructions and validators on a, its adjoint representation, its
    zero bialgebra, a twist-compatible skew r, an intertwining T, and lsa."""
    inputs = [a]
    rep = adjoint_rep(a)
    bi = HomLieBialgebra(zero_cobracket(a))
    gram = random_matrix(rng, a.dim)
    inputs += [rep, bi, gram]
    kernel = skew_twist_compat_kernel(a)
    r = RMatrix(a, random_combination(rng, kernel) if kernel else random_matrix(rng, a.dim))
    ts = intertwining_t_space(a, rep)
    cand = OOperatorCandidate(a, rep, random_combination(rng, ts) if ts else gram)
    inputs += [r, cand]
    calls = [
        (direct_sum, a, a),
        (semidirect_product, rep),
        (invariant_form_space, a),
        (validate_hom_lie, a),
        (is_weakly_involutive, a),
        (check_invariant_form, a, BilinearFormB(gram)),
        (validate_representation, rep),
        (is_weakly_involutive_rep, rep),
        (hom_dual_exists, rep),
        (validate_bialgebra, bi),
        (check_triple_equivalence, bi),
        (hom_double, bi),
        (validate_matched_pair, bi.matched_pair),
        (validate_manin_triple, d_double(bi), a.dim),
        (validate_coboundary, a, r),
        (check_chybe, r),
        (check_twist_compat, r),
        (validate_o_operator, cand),
        (r_from_o_operator, cand),
    ]
    if lsa is not None:
        inputs.append(lsa)
        lrep = left_mult_rep(lsa)
        lcand = OOperatorCandidate(lrep.base, lrep, lrep.beta @ lrep.beta)
        inputs += [lrep, lcand]
        calls += [
            (validate_hlsa, lsa),
            (is_weakly_involutive_rep, lrep),
            (validate_o_operator, lcand),
            (r_from_o_operator, lcand),
        ]
    return inputs, calls


def _cases():
    rng = random.Random(8)
    for b in BUILTINS:
        s = builtin_structure(b.name)
        lsa = s.lsa
        a = s.algebra if lsa is None else left_mult_rep(lsa).base
        while True:
            p = random_matrix(rng, a.dim)
            if p.det() != 0:
                break
        yield pytest.param(a, lsa, id=b.name)
        yield pytest.param(change_of_basis(a, p), None, id=f"{b.name}-dense")


@pytest.mark.parametrize("a, lsa", _cases())
def test_constructions_and_validators_leave_every_view_as_scanned(a, lsa):
    rng = random.Random(a.dim)
    inputs, calls = _exercise(a, rng, lsa)
    arrays = _arrays(inputs, {})
    views = {key: sparse(x) for key, x in arrays.items()}
    first = validate_hom_lie(a)
    for f, *args in calls:
        _attempt(f, *args)
    for key, x in arrays.items():
        view = sparse(x)
        assert view is views[key]
        assert (dict(view), view.den) == _fresh_scan(x)
    again = validate_hom_lie(a)
    assert again == first and again.to_json() == first.to_json()
