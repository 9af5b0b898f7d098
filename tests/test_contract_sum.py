"""contract_sum, the one kernel every identity is evaluated with: its operand
order comes from a cost model, a contraction read under several key orders is
computed once, and all terms of a residual are packed at one width. Checked here
against oracle_contract term by term, under every operand order, and on the
identities of the verify benchmark, whose passing checks must unpack nothing."""

import random
from fractions import Fraction as Q
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import tensor
from homlie.corpus import sl2, sl2_killing_gram
from homlie.hom_lie import BilinearFormB, change_of_basis, check_invariant_form, direct_sum, validate_hom_lie
from homlie.representation import adjoint_rep, validate_representation
from homlie.tensor import Matrix, Tensor3, Vector, contract, contract_sum, estimate, sparse

from oracles import oracle_contract

LETTERS = "ijkpq"


@st.composite
def specs(draw, max_operands=3):
    """(out, operand labels, sizes): one to max_operands operands, each with one to
    three distinct letters, and out some of their letters in some order."""
    labels = [
        "".join(draw(st.permutations(LETTERS))[: draw(st.integers(1, 3))])
        for _ in range(draw(st.integers(1, max_operands)))
    ]
    held = sorted(set("".join(labels)))
    out = "".join(draw(st.permutations(held))[: draw(st.integers(0, min(3, len(held))))])
    return out, labels, {l: draw(st.integers(1, 3)) for l in held}


@st.composite
def entries(draw, shape):
    """A sparse dict of rationals over this shape, numerators from tiny to large."""
    keys = list(product(*map(range, shape)))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys))) if keys else []
    value = st.builds(Q, st.sampled_from((-2**70, -7, -1, 1, 3, 2**40)), st.sampled_from((1, 2, 9, 10**6)))
    return {key: draw(value) for key in chosen}


def _operand(draw, labels, t, shape):
    """t as a dict, as an array (order 1 to 3), or as a packed result at its own
    width (the identity contraction of t, packed over its last index)."""
    form = draw(st.sampled_from(("dict", "array", "packed")))
    if form == "array" and 1 <= len(shape) <= 3:
        return _array_of(t, shape)
    if form == "packed":
        return contract(labels, (labels, t))
    return t


def _array_of(t, shape):
    def box(prefix, rest):
        return t.get(prefix, Q(0)) if not rest else [box((*prefix, i), rest[1:]) for i in range(rest[0])]

    return (Vector, Matrix, Tensor3)[len(shape) - 1](box((), shape))


def _rationals(s) -> dict:
    return {key: Q(v, s.den) for key, v in s.items()}


def _read(out, sizes, read, t) -> dict:
    """contract(out, (read, t)) by the oracle."""
    return oracle_contract(out, sizes, (read, t))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_contract_is_the_same_in_every_operand_order(data):
    out, labels, sizes = data.draw(specs())
    plain = [(l, data.draw(entries(tuple(sizes[x] for x in l)))) for l in labels]
    results = [contract(out, *(plain[p] for p in order)) for order in permutations(range(len(plain)))]
    first = results[0]
    for got in results[1:]:
        assert (got.den, dict(got)) == (first.den, dict(first))
    assert _rationals(first) == oracle_contract(out, sizes, *plain)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_contract_sum_is_the_sum_of_its_terms(data):
    out, _, _ = data.draw(specs())
    # a read permutes out's letters, so they share one extent
    n = data.draw(st.integers(1, 3))
    sizes = {l: n if l in out else data.draw(st.integers(1, 3)) for l in LETTERS}
    terms, want = [], {}
    for _ in range(data.draw(st.integers(1, 3))):
        # a term's operands hold every letter of out between them; a letter of out
        # in several operands is a batch letter
        labels = [
            "".join(data.draw(st.permutations(LETTERS))[: data.draw(st.integers(1, 3))])
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        labels[0] = "".join(dict.fromkeys(out + labels[0]))
        plain = [(l, data.draw(entries(tuple(sizes[x] for x in l)))) for l in labels]
        operands = [(l, _operand(data.draw, l, t, tuple(sizes[x] for x in l))) for l, t in plain]
        reads = [
            data.draw(st.sampled_from(("", "-"))) + "".join(data.draw(st.permutations(out)))
            for _ in range(data.draw(st.integers(0, 3)))
        ]
        c = data.draw(st.sampled_from((1, -1, 3)))
        terms.append((c, operands, *reads))
        t = oracle_contract(out, sizes, *plain)
        for read in reads or [out]:
            sign = -1 if read.startswith("-") else 1
            for key, v in _read(out, sizes, read.lstrip("-"), t).items():
                want[key] = want.get(key, Q(0)) + sign * c * v
    got = contract_sum(out, *terms)
    assert _rationals(got) == {key: v for key, v in want.items() if v}


def test_a_cyclic_sum_is_one_contraction():
    # the Hom-Jacobi residual reads one contraction under three key orders; all
    # three keep the last index, so it is contracted once
    rng = random.Random(3)
    n = 3
    c = {key: Q(rng.randint(-3, 3)) for key in product(range(n), repeat=3)}
    phi = {key: Q(rng.randint(-3, 3), 2) for key in product(range(n), repeat=2)}
    operands = [("pi", phi), ("pql", c), ("jkq", c)]
    _, _, (job,) = tensor._plan("ijkl", tuple((l, None) for l, _ in operands), ("ijkl", "jkil", "kijl"))
    assert len(job[-1]) == 3  # one keymap per read
    got = contract_sum("ijkl", (1, operands, "ijkl", "jkil", "kijl"))
    t = contract("ijkl", *operands)
    want = sparse(t) + contract("ijkl", ("jkil", t)) + contract("ijkl", ("kijl", t))
    assert got == want


# --- the planner ---------------------------------------------------------------

DIM = 6


def test_the_representation_bracket_term_starts_from_beta():
    # rho([e_i, e_j]) beta: written from the bracket, it costs a join over i, j, k,
    # r, t; started from beta, the bracket comes in last
    spec = ("ijk", "krt", "ts")
    sizes = ((DIM,) * 3, (DIM,) * 3, (DIM,) * 2)
    cost, order = estimate("ijrs", spec, sizes)
    assert cost < tensor._work("ijrs", spec, sizes, (0, 1, 2)) and order[-1] == 0


@pytest.mark.parametrize("spec", [("ij", "jk"), ("jk", "ij")])
def test_a_tie_keeps_the_written_order(spec):
    sizes = ((DIM, DIM), (DIM, DIM))
    assert tensor._work("ik", spec, sizes, (0, 1)) == tensor._work("ik", spec, sizes, (1, 0))
    assert estimate("ik", spec, sizes)[1] == (0, 1)


def test_the_estimate_is_a_function_of_the_spec_alone():
    # the same spec gives the same estimate, and contractions of different data
    # with the same spec and shapes work out no new plan
    spec, sizes = ("pi", "pql", "jkq"), ((DIM, DIM), (DIM,) * 3, (DIM,) * 3)
    assert estimate("ijkl", spec, sizes) == estimate("ijkl", spec, sizes)
    rng = random.Random(5)

    def operands():
        return [(l, _array_of({(0,) * len(l): Q(rng.randint(1, 9))}, (DIM,) * len(l))) for l in spec]

    contract("ijkl", *operands())
    misses = tensor._plan.cache_info().misses
    contract("ijkl", *operands())
    assert tensor._plan.cache_info().misses == misses


# --- the verify identities on a dense basis ------------------------------------


def _dense_sl2_sum():
    """sl2 (+) sl2 after a dense change of basis, with its transported Killing form."""
    a, gram = sl2(), sl2_killing_gram()
    a = direct_sum(a, a)
    gram = Matrix([[gram[i % 3, j % 3] if i // 3 == j // 3 else 0 for j in range(6)] for i in range(6)])
    rng = random.Random(1)
    lower = [[1 if i == j else (rng.choice((-1, 1)) if i > j else 0) for j in range(6)] for i in range(6)]
    p = Matrix(lower) @ Matrix(lower).transpose()
    return change_of_basis(a, p), p.transpose() @ gram @ p


def test_verify_checks_pass_on_a_dense_sl2_sum():
    a, gram = _dense_sl2_sum()
    assert validate_hom_lie(a).ok
    assert check_invariant_form(a, BilinearFormB(gram)).ok
    assert validate_representation(adjoint_rep(a)).ok
