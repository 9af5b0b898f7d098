"""contract_sum, the one kernel every identity is evaluated with: its operand
order comes from a cost model, each term runs a loop nest compiled once per
distinct source, a contraction read under several key orders is computed once,
and all terms of a residual are packed at one width. Checked here against
oracle_contract term by term, under every operand order (chosen by the cost model
or forced), and on the identities of the verify benchmark, whose passing checks
must unpack nothing."""

import random
import re
from fractions import Fraction as Q
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import cli, tensor
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


class _Counted(tensor.Sparse):
    """A Sparse that counts the passes over its entries."""

    def items(self):
        self.passes = getattr(self, "passes", 0) + 1
        return super().items()


def test_a_cyclic_sum_is_one_contraction():
    # the Hom-Jacobi residual reads one contraction under three key orders; all
    # three keep the last index, so it is contracted once: one job, packed over
    # the operand that holds l as that operand is read, three loops that read the
    # job's result, and one pass over each operand's entries
    rng = random.Random(3)
    n = 3
    c = {key: Q(rng.randint(-3, 3)) for key in product(range(n), repeat=3)}
    phi = {key: Q(rng.randint(-3, 3), 2) for key in product(range(n), repeat=2)}
    operands = [("pi", phi), ("pql", c), ("jkq", c)]
    source = tensor._source("ijkl", tuple((l, None) for l, _ in operands), ("ijkl", "jkil", "kijl"))
    loops = source.split("for key, v in ")[1:]
    assert [loop[:5] for loop in loops if "<< width" in loop] == ["xs[1]"]
    assert source.count("for a, v in acc.items():") == 3
    counted = [(l, _Counted(sparse(x), sparse(x).den)) for l, x in operands]
    got = contract_sum("ijkl", (1, counted, "ijkl", "jkil", "kijl"))
    assert [x.passes for _, x in counted] == [1, 1, 1]
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
    # with the same spec and shapes work out no new plan and compile nothing
    spec, sizes = ("pi", "pql", "jkq"), ((DIM, DIM), (DIM,) * 3, (DIM,) * 3)
    assert estimate("ijkl", spec, sizes) == estimate("ijkl", spec, sizes)
    rng = random.Random(5)

    def operands():
        return [(l, _array_of({(0,) * len(l): Q(rng.randint(1, 9))}, (DIM,) * len(l))) for l in spec]

    contract("ijkl", *operands())
    misses = tensor._plan.cache_info().misses, tensor._compiled.cache_info().misses
    contract("ijkl", *operands())
    assert (tensor._plan.cache_info().misses, tensor._compiled.cache_info().misses) == misses


# --- the compiled kernels --------------------------------------------------------


@pytest.fixture
def fresh_plans():
    """Empty plan and kernel caches, emptied again afterwards, so that no plan made
    under a patched estimate outlives the test."""
    tensor._plan.cache_clear()
    tensor._compiled.cache_clear()
    yield
    tensor._plan.cache_clear()
    tensor._compiled.cache_clear()


SHAPES = {
    "lane first": re.compile(r"acc\[k\] = aget\(k, 0\) \+ \(v << width"),
    "lane at a join": re.compile(r"(g\[r\] = g\.get\(r, 0\) \+|right\[s\] = rget\(s, 0\) \+|g \+=) \(v << width"),
    "re-keyed first": re.compile(r"acc = \{\}"),
    "read packed at its last index": re.compile(r"\((f \* v|v \* [wg]) << width \* (a|key)\["),
    "list groups": re.compile(r"g = \[\(|g\.append\("),
    "first read as is": re.compile(r"acc = xs\[\d\]"),
    "fused write": re.compile(r"v \*= f"),
}
JOINS = {"lane first", "lane at a join"}

# (out, terms as (c, operand labels, reads), the SHAPES that the operand orders of
# the terms must compile to between them)
FORCED = [
    ("ik", [(1, ("ij", "jk"), ())], JOINS | {"first read as is", "list groups", "fused write"}),
    ("ijl", [(1, ("pi", "pql", "qj"), ())], JOINS | {"list groups"}),
    # m is summed within one operand: a re-keyed first operand, or summed groups
    ("ik", [(1, ("ijm", "jk"), ())], JOINS | {"re-keyed first"}),
    # the second term's "ikj" job puts j, held by both operands, last
    ("ijk", [(3, ("ij", "jk"), ()), (-2, ("ijk", "ij"), ("ijk", "-ikj"))],
     JOINS | {"read packed at its last index"}),
    # the first term's job has no lane, and packs at its writes
    ("ij", [(1, ("ij", "ij"), ()), (2, ("ik", "kj"), ("ji",))], JOINS | {"read packed at its last index"}),
    # no operand alone holds j, so the only job has no lane and packs at its writes
    ("ij", [(1, ("ij", "ij"), ())], {"first read as is", "fused write", "read packed at its last index"}),
    # groups with no shared index, one of them a sum over two letters
    ("ijl", [(1, ("i", "jl", "km"), ())], JOINS | {"list groups"}),
    ("", [(1, ("ij", "ji"), ())], {"fused write"}),
]


@pytest.mark.parametrize("case", range(len(FORCED)))
def test_every_operand_order_compiles_to_a_kernel_that_matches_the_oracle(case, fresh_plans, monkeypatch):
    out, shape, shapes = FORCED[case]
    rng = random.Random(case)
    sizes = {l: rng.randint(2, 3) for l in "ijklmpq"}
    sizes.update(dict.fromkeys(out, 3))  # a read permutes out's letters
    terms = [(c, [(l, _random_entries(rng, tuple(sizes[x] for x in l))) for l in labels], reads)
             for c, labels, reads in shape]
    want: dict = {}
    for c, plain, reads in terms:
        t = oracle_contract(out, sizes, *plain)
        for read in reads or [out]:
            sign = -1 if read.startswith("-") else 1
            for key, v in _read(out, sizes, read.lstrip("-"), t).items():
                want[key] = want.get(key, Q(0)) + sign * c * v
    want = {key: v for key, v in want.items() if v}
    orders = {n: list(permutations(range(n))) for n in (1, 2, 3)}
    seen = set()
    for pick in range(6):
        forced = {n: o[pick % len(o)] for n, o in orders.items()}
        monkeypatch.setattr(tensor, "estimate", lambda out, specs, sizes, forced=forced: (0, forced[len(specs)]))
        tensor._plan.cache_clear()
        got = contract_sum(out, *((c, plain, *reads) for c, plain, reads in terms))
        assert _rationals(got) == want
        for c, plain, reads in terms:
            source = tensor._source(out, tuple((l, None) for l, _ in plain), tuple(reads))
            seen |= {name for name, marker in SHAPES.items() if marker.search(source)}
    assert seen >= shapes


def _random_entries(rng, shape) -> dict:
    """Seeded rationals of both signs at about two thirds of the keys of shape, and
    at two of them at least, so that a sum over one operand has two terms."""
    keys = list(product(*map(range, shape)))
    chosen = [key for key in keys if rng.random() < 0.7]
    if len(chosen) < 2:
        chosen = rng.sample(keys, min(2, len(keys)))
    return {key: Q(rng.choice((-5, -1, 1, 2, 7)), rng.choice((1, 2, 3))) for key in chosen}


def test_specs_that_differ_only_in_extents_compile_once(fresh_plans):
    for n in (2, 3, 5):
        x = Matrix([[Q(i - j) for j in range(n)] for i in range(n)])
        contract("ik", ("ij", x), ("jk", x))
    kernel = tensor._plan("ik", (("ij", None), ("jk", None)), ())
    assert tensor._plan.cache_info().misses == 4 and tensor._compiled.cache_info().misses == 1
    assert kernel is tensor._plan("ik", (("ij", (2, 2)), ("jk", (2, 2))), ())


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_no_kernel_source_holds_a_label_letter(data):
    # the source is made of positions and fixed names: relabelled with letters
    # that no name of it holds, a spec compiles to the same text
    out, labels, sizes = data.draw(specs())
    reads = tuple(
        data.draw(st.sampled_from(("", "-"))) + "".join(data.draw(st.permutations(out)))
        for _ in range(data.draw(st.integers(0, 2)))
    )
    spec = tuple((l, data.draw(st.none() | st.just(tuple(sizes[x] for x in l)))) for l in labels)
    greek = str.maketrans(LETTERS, "αβγδε")
    moved = tuple((l.translate(greek), shape) for l, shape in spec)
    source = tensor._source(out, spec, reads)
    assert source == tensor._source(out.translate(greek), moved, tuple(r.translate(greek) for r in reads))
    assert not set(source) & set("αβγδε\"'")


def test_a_cold_validation_compiles_a_bounded_number_of_kernels(fresh_plans, capsys):
    # one in-process validate of the bialgebra checks from empty caches: a change
    # that compiles per plan, not per distinct source, or that multiplies the
    # distinct sources, fails here
    checks = ("bialgebra", "triple-equivalence", "hom-double")
    assert cli.main(["validate", "builtin:aff2-triangular", *(f"--check={c}" for c in checks)]) == 0
    assert tensor._compiled.cache_info().misses <= 30


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
