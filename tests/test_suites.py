"""The three seeded suites: each draws its samples from random.Random(seed) and
evaluates them together, one stack with the sample index first. The report
must be the one a sample-by-sample run would give: the least failing sample,
and in it the first failing identity, with that identity's own witness."""

import random

import pytest

import homlie
from homlie import coboundary, operators, tensor
from homlie.coboundary import (
    RMatrix,
    ad_phi_on_tensor3,
    cobracket_from_r,
    cobracket_residual_identities,
    jac_delta,
    r_square_bracket,
    run_jacobiator_suite,
    run_residual_suite,
    skew_twist_compat_kernel,
)
from homlie.corpus import notjac3, sl2
from homlie.operators import run_defect_expansion_suite
from homlie.report import Witness
from homlie.representation import adjoint_rep
from homlie.tensor import Matrix, random_combination, random_matrix

SUITES = {
    "residual": lambda a, count: run_residual_suite(a, 1, count),
    "jacobiator": lambda a, count: run_jacobiator_suite(a, 1, count),
    "defect-expansion": lambda a, count: run_defect_expansion_suite(a, adjoint_rep(a), 1, count),
}


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("count", [0, -3])
def test_a_suite_with_no_samples_is_an_error(suite, count):
    with pytest.raises(ValueError, match="count >= 1"):
        SUITES[suite](sl2(), count)


@pytest.mark.parametrize("suite", SUITES)
def test_a_suite_makes_as_many_contractions_at_any_count(suite, monkeypatch):
    calls, contract = [], tensor.contract

    def counting(*args, **kwargs):
        calls.append(args[0])
        return contract(*args, **kwargs)

    modules = (tensor, homlie.hom_lie, homlie.representation, homlie.bialgebra, coboundary, operators)
    for module in modules:
        monkeypatch.setattr(module, "contract", counting)
    made = []
    for count in (4, 16):
        calls.clear()
        assert SUITES[suite](sl2(), count).info["count"] == count
        made.append(len(calls))
    assert made[0] == made[1]


def test_the_residual_suite_reports_the_least_failing_sample():
    a = notjac3()
    zero = Matrix.zero(a.dim)
    r_bad = random_matrix(random.Random(0), a.dim)  # the suite's first draw for seed 0
    first = run_residual_suite(a, 0, 1)
    assert not first.ok and first.info["case"] == 0

    rep = coboundary._residual_suite(a, 0, [zero, zero, r_bad])
    want = next(s for s in cobracket_residual_identities(RMatrix(a, r_bad)) if not s.ok)
    assert rep.info == {"seed": 0, "case": 2, "identity": want.checked_condition}
    assert rep.witnesses == want.witnesses == first.witnesses


def test_the_jacobiator_suite_reports_the_least_failing_sample():
    a = notjac3()
    zero = Matrix.zero(a.dim)
    kernel = skew_twist_compat_kernel(a)
    r_bad = random_combination(random.Random(0), kernel)  # the suite's first draw for seed 0
    first = run_jacobiator_suite(a, 0, 1)
    assert not first.ok and first.info["case"] == 0

    rep = coboundary._jacobiator_suite(a, 0, [zero, zero, r_bad], len(kernel))
    r = RMatrix(a, r_bad)
    cb, rr = cobracket_from_r(r), r_square_bracket(r)
    per_basis = [jac_delta(cb, k) - ad_phi_on_tensor3(a, a.basis(k), rr) for k in range(a.dim)]
    k = next(k for k, res in enumerate(per_basis) if not res.is_zero())
    assert rep.info == {"seed": 0, "case": 2, "kernel_dim": len(kernel)}
    assert rep.witnesses == (Witness((k + 1,), per_basis[k]),) == first.witnesses
