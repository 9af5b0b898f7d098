import json
from fractions import Fraction as Q

import pytest

from homlie.corpus import sl2
from homlie.hom_lie import BilinearFormB, check_invariant_form
from homlie.report import (
    CheckReport,
    InvalidStructureError,
    Witness,
    combined,
    failed,
    holds,
    passed,
    require,
    scan,
)
from homlie.tensor import Matrix, Tensor3, Vector, sparse


def test_failing_report_requires_a_witness():
    with pytest.raises(ValueError):
        CheckReport("x", False)
    # a failing subreport satisfies the invariant too
    sub = failed("inner", [Witness((1,), Q(2))])
    CheckReport("x", False, subreports=(sub,))


def test_verdict_and_first_witness():
    rep = failed("c", [Witness((1, 2), Vector([0, 1]))])
    assert rep.verdict == "fail"
    assert rep.first_witness().indices == (1, 2)
    assert passed("c").verdict == "pass"
    assert passed("c").first_witness() is None


def test_combined_hoists_first_failure():
    good = passed("a")
    bad = failed("b", [Witness((3,), Q(-1), "note")])
    rep = combined("outer", [good, bad], extra=7)
    assert not rep.ok
    assert rep.witnesses[0].indices == (3,)
    assert rep.info == {"extra": 7}
    assert [s.checked_condition for s in rep.subreports] == ["a", "b"]

    assert combined("outer", [good, passed("b")]).ok


def test_witness_str_and_render():
    w = Witness((1, 2), Q(3, 2), "why")
    assert str(w) == "at (1, 2): residual 3/2  [why]"
    rep = combined("outer", [failed("inner", [w])])
    text = rep.render()
    assert "outer: fail" in text
    assert "  inner: fail" in text.splitlines()[2]


def test_to_json_shapes():
    w = Witness((2,), Matrix([[0, 1], [0, 0]]))
    rep = combined("outer", [failed("inner", [w])], flag=True)
    doc = rep.to_json()
    assert doc["condition"] == "outer"
    assert doc["verdict"] == "fail"
    assert doc["info"] == {"flag": True}
    assert doc["subreports"][0]["witnesses"][0]["residual"] == [["0", "1"], ["0", "0"]]
    json.dumps(doc)  # must be serializable as-is

    t = Tensor3([[[Q(1)]]])
    doc2 = failed("t", [Witness((1, 1, 1), t)]).to_json()
    json.dumps(doc2)


def test_require_raises_with_report_attached():
    rep = failed("gate", [Witness((1,), Q(1))])
    with pytest.raises(InvalidStructureError) as exc:
        require(rep, "precondition broke")
    assert exc.value.report is rep
    assert "precondition broke" in str(exc.value)
    assert "gate: fail" in str(exc.value)

    require(passed("gate"), "never raised")


def test_scan_fails_at_the_least_nonzero_prefix_with_note_and_info():
    t = {(1, 0, 2): Q(3), (0, 2, 1): Q(-1), (0, 2, 0): Q(0), (2, 0, 0): Q(5)}
    rep = scan("c", t, (3, 3, 3), 2, "why", skew=True)
    assert not rep.ok
    assert rep.witnesses == (Witness((1, 3), Vector([0, -1, 0]), "why"),)
    assert rep.info == {"skew": True}
    assert scan("c", t, (3, 3, 3), 3).witnesses == (Witness((1, 3, 2), Q(-1)),)
    assert scan("c", t, (3, 3, 3), 1).witnesses == (Witness((1,), Matrix([[0] * 3, [0] * 3, [0, -1, 0]])),)

    ok = scan("c", {(0, 0): Q(0)}, (2, 2), 2, "unused", skew=False)
    assert ok.ok and ok.witnesses == () and ok.info == {"skew": False}
    assert scan("c", Tensor3([[[Q(0)]]]), nscan=3).ok


def test_scan_at_depth_zero_names_the_whole_residual_at_0():
    m = Matrix([[0, 2], [0, 0]])
    assert scan("c", m) == failed("c", [Witness((0,), m)])
    assert scan("c", m, note="why").witnesses == (Witness((0,), m, "why"),)
    assert scan("c", Matrix.zero(2)) == passed("c")


def test_scan_takes_the_shape_of_an_array_and_needs_it_otherwise():
    m = Matrix([[0, 0], [Q(1, 3), 2]])
    assert scan("c", m, nscan=1).witnesses == (Witness((2,), Vector([Q(1, 3), 2])),)
    assert scan("c", sparse(m), (2, 2), 2) == scan("c", m, nscan=2)
    assert scan("c", {(1, 0): Q(1, 3)}, (2, 2), 2).witnesses == (Witness((2, 1), Q(1, 3)),)


def test_scan_of_a_fraction_over_the_empty_shape():
    assert scan("c", Q(-3, 4), ()) == failed("c", [Witness((0,), Q(-3, 4))])
    assert scan("c", Q(0), (), note="unused").ok


def test_renamed_keeps_everything_but_the_name():
    sub = failed("inner", [Witness((1,), Q(2))])
    rep = combined("outer", [sub, passed("other")], flag=3)
    new = rep.renamed("tag")
    assert new.checked_condition == "tag"
    assert (new.ok, new.witnesses, new.info, new.subreports) == (
        rep.ok,
        rep.witnesses,
        rep.info,
        rep.subreports,
    )
    assert passed("x", k=1).renamed("y") == passed("y", k=1)


def test_renamed_puts_the_given_info_before_the_reports_own():
    rep = failed("inner", [Witness((1,), Q(2))], flag=3)
    new = rep.renamed("tag", precondition="refused", flag=0)
    assert list(new.info.items()) == [("precondition", "refused"), ("flag", 3)]
    assert (new.checked_condition, new.witnesses) == ("tag", rep.witnesses)
    assert rep.info == {"flag": 3}


def test_holds_fails_with_unit_residual_and_note():
    assert holds("agree", True, "unused") == passed("agree")
    rep = holds("agree", False, "verdicts differ")
    assert not rep.ok
    assert rep.witnesses == (Witness((0,), Q(1), "verdicts differ"),)
    assert rep.info == {}


def test_a_scalar_witness_is_a_rational_string_in_json():
    """The identity form scaled by 1/3 on sl2 breaks invariance by a scalar: the
    JSON renders it as "p/q"."""
    report = check_invariant_form(sl2(), BilinearFormB(Matrix.identity(3).scale(Q(1, 3))))
    assert report.witnesses[0].residual == Q(2, 3)
    assert report.to_json()["witnesses"] == [{"indices": [2, 2, 1], "residual": "2/3"}]
