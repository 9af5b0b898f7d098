import json
from fractions import Fraction as Q

import pytest

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
from homlie.tensor import Matrix, Tensor3, Vector


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


def test_scan_returns_first_nonzero_case_with_note_and_info():
    cases = [
        ((1,), Q(0)),
        ((2,), Vector([0, 0])),
        ((3,), Matrix([[0, 2], [0, 0]]), "why"),
        ((4,), Q(5)),
    ]
    rep = scan("c", cases, skew=True)
    assert not rep.ok
    assert rep.witnesses == (Witness((3,), Matrix([[0, 2], [0, 0]]), "why"),)
    assert rep.info == {"skew": True}

    ok = scan("c", [((1,), Q(0)), ((1, 1, 1), Tensor3([[[Q(0)]]]))], skew=False)
    assert ok.ok and ok.witnesses == () and ok.info == {"skew": False}
    assert scan("c", []).ok


def test_scan_stops_at_the_witness():
    def cases():
        yield (1,), Q(0)
        yield (2,), Q(-1)
        raise AssertionError("scan pulled a case past the witness")

    rep = scan("c", cases())
    assert rep.witnesses[0].indices == (2,)
    assert rep.witnesses[0].residual == Q(-1)


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


def test_holds_fails_with_unit_residual_and_note():
    assert holds("agree", True, "unused") == passed("agree")
    rep = holds("agree", False, "verdicts differ")
    assert not rep.ok
    assert rep.witnesses == (Witness((0,), Q(1), "verdicts differ"),)
    assert rep.info == {}
