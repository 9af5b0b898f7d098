import dataclasses
import json
from pathlib import Path

import pytest

from homlie.cli import CHECKS, DEFAULT_CHECKS, main, parse_rmatrix_expr, UsageError
from homlie.structure_io import Structure, parse_structure
from homlie.tensor import Matrix, Q


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin_aff2(capsys):
    code, out, _ = run(capsys, "validate", "builtin:aff2", "--check", "hom-lie")
    assert code == 0
    assert "hom-lie: pass" in out


def test_validate_notjac3_fails_with_witness(capsys):
    code, out, _ = run(capsys, "validate", "builtin:notjac3", "--check", "hom-lie")
    assert code == 1
    assert "hom-lie: fail" in out
    assert "(1,2,3)" in out.replace(" ", "")


def test_validate_rmatrix_expression_chybe(capsys):
    code, out, _ = run(
        capsys, "validate", "builtin:aff2", "--rmatrix", "e1^e2", "--check", "chybe"
    )
    assert code == 0
    assert "chybe: pass" in out

    code, out, _ = run(
        capsys,
        "validate",
        "builtin:aff2",
        "--rmatrix",
        "e1 x e2 + e2 x e1",
        "--check",
        "chybe",
    )
    assert code == 1
    assert "chybe: fail" in out


def test_parse_rmatrix_expr_builds_as_many_fractions_at_any_dim(monkeypatch):
    from fractions import Fraction

    def built(dim):
        count = [0]
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            count[0] += 1
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        if "_from_coprime_ints" in vars(Fraction):  # arithmetic bypasses __new__ from 3.12
            real_coprime = Fraction._from_coprime_ints.__func__

            def counting_coprime(cls, *args):
                count[0] += 1
                return real_coprime(cls, *args)

            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
        r = parse_rmatrix_expr("e1^e2 - 1/2 e2xe3", dim)
        monkeypatch.undo()
        assert r.nrows == dim and r[0, 1] == 1 and r[1, 0] == -1 and r[1, 2] == Fraction(-1, 2)
        return count[0]

    assert built(400) == built(40)


def test_parse_rmatrix_expressions():
    assert parse_rmatrix_expr("e1^e2", 2) == Matrix([[0, 1], [-1, 0]])
    assert parse_rmatrix_expr("e1 x e2 + e2 x e1", 2) == Matrix([[0, 1], [1, 0]])
    assert parse_rmatrix_expr("1/2 e1xe1 - e2xe1", 2) == Matrix(
        [[Q(1, 2), 0], [-1, 0]]
    )
    assert parse_rmatrix_expr("2*e1^e2", 2) == Matrix([[0, 2], [-2, 0]])
    with pytest.raises(UsageError):
        parse_rmatrix_expr("e1*e2", 2)
    with pytest.raises(UsageError):
        parse_rmatrix_expr("e1^e3", 2)
    with pytest.raises(UsageError):
        parse_rmatrix_expr("", 2)


def test_default_checks_per_section(capsys):
    assert run(capsys, "validate", "builtin:aff2")[0] == 0
    assert run(capsys, "validate", "builtin:aff2-triangular")[0] == 0

    code, out, _ = run(capsys, "validate", "builtin:lsa2")
    assert code == 0
    assert "hom-left-symmetric: pass" in out
    assert "o-operator: pass" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "builtin:lsa2", "--check", "hom-lie"], "check 'hom-lie' needs an algebra section"),
        (["validate", "builtin:aff2", "--check", "lsa"], "check 'lsa' needs an lsa section"),
        (["validate", "builtin:aff2", "--check", "chybe"], "check 'chybe' needs an rmatrix section"),
        (["validate", "builtin:aff2", "--check", "o-operator"], "check 'o-operator' needs an ooperator section"),
        (["build", "dual", "builtin:lsa2"], "construction 'dual' needs an algebra section"),
        (["build", "hom-double", "builtin:aff2"], "construction 'hom-double' needs a cobracket section"),
    ],
)
def test_a_missing_section_is_named_with_its_check_or_construction(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_default_checks_follow_the_sections_of_a_structure():
    fields = [f.name for f in dataclasses.fields(Structure)]
    assert fields == ["name", *DEFAULT_CHECKS]
    assert set(DEFAULT_CHECKS.values()) <= set(CHECKS)


def test_validate_json_format(capsys):
    code, out, _ = run(
        capsys,
        "validate",
        "builtin:aff2",
        "--check",
        "hom-lie",
        "--check",
        "weakly-involutive",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "aff2"
    assert doc["verdict"] == "pass"
    assert [c["condition"] for c in doc["checks"]] == ["hom-lie", "weakly-involutive"]
    assert all(c["verdict"] == "pass" for c in doc["checks"])


def test_weakly_involutive_check_fails_on_aff2phi(capsys):
    code, out, _ = run(
        capsys, "validate", "builtin:aff2phi", "--check", "weakly-involutive"
    )
    assert code == 1
    assert "(2,2)" in out.replace(" ", "")


def test_alias_tokens(capsys):
    code, out, _ = run(capsys, "validate", "builtin:aff2", "--check", "lemma44")
    assert code == 0
    assert "residual-suite: pass\n  space_dim: 4\n" in out

    code, out, _ = run(capsys, "validate", "builtin:heis3", "--check", "lemma46")
    assert code == 0

    code, out, _ = run(capsys, "validate", "builtin:lsa2", "--check", "thm58")
    assert code == 0


def test_the_proofs_take_no_seed(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["validate", "builtin:aff2", "--check", "lemma44", "--seed", "5"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["validate", "--help"])
    assert "--seed" not in capsys.readouterr().out


def test_precondition_failure_exits_one(capsys):
    # the residual identities need a weakly involutive base; aff2phi is not
    code, out, err = run(
        capsys, "validate", "builtin:aff2phi", "--check", "cobracket-residuals"
    )
    assert code == 1
    assert "precondition" in out


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "validate", "builtin:aff2", "--check", "zzz")[0] == 2
    assert run(capsys, "validate", "builtin:zzz")[0] == 2
    assert run(capsys, "validate", "/no/such/file.json")[0] == 2
    assert run(capsys, "validate", "builtin:aff2", "--check", "o-operator")[0] == 2
    assert run(capsys, "validate", "builtin:aff2", "--check", "bialgebra")[0] == 2
    assert run(capsys, "validate", "builtin:lsa2", "--rmatrix", "e1^e2")[0] == 2


def test_zero_denominator_in_rmatrix_exits_two(capsys):
    code, _, err = run(capsys, "validate", "builtin:aff2", "--rmatrix", "1/0 e1^e2")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_duplicate_sparse_entry_exits_two(capsys, tmp_path):
    doc = {
        "version": 1,
        "algebra": {
            "dim": 2,
            "bracket": {"entries": [[1, 2, 1, "1"], [1, 2, 1, "5"], [2, 1, 1, "-1"]]},
            "twist": [["1", "0"], ["0", "1"]],
        },
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "algebra.bracket.entries[1]: duplicate entry (1, 2, 1)" in err
    assert "Traceback" not in err


def test_triple_equivalence_runs_once_per_validate(capsys, monkeypatch):
    import homlie.bialgebra

    calls = []
    real = homlie.bialgebra._triple_equivalence
    monkeypatch.setattr(
        homlie.bialgebra,
        "_triple_equivalence",
        lambda bi: calls.append(bi) or real(bi),
    )
    checks = ["matched-pair", "manin-triple", "triple-equivalence"]
    argv = ["validate", "builtin:aff2-zero"]
    for c in checks:
        argv += ["--check", c]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1
    for c in ("matched-pair-structure", "manin-triple", "triple-equivalence"):
        assert f"{c}: pass" in out


@pytest.mark.parametrize(
    "check, idle",
    [
        ("manin-triple", ("validate_matched_pair", "_bialgebra_verdict")),
        ("matched-pair", ("validate_manin_triple", "_bialgebra_verdict", "cobracket_compatibility")),
    ],
)
def test_a_triple_verdict_check_evaluates_only_its_verdict(check, idle, capsys, monkeypatch):
    """The manin-triple row reads V3 alone, and the matched-pair row V2 alone: it
    reads the two side verdicts it shares with the bialgebra verdict, but neither
    that verdict nor its cobracket compatibility, nor V3."""
    import homlie.bialgebra

    calls = []
    for helper in idle:
        real = getattr(homlie.bialgebra, helper)
        monkeypatch.setattr(
            homlie.bialgebra, helper, lambda *args, real=real, helper=helper: calls.append(helper) or real(*args)
        )
    code, out, _ = run(capsys, "validate", "builtin:aff2-triangular", "--check", check)
    assert code == 0 and calls == []
    assert out.startswith(f"{check.replace('matched-pair', 'matched-pair-structure')}: pass")


FIVE = ("bialgebra", "matched-pair", "manin-triple", "triple-equivalence", "hom-double")
# pinned outputs: `homlie build hom-double builtin:aff2-triangular`, and `validate
# --format json` with the FIVE checks on that builtin and on that build
GOLDEN = Path(__file__).parent / "golden"


def _five(structure: str) -> list[str]:
    argv = ["validate", structure, "--format", "json"]
    for c in FIVE:
        argv += ["--check", c]
    return argv


def test_bialgebra_checks_of_one_invocation_share_one_verdict_and_double(tmp_path, capsys, monkeypatch):
    import homlie.bialgebra

    calls = []
    # MatchedPair is called only to build the bialgebra's canonical pair
    helpers = ("_bialgebra_verdict", "MatchedPair", "double_bracket", "_triple_equivalence")
    for helper in helpers:
        real = getattr(homlie.bialgebra, helper)
        monkeypatch.setattr(
            homlie.bialgebra, helper, lambda *args, real=real, helper=helper: calls.append(helper) or real(*args)
        )
    # an input file and a build output, each validated twice in one process: the
    # second invocation counts the same again, so nothing is kept between them
    path = tmp_path / "double.json"
    path.write_text((GOLDEN / "aff2-triangular-double.json").read_text())
    for structure, golden in (
        ("builtin:aff2-triangular", "aff2-triangular.five.json"),
        (str(path), "aff2-triangular-double.five.json"),
    ):
        for _ in range(2):
            calls.clear()
            code, out, err = run(capsys, *_five(structure))
            assert (code, err) == (0, "")
            assert sorted(calls) == sorted(helpers)
            assert out == (GOLDEN / golden).read_text()


def test_the_five_bialgebra_checks_judge_each_side_once(capsys, monkeypatch):
    """The FIVE checks on one builtin evaluate validate_hom_lie three times (the
    algebra, its dual and the d-double), is_weakly_involutive twice (the two sides)
    and the cobracket compatibility once."""
    import homlie.bialgebra
    import homlie.coboundary

    calls = []
    for name in ("validate_hom_lie", "is_weakly_involutive", "cobracket_compatibility"):
        for module in (homlie.bialgebra, homlie.coboundary):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    code, _, err = run(capsys, *_five("builtin:aff2-triangular"))
    assert (code, err) == (0, "")
    counts = {name: calls.count(name) for name in set(calls)}
    assert counts == {"validate_hom_lie": 3, "is_weakly_involutive": 2, "cobracket_compatibility": 1}


def test_a_misspelled_field_exits_two(tmp_path, capsys):
    path = tmp_path / "twsit.json"
    path.write_text('{"version":1,"algebra":{"dim":1,"bracket":{"entries":[],"junk":3},"twist":[["1"]],"twsit":[["2"]]}}')
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: algebra.twsit: unknown field\n"


def test_build_hom_double_reads_the_cobracket_of_the_double(capsys, monkeypatch):
    import homlie.coboundary

    calls = []
    real = homlie.coboundary.cobracket_from_r
    monkeypatch.setattr(homlie.coboundary, "cobracket_from_r", lambda r: calls.append(r) or real(r))
    code, out, _ = run(capsys, "build", "hom-double", "builtin:aff2-triangular")
    assert code == 0
    assert len(calls) == 1
    assert out == (GOLDEN / "aff2-triangular-double.json").read_text()


def test_overlong_numerals_are_parse_errors(tmp_path, capsys):
    digits = "1" * 5000
    cases = {
        "dense": ('{"version":1,"algebra":{"dim":1,"bracket":[[["0"]]],"twist":[["%s"]]}}' % digits,
                  "algebra.twist[0][0]: numeral too long: 5000 characters"),
        "sparse": ('{"version":1,"algebra":{"dim":1,"bracket":{"entries":[[1,1,1,"1/%s"]]},"twist":[["1"]]}}' % digits,
                   "algebra.bracket.entries[0]: numeral too long: 5002 characters"),
        "bare": ('{"version":1,"algebra":{"dim":1,"bracket":[[[0]]],"twist":[[%s]]}}' % digits,
                 "a number in the document is too long to read"),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {message}\n"


def test_overlong_rmatrix_numerals_and_deep_nesting_exit_two(tmp_path, capsys):
    digits = "1" * 5000
    for expr in (f"{digits} e1^e2", f"e{digits}^e2"):
        code, out, err = run(capsys, "validate", "builtin:aff2", "--rmatrix", expr)
        assert (code, out) == (2, "")
        assert err == f"error: numeral too long in r-matrix term ({len(expr)} characters)\n"
    path = tmp_path / "deep.json"
    path.write_text('{"version": 1, "name": ' + "[" * 100000 + "]" * 100000 + "}")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: the document nests too deeply to read\n"


def test_witness_past_the_int_str_limit_renders_exactly(tmp_path, capsys):
    # aff2 with twist n id, n = 10^2999 + 1: phi[e1,e2] - [phi e1, phi e2] = (n - n^2) e1,
    # and n - n^2 = -(10^5998 + 10^2999) has 5999 digits
    n = "1" + "0" * 2998 + "1"
    residual = "-1" + "0" * 2998 + "1" + "0" * 2999
    doc = {
        "version": 1,
        "name": "wide",
        "algebra": {"dim": 2, "bracket": {"entries": [[1, 2, 1, "1"], [2, 1, 1, "-1"]]}, "twist": [[n, "0"], ["0", n]]},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))

    code, out, err = run(capsys, "validate", str(path), "--check", "hom-lie")
    assert (code, err) == (1, "")
    assert out == (
        "hom-lie: fail\n"
        f"  at (1, 2): residual ({residual}, 0)\n"
        "  bracket-skew: pass\n"
        "  twist-multiplicative: fail\n"
        f"    at (1, 2): residual ({residual}, 0)\n"
        "  hom-jacobi: pass\n"
    )

    code, out, err = run(capsys, "validate", str(path), "--check", "hom-lie", "--format", "json")
    assert (code, err) == (1, "")
    witness = [{"indices": [1, 2], "residual": [residual, "0"]}]
    expected = {
        "name": "wide",
        "verdict": "fail",
        "checks": [
            {
                "condition": "hom-lie",
                "verdict": "fail",
                "witnesses": witness,
                "subreports": [
                    {"condition": "bracket-skew", "verdict": "pass"},
                    {"condition": "twist-multiplicative", "verdict": "fail", "witnesses": witness},
                    {"condition": "hom-jacobi", "verdict": "pass"},
                ],
            }
        ],
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_bad_structure_file_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run(capsys, "validate", str(p))[0] == 2

    q = tmp_path / "noversion.json"
    q.write_text(json.dumps({"name": "x"}))
    assert run(capsys, "validate", str(q))[0] == 2


def test_unreadable_input_files_exit_two(tmp_path, capsys):
    """A directory and a file that is not UTF-8 are usage errors that name the
    path, under validate and build alike."""
    undecodable = tmp_path / "ff.json"
    undecodable.write_bytes(b"\xff")
    for path, message in (
        (tmp_path, f"error: cannot read {tmp_path}: "),
        (undecodable, f"error: {undecodable}: not UTF-8 text\n"),
    ):
        for argv in (("validate", str(path)), ("build", "hom-double", str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith(message) and err.endswith("\n") and "Traceback" not in err


def test_argparse_usage_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["build", "nonsense", "builtin:aff2"])
    assert exc.value.code == 2


def test_build_cobracket_emits_frozen_plane(capsys):
    code, out, _ = run(
        capsys, "build", "cobracket", "builtin:aff2", "--rmatrix", "e1^e2"
    )
    assert code == 0
    s = parse_structure(out)
    assert s.name == "aff2-cobracket"
    assert s.cobracket.delta(0).is_zero()
    assert s.cobracket.delta(1) == Matrix([[0, -1], [1, 0]])
    assert s.rmatrix.coeffs == Matrix([[0, 1], [-1, 0]])


def test_build_output_revalidates(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "cobracket", "builtin:aff2", "--rmatrix", "e1^e2")
    assert code == 0
    f = tmp_path / "cob.json"
    f.write_text(out)
    code, out2, _ = run(capsys, "validate", str(f))
    assert code == 0
    assert "bialgebra: pass" in out2


def test_build_hom_double(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "hom-double", "builtin:aff2-triangular")
    assert code == 0
    s = parse_structure(out)
    assert s.name == "aff2-triangular-double"
    assert s.algebra.dim == 4
    assert s.rmatrix is not None and s.cobracket is not None

    f = tmp_path / "double.json"
    f.write_text(out)
    code, out2, _ = run(
        capsys,
        "validate",
        str(f),
        "--check",
        "hom-lie",
        "--check",
        "weakly-involutive",
        "--check",
        "bialgebra",
        "--check",
        "chybe",
    )
    assert code == 0


def test_build_semidirect(capsys):
    code, out, _ = run(capsys, "build", "semidirect", "builtin:aff2", "--rep", "adjoint")
    assert code == 0
    s = parse_structure(out)
    assert s.algebra.dim == 4
    assert s.name == "aff2-semidirect"

    # without --rep and without a representation section: usage error
    assert run(capsys, "build", "semidirect", "builtin:aff2")[0] == 2


def test_build_dual(capsys):
    code, out, _ = run(
        capsys, "build", "dual", "builtin:aff2phi", "--cobracket", "zero"
    )
    assert code == 0
    s = parse_structure(out)
    assert s.algebra.bracket.is_zero()
    assert s.algebra.twist == Matrix([[1, 0], [1, 1]])

    code, out, _ = run(capsys, "build", "dual", "builtin:aff2-triangular")
    assert code == 0
    s = parse_structure(out)
    assert s.algebra.bracket_of(
        Matrix.identity(2).col(0), Matrix.identity(2).col(1)
    ).entries == (Q(0), Q(-1))


def test_build_commutator(capsys):
    code, out, _ = run(capsys, "build", "commutator", "builtin:lsa2psi")
    assert code == 0
    s = parse_structure(out)
    assert s.algebra.bracket.is_zero()
    assert s.algebra.twist == Matrix([[1, 1], [0, 1]])


def test_build_r_from_o(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "r-from-o", "builtin:lsa2")
    assert code == 0
    s = parse_structure(out)
    assert s.algebra.dim == 4
    assert s.rmatrix.coeffs == Matrix(
        [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    f = tmp_path / "r.json"
    f.write_text(out)
    code, out2, _ = run(capsys, "validate", str(f), "--check", "chybe")
    assert code == 0


def test_build_r_from_o_fails_when_not_an_operator(tmp_path, capsys):
    # aff2 + adjoint + T = id: the lift exists but [r,r] != 0, which the
    # build surfaces as... the report is still ok (expansion holds), so
    # the build succeeds and the chybe check on the output fails
    doc = {
        "version": 1,
        "name": "t-id",
        "builtin": "aff2",
        "representation": {
            "carrier_dim": 2,
            "beta": [["1", "0"], ["0", "1"]],
            "action": [
                [["0", "1"], ["0", "0"]],
                [["-1", "0"], ["0", "0"]],
            ],
        },
        "ooperator": {"T": [["1", "0"], ["0", "1"]]},
    }
    f = tmp_path / "tid.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "build", "r-from-o", str(f))
    assert code == 0
    g = tmp_path / "out.json"
    g.write_text(out)
    assert run(capsys, "validate", str(g), "--check", "chybe")[0] == 1
    # and the o-operator check on the input fails with the defect witness
    code, out2, _ = run(capsys, "validate", str(f), "--check", "o-operator")
    assert code == 1
    assert "(1,2)" in out2.replace(" ", "")


def test_o_operator_checks_act_with_the_lsa_beside_an_algebra(tmp_path, capsys):
    # an algebra of dim 1 and the lsa e2.e2 = e1 of dim 2: the lsa acts on T
    algebra = {"dim": 1, "bracket": {"entries": []}, "twist": [["1"]]}
    lsa = {"dim": 2, "product": {"entries": [[2, 2, 1, "1"]]}, "psi": [["1", "0"], ["0", "1"]]}
    f = tmp_path / "lsa.json"
    t = {"T": [["1", "0"], ["0", "1"]]}
    f.write_text(json.dumps({"version": 1, "algebra": algebra, "lsa": lsa, "ooperator": t}))
    code, out, _ = run(capsys, "validate", str(f), "--check", "o-operator")
    assert (code, out.splitlines()[0]) == (0, "o-operator: pass")
    g = tmp_path / "bare.json"
    g.write_text(json.dumps({"version": 1, "algebra": algebra, "ooperator": {"T": [["1"]]}}))
    code, out, err = run(capsys, "validate", str(g), "--check", "o-operator")
    assert (code, out) == (2, "")
    assert "ooperator: needs a representation or an lsa section to act on" in err


@pytest.mark.parametrize("checks", [[], ["--check", "lsa"]], ids=["default", "lsa"])
def test_a_builtin_section_that_does_not_fit_is_a_parse_error(tmp_path, capsys, checks):
    """lsa2's T = id is 2 x 2, and beneath a 1-dim lsa it fits nothing: the document
    is refused whatever is checked, so no parsed document fails to read back."""
    empty = {"entries": []}
    doc = {"version": 1, "builtin": "lsa2", "lsa": {"dim": 1, "product": empty, "psi": empty}}
    f = tmp_path / "misfit.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(f), *checks)
    assert (code, out) == (2, "")
    assert err == f"error: {f}: ooperator.T: want 1 rows, got 2\n"


def test_corpus_listing(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "aff2phi" in out
    assert "alias aff2φ" in out
    assert "lsa2psi" in out
    assert "[bialgebra]" in out

    code, out, _ = run(capsys, "corpus", "--json")
    assert code == 0
    doc = json.loads(out)
    names = {b["name"] for b in doc}
    assert {"abelian2", "aff2", "sl2", "lsa2", "aff2-zero"} <= names
    entry = next(b for b in doc if b["name"] == "aff2phi")
    assert entry["kind"] == "hom-lie"
    assert entry["aliases"] == ["aff2φ"]


def test_validate_builtin_bialgebras_full_stack(capsys):
    for name in ("aff2-zero", "aff2-triangular"):
        code, out, _ = run(
            capsys,
            "validate",
            f"builtin:{name}",
            "--check",
            "bialgebra",
            "--check",
            "matched-pair",
            "--check",
            "manin-triple",
            "--check",
            "triple-equivalence",
            "--check",
            "hom-double",
        )
        assert code == 0, out


def test_json_outputs_never_reach_the_pure_python_encoder(capsys, monkeypatch):
    """json.dumps with an indent builds its pure-Python encoder each call; the CLI's
    three JSON outputs must never need it."""

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    checks = ("bialgebra", "matched-pair", "manin-triple", "triple-equivalence", "hom-double")
    five = [x for c in checks for x in ("--check", c)]
    for argv in (
        ["build", "hom-double", "builtin:aff2-triangular"],
        ["validate", "builtin:aff2-triangular", "--format", "json", *five],
        ["corpus", "--json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)


def test_validate_unicode_builtin_alias(capsys):
    code, _, _ = run(capsys, "validate", "builtin:aff2φ", "--check", "hom-lie")
    assert code == 0


def test_order3_witnesses_print_as_numbers(capsys):
    code, out, _ = run(capsys, "validate", "builtin:notjac3", "--check", "jacobiator-bracket")
    assert code == 1
    assert (
        "at (3): residual [[0 0 0; 0 0 1; 0 -1 0], [0 0 -1; 0 0 0; 1 0 0], "
        "[0 1 0; -1 0 0; 0 0 0]]\n  case: (1, 1)\n  kernel_dim: 3\n"
    ) in out

    code, out, _ = run(
        capsys, "validate", "builtin:aff2", "--rmatrix=-e1xe1 + e1xe2 - e2xe1", "--check", "coboundary"
    )
    assert code == 1
    assert "adjoint-kills-r-square: fail\n    at (2): residual [[-6 0; 0 0], [0 0; 0 0]]" in out


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("name, verdict", [("sl2", 0), ("notjac3", 1)])
def test_closed_stdout_keeps_the_verdict_exit_code(monkeypatch, capsys, name, verdict):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(["validate", f"builtin:{name}", "--format", "json"]) == verdict
    assert capsys.readouterr().err == ""
