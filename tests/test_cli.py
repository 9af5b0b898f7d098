import json

import pytest

from homlie.cli import main, parse_rmatrix_expr, UsageError
from homlie.structure_io import parse_structure
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
    code, out, _ = run(
        capsys, "validate", "builtin:aff2", "--check", "lemma44", "--seed", "5"
    )
    assert code == 0
    assert "residual-suite: pass" in out

    code, out, _ = run(capsys, "validate", "builtin:heis3", "--check", "lemma46")
    assert code == 0

    code, out, _ = run(capsys, "validate", "builtin:lsa2", "--check", "thm58")
    assert code == 0


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


def test_triple_equivalence_runs_once_per_validate(capsys, monkeypatch):
    import homlie.cli

    calls = []
    real = homlie.cli.check_triple_equivalence
    monkeypatch.setattr(
        homlie.cli,
        "check_triple_equivalence",
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


def test_bad_structure_file_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run(capsys, "validate", str(p))[0] == 2

    q = tmp_path / "noversion.json"
    q.write_text(json.dumps({"name": "x"}))
    assert run(capsys, "validate", str(q))[0] == 2


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


def test_validate_unicode_builtin_alias(capsys):
    code, _, _ = run(capsys, "validate", "builtin:aff2φ", "--check", "hom-lie")
    assert code == 0
