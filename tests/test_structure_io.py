import fractions
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homlie.corpus import BUILTINS, lookup_builtin
from homlie.structure_io import (
    StructureParseError,
    builtin_structure,
    dump_json,
    emit_structure,
    parse_structure,
)
from homlie.tensor import Matrix, Q, dense, sparse

from test_cli_fuzz import documents
from test_cli_matrix import MATRIX, _run

ALL_NAMES = [b.name for b in BUILTINS]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_round_trip_every_builtin(name):
    s = builtin_structure(name)
    assert parse_structure(emit_structure(s)) == s


def test_emitted_document_shape():
    text = emit_structure(builtin_structure("aff2"))
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["version"] == 1
    assert doc["name"] == "aff2"
    assert list(doc) == ["version", "name", "algebra"]
    assert doc["algebra"]["dim"] == 2
    assert doc["algebra"]["bracket"][0][1][0] == "1"
    assert doc["algebra"]["twist"] == [["1", "0"], ["0", "1"]]


def test_lsa_builtin_carries_identity_t():
    s = builtin_structure("lsa2")
    assert s.lsa is not None
    assert s.ooperator_t == Matrix.identity(2)


def test_bialgebra_builtin_has_cobracket():
    s = builtin_structure("aff2-triangular")
    assert s.algebra is not None and s.cobracket is not None
    assert s.cobracket.coeffs[1, 0, 1] == Q(-1)
    assert s.cobracket.coeffs[1, 1, 0] == Q(1)


def test_builtin_aliases_resolve():
    assert lookup_builtin("aff2φ").name == "aff2phi"
    assert lookup_builtin("lsa2ψ").name == "lsa2psi"
    with pytest.raises(KeyError):
        lookup_builtin("nope")


def test_parse_dense_document():
    doc = {
        "version": 1,
        "name": "custom",
        "algebra": {
            "dim": 2,
            "bracket": [
                [["0", "0"], ["1", "0"]],
                [["-1", "0"], ["0", "0"]],
            ],
            "twist": [[1, 0], [0, "1/1"]],
        },
    }
    s = parse_structure(json.dumps(doc))
    assert s.name == "custom"
    assert s.algebra.label == "custom"
    assert s.algebra.bracket[0, 1, 0] == Q(1)
    assert s.algebra.twist == Matrix.identity(2)


def test_parse_sparse_document():
    doc = {
        "version": 1,
        "algebra": {
            "dim": 3,
            "bracket": {"entries": [[1, 2, 3, "1"], [2, 1, 3, "-1"]]},
            "twist": {"entries": [[1, 1, "1"], [2, 2, "1"], [3, 3, "1/2"]]},
        },
    }
    s = parse_structure(json.dumps(doc))
    assert s.algebra.bracket[0, 1, 2] == Q(1)
    assert s.algebra.bracket[1, 0, 2] == Q(-1)
    assert s.algebra.twist[2, 2] == Q(1, 2)
    # everything else zero
    assert s.algebra.bracket[0, 0, 0] == 0


def test_builtin_overlay_attaches_rmatrix():
    doc = {
        "version": 1,
        "builtin": "aff2",
        "rmatrix": [["0", "1"], ["-1", "0"]],
    }
    s = parse_structure(json.dumps(doc))
    assert s.algebra is not None
    assert s.rmatrix is not None
    assert s.rmatrix.base is s.algebra
    assert s.rmatrix.coeffs == Matrix([[0, 1], [-1, 0]])


def test_builtin_prefix_form_and_rename():
    doc = {"version": 1, "builtin": "builtin:aff2", "name": "mine"}
    s = parse_structure(json.dumps(doc))
    assert s.name == "mine"
    assert s.algebra.label == "mine"
    assert s.algebra.bracket == builtin_structure("aff2").algebra.bracket


def test_overlay_replacing_algebra_rebuilds_dependents():
    base = builtin_structure("aff2-triangular")
    doc = json.loads(emit_structure(base))
    # same dimension, different bracket: cobracket carries over
    doc["algebra"] = {
        "dim": 2,
        "bracket": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
        "twist": [["1", "0"], ["0", "1"]],
    }
    doc["builtin"] = "aff2-triangular"
    del doc["cobracket"]
    s = parse_structure(json.dumps(doc))
    assert s.algebra.bracket.is_zero()
    assert s.cobracket is not None
    assert s.cobracket.base is s.algebra


def test_overlay_with_wrong_dimension_is_a_parse_error():
    doc = {
        "version": 1,
        "builtin": "aff2-triangular",
        "algebra": {
            "dim": 3,
            "bracket": {"entries": []},
            "twist": {"entries": [[1, 1, "1"], [2, 2, "1"], [3, 3, "1"]]},
        },
    }
    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps(doc))
    assert str(exc.value) == "cobracket: want 3 planes, got 2"


def test_parse_errors():
    with pytest.raises(StructureParseError) as exc:
        parse_structure("{not json")
    assert "line 1" in str(exc.value)

    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps({"name": "x"}))
    assert exc.value.path == "version"

    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps({"version": 1, "extra": 3}))
    assert exc.value.path == "extra"

    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps({"version": 1, "builtin": "zzz"}))
    assert exc.value.path == "builtin"


@pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
def test_the_version_is_the_integer_one(version):
    """A version equal to 1 that is not the int 1 is unsupported, as bools are no
    dimensions or numerals either."""
    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps({"version": version}))
    assert str(exc.value) == "version: missing or unsupported (want 1)"


def test_duplicate_sparse_entry_is_a_parse_error():
    doc = {
        "version": 1,
        "algebra": {
            "dim": 2,
            "bracket": {"entries": [[1, 2, 1, "1"], [1, 2, 1, "5"], [2, 1, 1, "-1"]]},
            "twist": {"entries": [[1, 1, "1"], [2, 2, "1"], [2, 2, "1"]]},
        },
    }
    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps(doc))
    assert exc.value.path == "algebra.bracket.entries[1]"
    assert "duplicate entry (1, 2, 1)" in str(exc.value)

    doc["algebra"]["bracket"]["entries"].pop(1)
    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps(doc))
    assert exc.value.path == "algebra.twist.entries[2]"
    assert "duplicate entry (2, 2)" in str(exc.value)


def test_bad_scalars_and_shapes():
    base = {
        "version": 1,
        "algebra": {
            "dim": 2,
            "bracket": {"entries": []},
            "twist": [["1", "0"], ["0", "1"]],
        },
    }
    bad = json.loads(json.dumps(base))
    bad["algebra"]["twist"][0][0] = "1/0"
    with pytest.raises(StructureParseError):
        parse_structure(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    bad["algebra"]["twist"][0] = ["1"]
    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps(bad))
    assert "twist" in exc.value.path

    bad = json.loads(json.dumps(base))
    bad["algebra"]["twist"] = {"entries": [[3, 1, "1"]]}
    with pytest.raises(StructureParseError):
        parse_structure(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    bad["algebra"]["twist"][0][0] = 1.5
    with pytest.raises(StructureParseError):
        parse_structure(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    bad["algebra"]["twist"][0][0] = True
    with pytest.raises(StructureParseError):
        parse_structure(json.dumps(bad))


def test_sections_requiring_an_algebra():
    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps({"version": 1, "rmatrix": [["0"]]}))
    assert exc.value.path == "rmatrix"

    with pytest.raises(StructureParseError) as exc:
        parse_structure(
            json.dumps(
                {
                    "version": 1,
                    "representation": {"carrier_dim": 1, "beta": [["1"]], "action": []},
                }
            )
        )
    assert exc.value.path == "representation"

    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps({"version": 1, "ooperator": {"T": [["1"]]}}))
    assert exc.value.path == "ooperator"


# an algebra of dim 1 beside the lsa e2.e2 = e1 of dim 2, which acts on T
ALGEBRA_1 = {"dim": 1, "bracket": {"entries": []}, "twist": [["1"]]}
LSA_2 = {"dim": 2, "product": {"entries": [[2, 2, 1, "1"]]}, "psi": [["1", "0"], ["0", "1"]]}


def test_ooperator_is_sized_by_the_lsa_without_a_representation():
    t = {"T": [["1", "0"], ["0", "1"]]}
    doc = {"version": 1, "algebra": ALGEBRA_1, "lsa": LSA_2, "ooperator": t}
    s = parse_structure(json.dumps(doc))
    assert s.ooperator_t == Matrix.identity(2)
    assert parse_structure(emit_structure(s)) == s
    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps(dict(doc, ooperator={"T": [["1"]]})))
    assert exc.value.path == "ooperator.T"


def test_ooperator_with_nothing_to_act_on_is_refused():
    doc = {"version": 1, "algebra": ALGEBRA_1, "ooperator": {"T": [["1"]]}}
    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps(doc))
    assert exc.value.path == "ooperator"
    assert "needs a representation or an lsa section to act on" in str(exc.value)


REP_1 = {"carrier_dim": 1, "beta": [["1"]], "action": [[["0"]]]}
T_2 = {"T": [["1", "0"], ["0", "1"]]}
UNKNOWN_FIELDS = [
    # (a valid document, the keys down to one of its objects, and the path of the
    # error once a key that object does not define is added to it)
    ({"version": 1, "algebra": ALGEBRA_1}, (), "junk"),
    ({"version": 1, "algebra": ALGEBRA_1}, ("algebra",), "algebra.twsit"),
    ({"version": 1, "algebra": ALGEBRA_1, "representation": REP_1}, ("representation",), "representation.acton"),
    ({"version": 1, "lsa": LSA_2}, ("lsa",), "lsa.psy"),
    ({"version": 1, "lsa": LSA_2, "ooperator": T_2}, ("ooperator",), "ooperator.t"),
    ({"version": 1, "algebra": ALGEBRA_1}, ("algebra", "bracket"), "algebra.bracket.junk"),
    ({"version": 1, "algebra": ALGEBRA_1, "rmatrix": {"entries": []}}, ("rmatrix",), "rmatrix.entires"),
    (
        {"version": 1, "algebra": ALGEBRA_1, "representation": dict(REP_1, action=[{"entries": []}])},
        ("representation", "action", 0),
        "representation.action[0].x",
    ),
]


@pytest.mark.parametrize("doc, keys, path", UNKNOWN_FIELDS, ids=[path for *_, path in UNKNOWN_FIELDS])
def test_a_key_its_object_does_not_define_is_refused(doc, keys, path):
    parse_structure(json.dumps(doc))
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in keys:
        node = node[key]
    node[path.rsplit(".", 1)[-1]] = 0
    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps(doc))
    assert (exc.value.path, str(exc.value)) == (path, f"{path}: unknown field")


def test_representation_action_count_checked():
    doc = {
        "version": 1,
        "builtin": "aff2",
        "representation": {
            "carrier_dim": 1,
            "beta": [["1"]],
            "action": [[["0"]]],
        },
    }
    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps(doc))
    assert "one matrix per basis vector" in str(exc.value)


def test_full_bundle_round_trip():
    doc = {
        "version": 1,
        "name": "bundle",
        "builtin": "aff2",
        "representation": {
            "carrier_dim": 2,
            "beta": [["1", "0"], ["0", "1"]],
            "action": [
                [["0", "1"], ["0", "0"]],
                [["-1", "0"], ["0", "0"]],
            ],
        },
        "rmatrix": [["0", "1"], ["-1", "0"]],
        "ooperator": {"T": [["1", "0"], ["0", "1"]]},
    }
    s = parse_structure(json.dumps(doc))
    assert s.representation is not None and s.ooperator_t is not None
    assert parse_structure(emit_structure(s)) == s


SHAPE_ERRORS = [
    # (where the bad value goes, the bad value, path of the error, its message)
    ("bracket", [[["0", "0"], ["0", "0"]]], "algebra.bracket", "want 2 planes, got 1"),
    ("bracket", [[["0", "0"]], [["0", "0"], ["0", "0"]]], "algebra.bracket[0]", "want 2 rows, got 1"),
    (
        "bracket",
        [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0", "0"]]],
        "algebra.bracket[1][1]",
        "want 2 entries, got 3",
    ),
    ("twist", [["1", "0"]], "algebra.twist", "want 2 rows, got 1"),
    ("twist", [["1", "0"], ["0"]], "algebra.twist[1]", "want 2 columns, got 1"),
    ("twist", {"entries": [[1, 3, "1"]]}, "algebra.twist", "entry (1, 3) outside 2 x 2"),
    (
        "bracket",
        {"entries": [[1, 2, 3, "1"]]},
        "algebra.bracket",
        "entry (1, 2, 3) outside 2 x 2 x 2",
    ),
    # of two faults, the first in reading order is named
    ("twist", {"entries": [[1, 3, "1"], [1, 1, "x"]]}, "algebra.twist", "entry (1, 3) outside 2 x 2"),
]


@pytest.mark.parametrize("field, value, path, message", SHAPE_ERRORS)
def test_shape_errors_name_the_field_and_the_count(field, value, path, message):
    doc = {
        "version": 1,
        "algebra": {"dim": 2, "bracket": {"entries": []}, "twist": [["1", "0"], ["0", "1"]]},
    }
    doc["algebra"][field] = value
    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps(doc))
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: {message}"


# Scalars as a document may write them: bare ints, and strings with a sign, leading
# zeros, a denominator or none, in lowest terms or not.
NUMERALS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.sampled_from(["2/4", "-0", "+3", "007", "0", "-0/3", "+10/15", "-6/8"]),
    st.builds(
        lambda sign, num, den: f"{sign}{num}/{den}" if den else f"{sign}{num}",
        st.sampled_from(["", "+", "-"]),
        st.text("0123456789", min_size=1, max_size=4),
        st.integers(0, 60),
    ),
)


@st.composite
def written(draw, shape):
    """An array of numerals of this shape, dense or sparse as a document writes it,
    and its cells by index tuple (the zeros a sparse array leaves out are absent)."""
    cells = {}

    def nested(key):
        if len(key) == len(shape):
            cells[key] = draw(NUMERALS)
            return cells[key]
        return [nested((*key, i)) for i in range(shape[len(key)])]

    node = nested(())
    if draw(st.booleans()):
        cells = {key: x for key, x in cells.items() if draw(st.booleans())}
        node = {"entries": [[*(i + 1 for i in key), x] for key, x in cells.items()]}
    return node, cells


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reader_matches_the_fraction_path(data):
    """Each scalar read as an integer pair is the array the Fraction of each scalar
    gave, with the same integer view."""
    n = data.draw(st.integers(1, 3))
    bracket, bracket_cells = data.draw(written((n,) * 3))
    twist, twist_cells = data.draw(written((n, n)))
    doc = {"version": 1, "algebra": {"dim": n, "bracket": bracket, "twist": twist}}
    a = parse_structure(json.dumps(doc)).algebra
    for got, cells, shape in ((a.bracket, bracket_cells, (n,) * 3), (a.twist, twist_cells, (n, n))):
        old = dense({key: Fraction(x) for key, x in cells.items()}, shape)
        assert got == old
        assert sparse(got).den == sparse(old).den
        assert dict(sparse(got)) == dict(sparse(old))


@pytest.mark.parametrize(
    "twist, path",
    [
        ([["1", "0"], ["0", "1/-2"]], "algebra.twist[1][1]"),
        ({"entries": [[1, 1, "1"], [2, 2, "-1/-2"]]}, "algebra.twist.entries[1]"),
        ([["1", "0"], ["0", "1/02"]], "algebra.twist[1][1]"),
    ],
)
def test_reader_refuses_signed_and_padded_denominators(twist, path):
    doc = {"version": 1, "algebra": {"dim": 2, "bracket": {"entries": []}, "twist": twist}}
    with pytest.raises(StructureParseError) as exc:
        parse_structure(json.dumps(doc))
    assert exc.value.path == path
    assert "not a rational" in str(exc.value)


def test_parsing_a_dense_document_builds_no_fraction(monkeypatch):
    doc = {
        "version": 1,
        "algebra": {
            "dim": 2,
            "bracket": [[["0", "0"], ["1", "0"]], [["-1", "0"], ["0", "0"]]],
            "twist": [["2/4", "-3/4"], ["0", "+7"]],
        },
        "cobracket": [[["0", "1/3"], ["-1/3", "0"]], [["0", "0"], ["0", "0"]]],
        "rmatrix": [["0", "5/6"], ["-5/6", "0"]],
    }
    text = json.dumps(doc)
    calls = []
    real = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    s = parse_structure(text)
    assert calls == []
    monkeypatch.undo()
    assert s.algebra.twist == Matrix([[Q(1, 2), Q(-3, 4)], [0, 7]])
    assert s.rmatrix.coeffs == Matrix([[0, Q(5, 6)], [Q(-5, 6), 0]])


# Strings that need every kind of escape json writes: quote, backslash, control
# characters, DEL, non-ASCII (a surrogate pair too) and the line separator U+2028.
TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\n\x1f\x7f/é\u2028😀'), st.characters(max_codepoint=0x7E)),
    max_size=6,
)
# "p/q" strings, as Array.to_json writes them, and printable ASCII that may need
# an escape all the same, for leaf lists to mix
SAFE = st.sampled_from(["0", "1", "-1/2", "22/7", ""])
PRINTABLE = st.text(st.sampled_from('"\\/ -0123456789~'), max_size=4)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    TEXT,
    SAFE,
)
DOCS = st.recursive(
    SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.one_of(TEXT, SAFE), kids, max_size=4),
        st.lists(st.one_of(SAFE, PRINTABLE, TEXT), max_size=5),
        st.lists(SAFE, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=250, deadline=None)
@given(DOCS)
def test_dump_json_writes_what_json_dumps_writes(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [object(), {"a": [1, {2j}]}, [Fraction(1, 2)], ["0", b"1"], {(1, 2): "0"}, {"a": [None, object()]}],
    ids=["object", "complex", "fraction", "bytes", "tuple-key", "nested-object"],
)
def test_dump_json_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        dump_json(doc)


def test_dump_json_takes_string_keys_only():
    with pytest.raises(TypeError):
        dump_json({1: "0"})


# Neither test below meets a numeral past sys.get_int_max_str_digits() digits: the
# value pool of test_cli_fuzz has none, nor does any builtin or its builds. None may
# be added, since the reader refuses such a numeral (CI pins exit 2 for a 5000-digit
# one) though format_q writes it exactly; reading long numerals back waits for a
# budget that bounds their length (ROADMAP items 3 and 4).
@settings(max_examples=150, deadline=None)
@given(documents())
def test_parse_of_emit_is_the_structure(doc):
    try:
        s = parse_structure(json.dumps(doc))
    except StructureParseError:
        assume(False)
    assert parse_structure(emit_structure(s)) == s


def test_emit_of_parse_is_every_build_output():
    """Each successful build of the golden matrix (every construction on every
    builtin, with and without its flag) emits a document that reads back to the
    same text."""
    argvs = [
        e["argv"]
        for e in json.loads(MATRIX.read_text())
        if e["argv"][0] == "build" and "|" not in e["argv"] and e["code"] == 0
    ]
    assert len(argvs) == 35
    for argv in argvs:
        code, out, _ = _run(argv)
        assert code == 0 and emit_structure(parse_structure(out)) == out, argv
