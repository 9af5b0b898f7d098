"""`homlie validate` and `homlie build` on generated documents: whatever the
input, the exit code is 0, 1 or 2 and no exception escapes main."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from homlie.cli import CHECK_ALIASES, CHECKS, CONSTRUCTIONS, main
from homlie.corpus import BUILTINS
from homlie.structure_io import builtin_structure

VALUES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, "1/2", "-3/4", "0"])
BAD_VALUES = st.sampled_from(["x", "1/0", None, 1.5, True, [], {}, "1/2/3"])


@st.composite
def arrays(draw, shape, bad):
    """A dense nested list of the given shape, or a sparse {"entries": ...} with
    1-based indices. When bad, a value may be malformed and a sparse index out of
    range or of the wrong length."""
    values = st.one_of(VALUES, BAD_VALUES) if bad else VALUES
    if draw(st.booleans()):
        def nested(dims):
            if not dims:
                return draw(values)
            return [nested(dims[1:]) for _ in range(dims[0])]

        return nested(shape)
    entries = {}
    for _ in range(draw(st.integers(0, 4))):
        key = [draw(st.integers(0, d + 1) if bad else st.integers(1, d)) for d in shape]
        if bad and draw(st.booleans()):
            key = key[:-1]
        # a repeated index is an error of its own, so only bad arrays repeat one
        entries[len(entries) if bad else tuple(key)] = [*key, draw(values)]
    return {"entries": list(entries.values())}


def _dim(draw, bad):
    """(declared dimension, dimension the arrays are drawn at)."""
    if bad and draw(st.booleans()):
        return draw(st.sampled_from([0, -1, "2", None, 4])), 2
    n = draw(st.integers(1, 3))
    return n, n


# the algebra dimension of each builtin, None for the lsa builtins
BUILTIN_DIMS = {b.name: getattr(builtin_structure(b.name).algebra, "dim", None) for b in BUILTINS}


@st.composite
def documents(draw):
    """A structure document of dimension 1 to 3, about one in five malformed,
    with sections sized to the algebra they sit on (a builtin's, when the
    document overlays one and has no algebra of its own)."""
    bad = draw(st.integers(0, 4)) == 4
    doc = {"version": draw(st.sampled_from([2, "1", None])) if bad and draw(st.booleans()) else 1}
    base_dim = None
    if draw(st.booleans()):
        doc["builtin"] = draw(st.sampled_from([*BUILTIN_DIMS] + (["nope", 7] if bad else [])))
        base_dim = BUILTIN_DIMS.get(doc["builtin"])
    if draw(st.integers(0, 3)) == 0:
        doc["name"] = draw(st.sampled_from(["mine", ""] + ([3] if bad else [])))
    n_decl, n = _dim(draw, bad)
    if base_dim is None or draw(st.integers(0, 2)) == 0:
        if draw(st.integers(0, 4)):
            doc["algebra"] = {
                "dim": n_decl,
                "bracket": draw(arrays((n, n, n), bad)),
                "twist": draw(arrays((n, n), bad)),
            }
    else:
        n = base_dim
    m = n
    if draw(st.integers(0, 2)) == 0:
        m_decl, m = _dim(draw, bad)
        doc["representation"] = {
            "carrier_dim": m_decl,
            "beta": draw(arrays((m, m), bad)),
            "action": [draw(arrays((m, m), bad)) for _ in range(n)],
        }
    if draw(st.integers(0, 2)) == 0:
        doc["cobracket"] = draw(arrays((n, n, n), bad))
    if draw(st.integers(0, 2)) == 0:
        doc["rmatrix"] = draw(arrays((n, n), bad))
    if draw(st.integers(0, 3)) == 0:
        k_decl, k = _dim(draw, bad)
        doc["lsa"] = {"dim": k_decl, "product": draw(arrays((k, k, k), bad)), "psi": draw(arrays((k, k), bad))}
        if "algebra" not in doc and base_dim is None:
            n = m = k
    if draw(st.integers(0, 2)) == 0:
        doc["ooperator"] = {"T": draw(arrays((n, m), bad))}
    if bad and draw(st.booleans()):
        doc[draw(st.sampled_from(["bogus", "Algebra"]))] = 1
    return doc


RMATRIX = st.one_of(
    st.none(),
    st.none(),
    st.none(),
    st.sampled_from(["e1^e2", "e1xe1", "1/2 e1^e2 - e2xe1", "2*e3xe1", "e1^e9", "e0xe1", "-e2^e1"]),
    st.sampled_from(["", "+", "e1^", "1/0 e1xe2", "e1 ^ e2 + + e2xe2", "x"]),
)
CHECK_TOKENS = st.sampled_from([*CHECKS, *CHECK_ALIASES, "no-such-check"])


def _exit_code(doc, command, *options) -> int:
    """main's exit code for the command on doc, written to a file, with options."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([*command, path, *options])


def _rmatrix_option(rmatrix) -> list:
    return [] if rmatrix is None else [f"--rmatrix={rmatrix}"]


@given(documents(), RMATRIX, CHECK_TOKENS)
@settings(max_examples=300, deadline=None)
def test_validate_exits_with_a_code_on_any_document(doc, rmatrix, check):
    assert _exit_code(doc, ["validate"], "--check", check, *_rmatrix_option(rmatrix)) in (0, 1, 2)


@given(documents(), st.sampled_from(list(CONSTRUCTIONS)), RMATRIX, st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_build_exits_with_a_code_on_any_document(doc, construction, rmatrix, adjoint, zero):
    options = [*_rmatrix_option(rmatrix), *(["--rep", "adjoint"] if adjoint else [])]
    options += ["--cobracket", "zero"] if zero else []
    assert _exit_code(doc, ["build", construction], *options) in (0, 1, 2)
