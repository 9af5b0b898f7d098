"""The on-disk structure format: one JSON document per bundle.

A document needs "version": 1 and then any combination of sections:

    algebra        {dim, bracket (n x n x n), twist (n x n)}
    representation {carrier_dim, beta, action (one matrix per basis vector)}
    cobracket      n x n x n array, delta(e_k) = plane k
    rmatrix        n x n array
    lsa            {dim, product (m x m x m), psi (m x m)}
    ooperator      {"T": n x m array}, n x m by the representation (n the
                   algebra's dim, m the carrier's), else m x m by the lsa

plus an optional "name" and an optional "builtin" reference ("aff2" or
"builtin:aff2"). A builtin is itself stored as the sections of a document
(corpus.BUILTINS), and its sections are read as if they were written in the
document, beneath the document's own sections and at their dimensions: a
builtin section that does not fit them is a parse error that names it. A
missing or empty name is the builtin's. Scalars are rational strings "p/q" (or
"p"); bare JSON integers are accepted on input. Any dense array may instead be
written sparsely as {"entries": [[indices..., "p/q"], ...]} with 1-based
indices, matching the e1, e2, ... naming everywhere else; output is always dense.
A key that its object (the document, a section or a sparse array) does not
define is a parse error.

Each scalar is read as an integer pair (p, q), and each array is built straight
as its integer view over the LCM of the q, with no Fraction per entry. A numeral
longer than int() reads (sys.get_int_max_str_digits) is a parse error.

parse_structure(emit_structure(s)) == s exactly, including names, for every
structure whose numerals int() reads.

dump_json writes every JSON document homlie emits, in json.dumps's two-space layout.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from math import lcm

from .bialgebra import Cobracket, HomLieBialgebra
from .coboundary import RMatrix
from .corpus import lookup_builtin
from .hom_lie import HomLieAlgebra
from .operators import HomLeftSymmetric
from .representation import Representation
from .tensor import Array, Matrix, Sparse, dense


class StructureParseError(ValueError):
    """Bad structure document; .path points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@dataclass(frozen=True)
class Structure:
    """A parsed document: domain objects, ready for the check runners."""

    name: str = ""
    algebra: HomLieAlgebra | None = None
    representation: Representation | None = None
    cobracket: Cobracket | None = None
    rmatrix: RMatrix | None = None
    lsa: HomLeftSymmetric | None = None
    ooperator_t: Matrix | None = None

    @cached_property
    def bialgebra(self) -> HomLieBialgebra | None:
        """The algebra with the cobracket, as one bialgebra per structure, so that
        the bialgebra checks on a structure share its verdict and its double."""
        return None if self.cobracket is None else HomLieBialgebra(self.cobracket)


_RATIONAL = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")


def _parse_q(node, path: str) -> tuple[int, int]:
    """A scalar as an integer pair (p, q) with q > 0, not reduced."""
    if isinstance(node, int) and not isinstance(node, bool):
        return node, 1
    if not isinstance(node, str):
        raise StructureParseError(path, f"expected a rational string, got {node!r}")
    m = _RATIONAL.match(node)
    if not m:
        raise StructureParseError(path, f"not a rational: {node!r} (want 'p/q' or 'p')")
    p, q = m.groups()
    try:
        return int(p), int(q or 1)
    except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits)
        raise StructureParseError(path, f"numeral too long: {len(node)} characters") from None


def _require_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise StructureParseError(path, "expected an array")
    return node


def _known(node: dict, path: str, *fields: str) -> None:
    """Refuse the first key of the object at path that is not one of fields."""
    for key in node:
        if key not in fields:
            raise StructureParseError(f"{path}.{key}" if path else key, "unknown field")


def _sparse_entries(node, path: str, shape: tuple[int, ...]) -> dict:
    """The entries of the sparse array of this shape at node, (p, q) by index
    tuple, each checked as it is read."""
    _known(node, path, "entries")
    entries = _require_list(node.get("entries"), f"{path}.entries")
    rank, out = len(shape), {}
    for pos, row in enumerate(entries):
        here = f"{path}.entries[{pos}]"
        row = _require_list(row, here)
        if len(row) != rank + 1:
            raise StructureParseError(
                here, f"want {rank} indices plus a value, got {len(row)} items"
            )
        index = tuple(row[:rank])
        for x, d in zip(index, shape):
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise StructureParseError(here, "indices are 1-based integers")
            if x > d:
                raise StructureParseError(path, f"entry {index} outside " + " x ".join(map(str, shape)))
        val = _parse_q(row[rank], here)
        idx = tuple(x - 1 for x in index)
        if idx in out:
            raise StructureParseError(here, f"duplicate entry {index}")
        out[idx] = val
    return out


_LEVELS = {2: ("rows", "columns"), 3: ("planes", "rows", "entries")}


def _parse_array(node, path: str, shape: tuple[int, ...]) -> Array:
    """A dense or sparse matrix or order-3 array of exactly this shape, read
    straight into its integer view over the LCM of the scalars' denominators."""
    if isinstance(node, dict):
        entries = _sparse_entries(node, path, shape)
    else:
        entries = {}
        _parse_dense(node, path, shape, _LEVELS[len(shape)], entries)
    den = lcm(*(q for p, q in entries.values() if p))
    view = Sparse({key: p * (den // q) for key, (p, q) in entries.items() if p}, den)
    return dense(view, shape)


def _parse_dense(node, path: str, shape: tuple[int, ...], levels: tuple[str, ...], out: dict, key=()):
    """Parse the dense array at node into out, (p, q) by index tuple."""
    node = _require_list(node, path)
    if len(node) != shape[0]:
        raise StructureParseError(path, f"want {shape[0]} {levels[0]}, got {len(node)}")
    if len(shape) > 1:
        for i, x in enumerate(node):
            _parse_dense(x, f"{path}[{i}]", shape[1:], levels[1:], out, (*key, i))
        return
    for i, x in enumerate(node):
        if x != "0":  # the common zero needs no parse
            out[(*key, i)] = _parse_q(x, f"{path}[{i}]")


def _parse_dim(node, path: str) -> int:
    if not isinstance(node, int) or isinstance(node, bool) or node < 1:
        raise StructureParseError(path, "dimension must be a positive integer")
    return node


def parse_structure(text: str) -> Structure:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StructureParseError("", f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError:  # a bare integer with more digits than int() reads
        raise StructureParseError("", "a number in the document is too long to read") from None
    except RecursionError:
        raise StructureParseError("", "the document nests too deeply to read") from None
    return structure_from_doc(doc)


def structure_from_doc(doc) -> Structure:
    if not isinstance(doc, dict):
        raise StructureParseError("", "top level must be an object")
    if type(doc.get("version")) is not int or doc["version"] != 1:
        raise StructureParseError("version", "missing or unsupported (want 1)")
    _known(doc, "", "version", "name", "builtin", "algebra", "representation",
           "cobracket", "rmatrix", "lsa", "ooperator")

    name = doc.get("name", "")
    if not isinstance(name, str):
        raise StructureParseError("name", "must be a string")

    ref = doc.get("builtin")
    if ref is None:
        return _read_sections(doc, name)
    if not isinstance(ref, str):
        raise StructureParseError("builtin", "must be a string")
    try:
        entry = lookup_builtin(ref.removeprefix("builtin:"))
    except KeyError as e:
        raise StructureParseError("builtin", str(e.args[0])) from None
    # the builtin's sections, as if written in the document beneath its own
    return _read_sections({**entry.sections, **doc}, name or entry.name)


def _read_sections(doc: dict, name: str) -> Structure:
    """The sections of doc, each read at the dimensions of those it acts on."""
    algebra = None
    if "algebra" in doc:
        sec = doc["algebra"]
        if not isinstance(sec, dict):
            raise StructureParseError("algebra", "expected an object")
        _known(sec, "algebra", "dim", "bracket", "twist")
        n = _parse_dim(sec.get("dim"), "algebra.dim")
        bracket = _parse_array(sec.get("bracket"), "algebra.bracket", (n, n, n))
        twist = _parse_array(sec.get("twist"), "algebra.twist", (n, n))
        algebra = HomLieAlgebra(bracket, twist, name)

    representation = None
    if "representation" in doc:
        sec = doc["representation"]
        if not isinstance(sec, dict):
            raise StructureParseError("representation", "expected an object")
        _known(sec, "representation", "carrier_dim", "beta", "action")
        if algebra is None:
            raise StructureParseError(
                "representation", "needs an algebra section to act on"
            )
        m = _parse_dim(sec.get("carrier_dim"), "representation.carrier_dim")
        beta = _parse_array(sec.get("beta"), "representation.beta", (m, m))
        acts = _require_list(sec.get("action"), "representation.action")
        if len(acts) != algebra.dim:
            raise StructureParseError(
                "representation.action",
                f"want one matrix per basis vector ({algebra.dim}), "
                f"got {len(acts)}",
            )
        action = [
            _parse_array(a, f"representation.action[{i}]", (m, m))
            for i, a in enumerate(acts)
        ]
        representation = Representation(algebra, beta, action)

    cobracket = None
    if "cobracket" in doc:
        if algebra is None:
            raise StructureParseError("cobracket", "needs an algebra section")
        n = algebra.dim
        coeffs = _parse_array(doc["cobracket"], "cobracket", (n, n, n))
        cobracket = Cobracket(algebra, coeffs)

    rmatrix = None
    if "rmatrix" in doc:
        if algebra is None:
            raise StructureParseError("rmatrix", "needs an algebra section")
        n = algebra.dim
        rmatrix = RMatrix(algebra, _parse_array(doc["rmatrix"], "rmatrix", (n, n)))

    lsa = None
    if "lsa" in doc:
        sec = doc["lsa"]
        if not isinstance(sec, dict):
            raise StructureParseError("lsa", "expected an object")
        _known(sec, "lsa", "dim", "product", "psi")
        m = _parse_dim(sec.get("dim"), "lsa.dim")
        product = _parse_array(sec.get("product"), "lsa.product", (m, m, m))
        psi = _parse_array(sec.get("psi"), "lsa.psi", (m, m))
        lsa = HomLeftSymmetric(product, psi, name)

    ooperator_t = None
    if "ooperator" in doc:
        sec = doc["ooperator"]
        if not isinstance(sec, dict) or "T" not in sec:
            raise StructureParseError("ooperator", 'expected an object with "T"')
        _known(sec, "ooperator", "T")
        # T maps the carrier to the algebra that acts on it: the representation's,
        # or else the lsa's commutator algebra acting by left multiplication
        if representation is not None:
            nrows, ncols = representation.base.dim, representation.carrier_dim
        elif lsa is not None:
            nrows = ncols = lsa.dim
        else:
            raise StructureParseError(
                "ooperator", "needs a representation or an lsa section to act on"
            )
        ooperator_t = _parse_array(sec["T"], "ooperator.T", (nrows, ncols))

    return Structure(
        name=name,
        algebra=algebra,
        representation=representation,
        cobracket=cobracket,
        rmatrix=rmatrix,
        lsa=lsa,
        ooperator_t=ooperator_t,
    )


def structure_to_doc(s: Structure) -> dict:
    doc: dict = {"version": 1}
    if s.name:
        doc["name"] = s.name
    if s.algebra is not None:
        doc["algebra"] = {
            "dim": s.algebra.dim,
            "bracket": s.algebra.bracket.to_json(),
            "twist": s.algebra.twist.to_json(),
        }
    if s.representation is not None:
        doc["representation"] = {
            "carrier_dim": s.representation.carrier_dim,
            "beta": s.representation.beta.to_json(),
            "action": [a.to_json() for a in s.representation.action],
        }
    if s.cobracket is not None:
        doc["cobracket"] = s.cobracket.coeffs.to_json()
    if s.rmatrix is not None:
        doc["rmatrix"] = s.rmatrix.coeffs.to_json()
    if s.lsa is not None:
        doc["lsa"] = {
            "dim": s.lsa.dim,
            "product": s.lsa.product.to_json(),
            "psi": s.lsa.psi.to_json(),
        }
    if s.ooperator_t is not None:
        doc["ooperator"] = {"T": s.ooperator_t.to_json()}
    return doc


def emit_structure(s: Structure) -> str:
    return dump_json(structure_to_doc(s)) + "\n"


def dump_json(doc) -> str:
    """doc as json.dumps writes it with an indent of two spaces, byte for byte, but
    with every string escaped by the C encoder: json.dumps writes indented text
    only in pure Python. Keys must be strings; a value json cannot write raises
    TypeError, as in json.dumps."""
    return _dump(doc, "\n")


def _dump(x, nl: str) -> str:
    """x written at the indentation nl ends with (nl is a newline and the pad)."""
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = nl + "  "
        items = [_quote(v) if type(v) is str else _dump(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = nl + "  "
        items = [_quote(k) + ": " + (_quote(v) if type(v) is str else _dump(v, inner)) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return json.dumps(x)  # ints, floats, bools and None as json writes them


def load_structure(path: str) -> Structure:
    with open(path, encoding="utf-8") as f:
        return parse_structure(f.read())


def builtin_structure(name: str) -> Structure:
    """The named builtin, or the builtin of the alias, as a Structure whose parts carry
    the builtin's name. An unknown name is a KeyError."""
    entry = lookup_builtin(name)
    return _read_sections(entry.sections, entry.name)
