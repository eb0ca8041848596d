"""JSON documents, CSV tables, and spec-file parsing.

Output side: ``dumps_report`` writes a report's JSON straight from its result
objects, in one walk, and ``dumps_csv`` and ``dumps_pretty`` flatten the same
objects to key, value rows in another.  Each value's JSON writer and rows rule
are chosen by its class alone, once per class (``_rule`` over the one table
``_RULES``), not by a chain of ``isinstance`` tests per value.  A dataclass
is the mapping of its fields; elementary histories, history states,
mixtures, the optimizer's trace rows, outcome distributions and scenario
results (the top-level document) are another mapping of the object
(``_viewed``).  Complex scalars and complex arrays are nested ``[re, im]``
pairs; real arrays (correlator tables) are nested floats, and quantities that
are real by construction (probabilities, correlators, bounds) stay plain
floats.  A lone float, int, bool or None is written by its own rule, not by
json's encoder, and a list that repeats one object (a chained report's
blocks) writes its JSON once.

An ndarray (a T x T consistency matrix), a history state (its grid labels,
then per term its coefficient and slot operators, read from ``_coefs`` and
``_rows`` as float64 pairs, which is the document's own [re, im] order) and a
mixture's whole ensemble each take one ``%`` call on a template of their
shape and indentation, ``%r`` (``float.__repr__``, json's text for a finite
float) per leaf, with no nested list built.  A leaf that is not finite sends
the object to its mapping, or an array to its nested lists, whose floats
are then written one by one as json writes them (``NaN``).  Templates of at
most ``_CACHED_LEAVES`` leaves are kept.  ``document`` and ``to_jsonable``,
the plain documents that API callers read, are that text parsed back by
``json.loads``, so they hold exact JSON types with sorted keys.  A document
that a caller built is written by ``json.dumps`` itself (``dumps_json``).

A value's rows are those of its JSON document: keys joined by "." and
"[i]", numbers as ``format_number`` prints them.  An array's leaves, and the
values of a list or mapping that are all numbers (an outcome table, an
[re, im] pair), are written in one pass; all rows take one join.

An outcome table (``twostate._Table``) is read-only and maps '+'/'-' strings
in sorted order to exact, finite floats.  Its JSON and its
``distribution_csv`` rows are each one ``%`` call on a template joined from
its strings (``%r`` or ``%.12g`` per value); the template is not kept, as
joining it costs a few percent of filling it.

Input side: small parsers for the human-writable spec files the command line
accepts.  States may be named ("0", "1", "+", "-", "i+", "i-") or explicit
[re, im] vectors; measurement settings may be named Paulis ("X", "Y", "Z")
or Bloch angles {"theta": t, "phi": p}; unitaries may be named
("I", "H", "X", "Y", "Z") or explicit matrices.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import sys
from collections.abc import Mapping

import numpy as np

from .bell import OptimizeResult
from .errors import ShapeError
from .histories import (
    BridgingSet, ElementaryHistory, HistoryState, MixedHistory, TimeGrid, _check_measured_slots, _join_rows,
)
from .linalg import identity, maximally_mixed, pauli, projector, qubit_ket
from .scenarios import ScenarioResult
from .twostate import MeasurementSetting, OutcomeDistribution, _Table

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

NAMED_UNITARIES = {
    "I": identity(2),
    "H": _HADAMARD,
    "X": pauli("X"),
    "Y": pauli("Y"),
    "Z": pauli("Z"),
}

# named rank-one projector slots, keyed by axis and sign
NAMED_PROJECTOR_KETS = {
    "z+": "0",
    "z-": "1",
    "x+": "+",
    "x-": "-",
    "y+": "i+",
    "y-": "i-",
}

# Size bounds on history specs, checked before any HistoryState is built.
# `weight` computes and reports the T x T term consistency matrix, so its
# cost is quadratic in the term count: with four qubit slots, 256 terms take
# 0.33-0.45 s wall from a cold start (0.15 s in-process, 0.13 s of it writing
# the matrix's 6 MB of JSON, 0.09 s of that float.__repr__ over its 131072
# values); past the bound, 512 terms take 0.57 s in-process and 1024 take
# 2.7 s, nearly all of it writing 97 MB, on a 2-CPU x86-64 VM.  Slot
# operators are dense d x d matrices: 16 terms of four 64 x 64 slots take
# 0.71 s cold, most of it reading 12 MB of JSON.
MAX_HISTORY_TERMS = 256
MAX_SLOT_DIM = 64


# ---------------------------------------------------------------------------
# templates


# json's own text for a float that is not finite (NaN, Infinity, -Infinity)
_encode_scalar = json.JSONEncoder().encode
_encode_str = json.encoder.encode_basestring_ascii

# templates of at most this many leaves are kept; a larger one costs less to
# build than to fill, and a 256 x 256 x 2 one takes 2.5 MB
_CACHED_LEAVES = 2048

_kept = functools.lru_cache(maxsize=256)(lambda build, key, indent: build(*key, indent))


def _fill(build, key: tuple, indent: str, leaves: tuple) -> str:
    """The template ``build(*key, indent)`` filled with ``leaves``; one of at
    most ``_CACHED_LEAVES`` leaves is kept (``_kept``)."""
    if len(leaves) <= _CACHED_LEAVES:
        return _kept(build, key, indent) % leaves
    return build(*key, indent) % leaves


# Both join their parts once: a report nests a large array's text a few
# levels deep, and each ``+`` of it would copy it again.


def _list_text(texts, indent: str) -> str:
    """The indent=2 list of JSON ``texts`` at ``indent``."""
    inner = indent + "  "
    return "".join(("[", inner, ("," + inner).join(texts), indent, "]"))


def _dict_text(keys, texts, indent: str) -> str:
    """The indent=2 object of JSON ``keys`` (at least one) and value ``texts``
    at ``indent``."""
    inner = "," + indent + "  "
    parts = [part for key, text in zip(keys, texts) for part in (inner, key, ": ", text)]
    parts[0] = "{" + indent + "  "
    parts += (indent, "}")
    return "".join(parts)


def _template(shape: tuple, indent: str) -> str:
    """The indent=2 text of a block of ``shape`` at ``indent``, with ``%r``
    (``float.__repr__`` for an exact float) for each leaf."""
    item = "%r" if len(shape) == 1 else _template(shape[1:], indent + "  ")
    return _list_text([item] * shape[0], indent)


def _state_template(dims: tuple, n_terms: int, indent: str) -> str:
    """A history state's document on slot dimensions ``dims`` with ``n_terms``
    terms: ``%r`` for each grid label, then per term for the two parts of its
    coefficient and the [re, im] parts of its slot operators, earliest first."""
    i1, i2, i3, i4 = (indent + "  " * k for k in range(1, 5))
    labels, slot_dims = _template((len(dims),), i2), _list_text(map(str, dims), i2)
    grid = _dict_text(('"labels"', '"slot_dims"'), (labels, slot_dims), i1)
    slots = _list_text([_template((d, d, 2), i4) for d in dims], i3)
    term = _dict_text(('"coefficient"', '"slots"'), (_template((2,), i3), slots), i2)
    return _dict_text(('"grid"', '"terms"'), (grid, _list_text([term] * n_terms, i1)), indent)


def _ensemble_template(dims: tuple, counts: tuple, indent: str) -> str:
    """A mixture's document whose members, on slot dimensions ``dims``, have
    ``counts`` terms: per member ``%r`` for its probability, then its state's."""
    i1, i2, i3 = (indent + "  " * k for k in range(1, 4))
    members = [_dict_text(('"probability"', '"state"'), ("%r", _state_template(dims, n, i3)), i2) for n in counts]
    return _dict_text(('"ensemble"',), (_list_text(members, i1),), indent)


def _table_text(table: _Table, indent: str) -> str:
    """An outcome table: sorted '+'/'-' keys, which json writes between quotes
    as they are, each with its exact, finite float."""
    inner = indent + "  "
    template = "{" + inner + '"' + ('": %r,' + inner + '"').join(table) + '": %r' + indent + "}"
    return template % tuple(table.values())


# ---------------------------------------------------------------------------
# writing result objects


def _float_text(x, indent: str) -> str:
    x = float(x)
    return repr(x) if math.isfinite(x) else _encode_scalar(x)


def _complex_text(z, indent: str) -> str:
    z = complex(z)
    return _sequence_text([z.real, z.imag], indent)


def _float_array(a: np.ndarray) -> np.ndarray:
    """The array's document as floats: [re, im] on a last axis for a complex
    vector or matrix."""
    if not np.iscomplexobj(a):
        return a.astype(float)
    if a.ndim not in (1, 2):
        raise ShapeError(f"cannot encode array of rank {a.ndim}")
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1)


def _array_text(a: np.ndarray, indent: str) -> str:
    """Nested floats, or [re, im] pairs for a complex vector or matrix: one
    fill of the shape's template, or, with an empty axis or a leaf that is
    not finite, the text of its nested lists."""
    a = _float_array(a)
    leaves = tuple(a.ravel().tolist())
    if a.ndim and leaves and math.isfinite(sum(leaves)):
        return _fill(_template, (a.shape,), indent, leaves)
    return _text(a.tolist(), indent)


def _sequence_text(items, indent: str) -> str:
    """A list: exact finite floats fill one template, strings take one map,
    and any other item is written once per object, however often it repeats."""
    if not items:
        return "[]"
    kinds = set(map(type, items))
    if kinds == {float} and math.isfinite(sum(items)):
        return _fill(_template, ((len(items),),), indent, tuple(items))
    if kinds == {str}:
        return _list_text(map(_encode_str, items), indent)
    inner = indent + "  "
    texts = {key: _text(x, inner) for key, x in {id(x): x for x in items}.items()}
    return _list_text(map(texts.__getitem__, map(id, items)), indent)


def _mapping_text(m, indent: str) -> str:
    """A mapping with its keys read by ``str``, in sorted order."""
    m = {str(k): v for k, v in m.items()}
    if not m:
        return "{}"
    inner = indent + "  "
    keys = sorted(m)
    return _dict_text(map(_encode_str, keys), [_text(m[k], inner) for k in keys], indent)


def _term_leaves(h: HistoryState) -> list:
    """Per term, its coefficient's and then its slot operators' [re, im] parts."""
    pairs = np.ascontiguousarray(h._coefs).view(np.float64).reshape(-1, 2)
    rows = np.ascontiguousarray(h._rows, dtype=complex).view(np.float64)
    return np.concatenate((pairs, rows), axis=1).ravel().tolist()


def _state_view(h: HistoryState) -> dict:
    return {"grid": h.grid, "terms": [
        {"coefficient": c, "slots": ops} for c, ops in zip(h._coefs.tolist(), zip(*h._stacks))]}


def _state_text(h: HistoryState, indent: str) -> str:
    leaves = (*h.grid.labels, *_term_leaves(h))
    if math.isfinite(sum(leaves)):
        return _fill(_state_template, (h.grid.slot_dims, h.n_terms), indent, leaves)
    return _mapping_text(_state_view(h), indent)


def _mixture_view(m: MixedHistory) -> dict:
    return {"ensemble": [{"probability": p, "state": h} for p, h in m.ensemble]}


def _mixture_text(m: MixedHistory, indent: str) -> str:
    leaves = []
    for p, h in m.ensemble:
        leaves += (p, *h.grid.labels, *_term_leaves(h))
    if math.isfinite(sum(leaves)):
        counts = tuple(h.n_terms for _, h in m.ensemble)
        return _fill(_ensemble_template, (m.grid.slot_dims, counts), indent, tuple(leaves))
    return _mapping_text(_mixture_view(m), indent)


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _report(name: str, artifacts, notes) -> dict:
    """The uniform top-level document: ``artifacts`` is a mapping or a result
    dataclass, whose fields become the artifacts."""
    return {"name": name, "artifacts": artifacts, "notes": [str(n) for n in notes]}


def format_number(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# flattening result objects to key, value rows (CSV and pretty text)
#
# A rows rule extends ``rows`` by the (key, text) row of each leaf under the
# value at key ``prefix``, keys as the document's sorted keys and [i] indices
# give them, each key and text written by ``field``; numbers are ``%.12g``
# (``format_number``), so a value's rows are those of its JSON document.


def _items_rows(names: list, values, rows: list, field) -> None:
    """The rows of ``values`` at ``names``: values that are all numbers (an
    outcome table, an [re, im] pair) in one pass, which needs no quoting."""
    if set(map(type, values)) <= {float, int}:
        rows += zip(map(field, names), map("%.12g".__mod__, values))
    else:
        for name, value in zip(names, values):
            _rows(value, name, rows, field)


def _keys(prefix: str, keys) -> list:
    return [f"{prefix}.{k}" for k in keys] if prefix else list(keys)


def _sequence_rows(items, prefix: str, rows: list, field) -> None:
    _items_rows([f"{prefix}[{i}]" for i in range(len(items))], items, rows, field)


def _mapping_rows(m, prefix: str, rows: list, field) -> None:
    m = {str(k): v for k, v in m.items()}
    keys = sorted(m)
    _items_rows(_keys(prefix, keys), list(map(m.__getitem__, keys)), rows, field)


def _array_rows(a: np.ndarray, prefix: str, rows: list, field) -> None:
    """Every leaf of the array's document, [re, im] pairs for a complex one,
    in one pass."""
    a = _float_array(a)
    names = [prefix]
    for n in a.shape:
        names = [f"{name}[{i}]" for name in names for i in range(n)]
    # an index needs no quoting, so a key needs it only where its prefix does
    rows += zip(names if field(prefix) == prefix else map(field, names),
                map("%.12g".__mod__, a.ravel().tolist()))


def _leaf(text):
    """The rows rule of a value that is one leaf, ``text(obj)`` its text."""
    return lambda obj, prefix, rows, field: rows.append((field(prefix), field(text(obj))))


def _viewed(view, write=None) -> tuple:
    """The (JSON, rows) rules of a class whose document is the mapping
    ``view(obj)``; ``write`` is a faster writer of the same JSON."""
    return (write or (lambda obj, indent: _mapping_text(view(obj), indent)),
            lambda obj, prefix, rows, field: _mapping_rows(view(obj), prefix, rows, field))


def _bool_text(b) -> str:
    return "true" if b else "false"


# The (JSON writer, rows rule) of a value, by its class: the first entry whose
# classes it is a subclass of.  The last six are documents that are another
# mapping of the object (``_viewed``); any other dataclass is the mapping of
# its fields.
_RULES = (
    (type(None), lambda obj, indent: "null", _leaf(lambda obj: "")),
    ((bool, np.bool_), lambda b, indent: _bool_text(b), _leaf(_bool_text)),
    ((int, np.integer), lambda n, indent: int.__repr__(int(n)), _leaf(format_number)),
    (str, lambda s, indent: _encode_str(s), _leaf(str)),
    ((float, np.floating), _float_text, _leaf(format_number)),
    ((complex, np.complexfloating), _complex_text,
     lambda z, prefix, rows, field: _sequence_rows([complex(z).real, complex(z).imag], prefix, rows, field)),
    (np.ndarray, _array_text, _array_rows),
    ((list, tuple), _sequence_text, _sequence_rows),
    # sorted by construction, with str keys and exact float values
    (_Table, _table_text,
     lambda t, prefix, rows, field: _items_rows(_keys(prefix, t), list(t.values()), rows, field)),
    (Mapping, _mapping_text, _mapping_rows),
    (HistoryState, *_viewed(_state_view, _state_text)),
    (MixedHistory, *_viewed(_mixture_view, _mixture_text)),
    (ElementaryHistory, *_viewed(lambda eh: {"slots": eh.slots})),
    (OptimizeResult, *_viewed(lambda r: _fields(r) | {"trace": [
        {"evaluation": int(n), "angles": angles, "value": v} for n, angles, v in r.trace]})),
    (OutcomeDistribution, *_viewed(lambda d: {"settings": d.settings, "table": d.table})),
    (ScenarioResult, *_viewed(lambda r: _report(r.name, r.artifacts, r.notes))),
)


@functools.cache
def _rule(cls: type) -> tuple:
    """The (JSON writer, rows rule) of ``cls``'s instances, chosen once per
    class rather than once per value."""
    for classes, *rules in _RULES:
        if issubclass(cls, classes):
            return rules
    # a dataclass instance, not a dataclass itself (whose class is ``type``)
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _viewed(_fields)
    return _unknown, _unknown


def _unknown(obj, *_):
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _text(obj, indent: str) -> str:
    """``obj`` as indent=2, sort_keys JSON; ``indent`` is the newline and
    spaces that open a line at the level of ``obj``."""
    return _rule(type(obj))[0](obj, indent)


def _rows(obj, prefix: str, rows: list, field) -> list:
    """``rows`` extended by the rows of ``obj`` at key ``prefix``."""
    _rule(type(obj))[1](obj, prefix, rows, field)
    return rows


def dumps_report(name: str, artifacts, notes=()) -> str:
    """The report ``{name, artifacts, notes}`` as indent=2, sort_keys JSON
    plus a newline, written from the result objects in one walk: byte for
    byte ``dumps_json(document(name, artifacts, notes))``."""
    return _mapping_text(_report(name, artifacts, notes), "\n") + "\n"


def to_jsonable(obj):
    """``obj`` as plain JSON types: its text parsed back."""
    return json.loads(_text(obj, "\n"))


def document(name: str, artifacts, notes=()) -> dict:
    """Uniform top-level report shape used by every command, as plain JSON
    types: ``dumps_report``'s text parsed back.

    ``artifacts`` is a mapping or a result dataclass (its fields become the
    artifacts).
    """
    return json.loads(dumps_report(name, artifacts, notes))


def scenario_document(result: ScenarioResult) -> dict:
    return document(result.name, result.artifacts, result.notes)


def dumps_json(doc: dict) -> str:
    """A plain document that a caller built, as ``json.dumps(doc, indent=2,
    sort_keys=True)`` plus a newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# CSV


# the characters that make ``csv.writer`` quote a field
_CSV_QUOTED = frozenset(',"\r\n')


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field: between quotes, its own
    quotes doubled, when it holds a comma, a quote or a line break."""
    return text if _CSV_QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def dumps_csv(doc: dict) -> str:
    """Flatten a document into RFC-4180 key,value rows, quoted as
    ``csv.writer`` quotes them, in one join.  ``doc`` is a plain document or
    a report of result objects (``_report``), flattened by their classes'
    rules as their documents would be."""
    return "\r\n".join(map(",".join, _rows(doc, "", [("key", "value")], _csv_field))) + "\r\n"


def distribution_csv(dist: OutcomeDistribution) -> str:
    """The table as outcome,probability rows in its (sorted) order, numbers as
    ``format_number`` writes them (``%.12g`` and ``{:.12g}`` print alike):
    one ``%`` call on a template joined from its '+'/'-' strings, which need
    no quoting."""
    table = dist.table
    return ("outcome,probability\r\n" + ",%.12g\r\n".join(table) + ",%.12g\r\n") % tuple(table.values())


def trace_csv(result: OptimizeResult) -> str:
    """One row per evaluation: its count, its angles and its value, numbers as
    ``format_number`` writes them, which need no quoting, in one join."""
    header = ["evaluation"]
    for i in range(len(result.angles) // 2):
        header += [f"theta_{i}", f"phi_{i}"]
    header.append("value")
    rows = [header] + [[str(neval), *map(format_number, angles), format_number(value)]
                       for neval, angles, value in result.trace]
    return "\r\n".join(map(",".join, rows)) + "\r\n"


# ---------------------------------------------------------------------------
# pretty text


def dumps_pretty(doc: dict) -> str:
    """The report's name, its artifacts' key, value rows and its notes;
    ``doc`` is read as ``dumps_csv`` reads it."""
    lines = [doc.get("name", "report")]
    rows = _rows(doc.get("artifacts", {}), "", [], str)
    width = max(map(len, (k for k, _ in rows)), default=0)
    lines += map(f"  %-{width}s  %s".__mod__, rows)
    notes = doc.get("notes", [])
    if notes:
        lines.append("")
        for note in notes:
            lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# spec-file parsing
#
# Each kind of field has one reader, and its error names the field: ``_number``
# (a finite JSON number), ``_integer``, ``_object``, ``_list`` (a nonempty list,
# or one of an exact length, whose entries another reader may read) and
# ``_pairs_to_array`` (nested [re, im] pairs of finite numbers).


class SpecError(ValueError):
    """Unreadable or semantically invalid spec file."""


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"{path}: {exc.strerror or exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: top level must be an object")
    return doc


def _number(doc, what: str) -> float:
    """A finite JSON number; a bool, a string or null is not one."""
    # an exact comparison: NaN, infinities and integers past the float range fail it
    if isinstance(doc, (int, float)) and not isinstance(doc, bool) and abs(doc) <= sys.float_info.max:
        return float(doc)
    raise SpecError(f"{what}: expected a finite number, got {doc!r}")


def _integer(doc, what: str) -> int:
    """A JSON integer; 2.0, "2" and true are not integers."""
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise SpecError(f"{what}: expected an integer, got {doc!r}")
    return doc


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise SpecError(f"{what}: expected an object")
    return doc


def _list(doc, what: str, length: int | None = None, item=None) -> list:
    """A nonempty list, or one of exactly ``length`` entries; ``item`` reads
    entry i as the field ``what[i]`` when it is given."""
    if not isinstance(doc, list) or (len(doc) != length if length is not None else not doc):
        raise SpecError(f"{what}: expected a nonempty list" if length is None
                        else f"{what}: expected a list of length {length}")
    if item is None:
        return doc
    return [item(entry, f"{what}[{i}]") for i, entry in enumerate(doc)]


def _pairs(doc, what: str, ndim: int) -> np.ndarray:
    """The float array, [re, im] on its last axis, of ``ndim``-deep nested
    pairs of finite JSON numbers (a vector's at ``ndim`` 1, a matrix's at 2)."""
    try:
        a = np.asarray(doc, dtype=float)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is not None and a.ndim == ndim + 1 and a.shape[-1] == 2:
        # numpy reads "1", true and null as numbers; the leaves' types do not
        leaves = doc
        for _ in range(ndim):
            leaves = itertools.chain.from_iterable(leaves)
        leaves = list(leaves)
        kinds = set(map(type, leaves))
        if all(issubclass(k, (int, float)) and k is not bool for k in kinds) and all(map(math.isfinite, leaves)):
            return a
    shape = "a vector" if ndim == 1 else "a matrix"
    raise SpecError(f"{what}: expected {shape} of [re, im] pairs of finite numbers")


def _pairs_to_array(doc, what: str, ndim: int) -> np.ndarray:
    """A complex vector (``ndim`` 1), matrix (2) or stack of them from nested
    [re, im] pairs of finite JSON numbers."""
    a = _pairs(doc, what, ndim)
    return a[..., 0] + 1j * a[..., 1]


def state_from_document(doc, what: str = "state") -> np.ndarray:
    """A ket from a named single-qubit state or a [re, im] vector."""
    if isinstance(doc, str):
        try:
            return qubit_ket(doc)
        except (KeyError, ValueError):
            raise SpecError(f"{what}: unknown named state {doc!r}") from None
    return _pairs_to_array(doc, what, 1)


def matrix_from_document(doc, what: str = "matrix") -> np.ndarray:
    return _pairs_to_array(doc, what, 2)


def unitary_from_document(doc, what: str = "unitary") -> np.ndarray:
    if isinstance(doc, str):
        try:
            return NAMED_UNITARIES[doc.upper()]
        except KeyError:
            known = ", ".join(sorted(NAMED_UNITARIES))
            raise SpecError(f"{what}: unknown named unitary {doc!r} (known: {known})") from None
    return matrix_from_document(doc, what)


def _setting_entry(doc, what: str):
    """A setting's entry for ``MeasurementSetting.stack``: a Pauli name ("X",
    "Y", "Z") or Bloch angles {"theta", "phi"} with an optional string "label",
    read as (theta, phi, label)."""
    if isinstance(doc, str):
        name = doc.upper()
        if name in ("X", "Y", "Z"):
            return name
        raise SpecError(f"{what}: unknown named setting {doc!r} (use X, Y, Z or Bloch angles)")
    if isinstance(doc, dict):
        theta = _number(doc.get("theta"), f"{what}.theta")
        phi = _number(doc.get("phi"), f"{what}.phi")
        label = doc.get("label")
        if label is not None and not isinstance(label, str):
            raise SpecError(f"{what}.label: expected a string, got {label!r}")
        return theta, phi, label
    raise SpecError(f"{what}: expected a Pauli name or Bloch angles")


def _slot_entry(doc, what: str):
    """A slot's entry: None (unmeasured) or a setting's."""
    return None if doc is None else _setting_entry(doc, what)


def setting_from_document(doc, what: str = "setting") -> MeasurementSetting:
    """A named Pauli ("X", "Y", "Z") or Bloch angles {"theta", "phi"} with an
    optional string "label"."""
    return MeasurementSetting.stack((_setting_entry(doc, what),))[0]


def _matrix_list(docs: list, name, read_one) -> list[np.ndarray]:
    """``docs`` read by ``read_one``, entry i as the field ``name(i)``, with
    every explicit matrix among them (each entry that is not a name) read by
    one ``_pairs_to_array`` call.  On any failure the entries are read again
    one at a time, in order, so the error names the first bad one."""
    try:
        matrices = [doc for doc in docs if not isinstance(doc, str)]
        stack = iter(_pairs_to_array(matrices, name(0), 3) if matrices else ())
        return [read_one(doc, name(i)) if isinstance(doc, str) else next(stack)
                for i, doc in enumerate(docs)]
    except SpecError:
        return [read_one(doc, name(i)) for i, doc in enumerate(docs)]


# the parties, in time order, whose settings pairs each Bell command reads
_BELL_PARTIES = {"lgi": ("first", "second"), "chained": ("first", "second"), "monogamy": ("a", "b", "c")}


def bell_spec_from_document(doc: dict, command: str) -> tuple:
    """(initial state, one settings pair per party, the unitary after each party
    but the last, block count) from a Bell command's spec.  An absent or "mixed"
    ``initial`` is the maximally mixed qubit, a state its projector; two parties
    take one ``unitary``, three a list of two ``unitaries`` (absent: None, the
    identity); only chained reads ``n`` (absent: 1)."""
    initial = doc.get("initial")
    rho = (maximally_mixed(2) if initial is None or initial == "mixed"
           else projector(state_from_document(initial, "initial")))
    parties = _BELL_PARTIES[command]
    entries = [_list(doc.get(party), party, 2, _setting_entry) for party in parties]
    settings = MeasurementSetting.stack(itertools.chain.from_iterable(entries))
    pairs = tuple(zip(settings[0::2], settings[1::2]))
    if len(parties) == 2:
        u = doc.get("unitary")
        unitaries = (None if u is None else unitary_from_document(u, "unitary"),)
    else:
        unis = doc.get("unitaries")
        unitaries = (None, None) if unis is None else tuple(
            _list(unis, "unitaries", 2, unitary_from_document))
    n = _integer(doc.get("n", 1), "n") if command == "chained" else 1
    return rho, pairs, unitaries, n


def slot_operator_from_document(doc, what: str = "slot") -> np.ndarray:
    """A slot operator: named projector ("z+", "x-", ...), "I", or a matrix."""
    if isinstance(doc, str):
        if doc == "I":
            return identity(2)
        key = doc.lower()
        if key in NAMED_PROJECTOR_KETS:
            ket = qubit_ket(NAMED_PROJECTOR_KETS[key])
            return np.outer(ket, ket.conj())
        known = ", ".join(sorted(NAMED_PROJECTOR_KETS))
        raise SpecError(f"{what}: unknown named slot {doc!r} (known: I, {known})")
    return matrix_from_document(doc, what)


def _bounded(grid: TimeGrid, what: str) -> TimeGrid:
    """``grid``, checked against MAX_SLOT_DIM before any operator is built on it."""
    if max(grid.slot_dims) > MAX_SLOT_DIM:
        raise SpecError(f"{what}: slot dimension {max(grid.slot_dims)}; at most {MAX_SLOT_DIM} is supported")
    return grid


def history_from_document(doc: dict, what: str = "history") -> tuple[HistoryState, BridgingSet]:
    """HistoryState plus bridging from a weight-command spec document.

    Without a ``grid`` the first term's operators set an unlabelled one
    (labels 0, 1, ...).  The terms are read together (``_terms``); only a
    spec that fails is read again term by term, so the error names the first
    bad term and slot."""
    hdoc = _object(doc.get("history", doc), what)
    terms_doc = _list(hdoc.get("terms"), f"{what}: terms")
    if len(terms_doc) > MAX_HISTORY_TERMS:
        raise SpecError(f"{what}: {len(terms_doc)} terms; at most {MAX_HISTORY_TERMS} are supported")
    grid = None
    if hdoc.get("grid") is not None:
        gdoc = _object(hdoc["grid"], f"{what}: grid")
        labels = _list(gdoc.get("labels"), f"{what}: grid labels", None, _number)
        dims = _list(gdoc.get("slot_dims"), f"{what}: grid slot_dims", None, _integer)
        try:
            grid = TimeGrid(tuple(labels), tuple(dims))
        except ValueError as exc:
            raise SpecError(f"{what}: grid: {exc}") from None
        _bounded(grid, what)

    try:
        grid, coefficients, rows = _terms(terms_doc, grid, what)
    except SpecError:
        for i, tdoc in enumerate(terms_doc):
            grid = _terms([tdoc], grid, what, i)[0]
        raise
    # one construction merges repeated slot strings in a single pass
    history = HistoryState._from_rows(grid, coefficients, rows)

    bdoc = doc.get("bridging")
    if bdoc is None:
        return history, BridgingSet.trivial(grid)
    unis = _list(bdoc.get("unitaries") if isinstance(bdoc, dict) else bdoc,
                 f"{what}: bridging", grid.n_slots - 1)
    return history, BridgingSet(grid, tuple(
        _matrix_list(unis, lambda i: f"{what}: bridging[{i}]", unitary_from_document)))


def _terms(terms_doc: list, grid: TimeGrid | None, what: str, first: int = 0) -> tuple:
    """(grid, coefficients, term rows) of the terms ``terms_doc``, numbered
    from ``first`` in errors; without a ``grid`` the first term's operators
    set one.  The slots of every term, when they are all explicit matrices of
    one shape, take one ``_pairs`` read, as do the coefficients when they are
    all lists; otherwise each slot's operators take one ``_matrix_list`` and
    each coefficient its own read, whose errors name the entry.  Operators
    must be d x d for their slot's dimension d.  A single term's errors come
    in the order of its fields: slots, coefficient, shapes."""
    slot_lists = []
    for i, tdoc in enumerate(terms_doc, first):
        tdoc = _object(tdoc, f"{what}: term {i}")
        n_slots = grid.n_slots if grid is not None else len(slot_lists[0]) if slot_lists else None
        slot_lists.append(_list(tdoc.get("slots"), f"{what}: term {i} slots", n_slots))
    try:
        columns = list(_pairs_to_array(slot_lists, what, 4).swapaxes(0, 1))
    except SpecError:
        columns = [_matrix_list(list(column), lambda i: f"{what}: term {first + i} slots[{k}]",
                                slot_operator_from_document)
                   for k, column in enumerate(zip(*slot_lists))]
    if grid is None:
        dims = tuple(ops[0].shape[0] for ops in columns)
        for k, d in enumerate(dims):
            if d < 2:
                raise SpecError(f"{what}: term {first} slots[{k}]: slot dimensions must be at least 2")
        grid = _bounded(TimeGrid(tuple(map(float, range(len(dims)))), dims), what)
    docs = [tdoc.get("coefficient", [1.0, 0.0]) for tdoc in terms_doc]
    try:
        if not all(type(doc) is list for doc in docs):
            raise SpecError(what)  # as ``_list`` has it, a tuple is not a JSON list
        # complex(re, im) of each pair, zero signs included
        coefficients = _pairs(docs, what, 1).view(complex)[:, 0]
    except SpecError:
        coefficients = [complex(*_list(doc, f"{what}: term {i} coefficient", 2, _number))
                        for i, doc in enumerate(docs, first)]
    for k, (ops, d) in enumerate(zip(columns, grid.slot_dims)):
        for i, op in enumerate(ops, first):
            if op.shape != (d, d):
                raise SpecError(
                    f"{what}: term {i} slots[{k}]: slot operator shape {op.shape} does not match dim {d}")
    return grid, coefficients, _join_rows(columns)


def experiment_from_document(doc: dict) -> dict:
    """Parsed pieces of a two-state experiment spec.

    Returns a dict with keys pre (ket or None), initial ("mixed" or None),
    post (ket or None), slots (tuple of MeasurementSetting or None), and
    unitaries (tuple of matrices or None).
    """
    out: dict = {"pre": None, "initial": None, "post": None}
    if doc.get("initial") == "mixed":
        out["initial"] = "mixed"
    elif "pre" in doc:
        out["pre"] = state_from_document(doc["pre"], "pre")
    else:
        raise SpecError("experiment: needs 'pre' (a state) or 'initial': \"mixed\"")
    if doc.get("post") is not None:
        out["post"] = state_from_document(doc["post"], "post")
    slots_doc = _list(doc.get("slots"), "slots")
    # the kernel's bound, checked before any setting is built
    _check_measured_slots(len(slots_doc) - slots_doc.count(None))
    out["slots"] = MeasurementSetting.stack(_list(slots_doc, "slots", None, _slot_entry))
    unis_doc = doc.get("unitaries")
    out["unitaries"] = None if unis_doc is None else tuple(_matrix_list(
        _list(unis_doc, "unitaries", len(out["slots"]) + 1), "unitaries[{}]".format, unitary_from_document))
    return out
