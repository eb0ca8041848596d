"""JSON documents, CSV tables, and spec-file parsing.

Output side: ``to_jsonable`` turns any result object from this package into
plain JSON types by one rule: a dataclass becomes the mapping of its fields,
each encoded in turn.  The encoder of a value is chosen by its class alone,
once per class (``_encoder``), not by a chain of ``isinstance`` tests per
value.  Complex scalars and complex arrays are encoded as
nested arrays of ``[re, im]`` pairs; real arrays (correlator tables) become
nested floats, and quantities that are real by construction (probabilities,
correlators, bounds) stay plain floats.  A few types whose document is not
their field mapping have explicit encoders in ``_ENCODERS``: elementary
histories and history states (slot strings without a per-term grid), mixed
histories, the optimizer's trace rows, scenario results (the top-level
document) and outcome distributions (whose read-only table, sorted by
outcome string, goes into the document itself, not a copy).  ``document``
wraps everything in the uniform top-level shape {name, artifacts, notes}.

``dumps_json`` writes a document exactly as ``json.dumps(doc, indent=2,
sort_keys=True)`` would, but without visiting values one by one in Python.
A uniform float block (nonempty lists or tuples nested to one depth, one
length per level, every leaf an exact, finite ``float``: correlator rows,
[re, im] pairs, a T x T x 2 consistency matrix, a slot stack) is one ``%``
call on a template of its shape and indentation, ``%r`` per leaf; templates
of small blocks are kept in a bounded cache.  Only an exact ``float`` is a
leaf: ``float.__repr__`` is json's text for it, while a subclass such as
``np.float64``, NaN and the infinities keep json's own scalar text.  Any
other container is joined once: its keys, or items that are all strings, go
through one C-level map, and any other item is written on its own.

Outcome tables: an outcome table (``twostate._Table``) is read-only and
maps '+'/'-' strings in sorted order to exact, finite floats.  Its JSON and
its ``distribution_csv`` rows are each one ``%`` call on a template made by
one join of its strings (``%r`` or ``%.12g`` per value), with no sort, no
second dict and no per-row text.  The template is not kept, as joining it
costs a few percent of filling it (64 against 2000 us for a 12-slot table as
JSON), while keeping the templates of 6 to 12 slots would hold 0.22 MB as
JSON and 0.16 MB as CSV.

Input side: small parsers for the human-writable spec files the command line
accepts.  States may be named ("0", "1", "+", "-", "i+", "i-") or explicit
[re, im] vectors; measurement settings may be named Paulis ("X", "Y", "Z")
or Bloch angles {"theta": t, "phi": p}; unitaries may be named
("I", "H", "X", "Y", "Z") or explicit matrices.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
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
# 0.23 s wall from a cold start (0.12 s in-process, 0.08 s of it writing the
# matrix's 6 MB of JSON, 0.06 s of that float.__repr__ over its 131072
# values); past the bound, 512 terms take 0.49 s in-process and 1024 take
# 2.2 s, four fifths of it writing, on a 2-CPU x86-64 VM.  Slot operators
# are dense d x d matrices: 16 terms of four 64 x 64 slots take 0.47 s cold,
# most of it parsing 11 MB of JSON.
MAX_HISTORY_TERMS = 256
MAX_SLOT_DIM = 64


# ---------------------------------------------------------------------------
# encoding


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_document(m: np.ndarray) -> list:
    """Nested [re, im] pairs for a vector or matrix, built in one numpy call."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (1, 2):
        raise ShapeError(f"cannot encode array of rank {a.ndim}")
    return np.stack((a.real, a.imag), axis=-1).tolist()


def _distribution(d: OutcomeDistribution) -> dict:
    """The read-only table, in sorted order already, is the document's table itself."""
    return {"settings": list(d.settings), "table": d.table}


def _fields(obj, **encoded) -> dict:
    """The dataclass's fields, each encoded, except those given ``encoded``."""
    doc = {f.name: to_jsonable(getattr(obj, f.name))
           for f in dataclasses.fields(obj) if f.name not in encoded}
    doc.update(encoded)
    return doc


# documents that are not the mapping of the dataclass's fields
_ENCODERS = {
    ElementaryHistory: lambda eh: {"slots": to_jsonable(eh.slots)},
    HistoryState: lambda h: {
        "grid": to_jsonable(h.grid),
        # each slot's stack encoded in one call, as ``matrix_document`` encodes one matrix
        "terms": [{"coefficient": complex_pair(c), "slots": slots} for c, *slots in zip(
            h._coefs.tolist(), *(np.stack((s.real, s.imag), axis=-1).tolist() for s in h._stacks))],
    },
    MixedHistory: lambda m: {
        "ensemble": [{"probability": p, "state": to_jsonable(h)} for p, h in m.ensemble],
    },
    OptimizeResult: lambda r: _fields(r, trace=[
        {"evaluation": int(n), "angles": [float(a) for a in ang], "value": float(v)}
        for n, ang, v in r.trace
    ]),
    OutcomeDistribution: _distribution,
    ScenarioResult: lambda r: document(r.name, r.artifacts, r.notes),
}


def _same(obj):
    return obj


def _array(a: np.ndarray) -> list:
    return matrix_document(a) if np.iscomplexobj(a) else a.astype(float).tolist()


def _sequence(items) -> list:
    return list(map(to_jsonable, items))


def _mapping(m) -> dict:
    return {str(k): to_jsonable(v) for k, v in m.items()}


def _unknown(obj):
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


@functools.cache
def _encoder(cls: type):
    """The encoder of ``cls``'s instances: the first rule that matches, tested
    once per class rather than once per value."""
    if cls is type(None) or issubclass(cls, (bool, int, str)):
        return _same
    if issubclass(cls, (float, np.floating)):
        return float
    if issubclass(cls, (complex, np.complexfloating)):
        return complex_pair
    if issubclass(cls, np.bool_):
        return bool
    if issubclass(cls, np.integer):
        return int
    if issubclass(cls, np.ndarray):
        return _array
    if issubclass(cls, (list, tuple)):
        return _sequence
    if issubclass(cls, Mapping):
        return _mapping
    if cls in _ENCODERS:
        return _ENCODERS[cls]
    # a dataclass instance, not a dataclass itself (whose class is ``type``)
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _fields
    return _unknown


def to_jsonable(obj):
    """Recursively convert package objects to plain JSON-compatible types."""
    return _encoder(type(obj))(obj)


def document(name: str, artifacts, notes=()) -> dict:
    """Uniform top-level report shape used by every command.

    ``artifacts`` is a mapping or a result dataclass (its fields become the
    artifacts); it is encoded here, once.
    """
    return {"name": name, "artifacts": to_jsonable(artifacts), "notes": [str(n) for n in notes]}


def scenario_document(result: ScenarioResult) -> dict:
    return document(result.name, result.artifacts, result.notes)


# json's own text for anything that is not a container: its C encoder writes
# ints, bools, None, non-finite floats and float subclasses as indent=2 does,
# and raises TypeError for an object that is not JSON
_encode_scalar = json.JSONEncoder().encode
_encode_str = json.encoder.encode_basestring_ascii


# a uniform float block deeper than this (or a list that holds itself) takes
# the per-item route, where json's own recursion rules apply
_MAX_BLOCK_DEPTH = 16
# templates of blocks up to this many leaves are kept; a larger one costs
# less to build than to fill, and a 256 x 256 x 2 one takes 2.5 MB
_CACHED_LEAVES = 2048


def _block(items):
    """(shape, leaves) of a uniform float block: nonempty lists and tuples
    nested to one depth with one length per level, every leaf an exact, finite
    ``float`` (a subclass such as ``np.float64`` prints as json prints it, not
    as ``float.__repr__``).  None for anything else."""
    shape = [len(items)]
    while len(shape) <= _MAX_BLOCK_DEPTH:
        kinds = set(map(type, items))
        if kinds == {float}:
            return (tuple(shape), tuple(items)) if math.isfinite(sum(items)) else None
        if not kinds <= {list, tuple}:
            return None
        lengths = set(map(len, items))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        items = list(itertools.chain.from_iterable(items))
    return None


def _template(shape: tuple, indent: str) -> str:
    """The indent=2 text of a block of ``shape`` at ``indent``, with ``%r``
    (``float.__repr__`` for an exact float) for each leaf."""
    inner = indent + "  "
    item = "%r" if len(shape) == 1 else _template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + indent + "]"


_small_template = functools.lru_cache(maxsize=256)(_template)


def _texts(items, indent: str):
    """JSON texts of a container's items: one C-level map when they are all
    strings, one ``_write`` each otherwise (a list of floats is a block
    already, and json's text of an exact finite float is ``float.__repr__``)."""
    if set(map(type, items)) == {str}:
        return map(_encode_str, items)
    return [_write(x, indent) for x in items]


def _write(obj, indent: str) -> str:
    """``obj`` as indent=2, sort_keys JSON; ``indent`` is the newline and
    spaces that open a line at the level of ``obj``."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        block = _block(obj)
        if block is not None:
            shape, leaves = block
            template = _small_template if len(leaves) <= _CACHED_LEAVES else _template
            return template(shape, indent) % leaves
        inner = indent + "  "
        return "[" + inner + ("," + inner).join(_texts(obj, inner)) + indent + "]"
    if isinstance(obj, dict):
        inner = indent + "  "
        if type(obj) is _Table:
            # sorted '+'/'-' keys, which json writes between quotes as they are
            template = "{" + inner + '"' + ('": %r,' + inner + '"').join(obj) + '": %r' + indent + "}"
            return template % tuple(obj.values())
        if not obj:
            return "{}"
        keys = sorted(obj)
        values = list(map(obj.__getitem__, keys))
        items = map(": ".join, zip(map(_encode_str, keys), _texts(values, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return _encode_scalar(obj)


def dumps_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, byte for byte.

    ``indent`` sends ``json`` to its pure-Python encoder, which visits every
    value of a 2**n-row table in Python; this writer fills each uniform
    float block's template in one ``%`` call and joins every other container
    once instead.  What it cannot write (keys that are not strings, objects
    that are not JSON, nesting past the recursion limit) goes to ``json``
    itself, so json's text or error is the result there too.
    """
    try:
        return _write(doc, "\n") + "\n"
    except (TypeError, RecursionError):
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# CSV


def format_number(x: float) -> str:
    return f"{float(x):.12g}"


def _flat_items(node, prefix=""):
    if isinstance(node, dict):
        for k in sorted(node):
            yield from _flat_items(node[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _flat_items(v, f"{prefix}[{i}]")
    elif isinstance(node, bool):
        yield prefix, "true" if node else "false"
    elif isinstance(node, (int, float)):
        yield prefix, format_number(node)
    elif node is None:
        yield prefix, ""
    else:
        yield prefix, str(node)


def dumps_csv(doc: dict) -> str:
    """Flatten a JSON document into RFC-4180 key,value rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    for key, value in _flat_items(doc):
        writer.writerow([key, value])
    return buf.getvalue()


def distribution_csv(dist: OutcomeDistribution) -> str:
    """The table as outcome,probability rows in its (sorted) order, numbers as
    ``format_number`` writes them (``%.12g`` and ``{:.12g}`` print alike):
    one ``%`` call on a template joined from its '+'/'-' strings, which need
    no quoting."""
    table = dist.table
    return ("outcome,probability\r\n" + ",%.12g\r\n".join(table) + ",%.12g\r\n") % tuple(table.values())


def trace_csv(result: OptimizeResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    n_pairs = len(result.angles) // 2
    header = ["evaluation"]
    for i in range(n_pairs):
        header += [f"theta_{i}", f"phi_{i}"]
    header.append("value")
    writer.writerow(header)
    for neval, angles, value in result.trace:
        writer.writerow([neval, *[format_number(a) for a in angles], format_number(value)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# pretty text


def dumps_pretty(doc: dict) -> str:
    lines = [doc.get("name", "report")]
    items = list(_flat_items(doc.get("artifacts", {})))
    width = max((len(k) for k, _ in items), default=0)
    for key, value in items:
        lines.append(f"  {key:<{width}}  {value}")
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


def _pairs_to_array(doc, what: str, ndim: int) -> np.ndarray:
    """A complex vector (``ndim`` 1) or matrix (2) from nested [re, im] pairs
    of finite JSON numbers."""
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
            return a[..., 0] + 1j * a[..., 1]
    shape = "a vector" if ndim == 1 else "a matrix"
    raise SpecError(f"{what}: expected {shape} of [re, im] pairs of finite numbers")


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
        grid, coefficients, stacks = _terms(terms_doc, grid, what)
    except SpecError:
        for i, tdoc in enumerate(terms_doc):
            grid = _terms([tdoc], grid, what, i)[0]
        raise
    # one construction merges repeated slot strings in a single pass
    history = HistoryState._from_rows(grid, coefficients, _join_rows(stacks))

    bdoc = doc.get("bridging")
    if bdoc is None:
        return history, BridgingSet.trivial(grid)
    unis = _list(bdoc.get("unitaries") if isinstance(bdoc, dict) else bdoc,
                 f"{what}: bridging", grid.n_slots - 1)
    return history, BridgingSet(grid, tuple(
        _matrix_list(unis, lambda i: f"{what}: bridging[{i}]", unitary_from_document)))


def _terms(terms_doc: list, grid: TimeGrid | None, what: str, first: int = 0) -> tuple:
    """(grid, coefficients, per-slot (T, d, d) operator stacks) of the terms
    ``terms_doc``, numbered from ``first`` in errors; without a ``grid`` the
    first term's operators set one.  Each slot's operators take one
    ``_matrix_list`` and must be d x d for the slot's dimension d.  A single
    term's errors come in the order of its fields: slots, coefficient, shapes."""
    slot_lists = []
    for i, tdoc in enumerate(terms_doc, first):
        tdoc = _object(tdoc, f"{what}: term {i}")
        n_slots = grid.n_slots if grid is not None else len(slot_lists[0]) if slot_lists else None
        slot_lists.append(_list(tdoc.get("slots"), f"{what}: term {i} slots", n_slots))
    columns = [_matrix_list(list(column), lambda i: f"{what}: term {first + i} slots[{k}]",
                            slot_operator_from_document)
               for k, column in enumerate(zip(*slot_lists))]
    if grid is None:
        dims = tuple(ops[0].shape[0] for ops in columns)
        for k, d in enumerate(dims):
            if d < 2:
                raise SpecError(f"{what}: term {first} slots[{k}]: slot dimensions must be at least 2")
        grid = _bounded(TimeGrid(tuple(map(float, range(len(dims)))), dims), what)
    coefficients = [
        complex(*_list(tdoc.get("coefficient", [1.0, 0.0]), f"{what}: term {i} coefficient", 2, _number))
        for i, tdoc in enumerate(terms_doc, first)]
    for k, (ops, d) in enumerate(zip(columns, grid.slot_dims)):
        for i, op in enumerate(ops, first):
            if op.shape != (d, d):
                raise SpecError(
                    f"{what}: term {i} slots[{k}]: slot operator shape {op.shape} does not match dim {d}")
    return grid, coefficients, [np.array(ops) for ops in columns]


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
