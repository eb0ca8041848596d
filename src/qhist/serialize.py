"""JSON documents, CSV tables, and spec-file parsing.

Output side: ``to_jsonable`` turns any result object from this package into
plain JSON types by one rule: a dataclass becomes the mapping of its fields,
each encoded in turn.  Complex scalars and complex arrays are encoded as
nested arrays of ``[re, im]`` pairs; real arrays (correlator tables) become
nested floats, and quantities that are real by construction (probabilities,
correlators, bounds) stay plain floats.  A few types whose document is not
their field mapping have explicit encoders in ``_ENCODERS``: elementary
histories and history states (slot strings without a per-term grid), mixed
histories, the optimizer's trace rows, scenario results (the top-level
document) and outcome distributions (a table sorted by outcome string).
``document`` wraps everything in the uniform top-level shape
{name, artifacts, notes}.

``dumps_json`` writes a document exactly as ``json.dumps(doc, indent=2,
sort_keys=True)`` would, but joins each container once, mapping its keys
and its all-float or all-string items through C-level functions, so a
2**n-row table is not walked value by value in Python.  CSV tables keep
``csv.writer`` quoting and are written in one ``writerows``.

Input side: small parsers for the human-writable spec files the command line
accepts.  States may be named ("0", "1", "+", "-", "i+", "i-") or explicit
[re, im] vectors; measurement settings may be named Paulis ("X", "Y", "Z")
or Bloch angles {"theta": t, "phi": p}; unitaries may be named
("I", "H", "X", "Y", "Z") or explicit matrices.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
from typing import Mapping

import numpy as np

from .bell import OptimizeResult
from .errors import ShapeError
from .histories import BridgingSet, ElementaryHistory, HistoryState, MixedHistory, TimeGrid
from .linalg import identity, maximally_mixed, pauli, projector, qubit_ket
from .scenarios import ScenarioResult
from .twostate import MeasurementSetting, OutcomeDistribution

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
# 0.6 s wall, 512 take 1.9 s and 1024 take 7.3 s on a 2-CPU VM, about half
# of it writing the matrix's JSON.  Slot operators are dense d x d matrices:
# 16 terms of four 64 x 64 slots take 0.9 s, most of it parsing 12 MB of JSON.
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


def _sorted_table(dist: OutcomeDistribution):
    """The outcome strings in order and an iterator of their probabilities as floats."""
    outcomes = sorted(dist.table)
    return outcomes, map(float, map(dist.table.__getitem__, outcomes))


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
        "terms": [{"coefficient": complex_pair(c), **to_jsonable(eh)} for c, eh in h.terms],
    },
    MixedHistory: lambda m: {
        "ensemble": [{"probability": p, "state": to_jsonable(h)} for p, h in m.ensemble],
    },
    OptimizeResult: lambda r: _fields(r, trace=[
        {"evaluation": int(n), "angles": [float(a) for a in ang], "value": float(v)}
        for n, ang, v in r.trace
    ]),
    OutcomeDistribution: lambda d: {
        "settings": list(d.settings),
        "table": dict(zip(*_sorted_table(d))),
    },
    ScenarioResult: lambda r: document(r.name, r.artifacts, r.notes),
}


def to_jsonable(obj):
    """Recursively convert package objects to plain JSON-compatible types."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return complex_pair(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return matrix_document(obj)
        return obj.astype(float).tolist()
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    encoder = _ENCODERS.get(type(obj))
    if encoder is not None:
        return encoder(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _fields(obj)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


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


def _texts(items, indent: str):
    """JSON texts of a container's items: one C-level map when they are all
    finite floats, all strings, or all float rows of one length ([re, im]
    pairs, correlator rows), one ``_write`` each otherwise."""
    kinds = set(map(type, items))
    if kinds == {float} and math.isfinite(sum(items)):
        return map(float.__repr__, items)
    if kinds == {str}:
        return map(_encode_str, items)
    if kinds <= {list, tuple}:
        lengths = set(map(len, items))
        flat = list(itertools.chain.from_iterable(items))
        if len(lengths) == 1 and set(map(type, flat)) == {float} and math.isfinite(sum(flat)):
            # str.format writes a float as float.__repr__ does
            inner = indent + "  "
            row = "[" + inner + ("," + inner).join(["{}"] * lengths.pop()) + indent + "]"
            return itertools.starmap(row.format, items)
    return [_write(x, indent) for x in items]


def _write(obj, indent: str) -> str:
    """``obj`` as indent=2, sort_keys JSON; ``indent`` is the newline and
    spaces that open a line at the level of ``obj``."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join(_texts(obj, inner)) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        inner = indent + "  "
        values = list(map(obj.__getitem__, keys))
        items = map(": ".join, zip(map(_encode_str, keys), _texts(values, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return _encode_scalar(obj)


def dumps_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, byte for byte.

    ``indent`` sends ``json`` to its pure-Python encoder, which visits every
    value of a 2**n-row table in Python; this writer joins each container
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
    """The table as outcome,probability rows sorted by outcome, numbers as
    ``format_number`` writes them, all rows in one ``writerows``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["outcome", "probability"])
    outcomes, probabilities = _sorted_table(dist)
    writer.writerows(zip(outcomes, map("{:.12g}".format, probabilities)))
    return buf.getvalue()


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


def _pairs_to_array(doc, what: str) -> np.ndarray:
    try:
        a = np.asarray(doc, dtype=float)
    except (TypeError, ValueError):
        raise SpecError(f"{what}: expected nested [re, im] pairs") from None
    if a.ndim < 2 or a.shape[-1] != 2:
        raise SpecError(f"{what}: expected nested [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]


def state_from_document(doc, what: str = "state") -> np.ndarray:
    """A ket from a named single-qubit state or a [re, im] vector."""
    if isinstance(doc, str):
        try:
            return qubit_ket(doc)
        except (KeyError, ValueError):
            raise SpecError(f"{what}: unknown named state {doc!r}") from None
    vec = _pairs_to_array(doc, what)
    if vec.ndim != 1:
        raise SpecError(f"{what}: expected a vector")
    return vec


def matrix_from_document(doc, what: str = "matrix") -> np.ndarray:
    mat = _pairs_to_array(doc, what)
    if mat.ndim != 2:
        raise SpecError(f"{what}: expected a matrix")
    return mat


def unitary_from_document(doc, what: str = "unitary") -> np.ndarray:
    if isinstance(doc, str):
        try:
            return NAMED_UNITARIES[doc.upper()]
        except KeyError:
            known = ", ".join(sorted(NAMED_UNITARIES))
            raise SpecError(f"{what}: unknown named unitary {doc!r} (known: {known})") from None
    return matrix_from_document(doc, what)


def setting_from_document(doc, what: str = "setting") -> MeasurementSetting:
    if isinstance(doc, str):
        name = doc.upper()
        if name in ("X", "Y", "Z"):
            return MeasurementSetting.from_pauli(name)
        raise SpecError(f"{what}: unknown named setting {doc!r} (use X, Y, Z or Bloch angles)")
    if isinstance(doc, dict):
        try:
            theta, phi = float(doc["theta"]), float(doc["phi"])
        except (KeyError, TypeError, ValueError):
            raise SpecError(f"{what}: Bloch form needs numeric 'theta' and 'phi'") from None
        return MeasurementSetting.from_bloch(theta, phi, label=doc.get("label"))
    raise SpecError(f"{what}: expected a Pauli name or Bloch angles")


def bell_spec_from_document(doc: dict, parties: tuple[str, ...]):
    """(rho, one settings pair per party) from a Bell command's spec; an absent
    or "mixed" ``initial`` is the maximally mixed qubit, a state its projector."""
    initial = doc.get("initial")
    if initial is None or initial == "mixed":
        rho = maximally_mixed(2)
    else:
        rho = projector(state_from_document(initial, "initial"))
    pairs = []
    for party in parties:
        pair = doc.get(party)
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecError(f"{party}: expected a list of two settings")
        pairs.append(tuple(setting_from_document(s, f"{party}[{i}]") for i, s in enumerate(pair)))
    return rho, tuple(pairs)


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


def history_from_document(doc: dict, what: str = "history") -> tuple[HistoryState, BridgingSet]:
    """HistoryState plus bridging from a weight-command spec document."""
    hdoc = doc.get("history", doc)
    if not isinstance(hdoc, dict):
        raise SpecError(f"{what}: 'history' must be an object")
    grid_doc = hdoc.get("grid")
    terms_doc = hdoc.get("terms")
    if not isinstance(terms_doc, list) or not terms_doc:
        raise SpecError(f"{what}: 'terms' must be a nonempty list")
    if len(terms_doc) > MAX_HISTORY_TERMS:
        raise SpecError(f"{what}: {len(terms_doc)} terms; at most {MAX_HISTORY_TERMS} are supported")

    first_slots = terms_doc[0].get("slots") if isinstance(terms_doc[0], dict) else None
    if not isinstance(first_slots, list) or not first_slots:
        raise SpecError(f"{what}: each term needs a nonempty 'slots' list")

    if grid_doc is None:
        n = len(first_slots)
        ops0 = [slot_operator_from_document(s, f"{what}: term 0 slot {i}") for i, s in enumerate(first_slots)]
        grid = TimeGrid(tuple(float(i) for i in range(n)), tuple(op.shape[0] for op in ops0))
    else:
        try:
            grid = TimeGrid(tuple(float(x) for x in grid_doc["labels"]),
                            tuple(int(d) for d in grid_doc["slot_dims"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"{what}: bad grid ({exc})") from None
    if max(grid.slot_dims) > MAX_SLOT_DIM:
        raise SpecError(f"{what}: slot dimension {max(grid.slot_dims)}; at most {MAX_SLOT_DIM} is supported")

    terms = []
    for i, tdoc in enumerate(terms_doc):
        if not isinstance(tdoc, dict):
            raise SpecError(f"{what}: term {i} must be an object")
        cdoc = tdoc.get("coefficient", [1.0, 0.0])
        if not (isinstance(cdoc, list) and len(cdoc) == 2):
            raise SpecError(f"{what}: term {i} coefficient must be a [re, im] pair")
        coef = complex(float(cdoc[0]), float(cdoc[1]))
        slots = [
            slot_operator_from_document(s, f"{what}: term {i} slot {j}")
            for j, s in enumerate(tdoc.get("slots", []))
        ]
        if len(slots) != grid.n_slots:
            raise SpecError(f"{what}: term {i} has {len(slots)} slots, grid has {grid.n_slots}")
        terms.append((coef, ElementaryHistory(grid, tuple(slots))))
    # one construction merges repeated slot strings in a single pass
    history = HistoryState(tuple(terms))

    bdoc = doc.get("bridging")
    if bdoc is None:
        bridging = BridgingSet.trivial(grid)
    else:
        unis = bdoc.get("unitaries") if isinstance(bdoc, dict) else bdoc
        if not isinstance(unis, list) or len(unis) != grid.n_slots - 1:
            raise SpecError(f"{what}: bridging needs {grid.n_slots - 1} unitaries")
        bridging = BridgingSet(
            grid, tuple(unitary_from_document(u, f"{what}: bridge {i}") for i, u in enumerate(unis))
        )
    return history, bridging


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

    slots_doc = doc.get("slots")
    if not isinstance(slots_doc, list) or not slots_doc:
        raise SpecError("experiment: 'slots' must be a nonempty list")
    slots = tuple(
        None if s is None else setting_from_document(s, f"slot {i}")
        for i, s in enumerate(slots_doc)
    )
    out["slots"] = slots

    unis_doc = doc.get("unitaries")
    if unis_doc is None:
        out["unitaries"] = None
    else:
        if not isinstance(unis_doc, list) or len(unis_doc) != len(slots) + 1:
            raise SpecError(f"experiment: 'unitaries' must list {len(slots) + 1} entries")
        out["unitaries"] = tuple(
            unitary_from_document(u, f"unitary {i}") for i, u in enumerate(unis_doc)
        )
    return out
