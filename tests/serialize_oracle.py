"""Reference forms of the serializer, kept only as test oracles.

``to_jsonable`` is the per-value ``isinstance`` chain that builds a plain
document as nested Python lists, dicts and scalars, one node at a time: every
value runs the whole chain, in the same order, including the ABC check for a
mapping.  Types whose document is not their field mapping have explicit
encoders in ``ENCODERS``: a history state is built term by term from
``terms``, one ``matrix_document`` per slot operator.  ``document`` wraps an
encoded result in the top-level report shape.  ``json.dumps(document(...),
indent=2, sort_keys=True)`` is the text the package's one-walk writer must
produce.  ``dumps_csv`` and ``dumps_pretty`` flatten a plain document one
entry at a time, through a recursive generator, as the package did before it
took runs of numbers in one pass.
"""

import csv
import dataclasses
import io
from collections.abc import Mapping

import numpy as np

from qhist import ElementaryHistory, HistoryState, MixedHistory, OptimizeResult, OutcomeDistribution
from qhist.errors import ShapeError
from qhist.scenarios import ScenarioResult


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_document(m) -> list:
    """Nested [re, im] pairs for a vector or matrix, one entry at a time."""
    a = np.asarray(m, dtype=complex)
    if a.ndim == 1:
        return [complex_pair(z) for z in a]
    if a.ndim == 2:
        return [matrix_document(row) for row in a]
    raise ShapeError(f"cannot encode array of rank {a.ndim}")


def _fields(obj, **encoded) -> dict:
    doc = {f.name: to_jsonable(getattr(obj, f.name))
           for f in dataclasses.fields(obj) if f.name not in encoded}
    doc.update(encoded)
    return doc


ENCODERS = {
    ElementaryHistory: lambda eh: {"slots": [matrix_document(op) for op in eh.slots]},
    HistoryState: lambda h: {
        "grid": to_jsonable(h.grid),
        "terms": [{"coefficient": complex_pair(c), "slots": [matrix_document(op) for op in eh.slots]}
                  for c, eh in h.terms],
    },
    MixedHistory: lambda m: {
        "ensemble": [{"probability": p, "state": to_jsonable(h)} for p, h in m.ensemble],
    },
    OptimizeResult: lambda r: _fields(r, trace=[
        {"evaluation": int(n), "angles": [float(a) for a in ang], "value": float(v)}
        for n, ang, v in r.trace
    ]),
    OutcomeDistribution: lambda d: {"settings": to_jsonable(list(d.settings)), "table": dict(d.table)},
    ScenarioResult: lambda r: document(r.name, r.artifacts, r.notes),
}


def to_jsonable(obj):
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
    encoder = ENCODERS.get(type(obj))
    if encoder is not None:
        return encoder(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _fields(obj)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def document(name: str, artifacts, notes=()) -> dict:
    return {"name": name, "artifacts": to_jsonable(artifacts), "notes": [str(n) for n in notes]}


def format_number(x) -> str:
    return f"{float(x):.12g}"


def flat_items(node, prefix=""):
    """(key, text) rows of a plain document, one entry at a time, keys sorted."""
    if isinstance(node, dict):
        for k in sorted(node):
            yield from flat_items(node[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from flat_items(v, f"{prefix}[{i}]")
    elif isinstance(node, bool):
        yield prefix, "true" if node else "false"
    elif isinstance(node, (int, float)):
        yield prefix, format_number(node)
    elif node is None:
        yield prefix, ""
    else:
        yield prefix, str(node)


def dumps_csv(doc) -> str:
    """key,value rows, one ``csv.writer`` row per entry."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    for key, value in flat_items(doc):
        writer.writerow([key, value])
    return buf.getvalue()


def dumps_pretty(doc) -> str:
    """An aligned line per entry, one f-string each."""
    lines = [doc.get("name", "report")]
    items = list(flat_items(doc.get("artifacts", {})))
    width = max((len(k) for k, _ in items), default=0)
    for key, value in items:
        lines.append(f"  {key:<{width}}  {value}")
    notes = doc.get("notes", [])
    if notes:
        lines.append("")
        for note in notes:
            lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"
