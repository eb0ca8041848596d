"""Reference forms of the serializer, kept only as test oracles.

``to_jsonable`` is the per-value ``isinstance`` chain that the package's
per-class encoder lookup replaces: every value runs the whole chain, in the
same order, including the ABC check for a mapping.  Types whose document is
not their field mapping still use the package's own encoders.
"""

import dataclasses
from collections.abc import Mapping

import numpy as np

from qhist.serialize import _ENCODERS, complex_pair, matrix_document


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
    encoder = _ENCODERS.get(type(obj))
    if encoder is not None:
        return encoder(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")
