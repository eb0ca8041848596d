"""Dense complex linear algebra for small quantum systems.

Operators and states are bare numpy arrays of dtype complex128: matrices are
2-D, kets 1-D.  Dimensions in this package stay tiny (a few qubits), so
everything is eager and dense; no sparsity or lazy evaluation is attempted.
All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ShapeError

__all__ = [
    "as_matrix",
    "as_ket",
    "kron",
    "partial_trace",
    "max_abs",
    "check_unitary",
    "density_operator",
    "dichotomic_projectors",
    "identity",
    "pauli",
    "qubit_ket",
    "projector",
    "bell_pair_ket",
    "maximally_mixed",
]

DEFAULT_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_ket(v, *, normalized: bool = False, tol: float = 1e-9) -> np.ndarray:
    """Coerce to a 1-D complex vector, optionally enforcing unit norm."""
    k = np.asarray(v, dtype=complex)
    if k.ndim != 1 or k.size == 0:
        raise ShapeError(f"expected a nonempty 1-D ket, got shape {k.shape}")
    if not np.all(np.isfinite(k.real)) or not np.all(np.isfinite(k.imag)):
        raise ValueError("ket entries must be finite")
    if normalized and abs(np.linalg.norm(k) - 1.0) > tol:
        raise ValueError(f"ket is not normalized: |v| = {np.linalg.norm(k)}")
    return k


def kron(a, b) -> np.ndarray:
    """Kronecker product, row-major block convention."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(a, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` are the factor dimensions in order; ``keep`` is a collection of
    factor indices.  Kept factors preserve their original order.  ``keep`` may
    be empty, in which case a 1x1 matrix holding the full trace is returned.
    """
    a = as_matrix(a)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ShapeError(f"factor dimensions must be positive, got {dims}")
    total = math.prod(dims)
    if a.shape != (total, total):
        raise ShapeError(f"matrix shape {a.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if keep and (keep[0] < 0 or keep[-1] >= len(dims)):
        raise ShapeError(f"keep indices {keep} out of range for {len(dims)} factors")
    n = len(dims)
    t = a.reshape(dims + dims)
    row = list(range(n))
    col = [n + i for i in range(n)]
    for i in range(n):
        if i not in keep:
            col[i] = row[i]  # repeated index: summed by einsum
    out = [row[i] for i in keep] + [col[i] for i in keep]
    r = np.einsum(t, row + col, out)
    d_keep = math.prod(dims[k] for k in keep) if keep else 1
    return np.asarray(r, dtype=complex).reshape(d_keep, d_keep)


def max_abs(a) -> float:
    """Entrywise max-modulus norm, used for all tolerance checks."""
    return float(np.max(np.abs(a))) if np.asarray(a).size else 0.0


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex)


# ---------------------------------------------------------------------------
# the one check for each kind of physical input, on one matrix or a stack;
# ``what`` names the input in errors (see ``_raise_first``)


def _entry_max(a) -> np.ndarray:
    """``max_abs`` of each matrix of a stack (NaN for a matrix holding NaN)."""
    return np.abs(a).max(axis=(-2, -1), initial=0.0)


def _raise_first(what, failed, messages) -> None:
    """Raise for the first failure in ``failed``, one per-matrix boolean array
    per condition in check order, described by ``messages``.  ``what`` names
    every matrix (a string: the first condition any matrix fails is raised) or
    each one (a function of the flat index: the lowest-index matrix that fails
    is raised, by its first failing condition)."""
    if not any(f.any() for f in failed):
        return
    failed = np.reshape(failed, (len(messages), -1))
    if isinstance(what, str):
        failed = failed.any(axis=1, keepdims=True)
    entry, condition = np.argwhere(failed.T)[0].tolist()  # (matrix, condition) pairs, matrix-major
    raise ValueError(messages[condition].format(what if isinstance(what, str) else what(entry)))


def check_unitary(u, what: str | Callable[[int], str] = "unitary") -> np.ndarray:
    """``u`` once U^dag U = I: one matrix, an (N, m, n) stack, or a tall isometry."""
    u = np.asarray(u, dtype=complex)
    with np.errstate(invalid="ignore"):  # a non-finite matrix fails before its residual counts
        residual = _entry_max(u.conj().swapaxes(-1, -2) @ u - identity(u.shape[-1]))
    _raise_first(what, [~np.isfinite(u).all(axis=(-2, -1)), residual > DEFAULT_TOL],
                 ("{} entries must be finite", "{} is not unitary"))
    return u


def density_operator(rho, what: str = "initial state") -> np.ndarray:
    """``rho`` once square, unit-trace and Hermitian (positivity is not checked)."""
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ShapeError(f"{what} must be square")
    if abs(np.trace(rho) - 1.0) > DEFAULT_TOL or max_abs(rho - rho.conj().T) > DEFAULT_TOL:
        raise ValueError(f"{what} must be a unit-trace Hermitian density operator")
    return rho


def dichotomic_projectors(obs, what: str | Callable[[int], str] = "observable") -> np.ndarray:
    """(P+, P-) = ((I + O)/2, (I - O)/2) stacked on a new leading axis, for one
    observable O or a (..., d, d) stack, once O is finite, Hermitian, O^2 = I
    and the projectors resolve the identity and are orthogonal."""
    obs = np.asarray(obs, dtype=complex)
    if obs.ndim < 2 or obs.shape[-1] != obs.shape[-2]:
        raise ShapeError(f"{what if isinstance(what, str) else 'observables'} must be square")
    eye = identity(obs.shape[-1])
    with np.errstate(invalid="ignore"):
        pair = np.stack([(eye + a * obs) / 2.0 for a in (+1, -1)])
        failed = [~np.isfinite(obs).all(axis=(-2, -1)),
                  _entry_max(obs - obs.conj().swapaxes(-1, -2)) > DEFAULT_TOL,
                  _entry_max(obs @ obs - eye) > DEFAULT_TOL,
                  _entry_max(pair[0] + pair[1] - eye) > 1e-12,
                  _entry_max(pair[0] @ pair[1]) > 1e-12]
    _raise_first(what, failed, (
        "{} entries must be finite", "{} is not Hermitian", "{} is not dichotomic (O^2 != I)",
        "outcome projectors do not resolve the identity", "outcome projectors are not orthogonal"))
    return pair


_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(name: str) -> np.ndarray:
    try:
        return _PAULIS[name.upper()].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli name {name!r}") from None


_QUBIT_KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / math.sqrt(2),
    "i+": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    "i-": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}


def qubit_ket(name: str) -> np.ndarray:
    try:
        return _QUBIT_KETS[name].copy()
    except KeyError:
        raise ValueError(f"unknown qubit state name {name!r}") from None


def projector(ket) -> np.ndarray:
    k = as_ket(ket)
    return np.outer(k, k.conj())


def bell_pair_ket() -> np.ndarray:
    """(|00> + |11>)/sqrt(2) on two qubits."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return v


def maximally_mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d

