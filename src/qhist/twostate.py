"""Pre/post-selected measurement sequences and their probability rules.

A two-time experiment is a pre-selected ket (or an initial density operator),
an optional post-selected ket, an ordered row of intermediate measurement
slots (dichotomic observables or None for unmeasured), and one interval
unitary per gap, including the gaps before the first slot and after the last.
The distributions take these as arguments and check them.  Probabilities come
in two distinct semantics that this module keeps separate on purpose:

* amplitude chains (pre/post-conditioned, interference between slots), and
* sequential collapse chains on density operators (nonselective updates).

Outcome strings are '+'/'-' characters ordered earliest-first.  Every table
is computed by the package's chain kernel, ``histories._chains``, whose
rows-last stack (d', m, R, batch) holds string r at axis 2, '+' first with
the earliest slot most significant, for at most ``MAX_MEASURED_SLOTS``
measured slots (unmeasured slots do not count).  Tables reduce it under the
kernel's contract, einsum and real elementwise arithmetic with no BLAS, and
map the kernel's strings to their probabilities in that (sorted) order in a
table that is read-only from the moment it is built (``_Table``).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ImpossiblePostselectionError, ShapeError
# MAX_MEASURED_SLOTS is the chain kernel's bound, re-exported here
from .histories import (MAX_MEASURED_SLOTS, BridgingSet, HistoryState, _chains, _collapse_weights,
                        _term_chains, hs_norm)
from . import linalg
from .linalg import as_ket, as_matrix, density_operator, dichotomic_projectors, identity, pauli

__all__ = [
    "MeasurementSetting",
    "bloch_observables",
    "OutcomeDistribution",
    "sequence_distribution",
    "mixed_sequence_distribution",
    "coherent_bundle_weights",
    "coherent_bundle_distribution",
]

ZERO_WEIGHT_TOL = 1e-15


@dataclass(frozen=True)
class MeasurementSetting:
    """A labeled dichotomic observable with eigenvalues +1 and -1."""

    label: str
    observable: np.ndarray

    def __post_init__(self):
        obs = np.array(as_matrix(self.observable), dtype=complex)
        _hold(self, self.label, obs, dichotomic_projectors(obs, f"observable {self.label!r}"))

    @property
    def dim(self) -> int:
        return self.observable.shape[0]

    def projector(self, outcome: int) -> np.ndarray:
        if outcome not in (+1, -1):
            raise ValueError("outcome must be +1 or -1")
        return self._projectors[0 if outcome == +1 else 1]

    def projectors(self) -> np.ndarray:
        """(P+, P-) stacked: (I + O)/2 and (I - O)/2, computed once, read-only."""
        return self._projectors

    @classmethod
    def stack(cls, entries) -> tuple[Optional["MeasurementSetting"], ...]:
        """Qubit settings for a row of entries, in order.

        An entry is a Pauli name, Bloch angles (theta, phi) or (theta, phi,
        label), or None, which stays None (an unmeasured slot).  All Bloch
        rows take one ``bloch_observables`` call and the whole (k, 2, 2)
        stack one ``dichotomic_projectors`` check, which names the first bad
        setting by its label; each setting holds read-only slices of the
        checked stack.
        """
        entries = tuple(entries)
        rows = [i for i, e in enumerate(entries) if e is not None]
        out: list = [None] * len(entries)
        if not rows:
            return tuple(out)
        obs = np.empty((len(rows), 2, 2), dtype=complex)
        labels = []
        bloch_rows, angles = [], []
        for r, i in enumerate(rows):
            entry = entries[i]
            if isinstance(entry, str):
                obs[r] = pauli(entry)
                labels.append(entry.upper())
                continue
            theta, phi, label = entry if len(entry) == 3 else (*entry, None)
            labels.append(f"bloch({theta:.6g},{phi:.6g})" if label is None else label)
            bloch_rows.append(r)
            angles.append((theta, phi))
        if angles:
            obs[bloch_rows] = bloch_observables(angles)
        pairs = dichotomic_projectors(obs, lambda r: f"observable {labels[r]!r}")
        # one (2, 2, 2) pair per setting, contiguous as a lone setting's is
        pairs = np.ascontiguousarray(pairs.swapaxes(0, 1))
        obs.setflags(write=False)
        for r, i in enumerate(rows):
            out[i] = object.__new__(cls)
            _hold(out[i], labels[r], obs[r], pairs[r])
        return tuple(out)

    @classmethod
    def from_pauli(cls, name: str) -> "MeasurementSetting":
        return cls.stack((name,))[0]

    @classmethod
    def from_bloch(cls, theta: float, phi: float, label: str | None = None) -> "MeasurementSetting":
        return cls.stack(((theta, phi, label),))[0]


def _hold(setting: MeasurementSetting, label: str, obs: np.ndarray, pair: np.ndarray) -> None:
    """Store a checked observable and its projector pair, read-only, on ``setting``."""
    obs.setflags(write=False)
    pair.setflags(write=False)
    object.__setattr__(setting, "label", label)
    object.__setattr__(setting, "observable", obs)
    # an attribute, not a field: fields are what a setting's document holds
    object.__setattr__(setting, "_projectors", pair)


def bloch_observables(angles) -> np.ndarray:
    """Qubit observables n.sigma for a stack of (theta, phi) pairs.

    ``angles`` has shape (..., 2); the result has shape (..., 2, 2).  Sines
    and cosines come from ``math`` one angle at a time, because numpy's
    vectorized trigonometry may differ from libm in the last bit.
    """
    a = np.asarray(angles, dtype=float)
    if a.ndim < 1 or a.shape[-1] != 2:
        raise ShapeError("need (theta, phi) pairs")
    trig = np.array(
        [(math.sin(t), math.cos(t), math.sin(p), math.cos(p)) for t, p in a.reshape(-1, 2).tolist()]
    ).reshape(a.shape[:-1] + (4, 1, 1))
    sin_t, cos_t, sin_p, cos_p = (trig[..., i, :, :] for i in range(4))
    return sin_t * cos_p * pauli("X") + sin_t * sin_p * pauli("Y") + cos_t * pauli("Z")


def _read_only(self, *args, **kwargs):
    raise TypeError("an outcome table is read-only")


class _Table(dict):
    """An outcome table: '+'/'-' strings in sorted order, each mapped to an
    exact, finite ``float``.  It is read-only from the moment it is built, so
    a writer fills one template of its strings with its values."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _Table, (dict(self),)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities for outcome strings of an ordered measurement row.

    The constructor checks a caller's mapping (at least one outcome, one '+'
    or '-' per setting, nonnegative, summing to 1) and holds it as a
    read-only ``_Table``, sorted by outcome string, with each value read by
    ``float()``.  So a key such as ``"0"`` is rejected, ``dist.table[k] = v``
    raises ``TypeError``, and an ``np.float64`` value reads back as ``float``.
    """

    settings: tuple[str, ...]
    table: Mapping[str, float]

    def __post_init__(self):
        table = dict(self.table)
        if not table:
            raise ValueError("distribution must have at least one outcome")
        # C-level maps with the generator forms' short-circuit and comparisons
        if any(map(len(self.settings).__ne__, map(len, table))):
            raise ValueError("outcome strings must have one character per setting")
        if not set("".join(table)) <= {"+", "-"}:
            raise ValueError("outcome strings must hold only '+' and '-'")
        if any(map(operator.lt, table.values(), itertools.repeat(-1e-12))):
            raise ValueError("probabilities must be nonnegative")
        if not abs(sum(table.values()) - 1.0) <= 1e-9:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "table", _Table((k, float(table[k])) for k in sorted(table)))

    def probability(self, outcome: str) -> float:
        return self.table.get(outcome, 0.0)


def _normalized(strings: tuple[str, ...], weights: np.ndarray, labels: tuple[str, ...]) -> OutcomeDistribution:
    """The distribution of nonnegative ``weights``, one per outcome string of
    the chain kernel (sorted), held as it is built: the public checks would
    copy the table and read every entry again."""
    total = float(np.cumsum(weights)[-1])  # left to right, as on every Python
    if total <= ZERO_WEIGHT_TOL:
        raise ImpossiblePostselectionError("total weight is zero; conditional probabilities undefined")
    if not math.isfinite(total):
        raise ValueError("total weight must be finite")
    dist = object.__new__(OutcomeDistribution)
    object.__setattr__(dist, "settings", labels)
    object.__setattr__(dist, "table", _Table(zip(strings, (weights / total).tolist())))
    return dist


def _checked_row(d: int, slots, unitaries) -> tuple[np.ndarray, ...]:
    """Read-only interval unitaries of a slot row on dimension ``d``.

    ``unitaries`` may be None for identities between every pair of slots,
    which are not read or checked.
    Every measured slot must act on dimension ``d``, and there must be one
    unitary per gap, the gaps before the first and after the last slot
    included.  Every entry is read (2-D, finite), then the count checked,
    then the entries in order: shape, then unitarity, with one
    ``check_unitary`` over the stack of entries before the first wrong shape.
    """
    for s in slots:
        if s is not None and s.dim != d:
            raise ShapeError("slot observable dimension does not match the state")
    if unitaries is None:
        return tuple(np.broadcast_to(identity(d), (len(slots) + 1, d, d)))
    us = [as_matrix(u) for u in unitaries]
    if len(us) != len(slots) + 1:
        raise ShapeError("need one interval unitary per gap, boundaries included")
    n = next((k for k, u in enumerate(us) if u.shape != (d, d)), len(us))
    stack = linalg.check_unitary(np.array(us[:n]).reshape(n, d, d), "interval operator")
    if n < len(us):
        raise ShapeError("interval unitary has wrong dimension")
    stack.setflags(write=False)
    return tuple(stack)


def _outcome_table(start, rho, slots, unitaries, post, state: str) -> OutcomeDistribution:
    """Tr(K rho K^dag), normalized, over the chains K (or <post|K) from ``start``
    through the slot row, after checking ``post`` (``state`` names the start
    in its dimension error), the row (``_checked_row``) and that at least one
    slot is measured, in that order."""
    d = start.shape[0]
    if post is not None:
        post = as_ket(post, normalized=True)
        if post.size != d:
            raise ShapeError(f"post ket dimension does not match {state}")
    slots = tuple(slots)
    unitaries = _checked_row(d, slots, unitaries)
    labels = tuple(s.label for s in slots if s is not None)
    if not labels:
        raise ValueError("at least one measured slot is required")
    row = tuple(None if s is None else s.projectors()[None] for s in slots) + (None,)
    strings, chains = _chains(start, unitaries, row)
    chains = chains[..., 0]
    if post is not None:
        # Tr(|post><post| K rho K^dag) is a rho a^dag with the row a = <post|K
        chains = np.einsum("i,ikr->kr", post.conj(), chains)[None]
    return _normalized(strings, np.maximum(_collapse_weights(chains, rho), 0.0), labels)


def sequence_distribution(
    pre,
    slots: Sequence[Optional[MeasurementSetting]],
    unitaries: Sequence | None = None,
    post=None,
) -> OutcomeDistribution:
    """Amplitude-chain distribution over outcome strings of the measured slots.

    ``pre`` must be a normalized ket.  With a post-selection the weight of a
    string is the squared modulus of the bra-projector-chain-ket amplitude;
    without one it is the squared norm of the collapsed vector, which equals
    the complete sum over any final basis.  It is the rank-one case of
    ``mixed_sequence_distribution``: the chains start from the ket, rho = [[1]].
    """
    pre = as_ket(pre, normalized=True)
    return _outcome_table(pre[:, None], np.ones((1, 1), complex), slots, unitaries, post, "the pre ket")


def mixed_sequence_distribution(
    rho0,
    slots: Sequence[Optional[MeasurementSetting]],
    unitaries: Sequence | None = None,
    post=None,
) -> OutcomeDistribution:
    """Sequential-collapse distribution starting from a density operator.

    ``rho0`` is checked as the Bell functionals check their initial state
    (square, unit trace, Hermitian); ``post``, the slot row and the measured
    slots as ``sequence_distribution`` checks them.
    """
    rho0 = density_operator(rho0)
    return _outcome_table(identity(rho0.shape[0]), rho0, slots, unitaries, post, "the state")


# ---------------------------------------------------------------------------
# coherent bundle weights


def coherent_bundle_weights(
    h: HistoryState, b: BridgingSet, measured: Mapping[int, MeasurementSetting]
) -> dict[str, float]:
    """Raw coherent weights |Tr K|^2 after inserting outcome projectors.

    For each outcome string the measured slots of every term of the
    (normalized) history are replaced by the corresponding outcome projectors
    and the branch amplitudes are summed coherently through the chain
    operator; the closed-loop amplitude is its trace.  These weights need not
    sum to one: interference between branches is retained, which is exactly
    how this assignment differs from sequential collapse.

    The terms are the batch axis of the chain kernel (``histories._term_chains``),
    and the term chains of a string are summed left to right as c_t * K_t.
    """
    strings, weights = _coherent_weights(h, b, measured)
    return dict(zip(strings, weights.tolist()))


def _coherent_weights(h, b, measured) -> tuple[tuple[str, ...], np.ndarray]:
    """``coherent_bundle_weights`` as its outcome strings and weight array."""
    if abs(hs_norm(h) - 1.0) > 1e-9:
        raise ValueError("history must be normalized")
    positions = sorted(int(k) for k in measured)
    if not positions:
        raise ValueError("at least one measured slot is required")
    if positions[0] < 0 or positions[-1] >= h.grid.n_slots:
        raise ValueError("measured slot index out of range")
    settings = {pos: measured[pos] for pos in positions}
    dims = h.grid.slot_dims
    for pos, setting in settings.items():
        if setting.dim != dims[pos]:
            shape = setting.observable.shape
            raise ShapeError(f"slot operator shape {shape} does not match dim {dims[pos]}")
    strings, total = _term_chains(h, b, settings)
    n = min(total.shape[:2])  # the leading diagonal, when the slot dimension grows
    traces = np.einsum("iir->r", total[:n, :n])
    return strings, traces.real * traces.real + traces.imag * traces.imag


def coherent_bundle_distribution(
    h: HistoryState, b: BridgingSet, measured: Mapping[int, MeasurementSetting]
) -> OutcomeDistribution:
    strings, weights = _coherent_weights(h, b, measured)
    return _normalized(strings, weights, tuple(measured[k].label for k in sorted(measured)))

