"""History states on discrete time grids.

An elementary history assigns one operator per time slot, stored
earliest-first.  Superpositions of elementary histories carry complex
coefficients and live in the tensor product of per-slot operator spaces,
where the slot-wise Hilbert-Schmidt pairing

    <A, B> = Tr(A^dag B),   <h, g> = sum over term pairs of the product
                            of per-slot pairings

makes them an inner-product space.  Normalized history states have unit
Hilbert-Schmidt norm; constructors accept arbitrary scale and callers
normalize where a probabilistic reading is needed.

Unitary bridging operators connect adjacent slots.  The chain operator of an
elementary history with slots (P_0, ..., P_n) and bridges T_k = T(t_{k+1}, t_k)
is the time-ordered product

    K = P_n T_{n-1} P_{n-1} ... P_1 T_0 P_0

with the latest slot leftmost.  Weights are Tr(K^dag K); the pairwise
decoherence functional Tr(K_i^dag K_j) defines family consistency.

Every chain operator comes from one stacked kernel, ``_chains(start,
intervals, slots)``, which carries all terms' chains (batch axis B) and all
outcome strings (R) through the bridges and slots at once, in a rows-last
layout (d', m, R, B): entry [i, j, r, b] is row i, column j of string r's
chain for term b.  A measured slot, a (P+, P-) pair, splits every string in
two.  Weights, consistency matrices, the coherent bundle and Tr(K rho K^dag),
behind ``twostate``'s tables and ``bell``'s correlators, reduce its output.

Arithmetic contract: the kernel and every reduction of its output are
``np.einsum`` calls with the default ``optimize=False`` (no BLAS) that sum
over one index, ascending from zero, plus real elementwise ``*`` and ``+``;
so a plain-Python complex loop gives the same bits on any BLAS build.  That
bit-for-bit match assumes numpy's einsum loop is compiled without fused
multiply-adds, as on x86-64 builds, the only platform where it is tested.

The temporal reduction's tail (``_reductions``) keeps to the same rule: the
member vectors R z, K times them, the renormalization c^dag K c, K times
the final coefficients and the pairings C^dag (K C) are two-operand
einsums over one index, and the phases, cut and merges are elementwise.
What the package still leaves to LAPACK and BLAS, and so to the build's
kernels: the reduction's front (the two stacked ``eigh`` calls and the
stacked R^dag K R product), the ``vdot`` and ``norm`` of a degenerate
cluster's Gram-Schmidt step (``_canonical_basis``), the per-slot Grams
``_grams`` (and so norms, ``hs_inner`` and every kept Gram K),
``mixed_overlap``, ``mixed_history_density`` and the pairings of an
ensemble given to ``MixedHistory`` directly.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateHistoryError,
    GridMismatchError,
    NonFactorizableEvolutionError,
    ShapeError,
)
from . import linalg
from .linalg import as_matrix, bell_pair_ket, identity, max_abs, projector

__all__ = [
    "TimeGrid",
    "ElementaryHistory",
    "HistoryState",
    "BridgingSet",
    "MixedHistory",
    "ConsistencyReport",
    "SubsystemReduction",
    "chain_operator_sum",
    "weight",
    "hs_inner",
    "hs_norm",
    "normalize",
    "is_consistent_family",
    "temporal_partial_trace",
    "subsystem_trace_out",
    "purity",
    "mixed_history_density",
    "mixed_overlap",
    "best_joint_bell_reduction_overlap",
]

MERGE_TOL = 1e-12
MAX_MEASURED_SLOTS = 20
UNITARITY_TOL = 1e-9
# temporal_partial_trace: eigenvalues of a unit-trace reduced operator this
# close to their cluster's largest share one eigenspace, and a term string
# whose projection onto it is shorter than SPAN_TOL of its norm does not
# fix a basis vector (see _canonical_basis)
DEGENERACY_TOL = 1e-12
SPAN_TOL = 1e-8


def _frozen(m) -> np.ndarray:
    out = np.array(as_matrix(m), dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Ordered time labels with one Hilbert-space dimension per slot."""

    labels: tuple[float, ...]
    slot_dims: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(float(t) for t in self.labels)
        dims = tuple(int(d) for d in self.slot_dims)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "slot_dims", dims)
        if len(labels) < 1:
            raise ValueError("a time grid needs at least one slot")
        if len(labels) != len(dims):
            raise ValueError("labels and slot_dims must have equal length")
        if any(b <= a for a, b in zip(labels, labels[1:])):
            raise ValueError("time labels must be strictly increasing")
        if any(d < 2 for d in dims):
            raise ValueError("slot dimensions must be at least 2")

    @classmethod
    def regular(cls, n_slots: int, dim: int = 2) -> "TimeGrid":
        return cls(tuple(float(k) for k in range(n_slots)), (dim,) * n_slots)

    @classmethod
    def _held(cls, labels: tuple, slot_dims: tuple) -> "TimeGrid":
        """The grid of labels and dimensions already read and checked, such
        as some of a grid's slots in order: nothing is checked again."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "labels", labels)
        object.__setattr__(grid, "slot_dims", slot_dims)
        return grid

    @property
    def n_slots(self) -> int:
        return len(self.labels)


def _require_same_grid(a: TimeGrid, b: TimeGrid) -> None:
    if a != b:
        raise GridMismatchError("objects are defined on different time grids")


# entries of the (row length, rows, rows) difference stack, or of a long row's
# (rows, columns) slab, that _merge_rows holds at once; each has one row or column
_MERGE_BLOCK = 1 << 17
# a row of at least this many entries is compared alone with the rows before
# it, along its own contiguous axis; shorter rows go in blocks along the
# leading axis of the transposed rows, which is faster for them
_MERGE_LONG_ROW = 256


def _merge_rows(rows: np.ndarray) -> tuple[list[int], np.ndarray]:
    """First-match merge of term rows: row t joins the first earlier
    unmerged row within MERGE_TOL in every entry.  Returns the unmerged rows'
    indices, in order, and each row's position among them.

    A block of rows is compared with every row up to its end at once, entry
    by entry along the leading axis of the transposed rows (|a - b| is
    symmetric, and a NaN entry matches nothing); a row of at least
    _MERGE_LONG_ROW entries is a block of its own and is compared with the
    unmerged rows before it only, along its own axis, in column slabs, until
    none is close.  The first unmerged match of each row is then read off the
    pairs that matched, in order."""
    n_rows = len(rows)
    if n_rows < 2:
        return list(range(n_rows)), np.zeros(n_rows, dtype=int)
    long = rows.shape[1] >= _MERGE_LONG_ROW
    cols = None if long else np.ascontiguousarray(rows.T)
    step = 1 if long else max(1, _MERGE_BLOCK // rows.size)
    pos: dict[int, int] = {}  # each unmerged row's position among them
    unmerged = np.zeros(n_rows, dtype=bool)
    group = np.empty(n_rows, dtype=int)
    for start in range(0, n_rows, step):
        stop = min(n_rows, start + step)
        if long:
            close = unmerged[None, :start].copy()
            width = _MERGE_BLOCK // max(1, start) or 1
            for cut in range(0, rows.shape[1], width):
                if close.any():
                    diff = rows[:start, cut:cut + width] - rows[start, cut:cut + width]
                    close &= np.abs(diff).max(axis=1) <= MERGE_TOL
        else:
            close = np.abs(cols[:, start:stop, None] - cols[:, None, :stop]).max(axis=0) <= MERGE_TOL
        if start:
            close[:, :start] &= unmerged[:start]  # the rows before the block are settled
        _settle(close, start, pos, unmerged, group)
    return list(pos), group


def _settle(close: np.ndarray, start: int, pos: dict, unmerged: np.ndarray, group: np.ndarray) -> None:
    """First-match resolution of rows start, start + 1, ...: ``close[t -
    start, j]`` marks row j within MERGE_TOL of row t, and row t joins the
    first earlier unmerged row among them (its position among the unmerged
    rows, ``pos``, goes in ``group[t]``) or becomes unmerged itself."""
    earlier: list[list[int]] = [[] for _ in range(len(close))]
    ts, js = np.nonzero(close)
    for t, j in zip(ts.tolist(), js.tolist()):
        if j < start + t:
            earlier[t].append(j)
    for t, hits in enumerate(earlier, start):
        g = next((pos[j] for j in hits if j in pos), None)
        if g is None:
            g = pos[t] = len(pos)
            unmerged[t] = True
        group[t] = g


def _uncancelled(coefs: np.ndarray) -> list[int]:
    """Indices of the coefficients above 1e-15 of the largest magnitude (the
    first alone if none is, as with an infinite one), or of all of them when
    the largest is zero."""
    mags = np.abs(coefs).tolist()
    scale = max(mags, default=0.0)
    if not scale > 0.0:
        return list(range(len(mags)))
    return [i for i, m in enumerate(mags) if m > 1e-15 * scale] or [0]


@dataclass(frozen=True)
class ElementaryHistory:
    """One operator per slot, earliest slot first."""

    grid: TimeGrid
    slots: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_frozen(s) for s in self.slots)
        object.__setattr__(self, "slots", ops)
        if len(ops) != self.grid.n_slots:
            raise ShapeError("one slot operator required per grid slot")
        for op, d in zip(ops, self.grid.slot_dims):
            if op.shape != (d, d):
                raise ShapeError(f"slot operator shape {op.shape} does not match dim {d}")

    @classmethod
    def _held(cls, grid: TimeGrid, ops: tuple) -> "ElementaryHistory":
        """The string of ``ops``, read-only operators already checked against
        ``grid``'s dimensions: nothing is copied or checked again."""
        eh = object.__new__(cls)
        object.__setattr__(eh, "grid", grid)
        object.__setattr__(eh, "slots", ops)
        return eh


@dataclass(frozen=True, eq=False, init=False)
class HistoryState:
    """Complex-weighted superposition of elementary histories on one grid.

    A state is its term arrays, both read-only: the coefficients ``_coefs``
    and ``_rows``, row t holding term t's slot operators (``_join_rows``).
    Terms whose slot strings coincide (every entry within 1e-12) merge on
    construction into the first of them.  The geometry and the chain kernel
    read the rows as per-slot stacks (``_stacks``), and the per-slot
    self-Grams (``_self_grams``) are computed once per state and shared by
    every scalar multiple of it.  ``terms``, the (coefficient,
    ElementaryHistory) pairs, is built when first read.  Equality is identity.
    """

    grid: TimeGrid
    _coefs: np.ndarray
    _rows: np.ndarray = field(repr=False)

    def __new__(cls, terms: Iterable[tuple[complex, ElementaryHistory]]) -> "HistoryState":
        terms = [(complex(c), eh) for c, eh in terms]
        if not terms:
            raise ValueError("a history state needs at least one term")
        grid = terms[0][1].grid
        for _, eh in terms:
            _require_same_grid(grid, eh.grid)
        return cls._from_rows(grid, [c for c, _ in terms], _join_rows(zip(*(eh.slots for _, eh in terms))))

    @classmethod
    def _from_rows(cls, grid: TimeGrid, coefs, rows: np.ndarray, distinct: bool = False) -> "HistoryState":
        """sum_t coefs[t] (row t's slot string) from term rows already checked
        against ``grid``, which are not copied or checked again.  Terms with
        equal rows merge into the first of them (``_merge_rows``), summing
        their coefficients in term order, unless the rows are ``distinct``
        already; then the terms whose coefficient cancelled (``_uncancelled``)
        are dropped."""
        if not distinct:
            firsts, group = _merge_rows(rows)
            sums = [coefs[t] for t in firsts]
            for t, g in enumerate(group.tolist()):
                if t != firsts[g]:
                    sums[g] += coefs[t]
            coefs, rows = sums, rows[firsts]
        coefs = np.array(coefs, dtype=complex)
        live = _uncancelled(coefs)
        if len(live) < len(coefs):
            coefs, rows = coefs[live], rows[live]
        return cls._held(grid, coefs, rows)

    @classmethod
    def _held(cls, grid: TimeGrid, coefs: np.ndarray, rows: np.ndarray) -> "HistoryState":
        """The state of complex ``coefs`` on distinct, uncancelled term
        ``rows`` already checked against ``grid``: both are held, read-only,
        and nothing is merged, copied or checked."""
        coefs.setflags(write=False)
        rows.setflags(write=False)
        h = object.__new__(cls)
        for name, value in (("grid", grid), ("_coefs", coefs), ("_rows", rows)):
            object.__setattr__(h, name, value)
        return h

    def __reduce__(self):
        return HistoryState._from_rows, (self.grid, self._coefs, self._rows, True)

    @property
    def n_terms(self) -> int:
        return len(self._coefs)

    @functools.cached_property
    def terms(self) -> tuple[tuple[complex, ElementaryHistory], ...]:
        """(coefficient, string) pairs; each string's operators are read-only
        views of ``_rows``."""
        return tuple((c, ElementaryHistory._held(self.grid, ops))
                     for c, ops in zip(self._coefs.tolist(), zip(*self._stacks)))

    @functools.cached_property
    def _stacks(self) -> tuple[np.ndarray, ...]:
        """Slot k's term operators as a read-only (T, d_k, d_k) view of
        ``_rows``, earliest slot first."""
        return _split_rows(self._rows, self.grid.slot_dims)

    @functools.cached_property
    def _self_grams(self) -> tuple[np.ndarray, ...]:
        """Per-slot Grams of the terms with themselves (``_grams``), read-only."""
        grams = _grams(self._stacks, self._stacks)
        for g in grams:
            g.setflags(write=False)
        return tuple(grams)

    @classmethod
    def from_slots(cls, grid: TimeGrid, ops: Sequence, coefficient: complex = 1.0) -> "HistoryState":
        return cls(((coefficient, ElementaryHistory(grid, tuple(ops))),))

    @classmethod
    def from_elementary(cls, eh: ElementaryHistory, coefficient: complex = 1.0) -> "HistoryState":
        return cls(((coefficient, eh),))

    def __add__(self, other: "HistoryState") -> "HistoryState":
        _require_same_grid(self.grid, other.grid)
        return HistoryState._from_rows(self.grid, self._coefs.tolist() + other._coefs.tolist(),
                                       np.concatenate((self._rows, other._rows)))

    def __sub__(self, other: "HistoryState") -> "HistoryState":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "HistoryState":
        s = complex(scalar)
        # Python's complex product, which numpy's differs from in the last bits
        out = HistoryState._from_rows(self.grid, [s * c for c in self._coefs.tolist()], self._rows,
                                      distinct=True)
        if out._rows is self._rows:
            # same strings: the cached stacks and Grams carry over
            for name in ("_stacks", "_self_grams"):
                if name in self.__dict__:
                    out.__dict__[name] = self.__dict__[name]
        return out

    __rmul__ = __mul__


@dataclass(frozen=True)
class BridgingSet:
    """Unitary propagators T(t_{k+1}, t_k), one per adjacent slot pair."""

    grid: TimeGrid
    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        # read every bridge (2-D, finite), check the count, then shape and unitarity in
        # order: one check_unitary per run of equal shapes before the first wrong one
        mats = [as_matrix(u) for u in self.unitaries]
        dims = self.grid.slot_dims
        if len(mats) != len(dims) - 1:
            raise ShapeError("need exactly one bridge per adjacent slot pair")
        shapes = list(zip(dims[1:], dims[:-1]))
        n = next((k for k, u in enumerate(mats) if u.shape != shapes[k]), len(mats))
        checked: list = []
        for (rows, cols), run in itertools.groupby(shapes[:n]):
            k, m = len(checked), len(list(run))
            if rows < cols:  # no such bridge is an isometry
                raise ShapeError(f"bridge {k}: a unitary bridge cannot shrink the slot dimension from {cols} to {rows}")
            stack = linalg.check_unitary(np.array(mats[k:k + m]), lambda i, k=k: f"bridge {k + i}")
            stack.setflags(write=False)
            checked.extend(stack)
        if n < len(mats):
            raise ShapeError(f"bridge {n} shape {mats[n].shape} incompatible with slot dims")
        object.__setattr__(self, "unitaries", tuple(checked))

    @classmethod
    def trivial(cls, grid: TimeGrid) -> "BridgingSet":
        # identities are unitary by construction: read-only and not checked
        if len(set(grid.slot_dims)) != 1:
            raise ShapeError("trivial bridging requires equal slot dimensions")
        d = grid.slot_dims[0]
        b = object.__new__(cls)
        object.__setattr__(b, "grid", grid)
        object.__setattr__(b, "unitaries", tuple(np.broadcast_to(identity(d), (grid.n_slots - 1, d, d))))
        return b


def _as_state(h) -> HistoryState:
    if isinstance(h, HistoryState):
        return h
    if isinstance(h, ElementaryHistory):
        return HistoryState.from_elementary(h)
    raise TypeError(f"expected a history, got {type(h).__name__}")


# ---------------------------------------------------------------------------
# chain operators and weights


def _check_measured_slots(n_measured: int) -> None:
    """The chain kernel's bound: an outcome table doubles with every measured slot."""
    if n_measured > MAX_MEASURED_SLOTS:
        raise ValueError(f"at most {MAX_MEASURED_SLOTS} measured slots are supported, got {n_measured}")


# outcome string tuples of at most this many strings are built once per length
# and shared (every length up to 14 slots kept: 2.3 MB in all); longer ones,
# up to MAX_MEASURED_SLOTS = 20 slots (2**20 strings, 81 MB), are built per call
_SHARED_OUTCOME_STRINGS = 1 << 14


def _strings(n: int) -> tuple[str, ...]:
    return tuple(map("".join, itertools.product("+-", repeat=n)))


_shared_strings = functools.cache(_strings)


def _outcome_strings(n: int) -> tuple[str, ...]:
    """The 2**n outcome strings of n measured slots, '+' first with the
    earliest slot most significant, which is sorted order ('+' is 0x2B, '-'
    0x2D).  Up to _SHARED_OUTCOME_STRINGS strings, every call for one n
    returns the same tuple."""
    return (_shared_strings if 1 << n <= _SHARED_OUTCOME_STRINGS else _strings)(n)


def _chains(start: np.ndarray, intervals, slots) -> tuple[tuple[str, ...], np.ndarray]:
    """Every outcome string's chain, carried through a row as one stack.

    Step k applies ``intervals[k]`` (None for none) to the whole stack, then
    ``slots[k]`` (None for none), a (batch or 1, o, d, d) stack of term b's
    operator for outcome o: a measured (P+, P-) pair (o = 2) splits every
    string into its '+' chain followed by its '-' chain, and o = 1 is one
    operator per term (its own, or a unitary).  ``start`` is a (d, m) matrix.
    Returns the outcome strings and a (d', m, 2**n_measured, batch) stack
    whose [:, :, r, b] is string r's chain for term b: '+' first, earliest
    slot first, so the strings are in sorted order.  They come from
    ``_outcome_strings``, which shares one tuple per length across calls up
    to its bound.  Each step is one einsum over the row index of the stack.
    More than MAX_MEASURED_SLOTS measured slots are rejected before any product.
    """
    n_measured = sum(ops is not None and ops.shape[1] == 2 for ops in slots)
    _check_measured_slots(n_measured)
    strings = _outcome_strings(n_measured)
    x = start[:, :, None, None]
    for interval, ops in zip(intervals, slots):
        if interval is not None:
            x = np.einsum("ik,kjrb->ijrb", interval, x)
        if ops is not None:
            # string r's outcome o lands at o_count * r + o, in string order
            x = np.einsum("boik,kjrb->ijrob", ops, x)
            x = x.reshape(x.shape[:2] + (-1, x.shape[-1]))
    return strings, x


def _term_chains(h: HistoryState, b: BridgingSet, settings={}) -> tuple[tuple[str, ...], np.ndarray]:
    """Summed chain operators sum_t c_t K_t, one per outcome string.

    Slot k carries the terms' own operators unless ``settings`` measures it,
    in which case each string puts its outcome projector there.  The terms
    are the kernel's batch axis, summed in term order.  Returns the strings
    and a (d_last, d_first, 2**len(settings)) stack.
    """
    _require_same_grid(h.grid, b.grid)
    row = [settings[k].projectors()[None] if k in settings else s[:, None] for k, s in enumerate(h._stacks)]
    strings, chains = _chains(identity(h.grid.slot_dims[0]), (None,) + b.unitaries, row)
    # an all-measured row has a batch of one, which broadcasts over the terms
    return strings, np.einsum("ijrb,b->ijr", chains, h._coefs)


def chain_operator_sum(h, b: BridgingSet) -> np.ndarray:
    """Coefficient-weighted sum of term chain operators (linear in terms).

    An ``ElementaryHistory`` gives its own chain operator
    P_n T_{n-1} ... T_0 P_0.
    """
    return _term_chains(_as_state(h), b)[1][..., 0]


def _pairings(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_s conj(a[s, r]) b[s, r] for each column r: on flattened matrices,
    Tr(A^dag B), a sum of squares with no imaginary part when a is b."""
    return np.einsum("sr,sr->r", a.conj(), b)


def _collapse_weights(chains: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr(K rho K^dag) = sum_il conj(K_il) (K rho)_il for each K of a (d', m, n) stack."""
    flat = (-1, chains.shape[-1])
    return _pairings(chains.reshape(flat), np.einsum("ikr,kl->ilr", chains, rho).reshape(flat)).real


def weight(h, b: BridgingSet) -> float:
    """Tr(K^dag K) of the summed chain operator; zero is a valid weight."""
    k = chain_operator_sum(h, b).reshape(-1, 1)
    return float(_pairings(k, k)[0].real)


@dataclass(frozen=True)
class ConsistencyReport:
    """Pairwise decoherence functional for a family of histories."""

    consistent: bool
    matrix: np.ndarray
    max_offdiagonal: float
    tol: float

    def __bool__(self) -> bool:
        return self.consistent


def is_consistent_family(family: Sequence, b: BridgingSet, tol: float = 1e-9) -> ConsistencyReport:
    """Check |Tr(K_i^dag K_j)| <= tol for all i != j (medium decoherence).

    All members' terms go through the chain kernel in one call.
    """
    states = [_as_state(h) for h in family]
    if not states:
        raise ValueError("family must be nonempty")
    for h in states:
        _require_same_grid(h.grid, b.grid)
    stacks = tuple(np.concatenate(s) for s in zip(*(h._stacks for h in states)))
    coefs = np.concatenate([h._coefs for h in states])
    return _family_report(stacks, coefs, [h.n_terms for h in states], b, tol)


def _term_consistency(h: HistoryState, b: BridgingSet, tol: float = 1e-9) -> ConsistencyReport:
    """``is_consistent_family`` of the terms of ``h``, each normalized on its
    own: term t enters as c_t eh_t / ||c_t eh_t||, with no one-term state
    built.  A term whose norm is not finite or is zero raises the error
    ``normalize`` would, for the first such term.
    """
    _require_same_grid(h.grid, b.grid)
    coefs = h._coefs
    with np.errstate(over="ignore", invalid="ignore"):
        sq = coefs.conj() * coefs
        for stack in h._stacks:
            # each term's own (1, d^2) @ (d^2, 1) pairing, as hs_norm of a
            # one-term state makes it: a Gram's diagonal is summed in
            # another order and would move the last bits
            flat = stack.reshape(len(stack), 1, -1)
            sq = sq * (flat.conj() @ flat.transpose(0, 2, 1))[:, 0, 0]
        sq = sq.real
    norms = np.sqrt(np.maximum(sq, 0.0))
    bad = np.flatnonzero(~np.isfinite(sq) | (norms <= 1e-15))
    if bad.size:
        if not math.isfinite(sq[bad[0]]):
            raise ValueError(_NON_FINITE_NORM)
        raise DegenerateHistoryError(_ZERO_NORM)
    return _family_report(h._stacks, coefs * (1.0 / norms), [1] * len(coefs), b, tol)


def _family_report(stacks, coefs: np.ndarray, counts: Sequence[int], b: BridgingSet,
                   tol: float) -> ConsistencyReport:
    """Consistency of a family whose members are runs of consecutive terms:
    ``counts[i]`` terms each, with per-slot operator ``stacks`` and
    coefficients ``coefs`` over all terms.  One chain-kernel call."""
    x = _chains(identity(stacks[0].shape[1]), (None,) + b.unitaries, [s[:, None] for s in stacks])[1]
    weighted = np.einsum("sb,b->bs", x.reshape(-1, len(coefs)), coefs)
    # each member's terms summed left to right, as a reduce over its own terms
    # would (np.add.reduceat pairs them in another order)
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    chains = weighted[starts]
    for p in range(1, int(counts.max())):
        rows = np.flatnonzero(counts > p)
        chains[rows] += weighted[starts[rows] + p]
    d = np.einsum("is,js->ij", chains.conj(), chains)  # D[i, j] = Tr(K_i^dag K_j)
    # Tr(K^dag K) is real; an einsum built with fused multiply-adds may leave rounding in the imaginary part
    np.fill_diagonal(d, d.diagonal().real)
    n = len(d)
    off = 0.0
    if n > 1:
        mask = ~np.eye(n, dtype=bool)
        off = float(np.max(np.abs(d[mask])))
    d.setflags(write=False)
    return ConsistencyReport(off <= tol, d, off, tol)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt geometry


def _join_rows(stacks) -> np.ndarray:
    """Term rows, copied from per-slot stacks of T matrices each, earliest first."""
    return np.concatenate([np.reshape(s, (len(s), -1)) for s in stacks], axis=1, dtype=complex)


def _split_rows(rows: np.ndarray, dims: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Term rows (slot operators flattened and concatenated, earliest slot
    first) as per-slot (T, d_k, d_k) views; with ``_join_rows``, the only
    code that knows that layout."""
    ends = np.cumsum([d * d for d in dims]).tolist()
    return tuple(rows[:, e - d * d:e].reshape(-1, d, d) for d, e in zip(dims, ends))


def _grams(stacks_a, stacks_b) -> list[np.ndarray]:
    """Per-slot Hilbert-Schmidt Grams G_k[t, t'] = Tr(A_tk^dag B_t'k) between
    the terms of two per-slot stacks, earliest slot first."""
    return [a.reshape(len(a), -1).conj() @ b.reshape(len(b), -1).T for a, b in zip(stacks_a, stacks_b)]


def hs_inner(h1, h2) -> complex:
    """Slot-wise Hilbert-Schmidt pairing, antilinear in the first argument:
    the sum over term pairs of conj(c_t) c'_t' prod_k G_k[t, t']."""
    h1, h2 = _as_state(h1), _as_state(h2)
    _require_same_grid(h1.grid, h2.grid)
    prod = np.outer(h1._coefs.conj(), h2._coefs)
    for g in h1._self_grams if h1 is h2 else _grams(h1._stacks, h2._stacks):
        prod *= g
    # a running sum in term-pair order: np.sum's pairwise order would move
    # the last bits of reported norms
    return complex(np.cumsum(prod.ravel())[-1])


_NON_FINITE_NORM = ("history norm is not finite: coefficients and matrix entries must be finite "
                    "and small enough that the squared norm does not overflow")
_ZERO_NORM = "cannot normalize a zero-norm history"


def hs_norm(h) -> float:
    """Hilbert-Schmidt norm; a norm that overflows or is NaN is an error."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = hs_inner(h, h).real
    if not math.isfinite(sq):
        raise ValueError(_NON_FINITE_NORM)
    return math.sqrt(max(sq, 0.0))


def _unit_scale(h: HistoryState) -> complex:
    """The factor 1/||h|| that ``normalize`` applies; zero norm is an error."""
    n = hs_norm(h)
    if n <= 1e-15:
        raise DegenerateHistoryError(_ZERO_NORM)
    return complex(1.0 / n)


def normalize(h) -> HistoryState:
    h = _as_state(h)
    return _unit_scale(h) * h


# ---------------------------------------------------------------------------
# mixtures


@dataclass(frozen=True)
class MixedHistory:
    """Classical ensemble of normalized history states (never a superposition).

    The members are also held in term coordinates: T' term strings, as
    per-slot (T', d_k, d_k) stacks (``_strings``), their Hilbert-Schmidt Gram
    K = prod_k G_k (``_gram``, T' x T') and a T' x M matrix C (``_coefs``)
    whose column m is member m's coefficients over the strings, zero off its
    own terms.  Members i and j pair as (C^dag K C)_ij (``_pairings``), which
    is all that ``purity`` and the unit-norm check of the members read;
    ``mixed_overlap`` needs one cross-Gram from the target to the strings.
    A temporal reduction hands over its merged kept strings; an ensemble
    given here is written over its members' terms laid end to end, so its C
    is block diagonal.  All four arrays are read-only.
    """

    ensemble: tuple[tuple[float, HistoryState], ...]
    _strings: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _gram: np.ndarray = field(init=False, repr=False, compare=False)
    _coefs: np.ndarray = field(init=False, repr=False, compare=False)
    _pairings: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ens = tuple((float(p), h) for p, h in self.ensemble)
        _check_probabilities(ens)
        for _, h in ens:
            _require_same_grid(ens[0][1].grid, h.grid)
        strings = tuple(np.concatenate(s) for s in zip(*(h._stacks for _, h in ens)))
        counts = [h.n_terms for _, h in ens]
        coefs = np.zeros((sum(counts), len(ens)), dtype=complex)
        for m, ((_, h), end) in enumerate(zip(ens, np.cumsum(counts).tolist())):
            coefs[end - h.n_terms:end, m] = h._coefs
        with np.errstate(over="ignore", invalid="ignore"):
            gram = math.prod(_grams(strings, strings))
            pairings = coefs.conj().T @ gram @ coefs
        _check_unit_norms(pairings.diagonal().real)
        self._set_coordinates(ens, strings, gram, coefs, pairings)

    @classmethod
    def _from_coordinates(cls, ens, strings, gram, coefs, pairings) -> "MixedHistory":
        """The ensemble of members whose norms, from ``pairings``, are
        already checked (``_check_unit_norms``); its probabilities are checked."""
        m = object.__new__(cls)
        _check_probabilities(ens)
        m._set_coordinates(ens, strings, gram, coefs, pairings)
        return m

    def _set_coordinates(self, ens, strings, gram, coefs, pairings) -> None:
        for a in (*strings, gram, coefs, pairings):
            a.setflags(write=False)
        for name, value in (("ensemble", ens), ("_strings", strings), ("_gram", gram),
                            ("_coefs", coefs), ("_pairings", pairings)):
            object.__setattr__(self, name, value)

    @property
    def grid(self) -> TimeGrid:
        return self.ensemble[0][1].grid

    @property
    def _probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.ensemble])


def _check_unit_norms(sq: np.ndarray) -> None:
    """Every member has unit norm: each squared norm (C^dag K C)_mm is
    finite and its root within 1e-9 of 1."""
    if not np.isfinite(sq).all():
        raise ValueError(_NON_FINITE_NORM)
    if (np.abs(np.sqrt(np.maximum(sq, 0.0)) - 1.0) > 1e-9).any():
        raise ValueError("ensemble members must be normalized")


def _check_probabilities(ens) -> None:
    if not ens:
        raise ValueError("ensemble must be nonempty")
    if any(p <= 0 for p, _ in ens):
        raise ValueError("ensemble probabilities must be positive")
    if abs(sum(p for p, _ in ens) - 1.0) > 1e-9:
        raise ValueError("ensemble probabilities must sum to 1")


def purity(m: MixedHistory) -> float:
    """Tr(rho^2) = sum_ij p_i p_j |(C^dag K C)_ij|^2 of the ensemble density
    operator in history space."""
    p = m._probabilities
    return float(np.cumsum((np.outer(p, p) * np.abs(m._pairings) ** 2).ravel())[-1])


def mixed_history_density(m: MixedHistory) -> np.ndarray:
    """Density operator sum_m p_m v_m v_m^dag of the ensemble in the vectorized
    history space: v_m = (W^T C)_m, row j of W being the Kronecker product of
    term string j's slot operators flattened row-major, earliest slot first."""
    flats = [s.reshape(len(s), -1) for s in m._strings]
    w = flats[0]
    for f in flats[1:]:
        w = (w[:, :, None] * f[:, None, :]).reshape(len(w), -1)
    v = w.T @ m._coefs
    return (v * m._probabilities) @ v.conj().T


def mixed_overlap(m: MixedHistory, target) -> float:
    """Fidelity <t|rho|t> = sum_m p_m |(k^dag C)_m|^2 of the ensemble with a
    normalized pure history, k = X^dag d from the target's coefficients d
    and its cross-Gram X to the ensemble's term strings."""
    t = _as_state(target)
    _require_same_grid(t.grid, m.grid)
    amps = (t._coefs.conj() @ math.prod(_grams(t._stacks, m._strings))) @ m._coefs
    return float(np.cumsum(m._probabilities * np.abs(amps) ** 2)[-1])


# ---------------------------------------------------------------------------
# temporal partial trace (over slots)


def temporal_partial_trace(h, keep_slots: Iterable[int], tol: float = 1e-12) -> MixedHistory:
    """Reduce a history state to a subset of slots.

    The reduced operator of the normalized state sum_t c_t (x)_k v_tk, where
    v_tk is slot k's operator flattened row-major, is

        rho_keep = W^T A W^*,   A = (c c^dag) . prod_{k traced} G_k^*,

    with G_k[t, t'] = <v_tk, v_t'k> slot k's term Gram (the state's cached
    ``_self_grams``, which also give its norm), ``.`` the elementwise
    product, and row w_t of W the Kronecker product of term t's kept v_tk
    (``mixed_history_density``'s layout).  Neither rho_keep nor any
    history-space vector is formed: with A = R R^dag and K = W^* W^T =
    prod_{k kept} G_k, rho_keep has the nonzero eigenvalues of the T x T
    matrix R^dag K R.  An eigenvector z with eigenvalue lam gives the member
    sum_t c_t w_t, c = R z / sqrt(lam), written over term t's own kept slot
    operators.  Rounding puts its norm sqrt(c^dag K c) off 1 by
    O(eps / lam), so c is divided by that norm; terms with |c_t| |w_t| at
    most 1e-14 are dropped.  The kept strings are merged once (T -> T'
    distinct strings, as ``HistoryState`` merges) and every member is
    written over them, so the result carries its members as a T' x M
    coefficient matrix with the kept Gram (see ``MixedHistory``).  For T
    terms on n slots of dimension d this costs O(T^2 n d^2 + T^3) in all,
    with no per-member Gram: the members cost O(T^2) each, and D_keep =
    prod_{k kept} d_k^2, the kept history dimension, bounds their number.

    This is the one-set case of ``_reductions``, which reduces one state to
    many slot sets in a single stacked pass: their A and K are built as one
    stack and share each eigensolve and every product that builds the
    members, and each reduction comes out bit for bit as it would alone.

    ``keep_slots`` holds integer slot indices (what ``operator.index``
    accepts, bools excepted).  Eigenvalues within ``DEGENERACY_TOL`` of their
    cluster's largest form one eigenspace, whose members do not depend on
    how LAPACK picks its basis (``_canonical_members``).  Members with
    eigenvalue at most ``tol``, which must be positive and finite, are
    dropped; a ``tol`` at or above the largest eigenvalue is an error.  The
    output is a mixture: reductions of entangled histories are ensembles,
    not superpositions.
    """
    return _reductions(h, [keep_slots], tol)[0]


def _slot_index(k) -> int:
    if not isinstance(k, bool):
        try:
            return operator.index(k)
        except TypeError:
            pass
    raise ValueError(f"keep_slots entry {k!r} is not an integer slot index")


def _keep_set(keep_slots, n_slots: int) -> list[int]:
    """One keep set's distinct slot indices, ascending: a nonempty proper
    subset of the ``n_slots`` slots."""
    keep = sorted({_slot_index(k) for k in keep_slots})
    if not keep or len(keep) >= n_slots:
        raise ValueError("keep_slots must be a nonempty proper subset of slots")
    if keep[0] < 0 or keep[-1] >= n_slots:
        raise ValueError(f"keep_slots {keep} out of range")
    return keep


def _reductions(h, keep_sets, tol: float = 1e-12) -> list[MixedHistory]:
    """``temporal_partial_trace`` of one state to each of ``keep_sets``.

    Every set and ``tol`` are checked before any arithmetic, and the unit
    scale is taken once.  The front: the K sets' amplitude matrices A and
    kept Grams K are built as (K, T, T) stacks, slot by slot in slot order,
    so each entry sees the multiplies of a lone reduction; one finiteness
    check, one stacked ``eigh`` of A, one stacked R^dag K R and one stacked
    ``eigh`` serve every set.

    The tail handles every set at once too, as (K, W, T) stacks whose row m
    is set i's member m over the T terms: W is the most members of any set,
    eigenpairs come largest first, and each set's dead rows (eigenvalue at
    most ``tol``) are masked before any division.  It forms V = (R z /
    sqrt(lam))^T and K V, turns both by each member's phase
    (``_canonical_members``, which reads the overlaps off K V), divides by
    sqrt(c^dag K c), cuts coefficients with |c_t| |w_t| at most 1e-14, merges
    each set's close kept strings (``_merge_kept``, whose per-slot closeness
    is computed once per call), drops cancelled coefficients and pairs the
    members as C^dag (K C).  Each product is a two-operand einsum over one
    index (O(K T^2 W) at most), none per set.  One norm check of the
    pairings serves every set, then each set wraps its slices of the
    stacks: a grid, one ``HistoryState`` per member and the
    ``MixedHistory``, whose probabilities are checked.  No entry depends on
    another set, so each reduction is bit for bit the reduction alone.
    """
    h = _as_state(h)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    keeps = [_keep_set(s, h.grid.n_slots) for s in keep_sets]
    coefs = h._coefs * _unit_scale(h)
    kept = np.zeros((h.grid.n_slots, len(keeps)), dtype=bool)  # kept[k, i]: set i keeps slot k
    for i, keep in enumerate(keeps):
        kept[keep, i] = True
    amps = np.repeat(np.outer(coefs, coefs.conj())[None], len(keeps), axis=0)  # A
    grams = np.ones_like(amps)  # K
    for on, g in zip(kept[:, :, None, None], h._self_grams):
        np.multiply(grams, g, out=grams, where=on)
        np.multiply(amps, g.conj(), out=amps, where=~on)
    if not np.isfinite(amps).all():
        raise ValueError("matrix entries must be finite")
    a_vals, a_vecs = np.linalg.eigh(amps)
    r = a_vecs * np.sqrt(np.maximum(a_vals, 0.0))[:, None, :]
    evals, z = np.linalg.eigh(r.conj().transpose(0, 2, 1) @ grams @ r)

    # row m of set i is its eigenpair of rank m, largest first: the tail's
    # (K, W, T) stacks hold a vector over the T terms in each row, so every
    # einsum sums along contiguous rows
    evals, z = evals[:, ::-1], z[:, :, ::-1].transpose(0, 2, 1)
    live = evals > tol
    if not live[:, 0].all():
        i = int(np.argmin(live[:, 0]))
        raise ValueError(f"tol {tol!r} is at or above the largest eigenvalue {float(evals[i, 0])!r} "
                         f"of the reduction to slots {keeps[i]}")
    counts = live.sum(axis=1).tolist()  # members per set
    width = max(counts)
    live, evals = live[:, :width], evals[:, :width]
    vecs = np.einsum("kti,kmi->kmt", r, np.ascontiguousarray(z[:, :width]))
    vecs /= np.sqrt(np.where(live, evals, 1.0))[:, :, None]
    norms = np.sqrt(np.maximum(grams.diagonal(axis1=1, axis2=2).real, 0.0))
    evals, members, k_members = _canonical_members(evals, live, vecs, np.einsum("kst,kmt->kms", grams, vecs),
                                                   norms)
    slots = sorted(set().union(*keeps))
    kept_rows = _join_rows([h._stacks[k] for k in slots])  # the kept strings of every set
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite member fails the norm check
        sq = np.einsum("kmt,kmt->km", members.conj(), k_members).real
        members /= np.sqrt(np.where(live, sq, 1.0))[:, :, None]
        members = np.where(np.abs(members) * norms[:, None, :] > 1e-14, members, 0.0)
        firsts = _merge_kept(kept_rows, [h.grid.slot_dims[k] ** 2 for k in slots], kept[slots], members)
        # the coefficients above 1e-15 of each member's largest (_uncancelled;
        # a NaN keeps them all)
        mags = np.abs(members)
        on = ~(mags <= 1e-15 * mags.max(axis=2, keepdims=True))
        columns = np.where(on, members, 0.0)  # C^T, over every term
        pairings = np.einsum("kmt,knt->kmn", columns.conj(), np.einsum("kst,knt->kns", grams, columns))
    _check_unit_norms(np.where(live, pairings.diagonal(axis1=1, axis2=2).real, 1.0))
    evals = np.where(live, evals, 0.0)
    probs = evals / np.cumsum(evals, axis=1)[:, -1:]  # summed left to right

    grid, out = h.grid, []
    for i, (keep, m) in enumerate(zip(keeps, counts)):
        sub_grid = TimeGrid._held(tuple(grid.labels[k] for k in keep), tuple(grid.slot_dims[k] for k in keep))
        rows = kept_rows if keep == slots else _join_rows([h._stacks[k] for k in keep])
        # every member's live coefficients and their strings, member by member
        mask = on[i, :m]
        ends = list(itertools.accumulate(mask.sum(axis=1).tolist()))
        values, strings = columns[i, :m][mask], rows[np.nonzero(mask)[1]]
        states = [HistoryState._held(sub_grid, values[a:b], strings[a:b]) for a, b in zip([0] + ends, ends)]
        strings, gram, coefs = tuple(h._stacks[k] for k in keep), grams[i], columns[i, :m].T
        if firsts[i] is not None:
            f = firsts[i]
            strings, gram, coefs = tuple(s[f] for s in strings), gram[np.ix_(f, f)], coefs[f]
        ensemble = tuple(zip(probs[i, :m].tolist(), states))
        out.append(MixedHistory._from_coordinates(ensemble, strings, gram, coefs, pairings[i, :m, :m]))
    return out


def _merge_kept(rows: np.ndarray, sizes, kept: np.ndarray, members: np.ndarray) -> list:
    """Merge each keep set's kept strings, as ``HistoryState`` merges.

    ``rows`` are the terms' strings on the slots some set keeps, whose
    operators have ``sizes`` entries each, and ``kept[s, i]`` is whether set
    i keeps slot s of them.  A term joins the first earlier unmerged term
    whose string is close on every slot its set keeps (``_close_strings``,
    computed once for all sets), and its coefficients in ``members`` (K, M,
    T) are added to that term's, in term order, and zeroed.  Returns each
    set's unmerged terms, or None for a set with no close pair."""
    n_sets, n_terms = len(members), members.shape[2]
    firsts: list = [None] * n_sets
    if n_terms < 2:
        return firsts
    close = _close_strings(rows, sizes)
    if not close.any():
        return firsts
    together = np.ones((n_sets, n_terms, n_terms), dtype=bool)
    for c, on in zip(close, kept):
        together[on] &= c
    for i in np.flatnonzero(together.any(axis=(1, 2))).tolist():
        pos: dict[int, int] = {}
        group = np.empty(n_terms, dtype=int)
        _settle(together[i], 0, pos, np.zeros(n_terms, dtype=bool), group)
        f = firsts[i] = list(pos)
        for t, g in enumerate(group.tolist()):
            if t != f[g]:
                members[i, :, f[g]] += members[i, :, t]
                members[i, :, t] = 0.0
    return firsts


def _close_strings(rows: np.ndarray, sizes) -> np.ndarray:
    """close[s, t, j]: term rows j < t are within MERGE_TOL in every entry of
    slot s, whose operators fill the next ``sizes[s]`` entries of a row (a
    NaN entry matches nothing); false for j >= t.  Slot by slot, each block
    of rows is compared with every row before its end one entry at a time,
    until no pair in it is close, so at most _MERGE_BLOCK differences are
    held at once."""
    n = len(rows)
    t = np.arange(n)
    close = np.repeat((t[:, None] > t)[None], len(sizes), axis=0)
    step = max(1, _MERGE_BLOCK // n)
    for c, end, size in zip(close, itertools.accumulate(sizes), sizes):
        cols = np.ascontiguousarray(rows[:, end - size:end].T)  # (entries, T)
        for start in range(0, n, step):
            block = c[start:start + step, :start + step]
            for col in cols:
                if not block.any():
                    break
                block &= np.abs(col[start:start + step, None] - col[None, :start + step]) <= MERGE_TOL
    return close


def _canonical_members(evals, live, vecs, k_vecs, norms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigen-ensemble members of K keep sets in a basis fixed by the term strings.

    ``evals`` (K, W) descend, with the ``live`` ones first in each row;
    row m of ``vecs[i]`` (K, W, T) is set i's eigenvector m in term
    coordinates and row m of ``k_vecs[i]`` is K times it, so that
    conj(k_vecs[i, m, t]) = <u_m, w_t> is its kept-space eigenvector's
    overlap with term t's kept string, of norm ``norms[i, t]``.  Going down
    from the largest eigenvalue, each cluster takes every eigenvalue within
    ``DEGENERACY_TOL`` of its first, and all its members share the
    cluster's mean eigenvalue.  A one-member cluster, the usual case, is its
    eigenvector turned by the phase of its first overlap above
    ``SPAN_TOL``, which makes that overlap real and positive: every set at
    once, one einsum for the members and one for K times them.  A larger
    cluster takes the Gram-Schmidt step on its own set's rows
    (``_canonical_basis``).  So members come in descending probability,
    then term order.  Returns the eigenvalues, the members and K times
    them, as (K, ...) stacks like their inputs; dead rows are zero.
    """
    unit = k_vecs.conj() / np.where(norms > 0.0, norms, 1.0)[:, None, :]
    # np.linalg.norm of each length-1 projection: sqrt(re^2 + im^2)
    lengths = np.sqrt(unit.real * unit.real + unit.imag * unit.imag)
    spans = lengths > SPAN_TOL
    # the flat index of each member's first string above SPAN_TOL (or its first)
    hit = spans.argmax(axis=2) + np.arange(0, spans.size, spans.shape[2]).reshape(spans.shape[:2])
    anchor = np.take(lengths, hit)
    found = (anchor > SPAN_TOL) & live
    # the anchor's phase, 1 where no string is above SPAN_TOL, 0 for a dead row
    phases = np.where(found, np.take(unit, hit) / np.where(found, anchor, 1.0), live)
    members = np.einsum("kmt,km->kmt", vecs, phases)
    k_members = np.einsum("kmt,km->kmt", k_vecs, phases)
    clustered = (evals[:, :-1] - evals[:, 1:] <= DEGENERACY_TOL) & live[:, 1:]
    if clustered.any():
        evals = evals.copy()
        for i in np.flatnonzero(clustered.any(axis=1)).tolist():
            n = int(live[i].sum())
            for start, stop, lam, basis in _canonical_basis(evals[i, :n], unit[i, :n]):
                evals[i, start:stop] = lam
                members[i, start:stop] = np.einsum("jm,mt->jt", basis, vecs[i, start:stop])
                k_members[i, start:stop] = np.einsum("jm,mt->jt", basis, k_vecs[i, start:stop])
    return evals, members, k_members


def _canonical_basis(evals, unit) -> list[tuple[int, int, float, np.ndarray]]:
    """The clusters of more than one member of one keep set, from its
    descending live ``evals`` and normalized overlaps ``unit`` (M, T) (see
    ``_canonical_members``).  A cluster's basis is the Gram-Schmidt
    orthonormalization, in term order, of the term strings projected onto
    it, skipping projections shorter than ``SPAN_TOL`` times the string (the
    cluster's own basis fills any remainder), so member j's overlap with the
    string that generated it is real and positive.  Returns (start, stop,
    mean eigenvalue, basis) per cluster, basis row j holding member j's
    coordinates over the cluster's eigenvectors.
    """
    vals = evals.tolist()
    out = []
    start = 0
    while start < len(vals):
        stop = start + 1
        while stop < len(vals) and vals[start] - vals[stop] <= DEGENERACY_TOL:
            stop += 1
        if stop > start + 1:
            size = stop - start
            candidates = np.hstack([unit[start:stop], np.eye(size)])
            basis: list[np.ndarray] = []
            for x in candidates.T:
                for q in basis:
                    x = x - q * np.vdot(q, x)
                n = np.linalg.norm(x)
                if n > SPAN_TOL:
                    basis.append(x / n)
                    if len(basis) == size:
                        break
            out.append((start, stop, float(np.mean(evals[start:stop])), np.array(basis)))
        start = stop
    return out


# ---------------------------------------------------------------------------
# subsystem trace-out (spatial factor, all slots)


@dataclass(frozen=True)
class SubsystemReduction:
    """Reduced history of the kept factor plus its induced bridging."""

    state: HistoryState
    bridging: BridgingSet
    consistency: ConsistencyReport


def _split_product_unitary(u: np.ndarray, d0: int, d1: int, tol: float):
    """Factor u into u0 (x) u1 or raise NonFactorizableEvolutionError."""
    r = u.reshape(d0, d1, d0, d1).transpose(0, 2, 1, 3).reshape(d0 * d0, d1 * d1)
    w, s, vh = np.linalg.svd(r)
    if s.size > 1 and s[1] > tol:
        raise NonFactorizableEvolutionError(
            f"bridge does not factor across the {d0}x{d1} split (residual {s[1]:.2e})"
        )
    a = (w[:, 0] * math.sqrt(d0)).reshape(d0, d0)
    bmat = (vh[0] * math.sqrt(d1)).reshape(d1, d1)
    # fix the phase split so the kept candidate has a positive-real leading entry
    approx = np.kron(a, bmat)
    anchor = np.unravel_index(np.argmax(np.abs(approx)), approx.shape)
    phase = u[anchor] / approx[anchor]
    a = a * phase
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    rot = a[idx] / abs(a[idx])
    a = a / rot
    bmat = bmat * rot
    if max_abs(np.kron(a, bmat) - u) > tol:
        raise NonFactorizableEvolutionError("bridge is not a product of unitaries")
    return a, bmat


def subsystem_trace_out(
    h,
    b: BridgingSet,
    factor_dims: tuple[int, int],
    traced: int = 1,
    tol: float = UNITARITY_TOL,
) -> SubsystemReduction:
    """Trace one spatial tensor factor out of every slot of a history.

    Every slot dimension must equal ``factor_dims[0] * factor_dims[1]`` and
    every bridge must factor as U_keep (x) U_traced within ``tol``; otherwise
    the evolution is unsupported and NonFactorizableEvolutionError is raised.

    The discarded factor is contracted along classical record trajectories:
    for each computational-basis state of the traced factor, propagated
    through its own bridging, each slot operator is compressed to the kept
    factor by the traced-side expectation in that trajectory state, and the
    trajectories are summed.  A maximally entangled record thereby turns a
    product history of the pair into a superposed history of the kept factor.
    The result is renormalized and its term family (its terms, each with
    coefficient one, normalized on its own) re-checked for consistency under
    the induced bridging.  Slot operators of the output are rescaled to
    unit Hilbert-Schmidt norm with the scale absorbed into the coefficients,
    so rank-one projector slots come back as plain projectors.
    """
    h = _as_state(h)
    _require_same_grid(h.grid, b.grid)
    if traced not in (0, 1):
        raise ValueError("traced must be 0 or 1")
    d0, d1 = int(factor_dims[0]), int(factor_dims[1])
    if any(d != d0 * d1 for d in h.grid.slot_dims):
        raise ShapeError(f"slot dims must all equal {d0}*{d1}")
    keep_dim, traced_dim = (d1, d0) if traced == 0 else (d0, d1)

    kept_bridges, traced_bridges = [], []
    for u in b.unitaries:
        u0, u1 = _split_product_unitary(np.asarray(u), d0, d1, tol)
        kept_bridges.append(u1 if traced == 0 else u0)
        traced_bridges.append(u0 if traced == 0 else u1)

    sub_grid = TimeGrid(h.grid.labels, (keep_dim,) * h.grid.n_slots)
    induced = BridgingSet(sub_grid, tuple(kept_bridges))

    # record trajectories: column c of states[k] is basis state c at the
    # first slot, propagated forward to slot k
    states = [identity(traced_dim)]
    for u in traced_bridges:
        states.append(u @ states[-1])

    # reds[k, t, c] is term t's slot k compressed by trajectory c
    spec = "tajbk,jc,kc->tcab" if traced == 1 else "tjakb,jc,kc->tcab"
    reds = np.stack([np.einsum(spec, ops.reshape(-1, d0, d1, d0, d1), v.conj(), v)
                     for ops, v in zip(h._stacks, states)])
    # canonical slots: unit HS norm, scale pushed to the coefficient, so
    # projector slots come back as projectors and chain traces of the reduced
    # history carry no hidden per-slot factors
    sizes = np.linalg.norm(reds, axis=(-2, -1))
    scales = np.prod(sizes, axis=0)
    live = (sizes > 1e-15).all(axis=0) & (scales > 0.0)
    reds = reds / np.where(sizes > 0.0, sizes, 1.0)[..., None, None]
    coefs = h._coefs[:, None] * scales
    ts, cs = np.nonzero(live)
    if not ts.size:
        raise DegenerateHistoryError("every record trajectory contributes zero")
    rows = _join_rows(reds[:, ts, cs])
    if not np.isfinite(rows).all():
        raise ValueError("matrix entries must be finite")

    state = normalize(HistoryState._from_rows(sub_grid, coefs[ts, cs].tolist(), rows))
    # the family is the state's terms, each with coefficient one
    family = HistoryState._held(sub_grid, np.ones(state.n_terms, dtype=complex), state._rows)
    return SubsystemReduction(state, induced, _term_consistency(family, induced))


# ---------------------------------------------------------------------------
# small generators and witnesses


@dataclass(frozen=True)
class ReductionSearchResult:
    best_overlap: float
    upper_bound: float
    coefficients: tuple[complex, ...]


def best_joint_bell_reduction_overlap() -> ReductionSearchResult:
    """The 3-slot qubit history closest to the Bell-like target on both
    overlapping 2-slot windows, and the bound it attains.

    Over the eight projector strings, the (0, 1) and (1, 2) reductions of psi
    have fidelities F_01 = <psi|P x I|psi> and F_12 = <psi|I x P|psi> with
    the (|00> + |11>)/sqrt2 target P, so min(F_01, F_12) is at most half the
    top eigenvalue of P x I + I x P: 0.75.  That eigenspace is 2-fold and
    symmetric under swapping slots 0 and 2, so the witness, |000> projected
    onto it (independent of LAPACK's basis), has F_01 = F_12 = 0.75.  Both
    stay below 1: no history has Bell-type reductions on both windows.
    """
    p_bell = projector(bell_pair_ket())
    windows = (np.kron(p_bell, identity(2)), np.kron(identity(2), p_bell))
    eigvals, eigvecs = np.linalg.eigh(sum(windows))
    top = eigvecs[:, eigvals > eigvals[-1] - 1e-9]
    witness = top @ top[0].conj()  # |000> projected onto the top eigenspace
    witness = witness / np.linalg.norm(witness)
    f01, f12 = (float(np.vdot(witness, w @ witness).real) for w in windows)
    return ReductionSearchResult(min(f01, f12), float(eigvals[-1]) / 2.0, tuple(map(complex, witness)))
