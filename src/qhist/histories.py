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

Every chain operator comes from one stacked kernel, ``_chains``, which
carries all terms' chains (the batch axis) through the bridges and slots at
once and splits each chain into its outcomes at a measured slot.  Weights,
consistency matrices, the coherent bundle and the outcome tables of
``twostate`` are reductions over its output.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateHistoryError,
    GridMismatchError,
    NonFactorizableEvolutionError,
    ShapeError,
)
from .linalg import as_matrix, bell_pair_ket, check_unitary, identity, max_abs, projector

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
    "decoherence_functional",
    "is_consistent_family",
    "temporal_partial_trace",
    "subsystem_trace_out",
    "mix",
    "purity",
    "history_vector",
    "mixed_history_density",
    "mixed_overlap",
    "exhaustive_projector_family",
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

    @property
    def n_slots(self) -> int:
        return len(self.labels)


def _require_same_grid(a: TimeGrid, b: TimeGrid) -> None:
    if a != b:
        raise GridMismatchError("objects are defined on different time grids")


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

    def is_projector_string(self, tol: float = 1e-9) -> bool:
        from .linalg import is_projector

        return all(is_projector(op, tol) for op in self.slots)

    def with_slot(self, index: int, op) -> "ElementaryHistory":
        ops = list(self.slots)
        ops[index] = op
        return ElementaryHistory(self.grid, tuple(ops))

    @classmethod
    def from_kets(cls, grid: TimeGrid, kets: Sequence) -> "ElementaryHistory":
        return cls(grid, tuple(projector(k) for k in kets))


@dataclass(frozen=True)
class HistoryState:
    """Complex-weighted superposition of elementary histories on one grid.

    Terms whose slot strings coincide (every entry within 1e-12) are merged
    on construction into the first of them, so equal-by-construction states
    have identical canonical term lists.  ``_rows`` holds the merged terms'
    slot operators, row t being term t's flattened row-major and
    concatenated earliest slot first; the Hilbert-Schmidt geometry
    (``_slot_grams``) and the chain kernel read it as per-slot stacks
    (``_stacks``).
    """

    terms: tuple[tuple[complex, ElementaryHistory], ...]
    _rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = [(complex(c), eh) for c, eh in self.terms]
        if not terms:
            raise ValueError("a history state needs at least one term")
        grid = terms[0][1].grid
        for _, eh in terms:
            _require_same_grid(grid, eh.grid)
        rows = np.empty((len(terms), sum(d * d for d in grid.slot_dims)), dtype=complex)
        merged: list[tuple[complex, ElementaryHistory]] = []
        for c, eh in terms:
            row = np.concatenate([op.reshape(-1) for op in eh.slots])
            n = len(merged)
            if n:
                hits = np.flatnonzero(np.abs(rows[:n] - row).max(axis=1) <= MERGE_TOL)
                if hits.size:
                    c0, eh0 = merged[hits[0]]
                    merged[hits[0]] = (c0 + c, eh0)
                    continue
            rows[n] = row
            merged.append((c, eh))
        live = range(len(merged))
        scale = max((abs(c) for c, _ in merged), default=0.0)
        if scale > 0.0:
            live = [i for i, (c, _) in enumerate(merged) if abs(c) > 1e-15 * scale] or [0]
        rows = rows[live]
        rows.setflags(write=False)
        object.__setattr__(self, "terms", tuple(merged[i] for i in live))
        object.__setattr__(self, "_rows", rows)

    @property
    def grid(self) -> TimeGrid:
        return self.terms[0][1].grid

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @functools.cached_property
    def _stacks(self) -> tuple[np.ndarray, ...]:
        """Slot k's term operators as a read-only (T, d_k, d_k) view of
        ``_rows``, earliest slot first; the only reader of its layout."""
        ends = np.cumsum([d * d for d in self.grid.slot_dims]).tolist()
        return tuple(self._rows[:, e - d * d:e].reshape(-1, d, d)
                     for d, e in zip(self.grid.slot_dims, ends))

    @classmethod
    def from_slots(cls, grid: TimeGrid, ops: Sequence, coefficient: complex = 1.0) -> "HistoryState":
        return cls(((coefficient, ElementaryHistory(grid, tuple(ops))),))

    @classmethod
    def from_elementary(cls, eh: ElementaryHistory, coefficient: complex = 1.0) -> "HistoryState":
        return cls(((coefficient, eh),))

    def __add__(self, other: "HistoryState") -> "HistoryState":
        _require_same_grid(self.grid, other.grid)
        return HistoryState(self.terms + other.terms)

    def __sub__(self, other: "HistoryState") -> "HistoryState":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "HistoryState":
        s = complex(scalar)
        return HistoryState(tuple((s * c, eh) for c, eh in self.terms))

    __rmul__ = __mul__


@dataclass(frozen=True)
class BridgingSet:
    """Unitary propagators T(t_{k+1}, t_k), one per adjacent slot pair."""

    grid: TimeGrid
    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(_frozen(u) for u in self.unitaries)
        object.__setattr__(self, "unitaries", mats)
        if len(mats) != self.grid.n_slots - 1:
            raise ShapeError("need exactly one bridge per adjacent slot pair")
        dims = self.grid.slot_dims
        for k, u in enumerate(mats):
            if u.shape != (dims[k + 1], dims[k]):
                raise ShapeError(f"bridge {k} shape {u.shape} incompatible with slot dims")
            check_unitary(u, f"bridge {k}")

    @classmethod
    def trivial(cls, grid: TimeGrid) -> "BridgingSet":
        if len(set(grid.slot_dims)) != 1:
            raise ShapeError("trivial bridging requires equal slot dimensions")
        d = grid.slot_dims[0]
        return cls(grid, tuple(identity(d) for _ in range(grid.n_slots - 1)))


def _as_state(h) -> HistoryState:
    if isinstance(h, HistoryState):
        return h
    if isinstance(h, ElementaryHistory):
        return HistoryState.from_elementary(h)
    raise TypeError(f"expected a history, got {type(h).__name__}")


def _coefficients(h: HistoryState) -> np.ndarray:
    return np.array([c for c, _ in h.terms])


# ---------------------------------------------------------------------------
# chain operators and weights


def _chains(start: np.ndarray, intervals, settings, fixed=None) -> tuple[list[str], np.ndarray]:
    """Every outcome string's chain, carried through a row as one stack.

    Step k applies ``intervals[k]`` (None for none) to the whole stack, then
    ``fixed[k]`` when ``fixed`` holds slot k (a (batch, d, d) stack of
    per-term operators), and then, when ``settings[k]`` is a setting, splits
    every row into its '+' chain followed by its '-' chain.  ``start`` is a
    (d, m) matrix.  Returns the outcome strings and a (2**n_measured, batch,
    d', m) stack whose row r is string r: '+' first, earliest slot first.
    More than MAX_MEASURED_SLOTS settings are rejected before any product.
    """
    n_measured = sum(s is not None for s in settings)
    if n_measured > MAX_MEASURED_SLOTS:
        raise ValueError(f"at most {MAX_MEASURED_SLOTS} measured slots are supported, got {n_measured}")
    strings = list(map("".join, itertools.product("+-", repeat=n_measured)))
    x = start[None, None]
    for k, (interval, setting) in enumerate(zip(intervals, settings)):
        if interval is not None:
            x = interval @ x
        if fixed and k in fixed:
            x = fixed[k] @ x
        if setting is not None:
            plus, minus = setting.projectors()
            x = np.stack((plus @ x, minus @ x), axis=1).reshape((-1,) + x.shape[1:])
    return strings, x


def _term_chains(h: HistoryState, b: BridgingSet, settings={}) -> tuple[list[str], np.ndarray]:
    """Summed chain operators sum_t c_t K_t, one per outcome string.

    Slot k carries the terms' own operators unless ``settings`` measures it,
    in which case each string puts its outcome projector there.  The terms
    are the kernel's batch axis and are summed left to right.  Returns the
    strings and a (2**len(settings), d_last, d_first) stack.
    """
    _require_same_grid(h.grid, b.grid)
    stacks = h._stacks
    fixed = {k: s for k, s in enumerate(stacks) if k not in settings}
    row = [settings.get(k) for k in range(len(stacks))]
    strings, chains = _chains(identity(h.grid.slot_dims[0]), (None,) + b.unitaries, row, fixed)
    # an all-measured row has a batch of one, which broadcasts over the terms
    return strings, np.add.reduce(_coefficients(h)[:, None, None] * chains, axis=1)


def chain_operator_sum(h, b: BridgingSet) -> np.ndarray:
    """Coefficient-weighted sum of term chain operators (linear in terms).

    An ``ElementaryHistory`` gives its own chain operator
    P_n T_{n-1} ... T_0 P_0.
    """
    return _term_chains(_as_state(h), b)[1][0]


def weight(h, b: BridgingSet) -> float:
    """Tr(K^dag K) of the summed chain operator; zero is a valid weight."""
    k = chain_operator_sum(h, b)
    w = float(np.vdot(k, k).real)
    return 0.0 if w < 0.0 else w


def decoherence_functional(h1, h2, b: BridgingSet) -> complex:
    k1 = chain_operator_sum(h1, b)
    k2 = chain_operator_sum(h2, b)
    return complex(np.vdot(k1, k2))


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
    """Check |Tr(K_i^dag K_j)| <= tol for all i != j (medium decoherence)."""
    chains = [chain_operator_sum(h, b).reshape(-1) for h in family]
    if not chains:
        raise ValueError("family must be nonempty")
    chains = np.stack(chains)
    d = chains.conj() @ chains.T
    # vdot(k, k) is exactly real; the product may leave rounding in the imaginary part
    np.fill_diagonal(d, d.diagonal().real)
    n = len(chains)
    off = 0.0
    if n > 1:
        mask = ~np.eye(n, dtype=bool)
        off = float(np.max(np.abs(d[mask])))
    d.setflags(write=False)
    return ConsistencyReport(off <= tol, d, off, tol)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt geometry


def _slot_grams(h1: HistoryState, h2: HistoryState) -> list[np.ndarray]:
    """Per-slot Hilbert-Schmidt Grams G_k[t, t'] = Tr(A_tk^dag B_t'k) between
    the terms A_t of ``h1`` and B_t' of ``h2``, earliest slot first."""
    return [a.reshape(len(a), -1).conj() @ b.reshape(len(b), -1).T
            for a, b in zip(h1._stacks, h2._stacks)]


def hs_inner(h1, h2) -> complex:
    """Slot-wise Hilbert-Schmidt pairing, antilinear in the first argument:
    the sum over term pairs of conj(c_t) c'_t' prod_k G_k[t, t']."""
    h1, h2 = _as_state(h1), _as_state(h2)
    _require_same_grid(h1.grid, h2.grid)
    prod = np.outer(_coefficients(h1).conj(), _coefficients(h2))
    for g in _slot_grams(h1, h2):
        prod *= g
    # a running sum in term-pair order: np.sum's pairwise order would move
    # the last bits of reported norms
    return complex(np.cumsum(prod.ravel())[-1])


def hs_norm(h) -> float:
    """Hilbert-Schmidt norm; a norm that overflows or is NaN is an error."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = hs_inner(h, h).real
    if not math.isfinite(sq):
        raise ValueError("history norm is not finite: coefficients and matrix entries must be finite "
                         "and small enough that the squared norm does not overflow")
    return math.sqrt(max(sq, 0.0))


def normalize(h) -> HistoryState:
    h = _as_state(h)
    n = hs_norm(h)
    if n <= 1e-15:
        raise DegenerateHistoryError("cannot normalize a zero-norm history")
    return (1.0 / n) * h


def history_vector(h) -> np.ndarray:
    """Vectorize into the tensor product of per-slot operator spaces.

    Slot operators are flattened row-major, so the standard inner product of
    two history vectors equals ``hs_inner``.
    """
    h = _as_state(h)
    out = None
    for c, eh in h.terms:
        vecs = [op.reshape(-1) for op in eh.slots]
        v = vecs[0]
        for nxt in vecs[1:]:
            v = np.kron(v, nxt)
        v = c * v
        out = v if out is None else out + v
    return out


# ---------------------------------------------------------------------------
# mixtures


@dataclass(frozen=True)
class MixedHistory:
    """Classical ensemble of normalized history states (never a superposition)."""

    ensemble: tuple[tuple[float, HistoryState], ...]

    def __post_init__(self):
        ens = tuple((float(p), h) for p, h in self.ensemble)
        object.__setattr__(self, "ensemble", ens)
        if not ens:
            raise ValueError("ensemble must be nonempty")
        if any(p <= 0 for p, _ in ens):
            raise ValueError("ensemble probabilities must be positive")
        if abs(sum(p for p, _ in ens) - 1.0) > 1e-9:
            raise ValueError("ensemble probabilities must sum to 1")
        grid = ens[0][1].grid
        for _, h in ens:
            _require_same_grid(grid, h.grid)
            if abs(hs_norm(h) - 1.0) > 1e-9:
                raise ValueError("ensemble members must be normalized")

    @property
    def grid(self) -> TimeGrid:
        return self.ensemble[0][1].grid


def mix(ensemble: Iterable[tuple[float, object]]) -> MixedHistory:
    """Build a canonical MixedHistory, normalizing the member states."""
    return MixedHistory(tuple((p, normalize(h)) for p, h in ensemble))


def purity(m: MixedHistory) -> float:
    """Tr(rho^2) of the ensemble density operator in history space."""
    total = 0.0
    for p_i, h_i in m.ensemble:
        for p_j, h_j in m.ensemble:
            total += p_i * p_j * abs(hs_inner(h_i, h_j)) ** 2
    return float(total)


def mixed_history_density(m: MixedHistory) -> np.ndarray:
    """Density operator of the ensemble in the vectorized history space."""
    rho = None
    for p, h in m.ensemble:
        v = history_vector(h)
        contrib = p * np.outer(v, v.conj())
        rho = contrib if rho is None else rho + contrib
    return rho


def mixed_overlap(m: MixedHistory, target) -> float:
    """Fidelity <t|rho|t> of the ensemble with a normalized pure history."""
    t = _as_state(target)
    return float(sum(p * abs(hs_inner(t, h)) ** 2 for p, h in m.ensemble))


# ---------------------------------------------------------------------------
# temporal partial trace (over slots)


def temporal_partial_trace(h, keep_slots: Iterable[int], tol: float = 1e-12) -> MixedHistory:
    """Reduce a history state to a subset of slots.

    The reduced operator of the normalized state sum_t c_t (x)_k v_tk, where
    v_tk is slot k's operator flattened row-major, is

        rho_keep = W^T A W^*,   A = (c c^dag) . prod_{k traced} G_k^*,

    with G_k[t, t'] = <v_tk, v_t'k> slot k's term Gram (``_slot_grams``),
    ``.`` the elementwise product, and row w_t of W the Kronecker product of
    term t's kept v_tk, which is ``history_vector``'s layout.  Neither
    rho_keep nor any history-space vector is formed: with A = R R^dag and
    K = W^* W^T = prod_{k kept} G_k, rho_keep has the nonzero eigenvalues of
    the T x T matrix R^dag K R.  An eigenvector z with eigenvalue lam gives
    the member sum_t c_t w_t, c = R z / sqrt(lam), written over term t's own
    kept slot operators, so it has at most T terms.  Rounding puts its norm
    sqrt(c^dag K c) off 1 by O(eps / lam), so c is divided by that norm.
    For T terms on n slots of dimension d this costs O(T^2 n d^2 + T^3),
    plus O(T^2 n d^2) for each of the at most min(T, D_keep) members, where
    D_keep = prod_{k kept} d_k^2 is the kept history dimension.

    Eigenvalues within ``DEGENERACY_TOL`` of their cluster's largest form one
    eigenspace, whose members do not depend on how LAPACK picks its basis
    (``_canonical_basis``).  Members with eigenvalue at most ``tol`` are
    dropped.  The output is a mixture: reductions of entangled histories are
    ensembles, not superpositions.
    """
    h = normalize(_as_state(h))
    grid = h.grid
    keep = sorted(set(int(k) for k in keep_slots))
    if not keep or len(keep) >= grid.n_slots:
        raise ValueError("keep_slots must be a nonempty proper subset of slots")
    if keep[0] < 0 or keep[-1] >= grid.n_slots:
        raise ValueError(f"keep_slots {keep} out of range")
    coefs = _coefficients(h)
    amp = np.outer(coefs, coefs.conj())
    gram = np.ones_like(amp)  # K
    for k, g in enumerate(_slot_grams(h, h)):
        if k in keep:
            gram = gram * g
        else:
            amp = amp * g.conj()
    amp = as_matrix(amp)
    a_vals, a_vecs = np.linalg.eigh(amp)
    r = a_vecs * np.sqrt(np.clip(a_vals, 0.0, None))
    evals, z = np.linalg.eigh(r.conj().T @ gram @ r)
    live = evals > tol
    evals = evals[live]
    vecs = (r @ z[:, live]) / np.sqrt(evals)
    norms = np.sqrt(np.clip(gram.diagonal().real, 0.0, None))
    sub_grid = TimeGrid(tuple(grid.labels[k] for k in keep), tuple(grid.slot_dims[k] for k in keep))
    strings = [ElementaryHistory(sub_grid, tuple(eh.slots[k] for k in keep)) for _, eh in h.terms]
    ensemble = []
    for lam, c in _canonical_basis(evals, vecs, vecs.conj().T @ gram, norms):
        c = c / math.sqrt(np.vdot(c, gram @ c).real)
        live_terms = np.flatnonzero(np.abs(c) * norms > 1e-14)
        ensemble.append((lam, HistoryState(tuple((complex(c[t]), strings[t]) for t in live_terms))))
    total = sum(p for p, _ in ensemble)
    return MixedHistory(tuple((p / total, h_m) for p, h_m in ensemble))


def _canonical_basis(evals, vecs, overlaps, norms) -> list[tuple[float, np.ndarray]]:
    """Eigen-ensemble members in a basis fixed by the term strings.

    ``evals`` ascend; column m of ``vecs`` is eigenvector m in term
    coordinates and ``overlaps[m, t]`` = <u_m, w_t> is its kept-space
    eigenvector's overlap with term t's kept string, of norm ``norms[t]``.
    Going down from the largest eigenvalue, each cluster takes every
    eigenvalue within ``DEGENERACY_TOL`` of its first, and all its members
    share the cluster's mean eigenvalue.  Its basis is the Gram-Schmidt
    orthonormalization, in term order, of the term strings projected onto
    the cluster, skipping projections shorter than ``SPAN_TOL`` times the
    string (the cluster's own basis fills any remainder).  So member j's
    overlap with the string that generated it is real and positive, and
    members come in descending probability, then term order.  Returns
    (eigenvalue, member vector in term coordinates) pairs.
    """
    evals, vecs = evals[::-1], vecs[:, ::-1]
    unit = overlaps[::-1] / np.where(norms > 0.0, norms, 1.0)
    out: list[tuple[float, np.ndarray]] = []
    start = 0
    while start < len(evals):
        stop = start + 1
        while stop < len(evals) and evals[start] - evals[stop] <= DEGENERACY_TOL:
            stop += 1
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
        lam = float(np.mean(evals[start:stop]))
        out.extend((lam, vecs[:, start:stop] @ q) for q in basis)
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
    The result is renormalized and its term family re-checked for consistency
    under the induced bridging.  Slot operators of the output are rescaled to
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
    coefs = _coefficients(h)[:, None] * scales
    terms = [(coefs[t, c], ElementaryHistory(sub_grid, tuple(reds[:, t, c])))
             for t, c in zip(*np.nonzero(live))]
    if not terms:
        raise DegenerateHistoryError("every record trajectory contributes zero")

    state = normalize(HistoryState(tuple(terms)))
    family = [normalize(HistoryState.from_elementary(eh)) for _, eh in state.terms]
    report = is_consistent_family(family, induced)
    return SubsystemReduction(state, induced, report)


# ---------------------------------------------------------------------------
# small generators and witnesses


def exhaustive_projector_family(grid: TimeGrid) -> tuple[HistoryState, ...]:
    """All computational-basis projector strings on the grid.

    The family is exhaustive: the coefficient-one sum of its chain operators
    under trivial bridging is the identity.
    """
    choices = [range(d) for d in grid.slot_dims]
    out = []
    for combo in itertools.product(*choices):
        ops = []
        for i, d in zip(combo, grid.slot_dims):
            m = np.zeros((d, d), dtype=complex)
            m[i, i] = 1.0
            ops.append(m)
        out.append(HistoryState.from_slots(grid, ops))
    return tuple(out)


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
