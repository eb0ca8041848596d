"""Reference forms of history-space geometry, kept only as test oracles.

``history_vector`` writes a history as one vector of the 4^n-dimensional
history space, term by term.  ``temporal_reduction_density`` is the dense
form the package's term-factored reduction replaces: the normalized history
is vectorized with it, its outer product is formed, and the discarded slots
are contracted with the generic partial-trace primitive.  It costs O(16^n),
so it is only usable on small histories.

``pairwise_hs_inner`` and ``merge_terms`` are the term-by-term loops the
package's stacked Gram kernel and vectorized term merge replace: a product
of per-slot ``np.vdot`` pairings for every term pair, and a comparison of
every incoming term with every merged one, slot by slot.

``merge_rows`` is the row-at-a-time loop the package's blocked row merge
replaces: each row is compared with every unmerged row before it, in order.

``pairwise_purity`` and ``pairwise_mixed_overlap`` are the member-by-member
loops the package's term coordinates replace: one ``pairwise_hs_inner`` per
member pair, or per member against the target.

``chain_operator_sum``, ``consistency_matrix`` and ``subsystem_trace_out``
are the loops the package's stacked chain kernel replaces: each term's chain
operator built slot by slot and summed in term order, the decoherence
functional filled one pairing per member pair, and the subsystem contraction
made per term, per record trajectory and per slot.  The chains and pairings
are plain-Python complex arithmetic (``loop_matmul``, ``loop_pairing``) in
the order the kernel documents: every product and sum starts from 0j and
runs over its inner index ascending, and a chain starts from the identity.
No BLAS and no numpy arithmetic is involved, so the kernel must match them
bit for bit on every machine.

``object_trace_out`` and ``interval_conjugated`` are the object routes the
package's term-array forms replace, kept as they were so the array forms must
match them bit for bit: the subsystem trace-out's stacked contraction with
one checked ``ElementaryHistory`` per (term, record trajectory), then its
family as one normalized one-term state per reduced term, checked by
``is_consistent_family``; and the pauli-cycle scenario's interval
conjugation, one term and one slot at a time.

``canonical_basis`` is the cluster-by-cluster Gram-Schmidt basis the package's
one-member route shortcuts: every eigenvalue, clustered or alone, goes
through the projection loop and ``np.linalg.norm``.

``reductions`` is the set-by-set tail the package's stacked tail replaces,
kept as it was: after the same stacked front (both ``eigh`` calls), each keep
set's members are built one at a time with BLAS products
(``eigen_ensemble``), its kept strings are merged with the blocked row merge,
and each eigenvalue goes through ``one_member_basis``, whose one-member
clusters take a phase and whose larger clusters take the Gram-Schmidt step.
Its pairings C^dag K C are one BLAS product per set.

``exhaustive_projector_family`` lists every computational-basis projector
string on a grid, whose chain operators resolve the bare evolution.
"""

import itertools
import math

import numpy as np

from qhist.histories import (
    DEGENERACY_TOL,
    MERGE_TOL,
    SPAN_TOL,
    BridgingSet,
    ElementaryHistory,
    HistoryState,
    MixedHistory,
    TimeGrid,
    _as_state,
    _check_unit_norms,
    _join_rows,
    _keep_set,
    _merge_rows,
    _split_product_unitary,
    _split_rows,
    _uncancelled,
    _unit_scale,
    is_consistent_family,
    normalize,
)
from qhist.linalg import identity, max_abs, partial_trace


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


def temporal_reduction_density(h, keep_slots) -> np.ndarray:
    """Reduced history-space density operator of ``h`` on ``keep_slots``."""
    h = normalize(h)
    psi = history_vector(h)
    sq_dims = [d * d for d in h.grid.slot_dims]
    return partial_trace(np.outer(psi, psi.conj()), sq_dims, keep_slots)


def pairwise_hs_inner(h1, h2) -> complex:
    """Slot-wise Hilbert-Schmidt pairing, one term pair at a time."""
    total = 0.0 + 0.0j
    for c1, e1 in h1.terms:
        for c2, e2 in h2.terms:
            prod = np.conj(c1) * c2
            for a, b in zip(e1.slots, e2.slots):
                prod *= np.vdot(a, b)  # Tr(a^dag b)
                if prod == 0:
                    break
            total += prod
    return complex(total)


def pairwise_purity(m) -> float:
    """Tr(rho^2) of a MixedHistory, one member pair at a time."""
    total = 0.0
    for p_i, h_i in m.ensemble:
        for p_j, h_j in m.ensemble:
            total += p_i * p_j * abs(pairwise_hs_inner(h_i, h_j)) ** 2
    return float(total)


def pairwise_mixed_overlap(m, target) -> float:
    """<t|rho|t> of a MixedHistory, one member at a time."""
    return float(sum(p * abs(pairwise_hs_inner(target, h)) ** 2 for p, h in m.ensemble))


def _same_string(a, b, tol: float = MERGE_TOL) -> bool:
    return all(max_abs(x - y) <= tol for x, y in zip(a.slots, b.slots))


def merge_terms(terms) -> list:
    """(coefficient, ElementaryHistory) terms merged into the first string
    within ``MERGE_TOL`` in every slot, in order, with cancelled terms
    (below 1e-15 of the largest coefficient) dropped unless all are."""
    merged = []
    for c, eh in terms:
        for i, (c0, eh0) in enumerate(merged):
            if _same_string(eh0, eh):
                merged[i] = (c0 + complex(c), eh0)
                break
        else:
            merged.append((complex(c), eh))
    scale = max((abs(c) for c, _ in merged), default=0.0)
    if scale > 0.0:
        kept = [(c, eh) for c, eh in merged if abs(c) > 1e-15 * scale]
        merged = kept or merged[:1]
    return merged


def merge_rows(rows: np.ndarray) -> tuple[list[int], np.ndarray]:
    """(indices of the unmerged rows, each row's position among them): row t
    joins the first earlier unmerged row within MERGE_TOL in every entry."""
    kept = np.empty_like(rows)
    firsts: list[int] = []
    group = np.empty(len(rows), dtype=int)
    for t, row in enumerate(rows):
        n = len(firsts)
        if n:
            hits = np.flatnonzero(np.abs(kept[:n] - row).max(axis=1) <= MERGE_TOL)
            if hits.size:
                group[t] = hits[0]
                continue
        kept[n] = row
        group[t] = n
        firsts.append(t)
    return firsts, group


def as_lists(a) -> list:
    """A numpy array as nested lists of Python numbers."""
    return np.asarray(a).tolist()


def loop_sum(products) -> complex:
    """Products summed in order from 0j."""
    total = 0j
    for p in products:
        total += p
    return total


def loop_matmul(a: list, b: list) -> list:
    """a @ b for nested lists: entry (i, j) sums a[i][k] * b[k][j], k ascending."""
    return [[loop_sum(a_i[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for a_i in a]


def loop_pairing(a, b) -> complex:
    """sum_s conj(a_s) b_s over the entries of two arrays, row-major: Tr(A^dag B)."""
    flat_a, flat_b = np.ravel(a).tolist(), np.ravel(b).tolist()
    return loop_sum(x.conjugate() * y for x, y in zip(flat_a, flat_b))


def chain_operator_sum(h, b) -> np.ndarray:
    """sum_t c_t P_n T_{n-1} ... T_0 P_0 over the terms of ``h``, in term order:
    each term's chain starts from the identity, P_0 I first."""
    d0 = h.grid.slot_dims[0]
    total = None
    for c, eh in h.terms:
        k = loop_matmul(as_lists(eh.slots[0]), as_lists(np.eye(d0, dtype=complex)))
        for u, p in zip(b.unitaries, eh.slots[1:]):
            k = loop_matmul(as_lists(p), loop_matmul(as_lists(u), k))
        if total is None:
            total = [[0j] * len(row) for row in k]
        total = [[t + x * c for t, x in zip(t_row, k_row)] for t_row, k_row in zip(total, k)]
    return np.array(total, dtype=complex)


def consistency_matrix(family, b) -> np.ndarray:
    """D[i, j] = Tr(K_i^dag K_j), one ``loop_pairing`` per member pair."""
    chains = [chain_operator_sum(h, b) for h in family]
    return np.array([[loop_pairing(ki, kj) for kj in chains] for ki in chains], dtype=complex)


def subsystem_trace_out(h, b, factor_dims, traced: int = 1, tol: float = 1e-9) -> HistoryState:
    """Normalized reduced history of the kept factor: every slot of every term
    compressed by every record trajectory of the traced factor, one
    ``einsum`` at a time, with unit-norm slots and the scales in the
    coefficients (terms with a vanishing slot dropped)."""
    d0, d1 = factor_dims
    keep_dim, traced_dim = (d1, d0) if traced == 0 else (d0, d1)
    traced_bridges = []
    for u in b.unitaries:
        u0, u1 = _split_product_unitary(np.asarray(u), d0, d1, tol)
        traced_bridges.append(u0 if traced == 0 else u1)
    sub_grid = TimeGrid(h.grid.labels, (keep_dim,) * h.grid.n_slots)
    trajectories = []
    for c in range(traced_dim):
        states = [np.zeros(traced_dim, dtype=complex)]
        states[0][c] = 1.0
        for u in traced_bridges:
            states.append(u @ states[-1])
        trajectories.append(states)
    terms = []
    for coef, eh in h.terms:
        for states in trajectories:
            ops, scale = [], 1.0
            for op, v in zip(eh.slots, states):
                four = op.reshape(d0, d1, d0, d1)
                if traced == 1:
                    red = np.einsum("ajbk,j,k->ab", four, v.conj(), v)
                else:
                    red = np.einsum("jakb,j,k->ab", four, v.conj(), v)
                size = float(np.linalg.norm(red))
                if size <= 1e-15:
                    scale = 0.0
                    break
                ops.append(red / size)
                scale *= size
            if scale > 0.0:
                terms.append((coef * scale, ElementaryHistory(sub_grid, tuple(ops))))
    return normalize(HistoryState(tuple(terms)))


def object_trace_out(h, b, factor_dims, traced: int = 1, tol: float = 1e-9):
    """(state, consistency report) of the subsystem trace-out of the
    ``HistoryState`` ``h``, built from term objects: the package's stacked
    compression of ``h._stacks``, one ``ElementaryHistory`` per live (term,
    trajectory) pair, and the family of normalized one-term states of the
    reduced terms."""
    d0, d1 = factor_dims
    keep_dim, traced_dim = (d1, d0) if traced == 0 else (d0, d1)
    kept_bridges, traced_bridges = [], []
    for u in b.unitaries:
        u0, u1 = _split_product_unitary(np.asarray(u), d0, d1, tol)
        kept_bridges.append(u1 if traced == 0 else u0)
        traced_bridges.append(u0 if traced == 0 else u1)
    sub_grid = TimeGrid(h.grid.labels, (keep_dim,) * h.grid.n_slots)
    induced = BridgingSet(sub_grid, tuple(kept_bridges))
    states = [identity(traced_dim)]
    for u in traced_bridges:
        states.append(u @ states[-1])
    spec = "tajbk,jc,kc->tcab" if traced == 1 else "tjakb,jc,kc->tcab"
    reds = np.stack([np.einsum(spec, ops.reshape(-1, d0, d1, d0, d1), v.conj(), v)
                     for ops, v in zip(h._stacks, states)])
    sizes = np.linalg.norm(reds, axis=(-2, -1))
    scales = np.prod(sizes, axis=0)
    live = (sizes > 1e-15).all(axis=0) & (scales > 0.0)
    reds = reds / np.where(sizes > 0.0, sizes, 1.0)[..., None, None]
    coefs = h._coefs[:, None] * scales
    terms = [(coefs[t, c], ElementaryHistory(sub_grid, tuple(reds[:, t, c])))
             for t, c in zip(*np.nonzero(live))]
    state = normalize(HistoryState(tuple(terms)))
    family = [normalize(HistoryState.from_elementary(eh)) for _, eh in state.terms]
    return state, is_consistent_family(family, induced)


def interval_conjugated(h, b) -> HistoryState:
    """Every slot after the first conjugated by the bridge into it, term by term."""
    terms = []
    for coef, eh in h.terms:
        ops = [eh.slots[0]]
        for u, op in zip(b.unitaries, eh.slots[1:]):
            ops.append(u @ op @ u.conj().T)
        terms.append((coef, ElementaryHistory(h.grid, tuple(ops))))
    return HistoryState(tuple(terms))


def canonical_basis(evals, vecs, overlaps, norms) -> list:
    """(eigenvalue, member vector) pairs of ``histories._canonical_basis``,
    every cluster by Gram-Schmidt over its projected term strings and then
    its own basis."""
    evals, vecs = evals[::-1], vecs[:, ::-1]
    unit = overlaps[::-1] / np.where(norms > 0.0, norms, 1.0)
    out = []
    start = 0
    while start < len(evals):
        stop = start + 1
        while stop < len(evals) and evals[start] - evals[stop] <= DEGENERACY_TOL:
            stop += 1
        size = stop - start
        candidates = np.hstack([unit[start:stop], np.eye(size)])
        basis = []
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


def reductions(h, keep_sets, tol: float = 1e-12) -> list:
    """``histories._reductions`` with the set-by-set tail: the stacked front,
    then ``eigen_ensemble`` once per keep set."""
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
    for on, g in zip(kept, h._self_grams):
        grams[on] = grams[on] * g
        amps[~on] = amps[~on] * g.conj()
    if not np.isfinite(amps).all():
        raise ValueError("matrix entries must be finite")
    a_vals, a_vecs = np.linalg.eigh(amps)
    r = a_vecs * np.sqrt(np.clip(a_vals, 0.0, None))[:, None, :]
    evals, z = np.linalg.eigh(r.conj().transpose(0, 2, 1) @ grams @ r)
    return [eigen_ensemble(h, *args, tol) for args in zip(keeps, r, grams, evals, z)]


def eigen_ensemble(h, keep, r, gram, evals, z, tol):
    """The reduction of ``h`` to the slots ``keep`` from its part of the
    stacked pass: A = R R^dag, the kept Gram K and the eigenpairs of R^dag K R."""
    live = evals > tol
    if not live.any():
        raise ValueError(f"tol {tol!r} is at or above the largest eigenvalue {float(evals[-1])!r} "
                         f"of the reduction to slots {keep}")
    evals = evals[live]
    vecs = (r @ z[:, live]) / np.sqrt(evals)
    norms = np.sqrt(np.clip(gram.diagonal().real, 0.0, None))

    # the kept strings, merged once: string j is term firsts[j]'s, and term t
    # has string group[t]
    grid = h.grid
    sub_grid = TimeGrid._held(tuple(grid.labels[k] for k in keep), tuple(grid.slot_dims[k] for k in keep))
    rows = _join_rows([h._stacks[k] for k in keep])
    firsts, group = _merge_rows(rows)
    rows = rows[firsts]
    extra = [t for t, g in enumerate(group.tolist()) if t != firsts[g]]
    members = []
    columns = np.zeros((len(firsts), len(evals)), dtype=complex)  # C, column m member m
    for m, (lam, c) in enumerate(one_member_basis(evals, vecs, vecs.conj().T @ gram, norms)):
        c = c / math.sqrt(np.vdot(c, gram @ c).real)
        c = np.where(np.abs(c) * norms > 1e-14, c, 0.0)
        merged = c[firsts]
        for t in extra:  # in term order, as HistoryState sums them
            merged[group[t]] += c[t]
        on = _uncancelled(merged)
        columns[on, m] = merged[on]
        members.append((lam, HistoryState._held(sub_grid, merged[on], rows[on])))
    total = np.cumsum([p for p, _ in members])[-1]  # left to right, as on every Python
    ensemble = tuple((p / total, h_m) for p, h_m in members)
    if extra:
        gram = gram[np.ix_(firsts, firsts)]
    with np.errstate(over="ignore", invalid="ignore"):
        pairings = columns.conj().T @ gram @ columns
    _check_unit_norms(pairings.diagonal().real)
    return MixedHistory._from_coordinates(ensemble, _split_rows(rows, sub_grid.slot_dims), gram, columns,
                                          pairings)


def one_member_basis(evals, vecs, overlaps, norms) -> list:
    """``canonical_basis`` with each one-member cluster shortcut: its
    eigenvector turned by the phase of its first overlap above ``SPAN_TOL``,
    as a length-one product."""
    evals, vecs = evals[::-1], vecs[:, ::-1]
    unit = overlaps[::-1] / np.where(norms > 0.0, norms, 1.0)
    # np.linalg.norm of each length-1 projection: sqrt(re^2 + im^2)
    lengths = np.sqrt(unit.real * unit.real + unit.imag * unit.imag)
    vals = evals.tolist()
    out = []
    start = 0
    while start < len(vals):
        stop = start + 1
        while stop < len(vals) and vals[start] - vals[stop] <= DEGENERACY_TOL:
            stop += 1
        if stop == start + 1:
            hits = np.flatnonzero(lengths[start] > SPAN_TOL)
            if hits.size:
                t = hits[0]
                q = unit[start, t:t + 1] / lengths[start, t]
            else:
                q = np.ones(1, dtype=complex)
            out.append((vals[start], vecs[:, start:stop] @ q))
            start = stop
            continue
        size = stop - start
        candidates = np.hstack([unit[start:stop], np.eye(size)])
        basis = []
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


def exhaustive_projector_family(grid: TimeGrid) -> tuple:
    """All computational-basis projector strings on the grid."""
    out = []
    for combo in itertools.product(*(range(d) for d in grid.slot_dims)):
        ops = []
        for i, d in zip(combo, grid.slot_dims):
            m = np.zeros((d, d), dtype=complex)
            m[i, i] = 1.0
            ops.append(m)
        out.append(HistoryState.from_slots(grid, ops))
    return tuple(out)
