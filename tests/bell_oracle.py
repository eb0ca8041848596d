"""Reference implementations of the Bell layer, kept only as test oracles.

These are the straightforward forms the package's batched routes replace: a
per-pair correlator loop over MeasurementSetting objects, an exhaustive
enumeration of every deterministic chain strategy, and the chained monogamy
reading from full three-slot outcome tables.  The batched routes must agree
with the first two exactly, not just within a tolerance.
``table_from_distributions`` reads a correlator table off two-slot outcome
distributions, a route that shares no code with the correlator kernel.
``correlator_tables`` is the kernel's stacked entry point for observables as
given: every input checked, its (N, d, d) unitary stacks by
``linalg.check_unitary`` (the package's own check takes one matrix), then
one ``bell._tables`` call per stack entry with its own unitary.

The correlator loop and ``processes_mixture`` are plain-Python complex
arithmetic in the chain kernel's order (``loop_matmul``, ``loop_pairing``,
``loop_sum`` from ``histories_oracle``): each chain starts from the identity
and takes its operators earliest first, so no BLAS is involved.
"""

import itertools
import math

import numpy as np

from qhist.bell import _tables
from qhist.errors import ShapeError
from qhist.linalg import as_matrix, check_unitary, density_operator, dichotomic_projectors, identity
from qhist.twostate import mixed_sequence_distribution

from histories_oracle import as_lists, loop_matmul, loop_pairing, loop_sum


def _chain(d: int, *ops) -> list:
    """ops[-1] ... ops[0] I, the kernel's chain, one product at a time."""
    k = as_lists(np.eye(d, dtype=complex))
    for op in ops:
        k = loop_matmul(as_lists(op), k)
    return k


def temporal_correlator(rho, first, unitary, second) -> float:
    """Two-time correlator, one projector pair at a time: the weights
    Tr(K rho K^dag) = loop_pairing(K, K rho) of K = P_b U P_a, signed and
    summed in the order ++, +-, -+, --."""
    rho = as_matrix(rho)
    d = rho.shape[0]
    u = identity(d) if unitary is None else as_matrix(unitary)
    total = 0.0
    for a in (+1, -1):
        for b in (+1, -1):
            k = _chain(d, first.projector(a), u, second.projector(b))
            total += a * b * loop_pairing(k, loop_matmul(k, as_lists(rho))).real
    return total


def processes_mixture(rho, a_settings, u1) -> np.ndarray:
    """rho' = (1/|A|) sum of K rho K^dag over the chains K = U1 P_a^+/-,
    every '+' chain in settings order, then every '-' chain."""
    rho = as_lists(as_matrix(rho))
    d = len(rho)
    terms = []
    for a in (+1, -1):
        for s in a_settings:
            k = _chain(d, s.projector(a), u1)
            k_dag = [[k[j][i].conjugate() for j in range(d)] for i in range(d)]
            terms.append(loop_matmul(loop_matmul(k, rho), k_dag))
    return np.array([[loop_sum(t[i][j] for t in terms) / len(a_settings) for j in range(d)]
                     for i in range(d)], dtype=complex)


def correlator_table(rho, firsts, unitary, seconds) -> np.ndarray:
    table = np.empty((len(firsts), len(seconds)))
    for i, a_set in enumerate(firsts):
        for j, b_set in enumerate(seconds):
            table[i, j] = temporal_correlator(rho, a_set, unitary, b_set)
    return table


def correlator_tables(initial, firsts, unitaries, seconds) -> np.ndarray:
    """Two-time correlator tables for a stack of settings.

    ``firsts`` and ``seconds`` are (N, k, d, d) stacks of dichotomic
    observables and ``unitaries`` is one (d, d) unitary, an (N, d, d) stack,
    or None for trivial evolution.  Entry [n, i, j] is the correlator of
    firsts[n, i], unitaries[n] and seconds[n, j], from one ``bell._tables``
    call per n.
    """
    rho = density_operator(initial)
    d = rho.shape[0]
    firsts, seconds = (np.asarray(o, dtype=complex) for o in (firsts, seconds))
    for obs in (firsts, seconds):
        if obs.ndim != 4 or obs.shape[-2:] != (d, d) or len(obs) != len(firsts):
            raise ShapeError(f"observables must be (N, k, {d}, {d}) stacks with one N")
    u = identity(d) if unitaries is None else np.asarray(unitaries, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (d, d):
        raise ShapeError(f"unitary must be {d}x{d}")
    u = check_unitary(u)
    if u.ndim == 3 and len(u) != len(firsts):
        raise ShapeError("need one unitary per stack entry")
    # one check over both stacks, then each setting's (P+, P-) pair back per stack
    k = firsts.shape[1]
    pairs = np.moveaxis(dichotomic_projectors(np.concatenate([firsts, seconds], axis=1)), 0, -3)
    u = np.broadcast_to(u, (len(pairs), d, d))
    return np.array([_tables(rho, p[:k], un, p[k:]) for p, un in zip(pairs, u)])


def table_from_distributions(dists) -> np.ndarray:
    """The correlator table from two-slot distributions keyed by setting-label
    pairs (first, second), each party's labels in sorted order."""
    firsts = sorted({x for x, _ in dists})
    seconds = sorted({y for _, y in dists})
    return np.array([[dists[(x, y)].correlator() for y in seconds] for x in firsts])


def chained_classical_bound(n: int, coefficients=((1, 1), (1, -1))) -> float:
    """Deterministic chain maximum by enumerating all 4^(n+1) strategies."""
    coeff = np.asarray(coefficients, dtype=float)
    strategies = list(itertools.product((1, -1), repeat=2))
    best = -math.inf
    for assignment in itertools.product(range(4), repeat=n + 1):
        total = 0.0
        for k in range(n):
            a = strategies[assignment[k]]
            b = strategies[assignment[k + 1]]
            total += sum(coeff[i, j] * a[i] * b[j] for i in range(2) for j in range(2))
        best = max(best, total)
    return float(best)


def chained_second_pair_table(rho, a_settings, b_settings, c_settings, u1, u2) -> np.ndarray:
    """Second-pair correlators with the first measurement left in the chain.

    Each run measures the first observable (both of its settings weighted
    equally), keeps the collapsed state, and continues; the middle outcome is
    shared between the two pair functionals, so the later correlator is the
    abc-joint marginal over the first outcome, read from one full outcome
    table per (a, b, c) setting triple.
    """
    rho = as_matrix(rho)
    d = rho.shape[0]
    table = np.zeros((len(b_settings), len(c_settings)))
    for j, b_set in enumerate(b_settings):
        for k, c_set in enumerate(c_settings):
            acc = 0.0
            for a_set in a_settings:
                dist = mixed_sequence_distribution(
                    rho, (a_set, b_set, c_set), unitaries=(identity(d), u1, u2, identity(d))
                )
                acc += dist.correlator(1, 2)
            table[j, k] = acc / len(a_settings)
    return table
