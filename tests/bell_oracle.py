"""Reference implementations of the Bell layer, kept only as test oracles.

These are the straightforward forms the package's batched routes replace: a
per-pair correlator loop over MeasurementSetting objects, an exhaustive
enumeration of every deterministic chain strategy, and the chained monogamy
reading from full three-slot outcome tables.  The batched routes must agree
with the first two exactly, not just within a tolerance.
"""

import itertools
import math

import numpy as np

from qhist.linalg import as_matrix, identity
from qhist.twostate import mixed_sequence_distribution


def temporal_correlator(rho, first, unitary, second) -> float:
    """Two-time correlator, one projector pair at a time."""
    rho = as_matrix(rho)
    u = identity(rho.shape[0]) if unitary is None else as_matrix(unitary)
    total = 0.0
    for a in (+1, -1):
        pa = first.projector(a)
        mid = u @ pa @ rho @ pa @ u.conj().T
        for b in (+1, -1):
            pb = second.projector(b)
            total += a * b * float(np.trace(pb @ mid).real)
    return total


def correlator_table(rho, firsts, unitary, seconds) -> np.ndarray:
    table = np.empty((len(firsts), len(seconds)))
    for i, a_set in enumerate(firsts):
        for j, b_set in enumerate(seconds):
            table[i, j] = temporal_correlator(rho, a_set, unitary, b_set)
    return table


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
