"""Reference forms of history-space geometry, kept only as test oracles.

``temporal_reduction_density`` is the dense form the package's term-factored
reduction replaces: the normalized history is vectorized into the full
4^n-dimensional history space, its outer product is formed, and the
discarded slots are contracted with the generic partial-trace primitive.  It
costs O(16^n), so it is only usable on small histories.

``pairwise_hs_inner`` and ``merge_terms`` are the term-by-term loops the
package's stacked Gram kernel and vectorized term merge replace: a product
of per-slot ``np.vdot`` pairings for every term pair, and a comparison of
every incoming term with every merged one, slot by slot.
"""

import numpy as np

from qhist.histories import MERGE_TOL, history_vector, normalize
from qhist.linalg import max_abs, partial_trace


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
