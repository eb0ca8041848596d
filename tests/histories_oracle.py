"""Reference implementation of the temporal reduction, kept only as a test oracle.

This is the dense form the package's term-factored reduction replaces: the
normalized history is vectorized into the full 4^n-dimensional history space,
its outer product is formed, and the discarded slots are contracted with the
generic partial-trace primitive.  It costs O(16^n), so it is only usable on
small histories.
"""

import numpy as np

from qhist.histories import history_vector, normalize
from qhist.linalg import partial_trace


def temporal_reduction_density(h, keep_slots) -> np.ndarray:
    """Reduced history-space density operator of ``h`` on ``keep_slots``."""
    h = normalize(h)
    psi = history_vector(h)
    sq_dims = [d * d for d in h.grid.slot_dims]
    return partial_trace(np.outer(psi, psi.conj()), sq_dims, keep_slots)
