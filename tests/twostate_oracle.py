"""Reference implementations of the outcome-string rules, kept only as test oracles.

These are the straightforward forms the package's stacked chain engine
replaces: every outcome string rebuilds its chain from the start, slot by
slot.  The engine must agree with the row rules exactly, not just within a
tolerance; the coherent bundle rebuilds a whole history per string, merging
terms whose strings coincide, and sums its chains with the per-term loop of
``histories_oracle``, so there the engine may differ in rounding.
"""

import itertools

import numpy as np

from qhist.histories import HistoryState
from qhist.linalg import as_ket, as_matrix, identity, projector

from histories_oracle import chain_operator_sum


def _outcome_strings(n: int):
    return ("".join(bits) for bits in itertools.product("+-", repeat=n))


def _normalized(table: dict) -> dict:
    total = sum(table.values())
    return {k: v / total for k, v in table.items()}


def sequence_table(pre, slots, unitaries, post=None) -> dict:
    """Normalized amplitude-chain table of a pure pre-selected row."""
    n_measured = sum(s is not None for s in slots)
    table = {}
    for string in _outcome_strings(n_measured):
        signs = iter(+1 if ch == "+" else -1 for ch in string)
        vec = pre
        for k, setting in enumerate(slots):
            vec = unitaries[k] @ vec
            if setting is not None:
                vec = setting.projector(next(signs)) @ vec
        vec = unitaries[-1] @ vec
        if post is None:
            w = float(np.vdot(vec, vec).real)
        else:
            w = abs(np.vdot(post, vec)) ** 2
        table[string] = w
    return _normalized(table)


def mixed_sequence_table(rho0, slots, unitaries, post=None) -> dict:
    """Normalized sequential-collapse table starting from a density operator."""
    rho0 = as_matrix(rho0)
    d = rho0.shape[0]
    post_proj = None if post is None else projector(as_ket(post, normalized=True))
    n_measured = sum(s is not None for s in slots)
    table = {}
    for string in _outcome_strings(n_measured):
        signs = iter(+1 if ch == "+" else -1 for ch in string)
        chain = identity(d)
        for k, setting in enumerate(slots):
            chain = unitaries[k] @ chain
            if setting is not None:
                chain = setting.projector(next(signs)) @ chain
        chain = unitaries[-1] @ chain
        evolved = chain @ rho0 @ chain.conj().T
        if post_proj is None:
            w = float(np.trace(evolved).real)
        else:
            w = float(np.trace(post_proj @ evolved).real)
        table[string] = max(w, 0.0)
    return _normalized(table)


def coherent_bundle_weights(h, b, measured) -> dict:
    """Raw |Tr K|^2 per outcome string, from the history rebuilt with its projectors."""
    positions = sorted(int(k) for k in measured)
    weights = {}
    for string in _outcome_strings(len(positions)):
        signs = dict(zip(positions, (+1 if ch == "+" else -1 for ch in string)))
        terms = []
        for c, eh in h.terms:
            modified = eh
            for pos in positions:
                modified = modified.with_slot(pos, measured[pos].projector(signs[pos]))
            terms.append((c, modified))
        k = chain_operator_sum(HistoryState(tuple(terms)), b)
        weights[string] = abs(np.trace(k)) ** 2
    return weights
