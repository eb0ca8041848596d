"""Reference implementations of the outcome-string rules, kept only as test oracles.

These are the straightforward forms the package's stacked chain engine
replaces: every outcome string rebuilds its chain from the start, slot by
slot, in plain-Python complex arithmetic in the order the engine documents
(``histories_oracle.loop_matmul`` and ``loop_pairing``).  The engine must
agree with the row rules exactly, not just within a tolerance; the coherent
bundle rebuilds a whole history per string, merging terms whose strings
coincide, and sums its chains with the per-term loop of
``histories_oracle``, so there the engine may differ in rounding.

``history_bundle`` writes each outcome string of an experiment as its own
projector-string history between the boundary projectors, so its normalized
chain weights are a second route to the outcome table.
``earlier_marginal_deviation`` measures how much an earlier slot's marginal
moves when only the later setting changes.
"""

import itertools
import math

import numpy as np

from qhist.histories import BridgingSet, ElementaryHistory, HistoryState, TimeGrid
from qhist.linalg import as_ket, as_matrix, identity, projector
from qhist.twostate import ZERO_WEIGHT_TOL, sequence_distribution

from histories_oracle import as_lists, chain_operator_sum, loop_matmul, loop_pairing, loop_sum


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
        vec = [[x] for x in as_lists(pre)]
        for k, setting in enumerate(slots):
            vec = loop_matmul(as_lists(unitaries[k]), vec)
            if setting is not None:
                vec = loop_matmul(as_lists(setting.projector(next(signs))), vec)
        vec = loop_matmul(as_lists(unitaries[-1]), vec)
        if post is not None:
            # the amplitude <post|vec>
            vec = [loop_sum(p.conjugate() * v for p, (v,) in zip(as_lists(post), vec))]
        table[string] = loop_pairing(vec, vec).real
    return _normalized(table)


def mixed_sequence_table(rho0, slots, unitaries, post=None) -> dict:
    """Normalized sequential-collapse table starting from a density operator:
    Tr(K rho K^dag), or a rho a^dag with the row a = <post|K."""
    rho0 = as_lists(as_matrix(rho0))
    d = len(rho0)
    n_measured = sum(s is not None for s in slots)
    table = {}
    for string in _outcome_strings(n_measured):
        signs = iter(+1 if ch == "+" else -1 for ch in string)
        chain = as_lists(identity(d))
        for k, setting in enumerate(slots):
            chain = loop_matmul(as_lists(unitaries[k]), chain)
            if setting is not None:
                chain = loop_matmul(as_lists(setting.projector(next(signs))), chain)
        chain = loop_matmul(as_lists(unitaries[-1]), chain)
        if post is not None:
            bra = [x.conjugate() for x in as_lists(as_ket(post, normalized=True))]
            chain = [[loop_sum(bra[i] * chain[i][k] for i in range(d)) for k in range(d)]]
        table[string] = max(loop_pairing(chain, loop_matmul(chain, rho0)).real, 0.0)
    return _normalized(table)


def coherent_bundle_weights(h, b, measured) -> dict:
    """Raw |Tr K|^2 per outcome string, from the history rebuilt with its projectors."""
    positions = sorted(int(k) for k in measured)
    weights = {}
    for string in _outcome_strings(len(positions)):
        signs = dict(zip(positions, (+1 if ch == "+" else -1 for ch in string)))
        terms = []
        for c, eh in h.terms:
            ops = list(eh.slots)
            for pos in positions:
                ops[pos] = measured[pos].projector(signs[pos])
            terms.append((c, ElementaryHistory(eh.grid, tuple(ops))))
        k = as_lists(chain_operator_sum(HistoryState(tuple(terms)), b))
        tr = loop_sum(k[i][i] for i in range(min(len(k), len(k[0]))))
        weights[string] = tr.real * tr.real + tr.imag * tr.imag
    return weights


def history_bundle(exp):
    """(outcome string, normalized history, probability, bridging) for each
    string of ``sequence_distribution(exp)`` with a nonzero probability."""
    d = exp.dim
    grid = TimeGrid.regular(len(exp.slots) + 2, d)
    bridging = BridgingSet(grid, exp.unitaries)
    pre_op = projector(exp.pre)
    post_op = identity(d) if exp.post is None else projector(exp.post)
    # slot k's operator for each outcome character ("" when unmeasured)
    options = [{"": identity(d)} if s is None else dict(zip("+-", s.projectors())) for s in exp.slots]
    bundle = []
    for string, p in sequence_distribution(exp).table.items():
        if p <= ZERO_WEIGHT_TOL:
            continue
        chars = dict(zip(exp.measured_indices, string))
        ops = [pre_op, *(opts[chars.get(k, "")] for k, opts in enumerate(options)), post_op]
        scale = 1.0 / math.prod(map(np.linalg.norm, ops))
        bundle.append((string, HistoryState.from_slots(grid, ops, scale), p, bridging))
    return bundle


def earlier_marginal_deviation(dist_family) -> float:
    """Largest change of a first-slot marginal between two-slot distributions
    keyed by (first label, second label) that share the first label."""
    deviation = 0.0
    for x in {x for x, _ in dist_family}:
        dists = [d for (first, _), d in dist_family.items() if first == x]
        for a in "+-":
            values = [d.marginal(0)[a] for d in dists]
            deviation = max(deviation, max(values) - min(values))
    return deviation
