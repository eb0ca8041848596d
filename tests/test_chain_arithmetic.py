"""The chain kernel's arithmetic contract, one einsum subscript string at a time.

Every contraction on the chain path (``histories._chains`` and the reductions
of its output in ``histories``, ``twostate`` and ``bell``) is an ``np.einsum``
call with the default ``optimize=False`` on complex operands that sums over at
most one index.  Each test below runs the chain path on small inputs, records every
call made with one subscript string, and recomputes its output with a
plain-Python loop: output entries in order, the summed index ascending into
an accumulator that starts at 0j, the operands multiplied left to right.  A
numpy release that changed how a contraction accumulates fails here, naming
the subscript, before any golden file moves.
"""

import inspect
import io
import itertools
import tokenize

import numpy as np
import pytest

from qhist import bell, histories, twostate
from qhist.histories import BridgingSet, ElementaryHistory, HistoryState, TimeGrid, normalize
from qhist.linalg import maximally_mixed
from qhist.twostate import MeasurementSetting

import bell_oracle
from conftest import random_ket, random_unitary

# every subscript string the chain path uses, with where it is used
SUBSCRIPTS = {
    "ik,kjrb->ijrb": "_chains: an interval unitary or bridge",
    "boik,kjrb->ijrob": "_chains: a slot's outcome operators (a projector pair, the terms' own, a unitary)",
    "ijrb,b->ijr": "_term_chains: the coefficient sum",
    "sr,sr->r": "_pairings: weights, decoherence functional, table weights",
    "sb,b->bs": "_family_report: coefficients times term chains",
    "is,js->ij": "_family_report: the members' Gram",
    "i,ikr->kr": "post-selected tables: the post-selection bra",
    "ikr,kl->ilr": "_collapse_weights and the chained reading's rho': K rho",
    "ilr,jlr->ijr": "the chained reading's rho': K rho K^dag",
    "iir->r": "coherent bundle: the closed-loop trace",
}

CHAIN_PATH = (histories._chains, histories._term_chains, histories._pairings, histories._collapse_weights,
              histories.weight, histories._family_report,
              twostate._outcome_table, twostate.sequence_distribution, twostate.mixed_sequence_distribution,
              twostate.coherent_bundle_weights, bell._tables, bell.monogamy_sum)


def loop_einsum(subscripts: str, *operands) -> np.ndarray:
    """``np.einsum(subscripts, *operands)`` in plain-Python complex arithmetic,
    broadcasting size-one axes, for at most one summed index."""
    inputs, output = subscripts.split("->")
    inputs = inputs.split(",")
    sizes: dict[str, int] = {}
    for spec, op in zip(inputs, operands):
        for letter, n in zip(spec, op.shape):
            sizes[letter] = max(sizes.get(letter, 1), n)
    summed = sorted(set("".join(inputs)) - set(output))
    assert len(summed) <= 1, subscripts
    lists = [op.tolist() for op in operands]

    def entry(lst, spec, shape, idx):
        for letter, n in zip(spec, shape):
            lst = lst[idx[letter] if n > 1 else 0]
        return lst

    out = np.empty([sizes[letter] for letter in output], dtype=complex)
    for combo in itertools.product(*(range(sizes[letter]) for letter in output)):
        idx = dict(zip(output, combo))
        total = 0j
        for k in range(sizes[summed[0]]) if summed else (None,):
            if summed:
                idx[summed[0]] = k
            prod = None
            for lst, spec, op in zip(lists, inputs, operands):
                v = entry(lst, spec, op.shape, idx)
                prod = v if prod is None else prod * v
            total += prod
        out[combo] = total
    return out


def _observable(rng, d):
    u = random_unitary(rng, d)
    signs = np.where(np.arange(d) < rng.integers(1, d), 1.0, -1.0)
    return u @ np.diag(signs).astype(complex) @ u.conj().T


def _history(rng, dims, n_terms):
    grid = TimeGrid(tuple(map(float, range(len(dims)))), dims)

    def op(d):
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    return HistoryState(tuple((complex(rng.normal(), rng.normal()), ElementaryHistory(grid, tuple(map(op, dims))))
                              for _ in range(n_terms)))


def _exercise_chain_path(rng):
    """Every chain-path entry point on small inputs, qubits and qutrits."""
    for d in (2, 3):
        slots = tuple(MeasurementSetting(f"S{k}", _observable(rng, d)) if k != 1 else None for k in range(4))
        unitaries = tuple(random_unitary(rng, d) for _ in range(len(slots) + 1))
        pre, post = random_ket(rng, d), random_ket(rng, d)
        rho = maximally_mixed(d) * 0.5 + 0.5 * np.outer(pre, pre.conj())
        for p in (None, post):
            twostate.sequence_distribution(pre, slots, unitaries, p)
            twostate.mixed_sequence_distribution(rho, slots, unitaries=unitaries, post=p)
        h = normalize(_history(rng, (d,) * 3, 3))
        b = BridgingSet(h.grid, tuple(random_unitary(rng, d) for _ in range(2)))
        setting = MeasurementSetting("M", _observable(rng, d))
        twostate.coherent_bundle_weights(h, b, {0: setting, 2: setting})
        twostate.coherent_bundle_weights(h, b, {0: setting, 1: setting, 2: setting})
        histories.weight(h, b)
        histories.is_consistent_family([h, _history(rng, (d,) * 3, 2), h.terms[0][1]], b)
        a, b_, c = ([MeasurementSetting(f"{p}{i}", _observable(rng, d)) for i in range(2)] for p in "abc")
        bell.s_lgi(rho, a, b_, unitaries[0])
        for mode in ("independent_ensembles", "chained_single_system"):
            bell.monogamy_sum(rho, a, b_, c, unitaries=unitaries[:2], mode=mode)
        obs = np.array([[[s.observable for s in row] for row in pair] for pair in ((a, b_), (b_, c), (c, a))])
        bell_oracle.correlator_tables(rho, obs[:, 0], np.array(unitaries[:3]), obs[:, 1])
    # a slot dimension that grows: rectangular bridges and a non-square chain
    h = normalize(_history(rng, (2, 3, 3), 2))
    b = BridgingSet(h.grid, (random_unitary(rng, 3)[:, :2], random_unitary(rng, 3)))
    twostate.coherent_bundle_weights(h, b, {1: MeasurementSetting("M", _observable(rng, 3))})
    histories.weight(h, b)


@pytest.fixture(scope="module")
def calls():
    """(subscripts, operands, kwargs, output) of every einsum call the chain path makes."""
    real = np.einsum
    seen = []

    def recording(subscripts, *operands, **kwargs):
        copies = [np.array(op) for op in operands]
        out = real(subscripts, *operands, **kwargs)
        seen.append((subscripts, copies, kwargs, np.array(out)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "einsum", recording)
        _exercise_chain_path(np.random.default_rng(7))
    return seen


def test_the_chain_path_uses_only_the_pinned_subscripts(calls):
    assert {s for s, _, _, _ in calls} == set(SUBSCRIPTS)
    for subscripts, operands, kwargs, _ in calls:
        # the default optimize=False: no BLAS, no reordered contraction
        assert set(kwargs) <= {"order"} and "optimize" not in kwargs, subscripts
        # complex operands only: real einsum loops may use SIMD partial sums
        assert all(op.dtype == np.complex128 for op in operands), subscripts


@pytest.mark.parametrize("subscripts", sorted(SUBSCRIPTS))
def test_each_subscript_accumulates_in_the_documented_order(calls, subscripts):
    mine = [c for c in calls if c[0] == subscripts]
    assert mine, f"no call with {subscripts!r}"
    for _, operands, _, out in mine:
        assert out.tobytes() == loop_einsum(subscripts, *operands).tobytes()


@pytest.mark.parametrize("subscripts", sorted(SUBSCRIPTS))
def test_each_subscript_on_noncontiguous_operands(subscripts):
    # the same sums whatever the operands' memory layout, which numpy's
    # iterator may use to reorder the loops over output entries
    rng = np.random.default_rng(len(subscripts))
    inputs = subscripts.split("->")[0].split(",")
    sizes = dict(zip("ijklorsb", (3, 2, 3, 3, 2, 5, 4, 3)))
    operands = []
    for spec in inputs:
        shape = tuple(sizes[c] for c in spec)
        a = rng.normal(size=shape[::-1]) + 1j * rng.normal(size=shape[::-1])
        operands.append(a.transpose())  # a Fortran-ordered view
    want = loop_einsum(subscripts, *operands)
    assert np.einsum(subscripts, *operands).tobytes() == want.tobytes()
    assert np.einsum(subscripts, *map(np.ascontiguousarray, operands)).tobytes() == want.tobytes()


@pytest.mark.parametrize("func", CHAIN_PATH, ids=lambda f: f.__name__)
def test_no_blas_call_on_the_chain_path(func):
    source = inspect.getsource(func)
    tokens = {t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)}
    assert "@" not in tokens
    assert not tokens & {"vdot", "dot", "matmul", "trace", "tensordot", "inner", "outer"}
    assert "optimize" not in source
