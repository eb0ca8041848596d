"""Randomized invariants.  Each property is a statement the library should
satisfy for *every* input in its domain, so hypothesis drives the sampling.

Matrices and states are generated from drawn integer seeds rather than from
raw float strategies: that keeps inputs well-conditioned (exact unitaries,
normalized kets) while still exploring the space.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qhist import (
    BridgingSet,
    CorrelatorSpec,
    HistoryState,
    TimeGrid,
    chain_operator_sum,
    hs_inner,
    hs_norm,
    is_consistent_family,
    normalize,
    s_lgi,
    settings_from_angles,
    temporal_correlator,
    weight,
)
from qhist.bell import TSIRELSON_BOUND, _certified_bound, _quadratic_form
from qhist.linalg import (
    kron,
    maximally_mixed,
    partial_trace,
    projector,
)

from conftest import (
    consistent_family_corpus,
    random_dichotomic,
    random_ket,
    random_unitary,
)
from histories_oracle import exhaustive_projector_family

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=4)


def _rng(seed):
    return np.random.default_rng(seed)


def _random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _random_density(rng, d):
    a = _random_matrix(rng, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------- linalg ---


@given(seeds, dims, dims, dims)
def test_kron_associative(seed, d1, d2, d3):
    rng = _rng(seed)
    a, b, c = (_random_matrix(rng, d) for d in (d1, d2, d3))
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert np.allclose(left, right, atol=1e-10)


@given(seeds, dims, dims)
def test_partial_trace_preserves_trace_and_keep_all(seed, d1, d2):
    rng = _rng(seed)
    rho = _random_density(rng, d1 * d2)
    reduced = partial_trace(rho, (d1, d2), keep=(0,))
    assert reduced.shape == (d1, d1)
    assert abs(np.trace(reduced) - np.trace(rho)) < 1e-10
    full = partial_trace(rho, (d1, d2), keep=(0, 1))
    assert np.allclose(full, rho, atol=1e-12)


# ------------------------------------------------------------- histories ---


def _random_projector_history(rng, n_slots):
    grid = TimeGrid.regular(n_slots)
    slots = [projector(random_ket(rng, 2)) for _ in range(n_slots)]
    return grid, HistoryState.from_slots(grid, slots)


@given(seeds, st.integers(min_value=2, max_value=4))
def test_chain_operator_sum_is_linear(seed, n_slots):
    rng = _rng(seed)
    grid, h1 = _random_projector_history(rng, n_slots)
    _, h2 = _random_projector_history(rng, n_slots)
    bridging = BridgingSet(grid, [random_unitary(rng, 2) for _ in range(n_slots - 1)])
    a = complex(rng.normal(), rng.normal())
    b = complex(rng.normal(), rng.normal())
    combined = chain_operator_sum(a * h1 + b * h2, bridging)
    separate = a * chain_operator_sum(h1, bridging) + b * chain_operator_sum(
        h2, bridging
    )
    assert np.allclose(combined, separate, atol=1e-10)


@given(seeds)
def test_hs_inner_conjugate_symmetric_and_antilinear(seed):
    rng = _rng(seed)
    _, h1 = _random_projector_history(rng, 3)
    _, h2 = _random_projector_history(rng, 3)
    ip = hs_inner(h1, h2)
    assert abs(ip - np.conj(hs_inner(h2, h1))) < 1e-12
    c = complex(rng.normal(), rng.normal())
    assert abs(hs_inner(c * h1, h2) - np.conj(c) * ip) < 1e-10
    assert abs(hs_inner(h1, c * h2) - c * ip) < 1e-10


@given(seeds)
def test_normalize_gives_unit_hs_norm(seed):
    rng = _rng(seed)
    _, h1 = _random_projector_history(rng, 3)
    _, h2 = _random_projector_history(rng, 3)
    h = normalize(complex(rng.normal(), rng.normal()) * h1 + h2)
    assert math.isclose(hs_norm(h), 1.0, abs_tol=1e-10)


@given(seeds, st.integers(min_value=0, max_value=3))
@settings(deadline=None)
def test_weight_additivity_on_consistent_families(seed, which):
    """On a consistent family the weight of any superposition is the
    coefficient-weighted sum of member weights (no cross terms survive)."""
    family, bridging = consistent_family_corpus()[which]
    rng = _rng(seed)
    coeffs = [complex(rng.normal(), rng.normal()) for _ in family]
    superposed = None
    for c, member in zip(coeffs, family):
        term = c * member
        superposed = term if superposed is None else superposed + term
    direct = weight(superposed, bridging)
    additive = sum(abs(c) ** 2 * weight(m, bridging) for c, m in zip(coeffs, family))
    assert math.isclose(direct, additive, abs_tol=1e-9)


@given(seeds, st.integers(min_value=0, max_value=3))
@settings(deadline=None)
def test_decoherence_diagonal_matches_weight(seed, which):
    family, bridging = consistent_family_corpus()[which]
    idx = seed % len(family)
    member = family[idx]
    d = is_consistent_family(family, bridging).matrix[idx, idx]
    assert abs(d.imag) < 1e-12
    assert math.isclose(d.real, weight(member, bridging), abs_tol=1e-12)


@given(seeds, st.integers(min_value=2, max_value=3))
@settings(deadline=None, max_examples=30)
def test_exhaustive_family_is_complete(seed, n_slots):
    """Summing every projector string's chain operator reproduces the bare
    evolution, and the weights sum to the Hilbert space dimension."""
    rng = _rng(seed)
    grid = TimeGrid.regular(n_slots)
    unitaries = [random_unitary(rng, 2) for _ in range(n_slots - 1)]
    bridging = BridgingSet(grid, unitaries)
    family = exhaustive_projector_family(grid)
    total = sum(chain_operator_sum(h, bridging) for h in family)
    expected = np.eye(2, dtype=complex)
    for u in unitaries:
        expected = u @ expected
    assert np.allclose(total, expected, atol=1e-10)
    assert math.isclose(
        sum(weight(h, bridging) for h in family), 2.0, abs_tol=1e-10
    )


# ------------------------------------------------------------------ bell ---

angle_pairs = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)


@given(st.tuples(angle_pairs, angle_pairs, angle_pairs, angle_pairs), seeds)
@settings(deadline=None, max_examples=60)
def test_s_lgi_never_exceeds_quantum_bound(pairs, seed):
    flat = [x for pair in pairs for x in pair]
    a1, a2, b1, b2 = settings_from_angles(flat)
    spec = CorrelatorSpec(
        initial=maximally_mixed(2),
        first_settings=(a1, a2),
        second_settings=(b1, b2),
        unitary=random_unitary(_rng(seed), 2),
    )
    report = s_lgi(spec)
    assert abs(report.value) <= TSIRELSON_BOUND + 1e-9
    for row in report.correlators:
        for c in row:
            assert abs(c) <= 1.0 + 1e-12


@given(seeds)
def test_temporal_correlator_closed_form(seed):
    """Nonselective collapse of a dichotomic observable leaves
    E = Tr(B u A u^dag) / 2 for every qubit state, pure or mixed."""
    rng = _rng(seed)
    a = random_dichotomic(rng)
    b = random_dichotomic(rng)
    u = random_unitary(rng, 2)
    from qhist import MeasurementSetting

    first = MeasurementSetting("A", a)
    second = MeasurementSetting("B", b)
    closed = 0.5 * np.trace(b @ u @ a @ u.conj().T).real
    for initial in (
        projector(random_ket(rng, 2)),
        _random_density(rng, 2),
        maximally_mixed(2),
    ):
        e = temporal_correlator(initial, first, u, second)
        assert math.isclose(e, closed, abs_tol=1e-10)
        assert abs(e) <= 1.0 + 1e-12


@given(seeds, st.sampled_from([("s_lgi", 1), ("chained_bell", 3), ("monogamy_sum", 1)]),
       st.integers(min_value=1, max_value=6))
@settings(deadline=None, max_examples=60)
def test_certified_bound_caps_every_assignment(seed, objective, dim):
    """The dual bound built at any unit vectors x is at least y^T Q y for any
    other unit vectors y, of any dimension."""
    rng = _rng(seed)
    q = _quadratic_form(*objective)
    x = rng.normal(size=(len(q), 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    bound = _certified_bound(q, x)
    for _ in range(5):
        y = rng.normal(size=(len(q), dim))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        assert float(np.einsum("ij,ik,jk->", q, y, y)) <= bound + 1e-12
