"""The batched Bell routes against their one-at-a-time oracles.

The stacked correlator kernel and the max-plus classical bound must reproduce
the straightforward forms in ``bell_oracle`` bit for bit, so every comparison
here is ``==`` on values or on raw bytes, never approximate.
"""

import math

import numpy as np
import pytest

from qhist import (
    MeasurementSetting,
    chained_bell,
    chained_classical_bound,
    classical_bound_bruteforce,
    monogamy_sum,
    s_lgi,
    temporal_correlator,
)
from qhist import ShapeError, bell
from qhist.bell import MAX_CHAIN_BLOCKS
from qhist.linalg import maximally_mixed, pauli
from qhist.twostate import bloch_observables

import bell_oracle
from bell_oracle import correlator_tables
from conftest import random_unitary


def random_state(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_setting(rng, d: int) -> MeasurementSetting:
    """A random dichotomic observable; for qubits half of them from Bloch angles."""
    if d == 2 and rng.random() < 0.5:
        return MeasurementSetting.from_bloch(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
    u = random_unitary(rng, d)
    signs = np.where(np.arange(d) < (d + 1) // 2, 1.0, -1.0)
    return MeasurementSetting("R", u @ np.diag(signs).astype(complex) @ u.conj().T)


def stack(settings) -> np.ndarray:
    return np.array([[s.observable for s in row] for row in settings])


class TestKernelAgainstOracle:
    @pytest.mark.parametrize("d", [2, 3])
    def test_stack_matches_per_pair_loop(self, rng, d):
        n = 40
        rho = random_state(rng, d)
        firsts = [[random_setting(rng, d) for _ in range(2)] for _ in range(n)]
        seconds = [[random_setting(rng, d) for _ in range(2)] for _ in range(n)]
        unitaries = [random_unitary(rng, d) for _ in range(n)]
        got = correlator_tables(rho, stack(firsts), np.array(unitaries), stack(seconds))
        want = np.array([bell_oracle.correlator_table(rho, f, u, s)
                         for f, u, s in zip(firsts, unitaries, seconds)])
        assert got.tobytes() == want.tobytes()

    def test_single_matrix_and_trivial_unitary_broadcast(self, rng):
        rho = random_state(rng, 2)
        firsts = [[random_setting(rng, 2) for _ in range(2)] for _ in range(8)]
        seconds = [[random_setting(rng, 2) for _ in range(2)] for _ in range(8)]
        u = random_unitary(rng, 2)
        for unitary in (u, None):
            got = correlator_tables(rho, stack(firsts), unitary, stack(seconds))
            want = np.array([bell_oracle.correlator_table(rho, f, unitary, s)
                             for f, s in zip(firsts, seconds)])
            assert got.tobytes() == want.tobytes()

    def test_entries_do_not_depend_on_the_table(self, rng):
        rho, u = random_state(rng, 2), random_unitary(rng, 2)
        obs = bloch_observables(rng.uniform(0, math.pi, size=(1, 30, 2)))
        whole = correlator_tables(rho, obs[:, :12], u, obs[:, 12:])[0]
        assert whole.shape == (12, 18)
        for i, j in np.ndindex(whole.shape):
            one = correlator_tables(rho, obs[:, i:i + 1], u, obs[:, 12 + j:13 + j])
            assert one.tobytes() == whole[i, j].tobytes()

    def test_public_functions_match_oracle(self, rng):
        for _ in range(30):
            rho = random_state(rng, 2)
            u1, u2 = random_unitary(rng, 2), random_unitary(rng, 2)
            a, b, c = ([random_setting(rng, 2) for _ in range(2)] for _ in range(3))
            assert temporal_correlator(rho, a[0], u1, b[1]) == bell_oracle.temporal_correlator(
                rho, a[0], u1, b[1])
            rep = s_lgi(rho, a, b, u1)
            table = bell_oracle.correlator_table(rho, a, u1, b)
            assert rep.correlators.tobytes() == table.tobytes()
            assert rep.value == float(table[0, 0] + table[0, 1] + table[1, 0] - table[1, 1])
            mono = monogamy_sum(rho, a, b, c, unitaries=(u1, u2))
            assert mono.first_pair.correlators.tobytes() == table.tobytes()
            second = bell_oracle.correlator_table(rho, b, u2, c)
            assert mono.second_pair.correlators.tobytes() == second.tobytes()

    def test_bloch_stack_matches_from_bloch(self, rng):
        angles = rng.uniform(0, 2 * math.pi, size=(200, 2))
        obs = bloch_observables(angles)
        for (theta, phi), o in zip(angles, obs):
            ref = (math.sin(theta) * math.cos(phi) * pauli("X")
                   + math.sin(theta) * math.sin(phi) * pauli("Y")
                   + math.cos(theta) * pauli("Z"))
            assert o.tobytes() == ref.tobytes()
            assert MeasurementSetting.from_bloch(theta, phi).observable.tobytes() == ref.tobytes()


class TestKernelChecks:
    def setup_method(self):
        self.z = pauli("Z")[None, None]

    def test_rejects_bad_initial_state(self):
        with pytest.raises(ValueError, match="density operator"):
            correlator_tables(2.0 * maximally_mixed(2), self.z, None, self.z)

    def test_rejects_non_hermitian_observable(self):
        bad = np.array([[[[0, 1], [0, 0]]]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            correlator_tables(maximally_mixed(2), bad, None, self.z)

    def test_rejects_non_dichotomic_observable(self):
        with pytest.raises(ValueError, match="not dichotomic"):
            correlator_tables(maximally_mixed(2), 0.5 * self.z, None, self.z)

    def test_rejects_non_finite_observable(self):
        with pytest.raises(ValueError, match="finite"):
            correlator_tables(maximally_mixed(2), np.full((1, 1, 2, 2), np.nan), None, self.z)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            correlator_tables(maximally_mixed(2), self.z, 0.5 * np.eye(2), self.z)

    def test_rejects_mismatched_stacks(self):
        with pytest.raises(ValueError):
            correlator_tables(maximally_mixed(2), np.repeat(self.z, 2, axis=0), None, self.z)
        with pytest.raises(ValueError, match="one unitary per stack entry"):
            correlator_tables(maximally_mixed(2), self.z, np.stack([np.eye(2)] * 3), self.z)

    def test_range_check(self):
        # unit trace and Hermitian but not positive: E(Z, I) = 2 - (-1) = 3
        rho = np.diag([2.0, -1.0]).astype(complex)
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            correlator_tables(rho, self.z, None, np.eye(2, dtype=complex)[None, None])


class TestUnitarityChecks:
    def test_s_lgi_rejects_non_unitary(self):
        z = MeasurementSetting.from_pauli("Z")
        with pytest.raises(ValueError, match="not unitary"):
            s_lgi(maximally_mixed(2), (z, z), (z, z), 0.5 * np.eye(2))
        with pytest.raises(ValueError, match="2x2"):
            s_lgi(maximally_mixed(2), (z, z), (z, z), np.eye(3))

    @pytest.mark.parametrize("mode", ["independent_ensembles", "chained_single_system"])
    def test_monogamy_rejects_non_unitary(self, mode):
        z = MeasurementSetting.from_pauli("Z")
        pair = (z, z)
        with pytest.raises(ValueError, match=r"unitaries\[1\] is not unitary"):
            monogamy_sum(maximally_mixed(2), pair, pair, pair,
                         unitaries=(None, 2.0 * np.eye(2)), mode=mode)

    def test_temporal_correlator_rejects_non_unitary(self):
        z = MeasurementSetting.from_pauli("Z")
        with pytest.raises(ValueError, match="not unitary"):
            temporal_correlator(maximally_mixed(2), z, 0.5 * np.eye(2), z)


# stacks of one and of two unitaries: every entry point takes one matrix
_STACKS = [np.eye(2, dtype=complex)[None], np.stack([np.eye(2), pauli("X")]).astype(complex)]


class TestOneUnitary:
    @pytest.mark.parametrize("mode", ["independent_ensembles", "chained_single_system"])
    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("stacked", _STACKS, ids=["1x2x2", "2x2x2"])
    def test_monogamy_sum(self, mode, position, stacked):
        z = MeasurementSetting.from_pauli("Z")
        unitaries = [None, None]
        unitaries[position] = stacked
        with pytest.raises(ShapeError, match=rf"^unitaries\[{position}\] must be a single matrix$"):
            monogamy_sum(maximally_mixed(2), (z, z), (z, z), (z, z), unitaries=unitaries, mode=mode)

    @pytest.mark.parametrize("stacked", _STACKS, ids=["1x2x2", "2x2x2"])
    def test_s_lgi(self, stacked):
        z = MeasurementSetting.from_pauli("Z")
        with pytest.raises(ShapeError, match="^unitary must be a single matrix$"):
            s_lgi(maximally_mixed(2), (z, z), (z, z), stacked)

    @pytest.mark.parametrize("stacked", _STACKS, ids=["1x2x2", "2x2x2"])
    def test_temporal_correlator(self, stacked):
        z = MeasurementSetting.from_pauli("Z")
        with pytest.raises(ShapeError, match="^unitary must be a single matrix$"):
            temporal_correlator(maximally_mixed(2), z, stacked, z)


class TestChecksOnce:
    """``s_lgi``, ``monogamy_sum`` and ``temporal_correlator`` read each
    setting's own checked projector pair and check the state once: the same
    tables as the oracle's stacked route, which checks everything it is given."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_same_tables_as_the_checked_kernel(self, rng, d):
        for _ in range(10):
            rho = random_state(rng, d)
            u1, u2 = random_unitary(rng, d), random_unitary(rng, d)
            a, b, c = ([random_setting(rng, d) for _ in range(2)] for _ in range(3))
            rep = s_lgi(rho, a, b, u1)
            table = correlator_tables(rho, stack([a]), u1, stack([b]))[0]
            assert rep.correlators.tobytes() == table.tobytes()
            mono = monogamy_sum(rho, a, b, c, unitaries=(u1, u2))
            want = correlator_tables(rho, stack([a, b]), np.stack([u1, u2]), stack([b, c]))
            assert mono.first_pair.correlators.tobytes() == want[0].tobytes()
            assert mono.second_pair.correlators.tobytes() == want[1].tobytes()
            chained = monogamy_sum(rho, a, b, c, unitaries=(u1, u2), mode="chained_single_system")
            mixed = bell_oracle.processes_mixture(rho, a, u1)
            assert chained.first_pair.correlators.tobytes() == want[0].tobytes()
            second = correlator_tables(mixed, stack([b]), u2, stack([c]))[0]
            assert chained.second_pair.correlators.tobytes() == second.tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_temporal_correlator_is_the_stacked_route(self, rng, d):
        for _ in range(20):
            rho = random_state(rng, d)
            a, b = random_setting(rng, d), random_setting(rng, d)
            for u in (random_unitary(rng, d), None):
                want = correlator_tables(rho, stack([[a]]), u, stack([[b]]))[0, 0, 0]
                assert temporal_correlator(rho, a, u, b) == want

    def test_temporal_correlator_takes_one_unitary(self):
        z = MeasurementSetting.from_pauli("Z")
        with pytest.raises(ShapeError, match="single matrix"):
            temporal_correlator(maximally_mixed(2), z, np.stack([np.eye(2)] * 2), z)

    @pytest.mark.parametrize("mode", ["independent_ensembles", "chained_single_system"])
    def test_monogamy_checks_each_input_once(self, rng, monkeypatch, mode):
        a, b, c = ([random_setting(rng, 2) for _ in range(2)] for _ in range(3))
        # settings arrive with their checked pairs: the layer checks no observable
        assert not hasattr(bell, "dichotomic_projectors")
        calls = {"density_operator": 0}
        real = bell.density_operator

        def counted(*args, **kwargs):
            calls["density_operator"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(bell, "density_operator", counted)
        monogamy_sum(random_state(rng, 2), a, b, c, unitaries=(random_unitary(rng, 2), None), mode=mode)
        assert calls == {"density_operator": 1}
        calls.update(density_operator=0)
        s_lgi(random_state(rng, 2), a, b)
        assert calls == {"density_operator": 1}
        calls.update(density_operator=0)
        temporal_correlator(random_state(rng, 2), a[0], None, b[1])
        assert calls == {"density_operator": 1}

    def test_setting_dimension_still_checked(self):
        z, q = MeasurementSetting.from_pauli("Z"), MeasurementSetting("Q", np.diag([1.0, -1.0, 1.0]))
        message = r"^observables must be \(k, 2, 2\) stacks$"
        for mode in ("independent_ensembles", "chained_single_system"):
            with pytest.raises(ShapeError, match=message):
                monogamy_sum(maximally_mixed(2), (q, q), (q, q), (q, q), mode=mode)
        with pytest.raises(ShapeError, match=message):
            monogamy_sum(maximally_mixed(2), (z, z), (z, z), (q, q), mode="chained_single_system")
        with pytest.raises(ShapeError, match=message):
            s_lgi(maximally_mixed(2), (z, z), (q, q))


def random_pure_state(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


class TestChainedReadingAgainstOracle:
    """The chained reading as the correlator of the mixture of processes
    against the old route: eight full three-slot outcome tables per draw."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("state", [random_state, random_pure_state])
    def test_kernel_route_matches_outcome_tables(self, rng, d, state):
        gaps = []
        for _ in range(12):
            rho = state(rng, d)
            u1, u2 = random_unitary(rng, d), random_unitary(rng, d)
            a, b, c = ([random_setting(rng, d) for _ in range(2)] for _ in range(3))
            chained = monogamy_sum(rho, a, b, c, unitaries=(u1, u2), mode="chained_single_system")
            want = bell_oracle.chained_second_pair_table(rho, a, b, c, u1, u2)
            assert np.max(np.abs(chained.second_pair.correlators - want)) <= 1e-12
            independent = monogamy_sum(rho, a, b, c, unitaries=(u1, u2))
            assert chained.first_pair.correlators.tobytes() == independent.first_pair.correlators.tobytes()
            gaps.append(np.max(np.abs(chained.second_pair.correlators
                                      - independent.second_pair.correlators)))
        if d == 2:
            # a qubit collapse correlator is c . (R b) for every state, so
            # the mixture cannot change it
            assert max(gaps) <= 1e-12
        else:
            assert max(gaps) > 0.1


class TestChainedBellOnce:
    def test_block_reused(self):
        z, x = MeasurementSetting.from_pauli("Z"), MeasurementSetting.from_pauli("X")
        res = chained_bell(5, (z, x), (z, x))
        assert all(r is res.block_reports[0] for r in res.block_reports)
        assert res.total == float(sum(r.value for r in res.block_reports))

    def test_upper_bound(self):
        z = MeasurementSetting.from_pauli("Z")
        assert len(chained_bell(MAX_CHAIN_BLOCKS, (z, z), (z, z)).block_reports) == MAX_CHAIN_BLOCKS
        with pytest.raises(ValueError, match=str(MAX_CHAIN_BLOCKS)):
            chained_bell(MAX_CHAIN_BLOCKS + 1, (z, z), (z, z))


def coefficient_tables():
    rng = np.random.default_rng(3)
    tables = [((1, 1), (1, -1))]
    tables += [rng.integers(-4, 5, size=(2, 2)) for _ in range(2)]
    tables += [rng.normal(size=(2, 2)) for _ in range(2)]
    return tables


class TestMaxPlusClassicalBound:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_bruteforce(self, n):
        for coeff in coefficient_tables():
            assert chained_classical_bound(n, coeff) == bell_oracle.chained_classical_bound(n, coeff)

    def test_single_block_is_the_two_party_bound(self):
        for coeff in coefficient_tables():
            assert chained_classical_bound(1, coeff) == classical_bound_bruteforce(coeff)

    def test_long_chains(self):
        assert chained_classical_bound(1000) == 2000.0
        assert chained_classical_bound(50, ((1, 1), (1, 1))) == 200.0

    def test_validates_coefficients(self):
        with pytest.raises(ValueError):
            chained_classical_bound(2, ((1, 1, 1), (1, -1, 1)))
        with pytest.raises(ValueError):
            chained_classical_bound(2, ((1, math.nan), (1, -1)))
