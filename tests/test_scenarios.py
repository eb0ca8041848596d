"""Frozen expected values for the named demonstration scenarios.

Every number asserted here was derived independently (by hand expansion of
the projector chains or by a brute-force comparator) before being frozen, so
these tests pin the library's behavior rather than echo it.
"""

import math

import numpy as np
import pytest

from qhist import BridgingSet, ElementaryHistory, HistoryState, TimeGrid, run_scenario
from qhist.scenarios import (
    MAX_GHZ_SLOTS,
    SCENARIOS,
    _interval_conjugated,
    example1_family,
    mach_zehnder,
    pauli_cycle,
    temporal_ghz,
    two_time_hab,
)

import histories_oracle
from conftest import random_unitary

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestRegistry:
    def test_known_names(self):
        assert set(SCENARIOS) == {
            "temporal-ghz",
            "mach-zehnder",
            "example1",
            "pauli-cycle",
            "two-time-hab",
        }

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="mach-zehnder"):
            run_scenario("double-slit")

    def test_all_scenarios_produce_notes(self):
        for name in SCENARIOS:
            res = run_scenario(name)
            assert res.name == name
            assert res.notes
            assert all(isinstance(n, str) and n for n in res.notes)


class TestTemporalGHZ:
    def test_default_artifacts(self):
        res = temporal_ghz()
        a = res.artifacts
        assert a["weight"] == pytest.approx(1.0, abs=1e-9)
        assert a["branch_probabilities"][0] == pytest.approx(0.5, abs=1e-9)
        assert a["branch_probabilities"][1] == pytest.approx(0.5, abs=1e-9)
        assert bool(a["consistency"])
        for key in (
            "reduction_purity_t0",
            "reduction_purity_t1",
            "reduction_purity_t2",
            "reduction_purity_t0_t1",
            "reduction_purity_t0_t2",
            "reduction_purity_t1_t2",
        ):
            assert a[key] == pytest.approx(0.5, abs=1e-9), key

    def test_reductions_are_ensembles_of_two(self):
        res = temporal_ghz()
        for key in ("reduction_t0", "reduction_t0_t2", "reduction_t1_t2"):
            m = res.artifacts[key]
            assert len(m.ensemble) == 2
            probs = sorted(p for p, _ in m.ensemble)
            assert probs == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_two_slot_bell_overlap_capped(self):
        res = temporal_ghz()
        assert res.artifacts["two_slot_bell_overlap_max"] == pytest.approx(
            INV_SQRT2, abs=1e-9
        )

    def test_biased_amplitudes(self):
        res = temporal_ghz(alpha=0.6, beta=0.8)
        p = sorted(res.artifacts["branch_probabilities"])
        assert p == pytest.approx([0.36, 0.64], abs=1e-9)
        assert res.artifacts["reduction_purity_t0"] == pytest.approx(
            0.36**2 + 0.64**2, abs=1e-9
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            temporal_ghz(n_slots=1)
        with pytest.raises(ValueError):
            temporal_ghz(n_slots=MAX_GHZ_SLOTS + 1)
        with pytest.raises(ValueError):
            temporal_ghz(alpha=1.0, beta=1.0)

    @pytest.mark.parametrize("alpha, beta", [(1e200, 0.0), (0.6, 1e200), (0.6, -1e200j), (1e200, 1e200)])
    def test_amplitude_above_one_rejected_before_squaring(self, alpha, beta):
        with pytest.raises(ValueError, match=r"^\|alpha\|\^2 \+ \|beta\|\^2 must equal 1$"):
            temporal_ghz(alpha=alpha, beta=beta)

    def test_largest_grid(self):
        res = temporal_ghz(n_slots=MAX_GHZ_SLOTS, alpha=0.6, beta=0.8)
        purities = [v for k, v in res.artifacts.items() if k.startswith("reduction_purity_")]
        n = MAX_GHZ_SLOTS
        assert len(purities) == n + n * (n - 1) // 2
        for p in purities:
            assert p == pytest.approx(0.36**2 + 0.64**2, abs=1e-12)

    def test_two_slot_variant(self):
        res = temporal_ghz(n_slots=2)
        assert res.artifacts["weight"] == pytest.approx(1.0, abs=1e-9)
        assert res.artifacts["reduction_purity_t0"] == pytest.approx(0.5, abs=1e-9)


class TestMachZehnder:
    def test_port_weights(self):
        res = mach_zehnder()
        a = res.artifacts
        assert a["weight_bright_port"] == pytest.approx(0.5, abs=1e-9)
        assert a["weight_dark_port_variant"] == pytest.approx(0.0, abs=1e-12)

    def test_middle_restriction_is_pure(self):
        a = mach_zehnder().artifacts
        assert a["middle_restriction_purity"] == pytest.approx(1.0, abs=1e-9)
        assert a["middle_restriction_fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_outer_reduction_is_even_mixture(self):
        a = mach_zehnder().artifacts
        assert a["reduced_t1_t3_purity"] == pytest.approx(0.5, abs=1e-9)
        w = sorted(a["reduced_t1_t3_branch_weights"])
        assert w == pytest.approx([0.5, 0.5], abs=1e-9)
        assert a["reduced_t1_t3_cross_term"] == pytest.approx(0.0, abs=1e-12)

    def test_branches_consistent_and_additive(self):
        a = mach_zehnder().artifacts
        assert bool(a["branch_consistency"])
        assert a["weight_additivity_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_unbalanced_splitter(self):
        res = mach_zehnder(alpha=0.6)
        assert res.artifacts["weight_bright_port"] < 0.5
        with pytest.raises(ValueError):
            mach_zehnder(alpha=1.0)
        with pytest.raises(ValueError):
            mach_zehnder(alpha=0.0)


class TestExample1Family:
    def test_member_weights(self):
        a = example1_family().artifacts
        assert list(a["member_weights"]) == pytest.approx([0.25] * 4, abs=1e-9)

    def test_family_is_consistent(self):
        a = example1_family().artifacts
        assert bool(a["consistency"])
        assert a["consistency"].max_offdiagonal < 1e-12

    def test_decoherence_matrix_diagonal(self):
        a = example1_family().artifacts
        d = a["decoherence_matrix"]
        assert np.allclose(np.diag(d), 0.25, atol=1e-9)
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) < 1e-12

    def test_gram_matrix_orthonormal(self):
        a = example1_family().artifacts
        assert np.allclose(a["gram_matrix"], np.eye(4), atol=1e-9)

    def test_superposition_structure(self):
        a = example1_family().artifacts
        assert a["superposition_norm"] == pytest.approx(1.0, abs=1e-9)
        assert a["branch_probabilities"] == pytest.approx((0.5, 0.5), abs=1e-9)
        assert a["sum_fidelity_first_slot_identity"] == pytest.approx(1.0, abs=1e-9)


class TestPauliCycle:
    def test_reduction_recovers_diagonal_history(self):
        a = pauli_cycle().artifacts
        assert a["reduced_ghz_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert a["induced_bridging_pauli_distance"] < 1e-9
        assert bool(a["reduction_consistent"])

    def test_dual_values_reported_side_by_side(self):
        a = pauli_cycle().artifacts
        assert a["coherent_weight_xyz_ppp"] == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert a["collapse_probability_xyz_ppp"] == pytest.approx(1.0 / 8.0, abs=1e-12)
        # both keys exist independently; neither replaces the other
        assert "coherent_weight_xyz_ppp" in a and "collapse_probability_xyz_ppp" in a

    def test_dual_values_note_present(self):
        res = pauli_cycle()
        assert any("never averaged or merged" in n for n in res.notes)

    def test_distributions_uniform(self):
        a = pauli_cycle().artifacts
        for s, p in a["coherent_distribution_xyz"].table.items():
            assert p == pytest.approx(0.125, abs=1e-9), s
        for s, p in a["collapse_distribution_xyz"].table.items():
            assert p == pytest.approx(0.125, abs=1e-12), s
        for s, p in a["xy_distribution"].table.items():
            assert p == pytest.approx(0.25, abs=1e-12), s

    def test_picture_equivalence(self):
        a = pauli_cycle().artifacts
        assert a["picture_equivalence_gap"] < 1e-12

    def test_spatial_statistics_match(self):
        a = pauli_cycle().artifacts
        assert a["spatial_xy_match_gap"] < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_interval_conjugation_is_the_term_loop(self, seed, d):
        # one stacked u @ s @ u^dag per slot, bit for bit the per-term loop
        rng = np.random.default_rng(seed)
        n_slots = int(rng.integers(1, 6))
        grid = TimeGrid.regular(n_slots, dim=d)
        h = HistoryState(tuple(
            (complex(rng.normal(), rng.normal()),
             ElementaryHistory(grid, tuple(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                                           for _ in range(n_slots))))
            for _ in range(int(rng.integers(1, 7)))
        ))
        b = BridgingSet(grid, tuple(random_unitary(rng, d) for _ in range(n_slots - 1)))
        got = _interval_conjugated(h, b)
        want = histories_oracle.interval_conjugated(h, b)
        assert np.array_equal(got._coefs, want._coefs)
        assert np.array_equal(got._rows, want._rows)


class TestTwoTimeHAB:
    def test_default_artifacts(self):
        a = two_time_hab().artifacts
        assert a["weight"] == pytest.approx(0.25, abs=1e-12)
        assert a["postselection_probability"] == pytest.approx(0.25, abs=1e-12)
        assert a["fidelity_ab_t0"] == pytest.approx(1.0, abs=1e-9)
        assert a["fidelity_ha_t1"] == pytest.approx(1.0, abs=1e-9)
        assert a["record_marginal_purity_t0"] == pytest.approx(0.5, abs=1e-9)
        assert a["record_marginal_purity_t1"] == pytest.approx(0.5, abs=1e-9)

    def test_slot_entanglement_absent(self):
        a = two_time_hab().artifacts
        assert a["slot_schmidt_rank"] == 1
        assert a["slot_entanglement_entropy"] == pytest.approx(0.0, abs=1e-12)

    def test_probability_is_input_independent(self):
        # the overlap of the two boundary placements is 1/4 for every
        # normalized single-qubit input
        for psi in ("0", "1", "+", "-", "i+", "i-"):
            a = two_time_hab(psi=psi).artifacts
            assert a["postselection_probability"] == pytest.approx(
                0.25, abs=1e-12
            ), psi
