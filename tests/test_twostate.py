"""Pre/post-selected sequential measurements: distributions, conditionals,
history bundles, and the coherent-weight assignment."""

import itertools

import numpy as np
import pytest

from qhist import (
    BridgingSet,
    ElementaryHistory,
    HistoryState,
    ImpossiblePostselectionError,
    MeasurementSetting,
    ShapeError,
    TwoTimeExperiment,
    abl_probability,
    coherent_bundle_distribution,
    coherent_bundle_weights,
    mixed_sequence_distribution,
    normalize,
    sequence_distribution,
    settings_from_angles,
    weight,
)
from qhist import histories, twostate
from qhist.histories import TimeGrid
from qhist.linalg import identity, is_projector, maximally_mixed, pauli, projector, qubit_ket
from qhist.twostate import MAX_MEASURED_SLOTS

import twostate_oracle
from twostate_oracle import earlier_marginal_deviation, history_bundle
from conftest import (
    HADAMARD,
    diagonal_branches,
    random_dichotomic,
    experiment_corpus,
    random_ket,
    random_setting,
    random_unitary,
)

X = MeasurementSetting.from_pauli("X")
Y = MeasurementSetting.from_pauli("Y")
Z = MeasurementSetting.from_pauli("Z")
K0, K1, KP = qubit_ket("0"), qubit_ket("1"), qubit_ket("+")


class TestMeasurementSetting:
    def test_projectors_resolve_identity(self):
        p, m = X.projectors()
        assert np.allclose(p + m, identity(2))
        assert np.allclose(p @ m, 0.0)
        assert np.allclose(p @ p, p)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSetting("bad", np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_dichotomic_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSetting("bad", np.diag([1.0, 0.5]))

    def test_from_bloch_poles(self):
        north = MeasurementSetting.from_bloch(0.0, 0.0)
        assert np.allclose(north.observable, pauli("Z"), atol=1e-12)
        equator = MeasurementSetting.from_bloch(np.pi / 2, 0.0)
        assert np.allclose(equator.observable, pauli("X"), atol=1e-12)

    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            X.projector(0)

    def test_projectors_are_i_plus_minus_o_over_two(self, rng):
        for setting in (X, Y, Z, MeasurementSetting("R", random_dichotomic(rng))):
            eye = identity(setting.dim)
            want = [(eye + a * setting.observable) / 2.0 for a in (+1, -1)]
            got = setting.projectors()
            assert [p.tobytes() for p in got] == [w.tobytes() for w in want]
            assert [setting.projector(a).tobytes() for a in (+1, -1)] == [w.tobytes() for w in want]
            assert not got.flags.writeable

    def test_label_names_the_rejected_observable(self):
        with pytest.raises(ValueError, match="^observable 'bad' is not Hermitian$"):
            MeasurementSetting("bad", np.array([[0, 1], [0, 0]], dtype=complex))


class TestOutcomeDistribution:
    def test_normalization_enforced(self):
        from qhist import OutcomeDistribution

        with pytest.raises(ValueError):
            OutcomeDistribution(("X",), {"+": 0.9, "-": 0.3})
        with pytest.raises(ValueError):
            OutcomeDistribution(("X",), {"+": 1.2, "-": -0.2})

    @pytest.mark.parametrize("table, message", [
        ({}, "at least one outcome"),
        ({"+": 0.5, "+-": -0.5, "-": 1.0}, "one character per setting"),
        ({"+": float("nan"), "-": -0.5, "0": 1.5}, "nonnegative"),
        ({"+": 0.5, "-": 0.6}, "sum to 1"),
    ])
    def test_checks_in_order(self, table, message):
        from qhist import OutcomeDistribution

        with pytest.raises(ValueError, match=message):
            OutcomeDistribution(("X",), table)

    def test_marginal_and_correlator(self):
        from qhist import OutcomeDistribution

        d = OutcomeDistribution(
            ("A", "B"), {"++": 0.4, "+-": 0.1, "-+": 0.1, "--": 0.4}
        )
        assert d.marginal(0) == pytest.approx({"+": 0.5, "-": 0.5})
        assert d.correlator() == pytest.approx(0.6)
        assert d.probability("+-") == pytest.approx(0.1)
        assert d.probability("??") == 0.0


class TestSequenceDistribution:
    def test_repeated_x_from_zero_postselected(self):
        exp = TwoTimeExperiment.build(K0, (X, X), post=K0)
        dist = sequence_distribution(exp)
        assert dist.probability("++") == pytest.approx(0.5, abs=1e-12)
        assert dist.probability("--") == pytest.approx(0.5, abs=1e-12)
        assert dist.probability("+-") == pytest.approx(0.0, abs=1e-12)
        assert dist.probability("-+") == pytest.approx(0.0, abs=1e-12)

    def test_three_settings_unpostselected_uniform(self):
        exp = TwoTimeExperiment.build(K0, (X, Y, Z))
        dist = sequence_distribution(exp)
        for string in dist.table:
            assert dist.probability(string) == pytest.approx(0.125, abs=1e-12)

    def test_certainty_from_aligned_boundaries(self):
        # pre |0>, post |+>, middle Z: the minus outcome cannot reach the post
        exp = TwoTimeExperiment.build(K0, (Z,), post=KP)
        dist = sequence_distribution(exp)
        assert dist.probability("+") == pytest.approx(1.0, abs=1e-12)

    def test_impossible_postselection(self):
        exp = TwoTimeExperiment.build(K0, (Z,), post=K1)
        with pytest.raises(ImpossiblePostselectionError):
            sequence_distribution(exp)

    def test_interval_unitaries_applied(self):
        # H before and after a Z measurement turns |0> into the X statistics
        exp = TwoTimeExperiment.build(
            K0, (Z,), unitaries=(HADAMARD, HADAMARD)
        )
        dist = sequence_distribution(exp)
        assert dist.probability("+") == pytest.approx(0.5, abs=1e-12)

    def test_no_measured_slot_rejected(self):
        exp = TwoTimeExperiment.build(K0, (None, None))
        with pytest.raises(ValueError):
            sequence_distribution(exp)

    def test_brute_force_amplitudes(self):
        # independent re-derivation: explicit projector chains times the pre
        # ket, squared against the post ket
        exp = TwoTimeExperiment.build(K0, (X, Z), post=KP)
        dist = sequence_distribution(exp)
        raw = {}
        for s0, s1 in itertools.product((+1, -1), repeat=2):
            amp = KP.conj() @ (Z.projector(s1) @ (X.projector(s0) @ K0))
            raw[("+" if s0 > 0 else "-") + ("+" if s1 > 0 else "-")] = abs(amp) ** 2
        total = sum(raw.values())
        for string, w in raw.items():
            assert dist.probability(string) == pytest.approx(w / total, abs=1e-12)


class TestMixedSequenceDistribution:
    def test_agrees_with_pure_route(self):
        for exp in experiment_corpus():
            rho = projector(exp.pre)
            got = mixed_sequence_distribution(
                rho, exp.slots, unitaries=exp.unitaries, post=exp.post
            )
            want = sequence_distribution(exp)
            for string, p in want.table.items():
                assert got.probability(string) == pytest.approx(p, abs=1e-12)

    def test_maximally_mixed_xyz_uniform(self):
        dist = mixed_sequence_distribution(maximally_mixed(2), (X, Y, Z))
        for string in dist.table:
            assert dist.probability(string) == pytest.approx(0.125, abs=1e-12)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            mixed_sequence_distribution(2.0 * maximally_mixed(2), (X,))

    def test_non_hermitian_state_rejected(self):
        # unit trace but not Hermitian: once read as the distribution
        # {++: 0.35, +-: 0.35, -+: 0.15, --: 0.15}
        rho = np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="density operator"):
            mixed_sequence_distribution(rho, (X, Z))

    def test_unitary_count_validation(self):
        with pytest.raises(ShapeError):
            mixed_sequence_distribution(
                maximally_mixed(2), (X,), unitaries=(identity(2),)
            )

    def test_non_unitary_interval_rejected(self):
        squash = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="interval operator is not unitary"):
            mixed_sequence_distribution(
                maximally_mixed(2), (X, Z), unitaries=(identity(2), squash, identity(2))
            )

    def test_slot_dimension_validation(self):
        with pytest.raises(ShapeError):
            mixed_sequence_distribution(maximally_mixed(3), (X,))

    def test_post_dimension_validation(self):
        with pytest.raises(ShapeError, match="post ket dimension does not match the state"):
            mixed_sequence_distribution(maximally_mixed(2), (X,), post=np.array([1, 0, 0]))


def _random_observable(rng, d: int) -> np.ndarray:
    """Dichotomic observable on dimension d with both eigenvalues present."""
    u = random_unitary(rng, d)
    signs = np.where(np.arange(d) < rng.integers(1, d), 1.0, -1.0)
    return u @ np.diag(signs).astype(complex) @ u.conj().T


def _random_row(rng, d: int):
    n = int(rng.integers(1, 11))
    measured = rng.random(n) < 0.75
    measured[rng.integers(n)] = True
    slots = tuple(
        MeasurementSetting(f"S{k}", _random_observable(rng, d)) if m else None
        for k, m in enumerate(measured)
    )
    return slots, tuple(random_unitary(rng, d) for _ in range(n + 1))


def _random_density(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _same_bytes(dist, table):
    assert list(dist.table) == list(table)
    got = np.array(list(dist.table.values()))
    want = np.array(list(table.values()))
    assert got.tobytes() == want.tobytes()


class TestWalkAgainstOracle:
    """The prefix-sharing walk against the string-by-string loops, bit for bit."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("with_post", [False, True])
    def test_pure_rows(self, rng, d, with_post):
        for _ in range(12):
            slots, unitaries = _random_row(rng, d)
            pre = random_ket(rng, d)
            post = random_ket(rng, d) if with_post else None
            exp = TwoTimeExperiment.build(pre, slots, post=post, unitaries=unitaries)
            want = twostate_oracle.sequence_table(exp.pre, exp.slots, exp.unitaries, exp.post)
            _same_bytes(sequence_distribution(exp), want)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("with_post", [False, True])
    def test_mixed_rows(self, rng, d, with_post):
        for _ in range(12):
            slots, unitaries = _random_row(rng, d)
            rho = _random_density(rng, d)
            post = random_ket(rng, d) if with_post else None
            want = twostate_oracle.mixed_sequence_table(rho, slots, unitaries, post)
            got = mixed_sequence_distribution(rho, slots, unitaries=unitaries, post=post)
            _same_bytes(got, want)


class TestABL:
    def test_symmetric_certainty(self):
        exp = TwoTimeExperiment.build(K0, (Z,), post=KP)
        assert abl_probability(exp, 0, +1) == pytest.approx(1.0, abs=1e-12)
        assert abl_probability(exp, 0, -1) == pytest.approx(0.0, abs=1e-12)

    def test_unbiased_case(self):
        exp = TwoTimeExperiment.build(K0, (X,), post=K1)
        assert abl_probability(exp, 0, +1) == pytest.approx(0.5, abs=1e-12)

    def test_requires_postselection(self):
        exp = TwoTimeExperiment.build(K0, (X,))
        with pytest.raises(ValueError):
            abl_probability(exp, 0, +1)

    def test_requires_single_measured_slot(self):
        exp = TwoTimeExperiment.build(K0, (X, Z), post=K0)
        with pytest.raises(ValueError):
            abl_probability(exp, 0, +1)

    def test_closed_form(self, rng):
        # p(+) = |<post|P+|pre>|^2 / sum, checked against random settings
        for _ in range(20):
            s = random_setting(rng)
            num = abs(np.vdot(KP, s.projector(+1) @ K0)) ** 2
            den = num + abs(np.vdot(KP, s.projector(-1) @ K0)) ** 2
            if den < 1e-12:
                continue
            exp = TwoTimeExperiment.build(K0, (s,), post=KP)
            assert abl_probability(exp, 0, +1) == pytest.approx(num / den, abs=1e-12)


class TestHistoryBundle:
    def test_probabilities_match_chain_weights(self):
        for exp in experiment_corpus():
            bundle = history_bundle(exp)
            assert bundle, "bundle should not be empty"
            weights = [weight(h, b) for _, h, _, b in bundle]
            total = sum(weights)
            for (string, h, p, b), w in zip(bundle, weights):
                assert p == pytest.approx(w / total, abs=1e-9), string

    def test_zero_weight_strings_dropped(self):
        exp = TwoTimeExperiment.build(K0, (X, X), post=K0)
        bundle = history_bundle(exp)
        strings = {s for s, _, _, _ in bundle}
        assert strings == {"++", "--"}

    def test_histories_are_normalized_projector_strings(self):
        exp = TwoTimeExperiment.build(K0, (X, Z), post=KP)
        for _, h, _, _ in history_bundle(exp):
            assert h.n_terms == 1
            assert all(is_projector(op) for op in h.terms[0][1].slots)


class TestCoherentBundle:
    def ghz(self):
        grid, up, down = diagonal_branches(3)
        return grid, normalize(up + down)

    def test_raw_weights_match_trace_oracle(self):
        # re-derive every |Tr K|^2 by direct matrix products
        grid, h = self.ghz()
        b = BridgingSet.trivial(grid)
        measured = {0: X, 1: Y, 2: Z}
        got = coherent_bundle_weights(h, b, measured)
        c = 2.0 / np.sqrt(2.0)  # both branches merge onto the same string
        for s0, s1, s2 in itertools.product((+1, -1), repeat=3):
            k = Z.projector(s2) @ Y.projector(s1) @ X.projector(s0)
            string = "".join("+" if s > 0 else "-" for s in (s0, s1, s2))
            assert got[string] == pytest.approx(
                abs(c * np.trace(k)) ** 2, abs=1e-12
            ), string

    def test_interference_is_retained(self):
        # raw coherent weights are not a probability table
        grid, h = self.ghz()
        b = BridgingSet.trivial(grid)
        got = coherent_bundle_weights(h, b, {0: X, 1: X, 2: X})
        assert got["+++"] == pytest.approx(2.0, abs=1e-12)
        assert sum(got.values()) != pytest.approx(1.0, abs=1e-3)

    def test_distribution_normalizes(self):
        grid, h = self.ghz()
        b = BridgingSet.trivial(grid)
        dist = coherent_bundle_distribution(h, b, {0: X, 1: Y, 2: Z})
        assert sum(dist.table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_partial_measurement_keeps_other_slots(self):
        grid, h = self.ghz()
        b = BridgingSet.trivial(grid)
        got = coherent_bundle_weights(h, b, {1: X})
        assert got["+"] == pytest.approx(0.5, abs=1e-12)
        assert got["-"] == pytest.approx(0.5, abs=1e-12)

    def test_requires_normalized_history(self):
        grid, up, down = diagonal_branches(3)
        with pytest.raises(ValueError):
            coherent_bundle_weights(up + down, BridgingSet.trivial(grid), {0: X})

    def test_slot_range_validated(self):
        grid, h = self.ghz()
        with pytest.raises(ValueError):
            coherent_bundle_weights(h, BridgingSet.trivial(grid), {5: X})


def _random_bundle(rng, dims, bridges):
    """Normalized random 1-5-term history on ``dims`` with random measured slots."""
    n = len(dims)
    grid = TimeGrid(tuple(float(k) for k in range(n)), dims)

    def op(d):
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    terms = tuple(
        (complex(rng.normal(), rng.normal()), ElementaryHistory(grid, tuple(op(d) for d in dims)))
        for _ in range(rng.integers(1, 6))
    )
    mask = rng.random(n) < 0.6
    mask[rng.integers(n)] = True
    measured = {
        k: MeasurementSetting(f"S{k}", _random_observable(rng, dims[k]))
        for k in range(n) if mask[k]
    }
    return normalize(HistoryState(terms)), BridgingSet(grid, bridges), measured


def _check_bundle_against_oracle(h, b, measured) -> bool:
    """Compare with the per-string oracle; True when the comparison was exact."""
    want = twostate_oracle.coherent_bundle_weights(h, b, measured)
    got = coherent_bundle_weights(h, b, measured)
    assert list(got) == list(want)
    g, w = np.array(list(got.values())), np.array(list(want.values()))
    if len(measured) < h.grid.n_slots or h.n_terms == 1:
        assert g.tobytes() == w.tobytes()
        return True
    # Once every slot is projected all term chains are one chain X, which the
    # oracle merges to (sum c_t) X.  Allow 1e-15 of the largest weight the terms
    # would reach without cancelling: max w * (sum |c_t| / |sum c_t|)^2.
    cs = [c for c, _ in h.terms]
    scale = np.max(w) * (sum(abs(c) for c in cs) / abs(sum(cs))) ** 2
    assert np.max(np.abs(g - w)) <= 1e-15 * scale
    return False


class TestCoherentBundleAgainstOracle:
    """The stacked bundle against the per-string history rebuild."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_histories(self, rng, d):
        exact = []
        for _ in range(40):
            n = int(rng.integers(1, 8))
            bridges = tuple(random_unitary(rng, d) for _ in range(n - 1))
            exact.append(_check_bundle_against_oracle(*_random_bundle(rng, (d,) * n, bridges)))
        assert any(exact) and not all(exact)

    def test_unequal_slot_dimensions(self, rng):
        isometry = random_unitary(rng, 3)[:, :2]
        for _ in range(12):
            h, b, measured = _random_bundle(rng, (2, 3, 3), (isometry, random_unitary(rng, 3)))
            _check_bundle_against_oracle(h, b, measured)

    def test_setting_dimension_checked_before_any_product(self, rng):
        h, b, _ = _random_bundle(rng, (2, 3, 3), (random_unitary(rng, 3)[:, :2], identity(3)))
        message = r"slot operator shape \(2, 2\) does not match dim 3"
        for weights in (coherent_bundle_weights, twostate_oracle.coherent_bundle_weights):
            with pytest.raises(ShapeError, match=message):
                weights(h, b, {0: X, 1: X})


class TestMeasuredSlotBound:
    @pytest.mark.parametrize("n", [MAX_MEASURED_SLOTS + 1, 40])
    def test_every_table_rejects_too_many_measured_slots(self, n):
        message = f"at most {MAX_MEASURED_SLOTS} measured slots are supported, got {n}"
        slots = (X, None) * n
        with pytest.raises(ValueError, match=message):
            sequence_distribution(TwoTimeExperiment.build(K0, slots, post=KP))
        with pytest.raises(ValueError, match=message):
            mixed_sequence_distribution(maximally_mixed(2), slots)
        grid, up, down = diagonal_branches(2 * n)
        with pytest.raises(ValueError, match=message):
            coherent_bundle_weights(
                normalize(up + down), BridgingSet.trivial(grid), {2 * k: X for k in range(n)}
            )

    def test_unmeasured_slots_do_not_count(self, monkeypatch):
        monkeypatch.setattr(histories, "MAX_MEASURED_SLOTS", 2)
        grid, up, down = diagonal_branches(5)
        h, b = normalize(up + down), BridgingSet.trivial(grid)
        assert len(sequence_distribution(TwoTimeExperiment.build(K0, (X, None, None, Z))).table) == 4
        assert len(mixed_sequence_distribution(maximally_mixed(2), (None, X, None, Z)).table) == 4
        assert len(coherent_bundle_weights(h, b, {1: X, 3: Z})) == 4
        with pytest.raises(ValueError, match="at most 2 measured slots"):
            sequence_distribution(TwoTimeExperiment.build(K0, (X, None, Y, Z)))
        with pytest.raises(ValueError, match="at most 2 measured slots"):
            mixed_sequence_distribution(maximally_mixed(2), (X, None, Y, Z))
        with pytest.raises(ValueError, match="at most 2 measured slots"):
            coherent_bundle_weights(h, b, {0: X, 2: Y, 4: Z})


class TestMarginalIndependence:
    def family(self, post):
        out = {}
        for second in (Z, X):
            exp = TwoTimeExperiment.build(K0, (X, second), post=post)
            out[("X", second.label)] = sequence_distribution(exp)
        return out

    def test_no_postselection_no_backward_influence(self):
        assert earlier_marginal_deviation(self.family(post=None)) == pytest.approx(0.0, abs=1e-12)

    def test_postselection_flags_backward_dependence(self):
        assert earlier_marginal_deviation(self.family(post=KP)) == pytest.approx(0.5, abs=1e-9)


class TestStackedSettings:
    """``MeasurementSetting.stack`` against the settings built one at a time."""

    def test_equal_to_one_by_one_bit_for_bit(self, rng):
        angles = [tuple(rng.uniform(0, 2 * np.pi, size=2)) for _ in range(20)]
        angles += [(0.0, 0.0), (np.pi, 0.0), (2 * np.pi, np.pi), (0.0, 2 * np.pi), (np.pi, 2 * np.pi)]
        entries = angles + [(0.3, 0.4, "mine"), "X", None, "y", "Z", None]
        order = rng.permutation(len(entries))
        entries = [entries[i] for i in order]
        stacked = MeasurementSetting.stack(entries)
        assert len(stacked) == len(entries)
        for entry, s in zip(entries, stacked):
            if entry is None:
                assert s is None
                continue
            if isinstance(entry, str):
                ones = [MeasurementSetting.from_pauli(entry),
                        MeasurementSetting(entry.upper(), pauli(entry))]
            else:
                ones = [MeasurementSetting.from_bloch(*entry)]
                label = ones[0].label
                ones.append(MeasurementSetting(label, twostate.bloch_observables([entry[:2]])[0]))
            for one in ones:
                assert s.label == one.label
                assert s.observable.tobytes() == one.observable.tobytes()
                assert s.projectors().tobytes() == one.projectors().tobytes()
            assert not s.observable.flags.writeable and not s.projectors().flags.writeable

    def test_default_and_given_labels(self):
        a, b, c = MeasurementSetting.stack([(0.5, 1.25), (0.5, 1.25, "L"), "z"])
        assert (a.label, b.label, c.label) == ("bloch(0.5,1.25)", "L", "Z")
        assert MeasurementSetting.stack([]) == ()
        assert MeasurementSetting.stack([None, None]) == (None, None)

    def test_one_check_for_any_length(self, monkeypatch):
        calls = {"bloch_observables": 0, "dichotomic_projectors": 0}
        for name in calls:
            real = getattr(twostate, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(twostate, name, counted)
        for n in (1, 2, 12, 100):
            for key in calls:
                calls[key] = 0
            MeasurementSetting.stack([(0.1 * k, 0.2 * k) for k in range(n)] + ["X", None])
            assert calls == {"bloch_observables": 1, "dichotomic_projectors": 1}
            for key in calls:
                calls[key] = 0
            assert len(settings_from_angles(0.1 * np.arange(2 * n))) == n
            assert calls == {"bloch_observables": 1, "dichotomic_projectors": 1}

    def test_a_failed_check_names_the_first_bad_setting(self, monkeypatch):
        real = twostate.bloch_observables

        def spoiled(angles):
            obs = real(angles)
            obs[1:] = np.diag([1.0, 0.5])
            return obs

        monkeypatch.setattr(twostate, "bloch_observables", spoiled)
        with pytest.raises(ValueError, match=r"^observable 'second' is not dichotomic \(O\^2 != I\)$"):
            MeasurementSetting.stack(["X", (0.1, 0.2, "first"), (0.3, 0.4, "second"), (0.5, 0.6, "third")])


    @pytest.mark.parametrize("spoil, message", [
        # the lowest-index bad setting, by its first failing check
        ({1: np.diag([1.0, 0.5]), 2: np.full((2, 2), np.nan)},
         r"observable 'first' is not dichotomic \(O\^2 != I\)"),
        ({1: np.full((2, 2), np.nan), 2: np.array([[0, 1], [0, 0]])},
         "observable 'first' entries must be finite"),
        ({2: np.array([[0, 1], [0, 0]]), 3: np.full((2, 2), np.inf)}, "observable 'second' is not Hermitian"),
        ({3: np.full((2, 2), np.nan)}, "observable 'third' entries must be finite"),
    ])
    def test_two_bad_settings_name_the_first(self, monkeypatch, spoil, message):
        real = twostate.bloch_observables

        def spoiled(angles):
            obs = real(angles)
            for row, bad in spoil.items():
                obs[row - 1] = bad
            return obs

        monkeypatch.setattr(twostate, "bloch_observables", spoiled)
        with pytest.raises(ValueError, match=f"^{message}$"):
            MeasurementSetting.stack(["X", (0.1, 0.2, "first"), (0.3, 0.4, "second"), (0.5, 0.6, "third")])


class TestStackedUnitaryRow:
    """An interval row is one stack and one ``check_unitary``; a bad entry at
    any position still raises its own error."""

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad, error, message", [
        (np.diag([1.0, 0.0]).astype(complex), ValueError, "interval operator is not unitary"),
        (np.array([[np.nan, 0], [0, 1]], dtype=complex), ValueError, "matrix entries must be finite"),
        (np.array([[1, 0], [0, np.inf]], dtype=complex), ValueError, "matrix entries must be finite"),
        (np.eye(3, dtype=complex), ShapeError, "interval unitary has wrong dimension"),
        (np.ones(2, dtype=complex), ShapeError, "expected a 2-D matrix, got ndim=1"),
    ])
    def test_bad_entry_at_each_position(self, rng, position, bad, error, message):
        row = [random_unitary(rng, 2) for _ in range(4)]
        row[position] = bad
        slots = (X, None, Z)
        with pytest.raises(error, match=f"^{message}$"):
            TwoTimeExperiment.build(K0, slots, post=KP, unitaries=row)
        with pytest.raises(error, match=f"^{message}$"):
            mixed_sequence_distribution(maximally_mixed(2), slots, unitaries=row)

    @pytest.mark.parametrize("first, second", itertools.combinations(range(4), 2))
    @pytest.mark.parametrize("bad_first, bad_second, error, message", [
        # a non-finite or non-2-D entry anywhere is named before an earlier non-unitary one
        (np.diag([1.0, 0.0]), np.array([[np.nan, 0], [0, 1]]), ValueError, "matrix entries must be finite"),
        (np.diag([1.0, 0.0]), np.ones(2), ShapeError, "expected a 2-D matrix, got ndim=1"),
        # then the entries go in order, shape before unitarity
        (np.diag([1.0, 0.0]), np.eye(3), ValueError, "interval operator is not unitary"),
        (np.eye(3), np.diag([1.0, 0.0]), ShapeError, "interval unitary has wrong dimension"),
    ])
    def test_two_bad_entries_in_either_order(self, rng, first, second, bad_first, bad_second, error, message):
        row = [random_unitary(rng, 2) for _ in range(4)]
        row[first], row[second] = bad_first, bad_second
        slots = (X, None, Z)
        with pytest.raises(error, match=f"^{message}$"):
            TwoTimeExperiment.build(K0, slots, post=KP, unitaries=row)
        with pytest.raises(error, match=f"^{message}$"):
            mixed_sequence_distribution(maximally_mixed(2), slots, unitaries=row)

    def test_wrong_count_still_named(self):
        with pytest.raises(ShapeError, match="^need one interval unitary per gap, boundaries included$"):
            TwoTimeExperiment.build(K0, (X, Z), unitaries=[identity(2)] * 4)

    def test_default_row_is_not_checked(self, monkeypatch):
        from qhist import linalg

        calls = []
        for module, name in ((linalg, "check_unitary"), (linalg, "as_matrix"), (twostate, "as_matrix")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
        row = twostate._checked_row(3, (None,) * 11, None)
        assert not calls
        assert len(row) == 12
        assert all(np.array_equal(u, identity(3)) and not u.flags.writeable for u in row)

    def test_read_only_copies_of_the_given_row(self, rng):
        row = [random_unitary(rng, 2) for _ in range(3)]
        exp = TwoTimeExperiment.build(K0, (X, Z), post=KP, unitaries=row)
        assert [u.tobytes() for u in exp.unitaries] == [u.tobytes() for u in row]
        assert all(not u.flags.writeable for u in exp.unitaries)
        row[0][0, 0] = 5.0
        assert exp.unitaries[0][0, 0] != 5.0

    def test_one_check_per_row(self, rng, monkeypatch):
        from qhist import linalg

        calls = []
        real = linalg.check_unitary
        monkeypatch.setattr(linalg, "check_unitary", lambda *a, **k: calls.append(1) or real(*a, **k))
        for n in (1, 6, 13):
            calls.clear()
            slots = (X,) * (n - 1)
            TwoTimeExperiment.build(K0, slots, unitaries=[random_unitary(rng, 2) for _ in range(n)])
            assert len(calls) == 1
            calls.clear()
            mixed_sequence_distribution(maximally_mixed(2), slots or (X,), unitaries=None if n == 1 else
                                        [random_unitary(rng, 2) for _ in range(n)])
            # default identities are not checked
            assert len(calls) == (0 if n == 1 else 1)
