"""Two-time Bell functionals: correlators, bounds, chains, and the optimizer."""

import math

import numpy as np
import pytest

from qhist import (
    BellReport,
    MeasurementSetting,
    OptimizerConfig,
    chained_bell,
    chained_classical_bound,
    classical_bound_bruteforce,
    mixed_sequence_distribution,
    monogamy_preset_settings,
    monogamy_sum,
    optimize_settings,
    s_lgi,
    settings_from_angles,
    temporal_correlator,
    tsirelson_settings,
)
from qhist import bell
from qhist.bell import (
    CHAINED,
    INDEPENDENT,
    MAX_CHAIN_BLOCKS,
    _quadratic_form,
)
from qhist.errors import ShapeError
from qhist.linalg import maximally_mixed, pauli, projector, qubit_ket
from qhist.twostate import bloch_observables

from bell_oracle import correlator_tables, table_from_distributions
from conftest import SQRT2, open_certificate, random_dichotomic, random_ket, random_unitary

RHO = maximally_mixed(2)
Z = MeasurementSetting.from_pauli("Z")
X = MeasurementSetting.from_pauli("X")


class TestTemporalCorrelator:
    def test_literal_values(self):
        assert temporal_correlator(RHO, Z, None, Z) == pytest.approx(1.0, abs=1e-12)
        assert temporal_correlator(RHO, Z, None, X) == pytest.approx(0.0, abs=1e-12)
        diag = MeasurementSetting("D", (pauli("Z") + pauli("X")) / SQRT2)
        assert temporal_correlator(RHO, Z, None, diag) == pytest.approx(
            1.0 / SQRT2, abs=1e-12
        )

    def test_closed_form_on_maximally_mixed(self, rng):
        # E(A, B) = Tr(A B) / 2 when the input is I/2 and evolution trivial
        for _ in range(25):
            a = MeasurementSetting("A", random_dichotomic(rng))
            b = MeasurementSetting("B", random_dichotomic(rng))
            want = float(np.trace(a.observable @ b.observable).real) / 2.0
            got = temporal_correlator(RHO, a, None, b)
            assert got == pytest.approx(want, abs=1e-12)

    def test_pure_state_repeated_setting(self):
        rho0 = projector(qubit_ket("0"))
        assert temporal_correlator(rho0, Z, None, Z) == pytest.approx(1.0, abs=1e-12)
        assert temporal_correlator(rho0, X, None, X) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_between_times(self):
        # X flip between the measurements inverts the Z-Z correlation
        assert temporal_correlator(RHO, Z, pauli("X"), Z) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_invalid_initial_rejected(self):
        with pytest.raises(ValueError):
            temporal_correlator(2.0 * RHO, Z, None, Z)


class TestSLGI:
    def test_preset_saturates_quantum_bound(self):
        firsts, seconds = tsirelson_settings()
        rep = s_lgi(RHO, firsts, seconds)
        assert rep.value == pytest.approx(2.0 * SQRT2, abs=1e-12)
        assert rep.value > rep.classical_bound
        assert rep.value <= rep.quantum_bound + 1e-12

    def test_preset_correlator_table(self):
        firsts, seconds = tsirelson_settings()
        rep = s_lgi(RHO, firsts, seconds)
        r = 1.0 / SQRT2
        assert np.allclose(rep.correlators, [[r, r], [r, -r]], atol=1e-12)

    def test_classical_settings_stay_at_two(self):
        rep = s_lgi(RHO, (Z, Z), (Z, Z))
        assert rep.value == pytest.approx(2.0, abs=1e-12)

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            BellReport(
                np.full((2, 2), 0.5), 99.0, 2.0, 2.0 * SQRT2, ("a",) * 4, INDEPENDENT
            )
        with pytest.raises(ValueError):
            BellReport(
                np.full((2, 2), 1.5), 3.0, 2.0, 2.0 * SQRT2, ("a",) * 4, INDEPENDENT
            )

    def test_from_distributions_matches_direct(self):
        firsts, seconds = tsirelson_settings()
        named_firsts = tuple(
            MeasurementSetting(f"A{i+1}", s.observable) for i, s in enumerate(firsts)
        )
        named_seconds = tuple(
            MeasurementSetting(f"B{i+1}", s.observable) for i, s in enumerate(seconds)
        )
        dists = {
            (a.label, b.label): mixed_sequence_distribution(RHO, (a, b))
            for a in named_firsts
            for b in named_seconds
        }
        table = table_from_distributions(dists)
        direct = s_lgi(RHO, named_firsts, named_seconds)
        assert table[0, 0] + table[0, 1] + table[1, 0] - table[1, 1] == pytest.approx(direct.value, abs=1e-12)
        assert np.allclose(table, direct.correlators, atol=1e-12)


def _no_table(*args, **kwargs):
    raise AssertionError("a table was built before the settings were counted")


class TestTwoSettingsEach:
    """Each party's settings number exactly two, checked before any table."""

    @pytest.mark.parametrize("count", [1, 3])
    def test_s_lgi(self, monkeypatch, count):
        monkeypatch.setattr(bell, "_tables", _no_table)
        with pytest.raises(ShapeError, match=f"^first_settings must hold exactly two settings, got {count}$"):
            s_lgi(RHO, (Z, X, Z)[:count], (Z, X))
        with pytest.raises(ShapeError, match=f"^second_settings must hold exactly two settings, got {count}$"):
            s_lgi(RHO, (Z, X), (Z, X, Z)[:count])

    @pytest.mark.parametrize("count", [1, 3])
    def test_chained_bell(self, monkeypatch, count):
        monkeypatch.setattr(bell, "_tables", _no_table)
        with pytest.raises(ShapeError, match=f"^first_settings must hold exactly two settings, got {count}$"):
            chained_bell(3, (Z, X, Z)[:count], (Z, X))
        with pytest.raises(ShapeError, match=f"^second_settings must hold exactly two settings, got {count}$"):
            chained_bell(3, (Z, X), (Z, X, Z)[:count])

    @pytest.mark.parametrize("mode", [INDEPENDENT, CHAINED])
    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("party", ["a", "b", "c"])
    def test_monogamy_sum(self, monkeypatch, party, count, mode):
        monkeypatch.setattr(bell, "_tables", _no_table)
        settings = {name: (Z, X) for name in "abc"}
        settings[party] = (Z, X, Z)[:count]
        with pytest.raises(ShapeError, match=f"^{party}_settings must hold exactly two settings, got {count}$"):
            monogamy_sum(RHO, settings["a"], settings["b"], settings["c"], mode=mode)


class TestReportBuilder:
    """``_report`` holds a checked table as the public constructor would."""

    @pytest.mark.parametrize("mode", [INDEPENDENT, CHAINED])
    def test_equal_to_the_public_constructor(self, rng, mode):
        for _ in range(40):
            d = int(rng.integers(2, 5))
            rho = _random_state(rng, bool(rng.integers(2)), d)
            settings = tuple(MeasurementSetting(f"S{k}", _random_observable(rng, d)) for k in range(4))
            pairs = [bell._pairs(settings[i:i + 2]) for i in (0, 2)]
            table = bell._tables(rho, pairs[0], random_unitary(rng, d), pairs[1])
            public_value = float(table[0, 0] + table[0, 1] + table[1, 0] - table[1, 1])
            public = BellReport(table, public_value, bell.CLASSICAL_BOUND, bell.TSIRELSON_BOUND,
                                tuple(s.label for s in settings), mode)
            built = bell._report(table, settings, mode)
            assert type(built) is BellReport
            assert built.correlators.dtype == public.correlators.dtype == np.float64
            assert built.correlators.tobytes() == public.correlators.tobytes()
            assert not built.correlators.flags.writeable
            assert type(built.value) is float
            assert np.float64(built.value).tobytes() == np.float64(public.value).tobytes()
            for field in ("classical_bound", "quantum_bound", "settings_used", "mode"):
                assert getattr(built, field) == getattr(public, field)


class TestClassicalBounds:
    def test_default_pattern_is_two(self):
        assert classical_bound_bruteforce() == 2.0

    def test_all_plus_pattern_is_four(self):
        assert classical_bound_bruteforce(((1, 1), (1, 1))) == 4.0

    def test_chained_bound_is_two_n(self):
        for n in range(1, 5):
            assert chained_classical_bound(n) == 2.0 * n

    def test_chained_bound_validates(self):
        with pytest.raises(ValueError, match="^need at least one block$"):
            chained_classical_bound(0)

    def test_chained_bound_length_is_bounded(self):
        n = MAX_CHAIN_BLOCKS + 1
        with pytest.raises(ValueError, match=f"^at most {MAX_CHAIN_BLOCKS} chained blocks are supported, got {n}$"):
            chained_classical_bound(n)


class TestChainedBell:
    def test_preset_total_scales_linearly(self):
        firsts, seconds = tsirelson_settings()
        for n in (1, 2, 3, 4):
            res = chained_bell(n, firsts, seconds)
            assert res.total == pytest.approx(2.0 * SQRT2 * n, abs=1e-9)
            assert res.classical_bound == 2.0 * n
            assert res.quantum_bound == pytest.approx(2.0 * SQRT2 * n)
            assert len(res.block_reports) == n

    def test_blocks_are_identical(self):
        firsts, seconds = tsirelson_settings()
        res = chained_bell(3, firsts, seconds)
        vals = {round(r.value, 12) for r in res.block_reports}
        assert len(vals) == 1

    def test_validates_n(self):
        firsts, seconds = tsirelson_settings()
        with pytest.raises(ValueError):
            chained_bell(0, firsts, seconds)


class TestMonogamy:
    def test_preset_exceeds_spatial_cap(self):
        a, b, c = monogamy_preset_settings()
        res = monogamy_sum(RHO, a, b, c)
        assert res.total == pytest.approx(4.0 * SQRT2, abs=1e-12)
        assert res.total > res.spatial_reference
        assert res.quantum_reference == pytest.approx(4.0 * SQRT2)
        assert res.first_pair.value == pytest.approx(2.0 * SQRT2, abs=1e-12)
        assert res.second_pair.value == pytest.approx(2.0 * SQRT2, abs=1e-12)

    def test_chained_mode_reports_mode(self):
        a, b, c = monogamy_preset_settings()
        res = monogamy_sum(RHO, a, b, c, mode=CHAINED)
        assert res.mode == CHAINED
        assert res.second_pair.mode == CHAINED
        assert abs(res.second_pair.value) <= 2.0 * SQRT2 + 1e-9

    def test_chained_mode_collapse_invariance_of_mixed_state(self):
        # I/2 is a fixed point of nonselective collapse, so both readings
        # coincide there; the preset saturation survives the chained reading
        a, b, c = monogamy_preset_settings()
        res = monogamy_sum(RHO, a, b, c, mode=CHAINED)
        assert res.total == pytest.approx(4.0 * SQRT2, abs=1e-12)

    def test_shared_middle_time_does_not_degrade_second_pair(self):
        # the nonselective first measurement erases the incoming state as far
        # as later pair correlators go (E(B,C) = Tr(BC)/2 for any qubit
        # input), so the downstream pair is exactly as strong as a fresh one.
        # This state independence is the mechanism that defeats the spatial
        # monogamy cap of 4.
        a, b, c = monogamy_preset_settings()
        for rho in (RHO, projector(qubit_ket("0")), projector(qubit_ket("i+"))):
            res_c = monogamy_sum(rho, a, b, c, mode=CHAINED)
            res_i = monogamy_sum(rho, a, b, c, mode=INDEPENDENT)
            assert res_c.second_pair.value == pytest.approx(
                res_i.second_pair.value, abs=1e-12
            )

    def test_later_correlator_is_state_independent(self, rng):
        from qhist import temporal_correlator

        b = MeasurementSetting("B", random_dichotomic(rng))
        c = MeasurementSetting("C", random_dichotomic(rng))
        want = float(np.trace(b.observable @ c.observable).real) / 2.0
        for rho in (RHO, projector(qubit_ket("0")), projector(qubit_ket("-"))):
            assert temporal_correlator(rho, b, None, c) == pytest.approx(
                want, abs=1e-12
            )

    def test_bad_mode_rejected(self):
        a, b, c = monogamy_preset_settings()
        with pytest.raises(ValueError):
            monogamy_sum(RHO, a, b, c, mode="simultaneous")


class TestOptimizer:
    def test_settings_from_angles_validation(self):
        with pytest.raises(ValueError):
            settings_from_angles((0.1, 0.2, 0.3))

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            optimize_settings("maximize_everything")

    def test_deterministic_given_seed(self):
        r1 = optimize_settings("s_lgi")
        r2 = optimize_settings("s_lgi")
        assert r1.value == r2.value
        assert r1.angles == r2.angles
        assert r1.evaluations == r2.evaluations

    def test_finds_quantum_bound(self):
        res = optimize_settings("s_lgi")
        assert res.converged
        assert res.value == pytest.approx(2.0 * SQRT2, abs=1e-6)
        assert res.value <= 2.0 * SQRT2 + 1e-9
        assert res.trace
        assert res.trace[-1][2] == pytest.approx(res.value, abs=1e-12)

    @pytest.mark.parametrize("objective,n", [("s_lgi", 1), ("chained_bell", 3), ("monogamy_sum", 1)])
    def test_open_certificate_flags_nonconvergence(self, monkeypatch, objective, n):
        # the spectral start certifies, so hold the certificate open: the run
        # still ends after its one evaluation, at the same value
        want = optimize_settings(objective, n=n)
        open_certificate(monkeypatch)
        res = optimize_settings(objective, n=n)
        assert not res.converged
        assert res.evaluations == 1
        assert res.certified_bound - res.value > bell._CONVERGED_TOL
        assert (res.value, res.angles, res.trace) == (want.value, want.angles, want.trace)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_bad_tol_rejected(self, tol):
        # tol is no field, so no value of it, however bad, can reach converged
        with pytest.raises(TypeError):
            OptimizerConfig(tol=tol)

    def test_no_tolerance_or_initial_state_is_taken(self, monkeypatch):
        # converged reads a fixed 1e-10, and a qubit correlator is a . b for every state
        monkeypatch.setattr(bell, "_spectral_start", _never_called)
        with pytest.raises(TypeError):
            OptimizerConfig(tol=1e-10)
        with pytest.raises(TypeError):
            optimize_settings("s_lgi", initial=RHO)


# (objective, n, global maximum)
OBJECTIVES = [
    ("s_lgi", 1, 2.0 * SQRT2),
    ("chained_bell", 2, 4.0 * SQRT2),
    ("chained_bell", 3, 6.0 * SQRT2),
    ("monogamy_sum", 1, 4.0 * SQRT2),
]


# (objective, n, global maximum) for the one-evaluation checks: every chain length
# up to MAX_CHAIN_BLOCKS shares s_lgi's start
ONE_EVALUATION = [
    ("s_lgi", 1, 2.0 * SQRT2),
    *(("chained_bell", n, 2.0 * SQRT2 * n) for n in (1, 2, 3, 7, MAX_CHAIN_BLOCKS)),
    ("monogamy_sum", 1, 4.0 * SQRT2),
]


def _never_called(*args, **kwargs):
    raise AssertionError("the optimizer started before its arguments were checked")


class TestSpectralStart:
    @pytest.mark.parametrize("objective,n,target", OBJECTIVES)
    def test_every_seed_certified_at_the_maximum(self, objective, n, target):
        # grid plus Nelder-Mead stopped at 2.5535 for s_lgi seed 12 and called it converged
        for seed in range(30):
            cfg = OptimizerConfig(seed=seed)
            res = optimize_settings(objective, config=cfg, n=n)
            assert res.converged, seed
            assert abs(res.value - target) <= 1e-12, seed
            assert res.certified_bound - res.value <= bell._CONVERGED_TOL, seed
            assert res.evaluations == 1, seed

    @pytest.mark.parametrize("objective", ["s_lgi", "chained_bell", "monogamy_sum"])
    def test_chain_length_checked_up_front(self, monkeypatch, objective):
        monkeypatch.setattr(bell, "_spectral_start", _never_called)
        for n in (-5, 0, MAX_CHAIN_BLOCKS + 1):
            with pytest.raises(ValueError, match="at least one block|at most"):
                optimize_settings(objective, n=n)

    @pytest.mark.parametrize("state", range(5))
    @pytest.mark.parametrize("objective,n,target", ONE_EVALUATION)
    def test_value_is_the_public_function_at_the_settings(self, objective, n, target, state):
        # the run is on the maximally mixed qubit (state 0); pure and mixed random states
        # give the same value, since a qubit correlator is a . b for every state
        rho = RHO if state == 0 else _random_state(np.random.default_rng(state), pure=state % 2)
        res = optimize_settings(objective, config=OptimizerConfig(seed=3), n=n)
        assert res.converged
        assert res.evaluations == 1
        assert abs(res.value - target) <= 1e-14 * target  # n block values summed one by one
        s = res.settings
        if objective == "s_lgi":
            want = s_lgi(rho, s[0:2], s[2:4]).value
        elif objective == "chained_bell":
            want = chained_bell(n, s[0:2], s[2:4], rho).total
        else:
            want = monogamy_sum(rho, s[0:2], s[2:4], s[4:6]).total
        if state == 0:
            assert res.value == want
        else:  # another state's kernel rounds differently
            assert abs(res.value - want) <= 1e-14 * target
        assert res.trace == ((1, res.angles, res.value),)

    @pytest.mark.parametrize("objective,n,target", OBJECTIVES)
    def test_no_restarts_certify_at_the_maximum_in_one_evaluation(self, objective, n, target):
        # the all-pi/4 start this replaced was a stationary point at S = 2 that never certified
        res = optimize_settings(objective, n=n)
        assert res.converged
        assert res.evaluations == 1
        assert abs(res.value - target) <= 1e-12
        assert res.certified_bound - res.value <= bell._CONVERGED_TOL

    @pytest.mark.parametrize("objective,n,target", OBJECTIVES)
    def test_start_does_not_depend_on_the_eigenbasis(self, monkeypatch, objective, n, target):
        """Turning each degenerate cluster's eigenvectors by a random orthogonal
        matrix changes neither the report nor the start, which is the top
        eigenspace's projector with its diagonal scaled to one."""
        eigh = np.linalg.eigh
        bell._spectral_start.cache_clear()
        want = optimize_settings(objective, n=n)
        q = _quadratic_form(objective, n)
        for seed in range(4):
            rng = np.random.default_rng(seed)

            def turned(a, *args, **kwargs):
                w, v = eigh(a, *args, **kwargs)
                v = v.copy()
                for value in np.unique(np.round(w, 9)):
                    cluster = np.flatnonzero(np.abs(w - value) < 1e-9)
                    turn, _ = np.linalg.qr(rng.standard_normal((len(cluster), len(cluster))))
                    v[:, cluster] = v[:, cluster] @ turn
                return w, v

            monkeypatch.setattr(bell.np.linalg, "eigh", turned)
            bell._spectral_start.cache_clear()
            got = optimize_settings(objective, n=n)
            assert (got.angles, got.value, got.certified_bound) == (want.angles, want.value, want.certified_bound)
            w, v = np.linalg.eigh(q)
            top = v[:, w > w[-1] - 1e-9]
            projector = top @ top.T
            scale = 1.0 / np.sqrt(np.diag(projector))
            x = bell._spectral_start(objective)
            assert np.max(np.abs(x @ x.T - scale[:, None] * projector * scale)) < 1e-14
            monkeypatch.setattr(bell.np.linalg, "eigh", eigh)
        bell._spectral_start.cache_clear()


def _bloch_vectors(angles):
    """(..., 2m) rows of (theta, phi) pairs -> (..., m, 3) unit vectors."""
    theta, phi = angles[..., 0::2], angles[..., 1::2]
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], -1)


def _random_state(rng, pure, d=2):
    if pure:
        return projector(random_ket(rng, d))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _random_observable(rng, d):
    """A dichotomic observable on dimension d with both outcomes present."""
    signs = rng.permutation([1.0, -1.0, *rng.choice([1.0, -1.0], d - 2)])
    u = random_unitary(rng, d)
    return u @ np.diag(signs) @ u.conj().T


class TestCorrelatorLemma:
    """E(A, B) = Re Tr(rho A U^dag B U) for dichotomic A and B in any dimension,
    for any state and unitary (the bell module docstring)."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("pure", [True, False])
    def test_correlator_is_the_formula(self, rng, d, pure):
        for _ in range(20):
            rho, u = _random_state(rng, pure, d), random_unitary(rng, d)
            a, b = _random_observable(rng, d), _random_observable(rng, d)
            want = np.trace(rho @ a @ u.conj().T @ b @ u).real
            got = temporal_correlator(rho, MeasurementSetting("A", a), u, MeasurementSetting("B", b))
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("pure", [True, False])
    def test_qubit_correlator_is_the_dot_product_for_every_state(self, rng, pure):
        for _ in range(20):
            angles = rng.uniform(0.0, 2.0 * math.pi, size=4)
            a, b = _bloch_vectors(angles)
            first, second = settings_from_angles(angles)
            got = temporal_correlator(_random_state(rng, pure), first, None, second)
            assert abs(got - a @ b) <= 1e-12


class TestQuadraticFormAgainstKernel:
    """x^T Q x over Bloch vectors against the correlator kernel, for any qubit state."""

    @pytest.mark.parametrize("pure", [True, False])
    def test_correlators_are_dot_products(self, rng, pure):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(20, 8))
        x = _bloch_vectors(angles)
        obs = bloch_observables(angles.reshape(20, 4, 2))
        table = correlator_tables(_random_state(rng, pure), obs[:, :2], None, obs[:, 2:])
        dots = np.einsum("nik,njk->nij", x[:, :2], x[:, 2:])
        assert np.max(np.abs(table - dots)) < 1e-14

    @pytest.mark.parametrize("pure", [True, False])
    @pytest.mark.parametrize("objective,n,target", OBJECTIVES)
    def test_form_matches_public_functions(self, rng, pure, objective, n, target):
        q = _quadratic_form(objective, n)
        for _ in range(10):
            rho = _random_state(rng, pure)
            angles = rng.uniform(0.0, 2.0 * math.pi, size=2 * len(q))
            x = _bloch_vectors(angles)
            form = float(np.einsum("ij,ik,jk->", q, x, x))
            s = settings_from_angles(angles)
            if objective == "s_lgi":
                want = s_lgi(rho, s[0:2], s[2:4]).value
            elif objective == "chained_bell":
                want = chained_bell(n, s[0:2], s[2:4], rho).total
            else:
                want = monogamy_sum(rho, s[0:2], s[2:4], s[4:6]).total
            assert abs(form - want) < 1e-14
