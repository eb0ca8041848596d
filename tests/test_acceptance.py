"""End-to-end checks of the headline numerical claims.

Each test prints exactly one [PASS]/[FAIL] line naming the claim and the
measured numbers, then asserts.  Run with ``pytest -s tests/test_acceptance.py``
to see the report lines for passing checks too (pytest hides captured stdout
unless a test fails).
"""

import itertools
import math
import time

import numpy as np
import pytest

from qhist import (
    ImpossiblePostselectionError,
    MeasurementSetting,
    best_joint_bell_reduction_overlap,
    chained_bell,
    chained_classical_bound,
    classical_bound_bruteforce,
    monogamy_preset_settings,
    monogamy_sum,
    optimize_settings,
    run_scenario,
    sequence_distribution,
    temporal_correlator,
    tsirelson_settings,
    weight,
)
from qhist.linalg import maximally_mixed, qubit_ket

from conftest import Experiment, consistent_family_corpus, experiment_corpus, random_dichotomic
from twostate_oracle import abl_probability, earlier_marginal_deviation, history_bundle

SQRT2 = math.sqrt(2.0)


def _report(ok: bool, label: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}  ({detail})")
    return ok


def test_01_optimizer_saturates_temporal_chsh_bound():
    t0 = time.perf_counter()
    res = optimize_settings("s_lgi")
    elapsed = time.perf_counter() - t0
    err = abs(res.value - 2.0 * SQRT2)
    ok = err < 1e-6 and res.converged and elapsed < 10.0
    assert _report(
        ok,
        "01 optimizer reaches 2*sqrt(2) on the temporal CHSH functional",
        f"value={res.value:.9f}, err={err:.2e} < 1e-06, {elapsed:.2f}s < 10s",
    )


def test_02_two_pair_sum_beats_spatial_monogamy_cap():
    a, b, c = monogamy_preset_settings()
    res = monogamy_sum(maximally_mixed(2), a, b, c)
    err = abs(res.total - 4.0 * SQRT2)
    ok = err < 1e-9 and res.total > res.spatial_reference == 4.0
    assert _report(
        ok,
        "02 independent temporal pairs sum to 4*sqrt(2), above the spatial cap 4",
        f"total={res.total:.9f}, err={err:.2e} < 1e-09, spatial={res.spatial_reference}",
    )


def test_03_chained_total_scales_as_2sqrt2_per_block():
    firsts, seconds = tsirelson_settings()
    worst = 0.0
    classical_exact = True
    for n in range(1, 9):
        res = chained_bell(n, firsts, seconds)
        worst = max(worst, abs(res.total - 2.0 * SQRT2 * n))
        classical_exact &= chained_classical_bound(n) == 2.0 * n
    ok = worst < 1e-9 and classical_exact
    assert _report(
        ok,
        "03 chained totals hit 2*sqrt(2)*n for n=1..8, classical comparator 2n",
        f"max err={worst:.2e} < 1e-09, classical exact={classical_exact}",
    )


def test_04_deterministic_strategies_cap_chsh_at_two():
    bound = classical_bound_bruteforce()
    ok = bound == 2.0
    assert _report(
        ok,
        "04 exhaustive deterministic-strategy enumeration gives CHSH max exactly 2",
        f"max={bound}",
    )


def test_05_correlator_matches_half_trace_closed_form():
    rng = np.random.default_rng(11)
    rho = maximally_mixed(2)
    worst = 0.0
    for _ in range(100):
        a = random_dichotomic(rng)
        b = random_dichotomic(rng)
        e = temporal_correlator(rho, MeasurementSetting("A", a), None,
                                MeasurementSetting("B", b))
        worst = max(worst, abs(e - 0.5 * np.trace(a @ b).real))
    ok = worst < 1e-12
    assert _report(
        ok,
        "05 two-time correlator equals Tr(AB)/2 on 100 random dichotomic pairs",
        f"max err={worst:.2e} < 1e-12",
    )


def test_06_interferometer_outer_reduction_is_an_even_mixture():
    res = run_scenario("mach-zehnder")
    purity = res.artifacts["reduced_t1_t3_purity"]
    cross = abs(res.artifacts["reduced_t1_t3_cross_term"])
    ok = abs(purity - 0.5) < 1e-9 and cross < 1e-12
    assert _report(
        ok,
        "06 interferometer endpoint reduction is an even two-branch mixture",
        f"purity={purity:.12f} (target 0.5 +/- 1e-09), cross={cross:.2e} < 1e-12",
    )


def test_07_no_history_matches_both_bell_reductions():
    t0 = time.perf_counter()
    res = best_joint_bell_reduction_overlap()
    elapsed = time.perf_counter() - t0
    ok = (
        res.best_overlap < 1.0 - 1e-6
        and res.upper_bound <= 0.75 + 1e-12
        and elapsed < 60.0
    )
    assert _report(
        ok,
        "07 no 3-slot history reduces to the Bell-like pair on both windows",
        f"best={res.best_overlap:.6f}, bound={res.upper_bound:.6f} < 1-1e-06, "
        f"{elapsed:.2f}s < 60s",
    )


def test_08_bundle_probabilities_equal_normalized_chain_weights():
    worst = 0.0
    for exp in experiment_corpus():
        bundle = history_bundle(exp)
        weights = [weight(h, bridging) for _, h, _, bridging in bundle]
        total = sum(weights)
        for (_, _, p, _), w in zip(bundle, weights):
            worst = max(worst, abs(p - w / total))
    ok = worst < 1e-9
    assert _report(
        ok,
        "08 bundle probabilities equal normalized chain weights on the corpus",
        f"max err={worst:.2e} < 1e-09",
    )


def test_09_conditional_probability_sanity():
    x = MeasurementSetting.from_pauli("X")
    z = MeasurementSetting.from_pauli("Z")
    k0, k1 = qubit_ket("0"), qubit_ket("1")
    p = abl_probability(Experiment(k0, (x,), post=k0), 0, +1)
    err = abs(p - 0.5)
    raised = False
    try:
        abl_probability(Experiment(k0, (z,), post=k1), 0, +1)
    except ImpossiblePostselectionError:
        raised = True
    ok = err < 1e-12 and raised
    assert _report(
        ok,
        "09 symmetric boundaries give p(+)=1/2; orthogonal boundaries raise",
        f"p={float(p)}, err={err:.2e} < 1e-12, raised={raised}",
    )


def test_10_weights_add_over_subunions_of_consistent_families():
    worst = 0.0
    for family, bridging in consistent_family_corpus():
        singles = [weight(m, bridging) for m in family]
        for size in range(2, len(family) + 1):
            for combo in itertools.combinations(range(len(family)), size):
                union = None
                for i in combo:
                    union = family[i] if union is None else union + family[i]
                joint = weight(union, bridging)
                worst = max(worst, abs(joint - sum(singles[i] for i in combo)))
    ok = worst < 1e-9
    assert _report(
        ok,
        "10 sub-union weights are additive on every consistent family",
        f"max err={worst:.2e} < 1e-09",
    )


def test_11_earlier_marginals_ignore_later_settings_without_postselection():
    x = MeasurementSetting.from_pauli("X")
    y = MeasurementSetting.from_pauli("Y")
    z = MeasurementSetting.from_pauli("Z")
    worst = 0.0
    for initial in (qubit_ket("0"), qubit_ket("i+"), qubit_ket("+")):
        for first in (x, z):
            family = {
                (first.label, second.label): sequence_distribution(initial, (first, second))
                for second in (x, y, z)
            }
            worst = max(worst, earlier_marginal_deviation(family))
    ok = worst < 1e-12
    assert _report(
        ok,
        "11 earlier marginals are unchanged by later settings when nothing "
        "is post-selected",
        f"max deviation={worst:.2e} < 1e-12",
    )


def test_12_dual_route_values_reported_side_by_side():
    res = run_scenario("pauli-cycle")
    coherent = res.artifacts["coherent_weight_xyz_ppp"]
    collapse = res.artifacts["collapse_probability_xyz_ppp"]
    err_coherent = abs(coherent - 1.0 / 16.0)
    err_collapse = abs(collapse - 1.0 / 8.0)
    note_present = any("never averaged" in n for n in res.notes)
    ok = err_coherent < 1e-12 and err_collapse < 1e-12 and note_present
    assert _report(
        ok,
        "12 coherent-amplitude 1/16 and sequential-collapse 1/8 coexist in "
        "the report",
        f"coherent={float(coherent):.12f} (err {err_coherent:.2e}), "
        f"collapse={float(collapse):.12f} (err {err_collapse:.2e}), "
        f"note={note_present}",
    )
