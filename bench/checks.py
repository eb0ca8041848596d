"""Reference values and output checkers for the qhist benchmark.

Every reference here is computed by the benchmark's own code from the
generated inputs, with plain numpy products, never by calling qhist and never
from a saved copy of earlier output.  A checker raises CheckError with a short
reason when an output is wrong.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)
TOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def expect_close(what: str, got, want, tol: float = TOL) -> None:
    got_a, want_a = np.asarray(got), np.asarray(want)
    expect(got_a.shape == want_a.shape, f"{what}: shape {got_a.shape} != {want_a.shape}")
    err = float(np.max(np.abs(got_a - want_a))) if got_a.size else 0.0
    expect(err <= tol, f"{what}: off by {err:.3e} (tol {tol:.0e})")


def check_repeated(first: tuple, texts: tuple) -> None:
    """Identical CLI arguments must give byte-identical output in every pass."""
    expect(texts == first, "CLI output differs from the first pass")


def pairs_to_array(doc) -> np.ndarray:
    a = np.asarray(doc, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


# ---------------------------------------------------------------------------
# bounds


def bloch_observable(theta: float, phi: float) -> np.ndarray:
    return (math.sin(theta) * math.cos(phi) * PAULI_X
            + math.sin(theta) * math.sin(phi) * PAULI_Y
            + math.cos(theta) * PAULI_Z)


def correlator_table(firsts, seconds, unitary) -> np.ndarray:
    """E(A, B) = Tr(B U A U^dag) / 2 for the maximally mixed qubit input."""
    table = np.empty((2, 2))
    for i, a in enumerate(firsts):
        for j, b in enumerate(seconds):
            table[i, j] = float(np.trace(b @ unitary @ a @ unitary.conj().T).real) / 2.0
    return table


def s_value(table) -> float:
    return float(table[0, 0] + table[0, 1] + table[1, 0] - table[1, 1])


def _check_bell_report(what: str, report: dict, table) -> None:
    expect_close(f"{what} correlators", report["correlators"], table)
    expect_close(f"{what} value", report["value"], s_value(table))
    expect(abs(report["value"]) <= TSIRELSON + TOL, f"{what}: |S| above 2*sqrt(2)")


def check_lgi(text: str, table) -> None:
    _check_bell_report("lgi", json.loads(text)["artifacts"], table)


def check_chained(text: str, table, n: int) -> None:
    art = json.loads(text)["artifacts"]
    blocks = art["block_reports"]
    expect(len(blocks) == n, f"chained: {len(blocks)} blocks, expected {n}")
    for k, block in enumerate(blocks):
        _check_bell_report(f"chained block {k}", block, table)
    expect_close("chained total", art["total"], n * s_value(table), TOL * n)
    expect(art["classical_bound"] == 2.0 * n, "chained: classical bound is not 2n")


def check_monogamy(text: str, first_table, second_table) -> None:
    """Both modes: from the maximally mixed input every nonselective
    measurement and unitary leaves the state maximally mixed, so the chained
    reading of the second pair equals the independent one."""
    art = json.loads(text)["artifacts"]
    _check_bell_report("monogamy first pair", art["first_pair"], first_table)
    _check_bell_report("monogamy second pair", art["second_pair"], second_table)
    total = s_value(first_table) + s_value(second_table)
    expect_close("monogamy total", art["total"], total)
    expect(abs(art["total"]) <= 2.0 * TSIRELSON + TOL, "monogamy: total above 4*sqrt(2)")


def check_optimize(result, target: float) -> None:
    expect(result.converged, f"optimize {result.objective}: not converged")
    expect(abs(result.value - target) <= 1e-9,
           f"optimize {result.objective}: value {result.value!r}, expected {target!r}")


def check_classical(value: float, n: int) -> None:
    expect(value == 2.0 * n, f"classical bound for n={n} is {value!r}, expected {2 * n}")


# ---------------------------------------------------------------------------
# histories


def history_vector(terms) -> np.ndarray:
    """sum_t c_t vec(P_t0) (x) vec(P_t1) (x) ..., row-major slot vectors."""
    out = None
    for coef, ops in terms:
        v = np.ones(1, dtype=complex)
        for op in ops:
            v = np.kron(v, np.asarray(op).reshape(-1))
        out = coef * v if out is None else out + coef * v
    return out


def reduced_operator(psi: np.ndarray, n_slots: int, keep) -> np.ndarray:
    """Tr over the slots outside ``keep`` of |psi><psi| (qubit slots), as M M^dag."""
    psi = psi / np.linalg.norm(psi)
    traced = [k for k in range(n_slots) if k not in keep]
    m = psi.reshape((4,) * n_slots).transpose(list(keep) + traced)
    m = m.reshape(4 ** len(keep), 4 ** len(traced))
    return m @ m.conj().T


def check_ensemble_probabilities(what: str, probs) -> None:
    expect(all(p > 0 for p in probs), f"{what}: nonpositive ensemble probability")
    expect(abs(sum(probs) - 1.0) <= 1e-12, f"{what}: probabilities sum to {sum(probs)!r}")


def check_reduction(mixed, rho_ref: np.ndarray, n_keep: int) -> None:
    probs = [p for p, _ in mixed.ensemble]
    check_ensemble_probabilities("reduction", probs)
    expect(mixed.grid.n_slots == n_keep, "reduction: wrong number of kept slots")
    rebuilt = np.zeros_like(rho_ref)
    for p, member in mixed.ensemble:
        v = history_vector([(c, eh.slots) for c, eh in member.terms])
        rebuilt += p * np.outer(v, v.conj())
    expect_close("reduced operator", rebuilt, rho_ref)


def check_equal_spectra(a, b) -> None:
    pa = sorted(p for p, _ in a.ensemble)
    pb = sorted(p for p, _ in b.ensemble)
    expect(len(pa) == len(pb), f"complementary reductions: ranks {len(pa)} and {len(pb)}")
    expect_close("complementary spectra", pa, pb, 1e-10)


def walk_properties(node, path: str = "") -> None:
    """Properties every report must have wherever the structure appears:
    ensembles and outcome tables are distributions, consistency matrices are
    Hermitian."""
    if isinstance(node, dict):
        if "ensemble" in node:
            check_ensemble_probabilities(path, [m["probability"] for m in node["ensemble"]])
        if "table" in node:
            check_table(path, node["table"])
        if "matrix" in node and "max_offdiagonal" in node:
            m = pairs_to_array(node["matrix"])
            expect_close(f"{path} consistency matrix hermiticity", m, m.conj().T)
        for k, v in node.items():
            walk_properties(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            walk_properties(v, f"{path}[{i}]")


def check_temporal_ghz(text: str, n_slots: int, alpha: float) -> None:
    doc = json.loads(text)
    art = doc["artifacts"]
    walk_properties(art)
    beta = math.sqrt(max(0.0, 1.0 - alpha ** 2))
    purity = alpha ** 4 + beta ** 4
    keys = [k for k in art if k.startswith("reduction_purity_")]
    expect(len(keys) == n_slots + (n_slots * (n_slots - 1) // 2 if n_slots > 2 else 0),
           f"temporal-ghz: {len(keys)} purities for {n_slots} slots")
    for k in keys:
        expect_close(f"temporal-ghz {k}", art[k], purity)
    expect_close("temporal-ghz weight", art["weight"], 1.0)
    expect_close("temporal-ghz branch probabilities", art["branch_probabilities"],
                 [alpha ** 2, beta ** 2])


# Closed forms stated by each scenario's construction (see its docstring and
# notes): weights, purities and probabilities the physics fixes exactly.
def _scenario_expectations(name: str, alpha: float | None) -> dict:
    if name == "mach-zehnder":
        beta = math.sqrt(1.0 - alpha ** 2)
        return {
            "middle_restriction_purity": 1.0,
            "middle_restriction_fidelity": 1.0,
            "reduced_t1_t3_purity": alpha ** 4 + beta ** 4,
            "reduced_t1_t3_branch_weights": [alpha ** 2, beta ** 2],
            "reduced_t1_t3_cross_term": 0.0,
            "weight_additivity_gap": 0.0,
        }
    if name == "example1":
        return {
            "gram_matrix": [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
            "superposition_norm": 1.0,
            "branch_probabilities": [0.5, 0.5],
        }
    if name == "pauli-cycle":
        return {
            "reduced_ghz_fidelity": 1.0,
            "picture_equivalence_gap": 0.0,
            "coherent_weight_xyz_ppp": 1.0 / 16.0,
            "collapse_probability_xyz_ppp": 1.0 / 8.0,
            "spatial_xy_match_gap": 0.0,
        }
    if name == "two-time-hab":
        return {
            "weight": 0.25,
            "postselection_probability": 0.25,
            "fidelity_ab_t0": 1.0,
            "fidelity_ha_t1": 1.0,
            "record_marginal_purity_t0": 0.5,
            "record_marginal_purity_t1": 0.5,
            "slot_schmidt_rank": 1,
        }
    raise ValueError(f"no expectations for scenario {name!r}")


def check_scenario(text: str, name: str, alpha: float | None = None) -> None:
    art = json.loads(text)["artifacts"]
    walk_properties(art)
    for key, want in _scenario_expectations(name, alpha).items():
        expect_close(f"{name} {key}", art[key], want)
    if name == "example1":
        m = pairs_to_array(art["consistency"]["matrix"])
        expect_close("example1 consistency diagonal", np.diag(m).real, art["member_weights"])


def chain_operator(ops, bridges) -> np.ndarray:
    """K = P_n T_{n-1} ... T_0 P_0, latest slot leftmost."""
    k = np.asarray(ops[0])
    for u, p in zip(bridges, ops[1:]):
        k = np.asarray(p) @ np.asarray(u) @ k
    return k


def check_weight(text: str, terms, bridges) -> None:
    art = json.loads(text)["artifacts"]
    walk_properties(art)
    chains = [chain_operator(ops, bridges) for _, ops in terms]
    total = sum(c * k for (c, _), k in zip(terms, chains))
    expect_close("weight", art["weight"], float(np.vdot(total, total).real))
    gram = 0j
    for c1, ops1 in terms:
        for c2, ops2 in terms:
            gram += np.conj(c1) * c2 * np.prod([np.vdot(a, b) for a, b in zip(ops1, ops2)])
    expect_close("norm", art["norm"], math.sqrt(gram.real))
    expect(art["n_terms"] == len(terms), f"n_terms {art['n_terms']} != {len(terms)}")
    # singletons are the single terms scaled to unit norm: coefficient
    # c / (|c| |h|), so D_ij = conj(u_i) u_j Tr(K_i^dag K_j) / (|h_i| |h_j|)
    units = [c / abs(c) / np.prod([np.linalg.norm(op) for op in ops]) for c, ops in terms]
    want = np.array([[np.conj(ui) * uj * np.vdot(ki, kj) for kj, uj in zip(chains, units)]
                     for ki, ui in zip(chains, units)])
    got = pairs_to_array(art["term_consistency"]["matrix"])
    expect_close("consistency matrix", got, want)


# ---------------------------------------------------------------------------
# records


def outcome_strings(m: int) -> list[str]:
    return ["".join(s) for s in itertools.product("+-", repeat=m)]


def _projectors(obs: np.ndarray):
    return (EYE2 + obs) / 2.0, (EYE2 - obs) / 2.0


def pure_probabilities(pre, post, observables, unitaries) -> dict[str, float]:
    """|<post| U_n P_n ... P_1 U_0 |pre>|^2 (or the squared norm without a
    post-selection) for every outcome string, normalized.  Amplitudes of all
    prefixes are carried as rows, '+' before '-', earliest slot first."""
    rows = np.asarray(pre, dtype=complex)[None, :]
    for u, obs in zip(unitaries, observables):
        rows = rows @ u.T
        p_plus, p_minus = _projectors(obs)
        rows = np.stack([rows @ p_plus.T, rows @ p_minus.T], axis=1).reshape(-1, 2)
    rows = rows @ unitaries[-1].T
    if post is None:
        w = np.sum(np.abs(rows) ** 2, axis=1)
    else:
        w = np.abs(rows @ np.conj(post)) ** 2
    return dict(zip(outcome_strings(len(observables)), w / w.sum()))


def mixed_probabilities(post, observables, unitaries) -> dict[str, float]:
    """Tr(Pi rho Pi^dag) for rho = I/2 and Pi = U_n P_n ... P_1 U_0 (with the
    post projector in front when present), normalized."""
    chains = EYE2[None, :, :]
    for u, obs in zip(unitaries, observables):
        chains = u @ chains
        p_plus, p_minus = _projectors(obs)
        chains = np.stack([p_plus @ chains, p_minus @ chains], axis=1).reshape(-1, 2, 2)
    chains = unitaries[-1] @ chains
    if post is not None:
        chains = np.outer(post, np.conj(post)) @ chains
    w = np.sum(np.abs(chains) ** 2, axis=(1, 2)) / 2.0
    return dict(zip(outcome_strings(len(observables)), w / w.sum()))


def parse_distribution(text: str, fmt: str) -> dict[str, float]:
    if fmt == "json":
        return json.loads(text)["artifacts"]["distribution"]["table"]
    rows = list(csv.reader(io.StringIO(text)))
    expect(rows[0] == ["outcome", "probability"], "abl csv: bad header")
    return {outcome: float(p) for outcome, p in rows[1:]}


def check_table(what: str, table: dict) -> None:
    expect(all(p >= 0.0 for p in table.values()), f"{what}: negative probability")
    expect(abs(sum(table.values()) - 1.0) <= 1e-9, f"{what}: probabilities do not sum to 1")


def check_distribution(what: str, table: dict, ref: dict) -> None:
    check_table(what, table)
    expect(table.keys() == ref.keys(), f"{what}: outcome strings differ from the reference")
    for outcome, p in ref.items():
        expect(abs(table[outcome] - p) <= TOL,
               f"{what}: P({outcome}) = {table[outcome]!r}, Born rule gives {p!r}")


def earlier_marginal(table: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for outcome, p in table.items():
        out[outcome[:-1]] = out.get(outcome[:-1], 0.0) + p
    return out


def check_no_signalling(a: dict, b: dict) -> None:
    """Without post-selection, the earlier slots cannot see the last setting."""
    ma, mb = earlier_marginal(a), earlier_marginal(b)
    for k in ma:
        expect(abs(ma[k] - mb[k]) <= TOL, f"earlier-slot marginal {k} depends on the last setting")


def bundle_probabilities(terms, bridges, measured: dict) -> dict[str, float]:
    """|Tr K_s|^2 with the measured slots of every term replaced by the
    outcome projectors of the string s, normalized."""
    positions = sorted(measured)
    weights = {}
    for outcome in outcome_strings(len(positions)):
        total = np.zeros((2, 2), dtype=complex)
        for coef, ops in terms:
            ops = list(ops)
            for pos, ch in zip(positions, outcome):
                ops[pos] = _projectors(measured[pos])[0 if ch == "+" else 1]
            total += coef * chain_operator(ops, bridges)
        weights[outcome] = abs(np.trace(total)) ** 2
    norm = sum(weights.values())
    return {k: w / norm for k, w in weights.items()}
