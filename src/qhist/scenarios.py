"""Named demonstration constructions with machine-checkable artifacts.

Each scenario builds a small multi-time experiment from scratch, computes a
dictionary of numeric artifacts (weights, fidelities, purities, probability
tables, consistency reports) and returns a ScenarioResult.  Everything here
is deterministic; no randomness enters any scenario.

The SCENARIOS registry maps the public names used by the command line to the
constructor functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .histories import (
    BridgingSet,
    HistoryState,
    TimeGrid,
    _join_rows,
    _reductions,
    hs_inner,
    hs_norm,
    is_consistent_family,
    mixed_overlap,
    normalize,
    purity,
    subsystem_trace_out,
    temporal_partial_trace,
    weight,
)
from .linalg import (
    bell_pair_ket,
    identity,
    kron,
    maximally_mixed,
    partial_trace,
    pauli,
    projector,
    qubit_ket,
)
from .twostate import (
    MeasurementSetting,
    coherent_bundle_distribution,
    coherent_bundle_weights,
    mixed_sequence_distribution,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# temporal_ghz reports n one-slot and n(n-1)/2 two-slot reductions, so its
# output grows as n^2; 24 slots print about 1 MB of JSON.
MAX_GHZ_SLOTS = 24


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run: a name, numeric artifacts, prose notes."""

    name: str
    artifacts: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()


def _fidelity(a, b) -> float:
    """|(a|b)| for unit-norm history states."""
    return abs(hs_inner(a, b))


def _branch(grid: TimeGrid, ket) -> HistoryState:
    p = projector(ket)
    return HistoryState.from_slots(grid, [p] * grid.n_slots)


# ---------------------------------------------------------------------------
# temporal GHZ chain


def temporal_ghz(n_slots: int = 3, alpha: complex = _INV_SQRT2, beta: complex = _INV_SQRT2) -> ScenarioResult:
    """Two-branch diagonal history alpha [0]^n + beta [1]^n under trivial bridging.

    Reports the weight, the consistency of the branch pair, and every one- and
    two-slot reduction together with its purity.  The reductions are always
    probabilistic mixtures of the two trivial branches; the artifact
    ``two_slot_bell_overlap_max`` records how close any two-slot reduction
    gets to the coherent superposition (|00) + |11))/sqrt(2), which for equal
    amplitudes stays pinned at 2**-0.5.  ``n_slots`` runs from 2 to
    ``MAX_GHZ_SLOTS`` (24).
    """
    if n_slots < 2:
        raise ValueError("need at least two slots")
    if n_slots > MAX_GHZ_SLOTS:
        raise ValueError(f"n_slots above {MAX_GHZ_SLOTS} is not supported")
    # an amplitude above 1 in modulus is rejected before it is squared
    if abs(alpha) > 1.0 or abs(beta) > 1.0 or abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise ValueError("|alpha|^2 + |beta|^2 must equal 1")

    grid = TimeGrid.regular(n_slots)
    bridging = BridgingSet.trivial(grid)
    up = _branch(grid, qubit_ket("0"))
    down = _branch(grid, qubit_ket("1"))
    state = alpha * up + beta * down

    # (|00) + |11))/sqrt(2) on a pair grid: its two term rows, shared by every pair
    bell_rows = np.array([np.tile(projector(qubit_ket(b)).ravel(), 2) for b in "01"])

    def bell_like(pair: TimeGrid) -> HistoryState:
        return HistoryState._from_rows(pair, [_INV_SQRT2, _INV_SQRT2], bell_rows, distinct=True)

    artifacts: dict = {
        "weight": weight(state, bridging),
        "branch_probabilities": (abs(alpha) ** 2, abs(beta) ** 2),
        "consistency": is_consistent_family([up, down], bridging),
    }
    singles = [[i] for i in range(n_slots)]
    # with two slots the state already lives on the pair; it is compared directly
    pairs = [[i, j] for i in range(n_slots) for j in range(i + 1, n_slots)] if n_slots > 2 else []
    reductions = _reductions(state, singles + pairs)
    for keep, red in zip(singles + pairs, reductions):
        name = "_".join(f"t{k}" for k in keep)
        artifacts[f"reduction_{name}"] = red
        artifacts[f"reduction_purity_{name}"] = purity(red)
    if pairs:
        # mixture fidelity against the coherent two-slot superposition
        pair_overlaps = [math.sqrt(mixed_overlap(red, bell_like(red.grid))) for red in reductions[n_slots:]]
    else:
        pair_overlaps = [_fidelity(normalize(state), bell_like(grid))]
    artifacts["two_slot_bell_overlap_max"] = max(pair_overlaps)

    notes = (
        "Reductions of the two-branch history are ensembles of the trivial "
        "branches, never coherent superpositions: each reduction is returned "
        "as a probabilistic mixture whose purity equals |alpha|^4 + |beta|^4.",
        "Amplitudes follow the unit-norm convention: the history itself has "
        "Hilbert-Schmidt norm one and the branch weights are |alpha|^2 and "
        "|beta|^2.",
    )
    return ScenarioResult("temporal-ghz", artifacts, notes)


# ---------------------------------------------------------------------------
# Mach-Zehnder interferometer


def mach_zehnder(alpha: float = _INV_SQRT2) -> ScenarioResult:
    """Four-time Mach-Zehnder run in the path qubit.

    Conventions: the path space is a qubit with |0> the input/upper mode and
    |1> the lower mode; both beam splitters act as the Hadamard, the mirror
    pair acts as the Pauli X.  Since H X H = Z, an undisturbed balanced
    interferometer maps |0> back onto |0>, so the bright port is |0> and the
    dark port is |1>.

    ``alpha`` is the amplitude of the upper-path branch; the lower-path
    branch gets sqrt(1 - alpha^2).  Artifacts cover the interference weights
    of the bright- and dark-port coherent histories, the purity and branch
    structure of the reduction keeping the intermediate times, and the
    port-correlated reduction that is a mixture rather than a superposition.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    beta = math.sqrt(1.0 - alpha * alpha)

    grid = TimeGrid.regular(4)
    had = np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2
    bridging = BridgingSet(grid, (had, pauli("X"), had))

    mode0 = projector(qubit_ket("0"))
    mode1 = projector(qubit_ket("1"))
    # upper branch: enter |0>, sit in |0| after BS1, mirrored to |1|, then exit
    upper = (mode0, mode0, mode1)
    lower = (mode0, mode1, mode0)

    def four_time(path, port) -> HistoryState:
        return HistoryState.from_slots(grid, [path[0], path[1], path[2], port])

    bright = alpha * four_time(upper, mode0) + beta * four_time(lower, mode0)
    dark_variant = alpha * four_time(upper, mode1) + beta * four_time(lower, mode1)
    port_correlated = alpha * four_time(upper, mode1) + beta * four_time(lower, mode0)

    middle = temporal_partial_trace(bright, [1, 2])
    middle_target = normalize(
        alpha * HistoryState.from_slots(middle.grid, [mode0, mode1])
        + beta * HistoryState.from_slots(middle.grid, [mode1, mode0])
    )

    reduced = temporal_partial_trace(port_correlated, [1, 3])
    b1 = HistoryState.from_slots(reduced.grid, [mode0, mode1])
    b2 = HistoryState.from_slots(reduced.grid, [mode1, mode0])

    branch_states = [
        normalize(four_time(upper, mode1)),
        normalize(four_time(lower, mode0)),
    ]
    w_total = weight(port_correlated, bridging)
    w_parts = weight(alpha * four_time(upper, mode1), bridging) + weight(
        beta * four_time(lower, mode0), bridging
    )

    artifacts = {
        "weight_bright_port": weight(bright, bridging),
        "weight_dark_port_variant": weight(dark_variant, bridging),
        "middle_restriction_purity": purity(middle),
        "middle_restriction_fidelity": max(_fidelity(m, middle_target) for _, m in middle.ensemble),
        "reduced_t1_t3_purity": purity(reduced),
        "reduced_t1_t3_branch_weights": (mixed_overlap(reduced, b1), mixed_overlap(reduced, b2)),
        "reduced_t1_t3_cross_term": abs(
            sum(p * hs_inner(b1, m) * hs_inner(m, b2) for p, m in reduced.ensemble)
        ),
        "branch_consistency": is_consistent_family(branch_states, bridging),
        "weight_additivity_gap": abs(w_total - w_parts),
    }
    notes = (
        "Path conventions: |0> is the input and upper mode, |1> the lower "
        "mode, both beam splitters are Hadamards and the mirrors act as X, "
        "so the bright output port is |0>.",
        "The two coherent path branches interfere: with equal amplitudes the "
        "bright-port history carries all the weight and the dark-port "
        "variant none.",
        "Keeping one intermediate time together with the output port yields "
        "a probabilistic mixture of the two path-port records, not a "
        "superposition: its purity is alpha^4 + beta^4 and the coherence "
        "between the records is zero.",
    )
    return ScenarioResult("mach-zehnder", artifacts, notes)


# ---------------------------------------------------------------------------
# four-member consistent family on three times


def _example_member(grid: TimeGrid, first: str, signs: tuple[str, str]) -> HistoryState:
    zp, zm = projector(qubit_ket("0")), projector(qubit_ket("1"))
    xp, xm = projector(qubit_ket("+")), projector(qubit_ket("-"))
    z = {"+": zp, "-": zm}
    x = {"+": xp, "-": xm}
    a = HistoryState.from_slots(grid, [z[first], x["+"], z[signs[0]]])
    b = HistoryState.from_slots(grid, [z[first], x["-"], z[signs[1]]])
    return normalize(a + b)


def example1_family() -> ScenarioResult:
    """Orthonormal four-member entangled family on three times.

    Each member fixes the earliest slot in the z basis, branches through both
    x outcomes in the middle, and refocuses into a definite z state at the
    end.  The family is consistent under trivial bridging and spans the same
    record structure as the computational-basis sample space; the first two
    members sum to a single-slot projector string, which is recorded as an
    artifact because it means that particular superposition carries no
    late-time branching at all.
    """
    grid = TimeGrid.regular(3)
    bridging = BridgingSet.trivial(grid)

    members = (
        _example_member(grid, "+", ("+", "-")),
        _example_member(grid, "+", ("-", "+")),
        _example_member(grid, "-", ("+", "-")),
        _example_member(grid, "-", ("-", "+")),
    )

    phi = normalize(members[0] + members[1])

    gram = np.array([[hs_inner(a, b) for b in members] for a in members])
    consistency = is_consistent_family(members, bridging)

    first_slot_identity = normalize(
        HistoryState.from_slots(grid, [projector(qubit_ket("0")), identity(2), identity(2)])
    )

    artifacts = {
        "member_weights": tuple(weight(m, bridging) for m in members),
        "gram_matrix": gram,
        "decoherence_matrix": consistency.matrix,
        "consistency": consistency,
        "superposition_norm": hs_norm(phi),
        "branch_probabilities": (
            abs(hs_inner(members[0], phi)) ** 2,
            abs(hs_inner(members[1], phi)) ** 2,
        ),
        "sum_fidelity_first_slot_identity": _fidelity(
            normalize(members[0] + members[1]), first_slot_identity
        ),
    }
    notes = (
        "The four members are orthonormal and mutually consistent, so they "
        "support an ensemble reading with additive weights.",
        "The equal-amplitude sum of the first two members collapses to a "
        "single product string: one z projector at the earliest time "
        "tensored with identities afterwards.  It is not itself a two-branch "
        "diagonal history, so superposing members of this family leaves the "
        "diagonal family entirely.",
        "Member amplitudes use the unit-norm convention (1/sqrt(2) per "
        "branch).",
    )
    return ScenarioResult("example1", artifacts, notes)


# ---------------------------------------------------------------------------
# Bell pair cycled through the Pauli group


_RECORD_SETTINGS = {
    1: MeasurementSetting.from_pauli("X"),
    2: MeasurementSetting.from_pauli("Y"),
    3: MeasurementSetting.from_pauli("Z"),
}


def _interval_conjugated(h: HistoryState, b: BridgingSet) -> HistoryState:
    """Rewrite a bridged history in the trivial picture.

    Every slot after the first is conjugated by the bridge that leads into
    it, which leaves all chain operators, weights and record statistics
    unchanged while making the bridging trivial.
    """
    first, *later = h._stacks
    stacks = [first] + [u @ s @ u.conj().T for u, s in zip(b.unitaries, later)]
    return HistoryState._from_rows(h.grid, h._coefs.tolist(), _join_rows(stacks))


def _pauli_distance(u: np.ndarray) -> float:
    """Distance of a 2x2 unitary from the nearest Pauli, up to global phase."""
    best = 1.0
    for name in ("I", "X", "Y", "Z"):
        p = identity(2) if name == "I" else pauli(name)
        best = min(best, 1.0 - abs(np.trace(u.conj().T @ p)) / 2.0)
    return best


def pauli_cycle() -> ScenarioResult:
    """Bell pair held through a cycle of one-sided Pauli kicks.

    A five-time history pins the pair to the Bell state [Phi+] at every slot
    while the record side is bridged by X, Y, Z and finally the identity.
    Tracing out the partner leaves the record qubit in the two-branch
    diagonal history (|0)^5 + |1)^5)/sqrt(2) with the Pauli kicks as its
    induced bridging.  The scenario then inserts X, Y, Z measurements at the
    three middle times and reports both numbers attached to the +++ record:
    the interference weight of the coherent bundle member and the sequential
    collapse probability.  The two differ by design and are never merged.
    """
    grid = TimeGrid.regular(5, dim=4)
    eye2 = identity(2)
    bridging = BridgingSet(
        grid,
        (
            kron(pauli("X"), eye2),
            kron(pauli("Y"), eye2),
            kron(pauli("Z"), eye2),
            identity(4),
        ),
    )
    held = HistoryState.from_slots(grid, [projector(bell_pair_ket())] * 5)

    red = subsystem_trace_out(held, bridging, (2, 2), traced=1)

    qgrid = red.state.grid
    ghz_target = normalize(
        _branch(qgrid, qubit_ket("0")) + _branch(qgrid, qubit_ket("1"))
    )

    bridged_weights = coherent_bundle_weights(red.state, red.bridging, _RECORD_SETTINGS)
    trivial_state = _interval_conjugated(red.state, red.bridging)
    trivial_weights = coherent_bundle_weights(
        trivial_state, BridgingSet.trivial(qgrid), _RECORD_SETTINGS
    )
    picture_gap = max(abs(bridged_weights[k] - trivial_weights[k]) for k in bridged_weights)

    x, y, z = (MeasurementSetting.from_pauli(n) for n in "XYZ")
    rho = maximally_mixed(2)
    collapse_xyz = mixed_sequence_distribution(rho, (x, y, z))
    xy = mixed_sequence_distribution(rho, (x, y))
    yz = mixed_sequence_distribution(rho, (y, z))

    # same two-outcome statistics measured on the spatial pair directly
    bell = bell_pair_ket()
    spatial_gap = 0.0
    for sa, a in (("+", 1), ("-", -1)):
        for sb, b in (("+", 1), ("-", -1)):
            op = kron(x.projector(a), y.projector(b))
            p_spatial = float(np.vdot(bell, op @ bell).real)
            spatial_gap = max(spatial_gap, abs(p_spatial - xy.probability(sa + sb)))

    artifacts = {
        "reduced_ghz_fidelity": _fidelity(red.state, ghz_target),
        "reduction_consistent": red.consistency,
        "induced_bridging_pauli_distance": max(
            _pauli_distance(u) for u in red.bridging.unitaries
        ),
        "picture_equivalence_gap": picture_gap,
        "coherent_weight_xyz_ppp": bridged_weights["+++"],
        "collapse_probability_xyz_ppp": collapse_xyz.probability("+++"),
        "coherent_distribution_xyz": coherent_bundle_distribution(
            red.state, red.bridging, _RECORD_SETTINGS
        ),
        "collapse_distribution_xyz": collapse_xyz,
        "xy_distribution": xy,
        "yz_distribution": yz,
        "spatial_xy_match_gap": spatial_gap,
    }
    notes = (
        "Tracing out the partner contracts the pair history along classical "
        "record trajectories; a maximally entangled record turns the product "
        "of Bell projectors into the coherent two-branch diagonal history of "
        "the kept qubit.",
        "The +++ record under X, Y, Z carries two distinct numbers: the "
        "interference weight of the coherent bundle member (1/16) and the "
        "sequential collapse probability (1/8).  They answer different "
        "questions and are reported side by side, never averaged or merged.",
        "Rewriting the bridged history in the trivial picture (conjugating "
        "each slot by its incoming bridge) changes no record statistics; the "
        "reported picture gap is the largest deviation across all eight "
        "records.",
        "Two-time statistics of the cycled record qubit match a spatial Bell "
        "pair measured with the same settings; the match gap is the largest "
        "deviation across the four XY outcome pairs.",
    )
    return ScenarioResult("pauli-cycle", artifacts, notes)


# ---------------------------------------------------------------------------
# two-time history with swapped spatial partners


def two_time_hab(psi: str = "0") -> ScenarioResult:
    """Three-qubit two-time history where the middle qubit swaps partners.

    At the first time qubit A is Bell-paired with B while H holds the input
    state; at the second time A is Bell-paired with H while B holds it.  The
    global history is a single product of two projectors, so it carries no
    entanglement across the time slots at all, even though each slot hosts a
    maximally entangled spatial pair.
    """
    ket = qubit_ket(psi)
    bell = bell_pair_ket()
    psi0 = np.kron(ket, bell)             # H (x) (A B)
    psi1 = np.kron(bell, ket)             # (H A) (x) B

    grid = TimeGrid.regular(2, dim=8)
    bridging = BridgingSet.trivial(grid)
    history = HistoryState.from_slots(grid, [projector(psi0), projector(psi1)])

    rho0 = projector(psi0)
    rho1 = projector(psi1)
    dims = [2, 2, 2]
    rho_ab = partial_trace(rho0, dims, keep=[1, 2])
    rho_ha = partial_trace(rho1, dims, keep=[0, 1])
    rho_a0 = partial_trace(rho0, dims, keep=[1])
    rho_a1 = partial_trace(rho1, dims, keep=[1])
    bell_proj = projector(bell)

    # squared Schmidt coefficients across the time cut
    probs = np.array([p for p, _ in temporal_partial_trace(history, [0]).ensemble])
    entropy = max(0.0, float(-np.sum(probs[probs > 1e-15] * np.log2(probs[probs > 1e-15]))))

    artifacts = {
        "weight": weight(history, bridging),
        "postselection_probability": float(abs(np.vdot(psi1, psi0)) ** 2),
        "fidelity_ab_t0": float(np.trace(bell_proj @ rho_ab).real),
        "fidelity_ha_t1": float(np.trace(bell_proj @ rho_ha).real),
        "record_marginal_purity_t0": float(np.trace(rho_a0 @ rho_a0).real),
        "record_marginal_purity_t1": float(np.trace(rho_a1 @ rho_a1).real),
        "slot_schmidt_rank": len(probs),
        "slot_entanglement_entropy": entropy,
    }
    notes = (
        "The qubit order is H, A, B.  A is maximally entangled with B at the "
        "first time and with H at the second, yet its single-qubit marginal "
        "is maximally mixed at both.",
        "The global two-time history is one product term, so the Schmidt "
        "rank across the time cut is 1 and the cross-slot entanglement "
        "entropy vanishes: all correlation lives inside the slots.",
        "Post-selecting the second slot on the swapped pairing succeeds with "
        "probability 1/4 whatever the input state: the overlap of the two "
        "pairings is 1/2 for every normalized input.",
    )
    return ScenarioResult("two-time-hab", artifacts, notes)


SCENARIOS: dict[str, Callable[..., ScenarioResult]] = {
    "temporal-ghz": temporal_ghz,
    "mach-zehnder": mach_zehnder,
    "example1": example1_family,
    "pauli-cycle": pauli_cycle,
    "two-time-hab": two_time_hab,
}


def run_scenario(name: str, **kwargs) -> ScenarioResult:
    """Look up a scenario by registry name and run it."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None
    return fn(**kwargs)
