"""Temporal Bell-type functionals for sequential measurements on one system.

The basic correlator pairs a dichotomic measurement at an earlier time with
one at a later time under nonselective (collapse) dynamics:

    E(A, B) = sum over a, b of a * b * Tr(P_b U P_a rho P_a U^dag P_b)

For dichotomic A and B (A^2 = B^2 = I) in any dimension and any rho and U,
P_a = (I + a A) / 2 gives sum over a of a * P_a rho P_a = (A rho + rho A) / 2,
so E(A, B) = Re Tr(rho A U^dag B U) = Re <A psi, U^dag B U psi> for a
purification psi of rho: an inner product of unit vectors.  A qubit under
trivial evolution, A = a.sigma and B = b.sigma, has E = a . b for every
state, Tr(A B) / 2 as the maximally mixed one gives it.  So the functional

    S = E(A1,B1) + E(A1,B2) + E(A2,B1) - E(A2,B2)

reaches 2*sqrt(2) at mutually unbiased optimal settings while every
deterministic assignment stays at or below 2.  Because consecutive pairs of
times are statistically interchangeable, two-pair sums reach 4*sqrt(2)
(beating the spatial two-pair cap of 4) and n-pair chains reach 2*sqrt(2)*n.

The chained reading of a two-pair sum keeps the first measurement in the
run.  Left unread, it hands the later pair a probabilistic mixture of the
processes it could have applied: the nonselective update of rho, averaged
over the first party's settings and carried to the middle time,

    rho' = U1 (1/|A|) sum over a in A and +/- of P_a^+/- rho P_a^+/- U1^dag,

so the second pair is the same correlator evaluated on rho'.  Correlators and
rho' are reductions of the chain kernel ``histories._chains`` under its
arithmetic contract (no BLAS); only the settings optimizer's certificate (a
LAPACK eigensolve) uses LAPACK.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError
from .histories import _chains, _collapse_weights
from .linalg import (
    check_unitary, density_operator, identity, max_abs, maximally_mixed, pauli,
)
from .twostate import MeasurementSetting

__all__ = [
    "CLASSICAL_BOUND",
    "TSIRELSON_BOUND",
    "BellReport",
    "MonogamyResult",
    "ChainedResult",
    "OptimizerConfig",
    "OptimizeResult",
    "MAX_CHAIN_BLOCKS",
    "temporal_correlator",
    "s_lgi",
    "classical_bound_bruteforce",
    "chained_classical_bound",
    "monogamy_sum",
    "chained_bell",
    "optimize_settings",
    "tsirelson_settings",
    "monogamy_preset_settings",
    "settings_from_angles",
]

CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# Largest chain length chained_bell, chained_classical_bound and
# optimize_settings accept.  chained_bell evaluates its block once, so the
# only cost there that grows with n is the report: n copies of the block.
MAX_CHAIN_BLOCKS = 1000

INDEPENDENT = "independent_ensembles"
CHAINED = "chained_single_system"
_MODES = (INDEPENDENT, CHAINED)


def _check_unitary(u, d: int, what: str = "unitary") -> np.ndarray:
    """One (d, d) unitary, or the identity for None; a stack of them is a
    ShapeError, as is any other shape."""
    if u is None:
        return identity(d)
    u = np.asarray(u, dtype=complex)
    if u.ndim == 3 and u.shape[1:] == (d, d):
        raise ShapeError(f"{what} must be a single matrix")
    if u.shape != (d, d):
        raise ShapeError(f"{what} must be {d}x{d}")
    return check_unitary(u, what)


@dataclass(frozen=True)
class BellReport:
    """Four correlators and the value of the two-time Bell functional."""

    correlators: np.ndarray
    value: float
    classical_bound: float
    quantum_bound: float
    settings_used: tuple[str, ...]
    mode: str

    def __post_init__(self):
        c = np.array(self.correlators, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "correlators", c)
        if c.shape != (2, 2):
            raise ShapeError("correlator table must be 2x2")
        if np.max(np.abs(c)) > 1.0 + 1e-9:
            raise ValueError("correlators must lie in [-1, 1]")
        expected = c[0, 0] + c[0, 1] + c[1, 0] - c[1, 1]
        if abs(self.value - expected) > 1e-12:
            raise ValueError("value does not match the correlator combination")


def _tables(rho, first_pairs, u, second_pairs) -> np.ndarray:
    """The two-time correlator table: entry [i, j] is

        E = sum over a, b of a * b * Tr(P_b U P_a rho P_a U^dag P_b)

    for the (P+, P-) pairs first_pairs[i] and second_pairs[j] and the (d, d)
    unitary u, with the same floating-point operations in the same order for
    every entry, so a value does not depend on the table's size or its other
    entries.  The state, the unitary and the (k, 2, d, d) pair stacks come
    checked; only their dimension and the correlators' range are checked
    here.  Entry (i, j) is one kernel batch entry, u a one-outcome slot, and
    string ab's chain P_b U P_a."""
    d = rho.shape[0]
    if first_pairs.shape[-1] != d or second_pairs.shape[-1] != d:
        raise ShapeError(f"observables must be (k, {d}, {d}) stacks")
    entries = (len(first_pairs), len(second_pairs))
    slots = [np.broadcast_to(ops, entries + ops.shape[-3:]).reshape((-1,) + ops.shape[-3:])
             for ops in (first_pairs[:, None], u.reshape(1, 1, 1, d, d), second_pairs[None])]
    chains = _chains(identity(d), (None,) * 3, slots)[1].reshape(d, d, -1)
    weights = _collapse_weights(chains, rho).reshape((4,) + entries)
    total = weights[0] - weights[1] - weights[2] + weights[3]  # strings ++, +-, -+, --
    if max_abs(total) > 1.0 + 1e-9:
        raise ValueError("correlators must lie in [-1, 1]")
    return total


def _pairs(settings: Sequence[MeasurementSetting]) -> np.ndarray:
    """The settings' own checked (P+, P-) pairs as one (k, 2, d, d) stack."""
    return np.stack([s.projectors() for s in settings])


def temporal_correlator(
    initial, first: MeasurementSetting, unitary, second: MeasurementSetting
) -> float:
    """Two-time correlator under nonselective collapse at the first time."""
    rho = density_operator(initial)
    u = _check_unitary(unitary, rho.shape[0])
    return float(_tables(rho, first.projectors()[None], u, second.projectors()[None])[0, 0])


def _report(table, settings, mode: str) -> BellReport:
    value = float(table[0, 0] + table[0, 1] + table[1, 0] - table[1, 1])
    return BellReport(table, value, CLASSICAL_BOUND, TSIRELSON_BOUND, tuple(s.label for s in settings), mode)


def s_lgi(
    initial,
    first_settings: Sequence[MeasurementSetting],
    second_settings: Sequence[MeasurementSetting],
    unitary=None,
) -> BellReport:
    """S = c11 + c12 + c21 - c22 for the given settings, each correlator on a
    fresh ensemble: the report's mode is always independent_ensembles.  The
    state and the one unitary (None: the identity) are checked as
    ``temporal_correlator`` checks them."""
    rho = density_operator(initial)
    u = _check_unitary(unitary, rho.shape[0])
    first_settings, second_settings = tuple(first_settings), tuple(second_settings)
    table = _tables(rho, _pairs(first_settings), u, _pairs(second_settings))
    return _report(table, first_settings + second_settings, INDEPENDENT)


# ---------------------------------------------------------------------------
# classical comparators


# a party's +/-1 values for its two settings, in enumeration order
_STRATEGIES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _block_values(coefficients) -> list[list]:
    """sum c_ij * a_i * b_j for every pair of deterministic strategies (a, b)."""
    coeff = np.asarray(coefficients, dtype=float)
    if coeff.shape != (2, 2):
        raise ShapeError("coefficient table must be 2x2")
    if not np.all(np.isfinite(coeff)):
        raise ValueError("coefficients must be finite")
    return [
        [sum(coeff[i, j] * a[i] * b[j] for i in range(2) for j in range(2)) for b in _STRATEGIES]
        for a in _STRATEGIES
    ]


def classical_bound_bruteforce(coefficients=((1, 1), (1, -1))) -> float:
    """Maximum of sum c_ij * a_i * b_j over deterministic +/-1 assignments."""
    return float(max(max(row) for row in _block_values(coefficients)))


def chained_classical_bound(n: int, coefficients=((1, 1), (1, -1))) -> float:
    """Deterministic maximum of an n-block chain sharing adjacent parties.

    Block i couples party i and party i+1 with the same 2x2 coefficient
    pattern; every party holds one of four deterministic strategies (a +/-1
    value per setting).  A max-plus (Viterbi) transfer keeps, for each
    strategy of the latest party, the best total of the blocks so far: 16
    additions per block instead of all 4^(n+1) strategies.  Totals add block
    values left to right, as a direct sum over one strategy does, and
    floating-point addition is monotone, so the result is exactly the maximum
    over all strategies.  At most MAX_CHAIN_BLOCKS blocks.
    """
    _check_chain_length(n)
    block = _block_values(coefficients)
    best = [0.0] * len(_STRATEGIES)
    for _ in range(n):
        best = [max(best[s] + block[s][t] for s in range(len(best))) for t in range(len(best))]
    return float(max(best))


# ---------------------------------------------------------------------------
# monogamy and chains


@dataclass(frozen=True)
class MonogamyResult:
    first_pair: BellReport
    second_pair: BellReport
    total: float
    quantum_reference: float
    spatial_reference: float
    mode: str


def monogamy_sum(
    initial,
    a_settings: Sequence[MeasurementSetting],
    b_settings: Sequence[MeasurementSetting],
    c_settings: Sequence[MeasurementSetting],
    unitaries=(None, None),
    mode: str = INDEPENDENT,
) -> MonogamyResult:
    """Sum of the two overlapping pair functionals over three times.

    The middle-time settings are shared between both pairs.  In independent
    mode each pair is evaluated on a fresh ensemble; in chained mode the
    second pair is evaluated downstream of the unread first measurement in a
    single run, as the correlator of the mixture of processes rho' (see the
    module docstring; no established reference value applies to this reading).
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    rho = density_operator(initial)
    d = rho.shape[0]
    u1, u2 = (_check_unitary(u, d, f"unitaries[{i}]") for i, u in enumerate(unitaries))
    a_settings, b_settings, c_settings = tuple(a_settings), tuple(b_settings), tuple(c_settings)
    pa, pb, pc = (_pairs(s) for s in (a_settings, b_settings, c_settings))
    first = _report(_tables(rho, pa, u1, pb), a_settings + b_settings, mode)
    if mode == CHAINED:
        # rho' = sum of K rho K^dag / |A| over the chains K = U1 P, in the kernel's order
        chains = _chains(identity(d), (None, u1), (pa, None))[1].reshape(d, d, -1)
        kept = np.einsum("ilr,jlr->ijr", np.einsum("ikr,kl->ilr", chains, rho), chains.conj())
        rho = np.cumsum(kept, axis=-1)[..., -1] / len(a_settings)
    second = _report(_tables(rho, pb, u2, pc), b_settings + c_settings, mode)
    total = float(first.value + second.value)
    return MonogamyResult(first, second, total, 4.0 * math.sqrt(2.0), 4.0, mode)


@dataclass(frozen=True)
class ChainedResult:
    block_reports: tuple[BellReport, ...]
    total: float
    classical_bound: float
    quantum_bound: float


def _chain_total(block_value: float, n: int) -> float:
    # the sum of n block values left to right, as adding up the block reports
    # gives it on every Python; n * block_value can differ in the last bit
    return float(np.cumsum(np.full(n, block_value))[-1])


def _check_chain_length(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one block")
    if n > MAX_CHAIN_BLOCKS:
        raise ValueError(f"at most {MAX_CHAIN_BLOCKS} chained blocks are supported, got {n}")


def chained_bell(
    n: int,
    first_settings: Sequence[MeasurementSetting],
    second_settings: Sequence[MeasurementSetting],
    initial=None,
    unitary=None,
) -> ChainedResult:
    """Chain of n two-time blocks, each evaluated on a fresh ensemble.

    The chain repeats one block (the loop reading of a two-time sequence), so
    all blocks share settings and the total is n times the block value; the
    classical comparator for the same functional is 2n.  The block is
    evaluated once and its report repeated.  At most MAX_CHAIN_BLOCKS blocks.
    """
    _check_chain_length(n)
    rho = maximally_mixed(2) if initial is None else initial
    report = s_lgi(rho, first_settings, second_settings, unitary)
    return ChainedResult((report,) * n, _chain_total(report.value, n), 2.0 * n, TSIRELSON_BOUND * n)


# ---------------------------------------------------------------------------
# presets


def tsirelson_settings():
    """Settings saturating the two-time quantum bound 2*sqrt(2).

    First party measures Z and X; second measures the diagonal combinations.
    """
    rt = math.sqrt(2.0)
    firsts = (MeasurementSetting.from_pauli("Z"), MeasurementSetting.from_pauli("X"))
    seconds = (
        MeasurementSetting("(Z+X)/sqrt2", (pauli("Z") + pauli("X")) / rt),
        MeasurementSetting("(Z-X)/sqrt2", (pauli("Z") - pauli("X")) / rt),
    )
    return firsts, seconds


def monogamy_preset_settings():
    """Three-time settings saturating both overlapping pair functionals."""
    firsts, seconds = tsirelson_settings()
    return firsts, seconds, firsts


# ---------------------------------------------------------------------------
# settings optimizer: the quadratic form's spectral start with a dual certificate


_OBJECTIVES = ("s_lgi", "chained_bell", "monogamy_sum")
_CONVERGED_TOL = 1e-10  # the most certified_bound may exceed value in a converged run


@dataclass(frozen=True)
class OptimizerConfig:
    """``seed`` selects nothing, since one evaluation is the run; it stays
    only because the benchmark constructs it (ROADMAP item 3)."""

    seed: int = 0


@dataclass(frozen=True)
class OptimizeResult:
    objective: str
    value: float
    angles: tuple[float, ...]
    settings: tuple[MeasurementSetting, ...]
    trace: tuple[tuple[int, tuple[float, ...], float], ...]
    converged: bool
    evaluations: int
    certified_bound: float


def settings_from_angles(angles: Sequence[float]) -> tuple[MeasurementSetting, ...]:
    """Interpret a flat (theta, phi, theta, phi, ...) vector as settings."""
    if len(angles) % 2:
        raise ValueError("need an even number of angles")
    return MeasurementSetting.stack(zip(angles[0::2], angles[1::2]))


def _quadratic_form(objective: str, n: int) -> np.ndarray:
    """Symmetric Q with the objective equal to x^T Q x over the settings' Bloch
    vectors x (in ``settings_from_angles`` order).  Under trivial evolution a
    qubit correlator is E(a.sigma, b.sigma) = Tr(B {A, rho}) / 2 = a . b for
    every state, so each pair functional is sum M_ij a_i . b_j."""
    pattern = np.array([[1.0, 1.0], [1.0, -1.0]]) * (n if objective == "chained_bell" else 1)
    blocks = (0, 2) if objective == "monogamy_sum" else (0,)
    q = np.zeros((2 * len(blocks) + 2,) * 2)
    for i in blocks:
        q[i:i + 2, i + 2:i + 4] = pattern / 2.0
    return q + q.T


def _certified_bound(q: np.ndarray, x: np.ndarray) -> float:
    """Upper bound on y^T Q y over unit vectors y_i of any dimension, for any x.

    With lambda_i = sum_j Q_ij x_i . x_j and G the Gram matrix of y (positive
    semidefinite, trace m), y^T Q y = sum lambda - Tr((Diag lambda - Q) G).
    At a global maximum x the bound equals the maximum.
    """
    lam = np.einsum("ij,ik,jk->i", q, x, x)
    lam_min = np.linalg.eigvalsh(np.diag(lam) - q)[0]
    return float(lam.sum() + len(q) * max(0.0, -lam_min))


@functools.cache
def _spectral_start(objective: str) -> np.ndarray:
    """Unit Bloch vectors, one row per setting, spanning the top eigenspace of
    the objective's quadratic form (``chained_bell``'s n Q shares Q's).

    Repeated squaring of Q, shifted to be positive semidefinite, converges to
    the projector P onto the whole top eigenvalue cluster, up to scale: a
    function of Q alone, whatever basis an eigensolver would pick inside a
    degenerate cluster, and computed without BLAS or LAPACK.  P is factored as
    L L^T with L lower triangular and a positive diagonal, in settings order,
    skipping dependent columns; its rows, padded to three components and
    normalized, are the start, so X X^T is P with its diagonal scaled to one.
    For every objective here that is a global maximum, at which
    ``_certified_bound`` closes.
    """
    q = _quadratic_form(objective, 1)
    m = len(q)
    p = q + np.max(np.sum(np.abs(q), axis=1)) * np.eye(m)  # Gershgorin: no negative eigenvalue
    for _ in range(64):
        last, p = p, np.einsum("ij,jk->ik", p, p)
        p /= np.max(np.abs(p))
        if np.max(np.abs(p - last)) <= 1e-15:
            break
    factor = np.zeros((m, 3))
    rank = 0
    for k in range(m):
        column = p[k:, k] - np.einsum("ij,j->i", factor[k:, :rank], factor[k, :rank])
        if column[0] > 1e-9 and rank < 3:
            factor[k:, rank] = column / math.sqrt(column[0])
            rank += 1
    start = factor / np.linalg.norm(factor, axis=1, keepdims=True)
    start.setflags(write=False)
    return start


def _angles(x: np.ndarray) -> np.ndarray:
    """(m, 3) unit Bloch vectors -> one flat row of (theta, phi) pairs."""
    theta = np.arccos(np.clip(x[:, 2], -1.0, 1.0))
    phi = np.arctan2(x[:, 1], x[:, 0]) % (2.0 * math.pi)
    return np.stack([theta, phi], -1).reshape(-1)


def optimize_settings(
    objective: str = "s_lgi",
    config: OptimizerConfig = OptimizerConfig(),
    n: int = 1,
) -> OptimizeResult:
    """Maximize a Bell-type functional over qubit settings, with a certificate.

    The settings are the spectral start (``_spectral_start``) of the
    objective's quadratic form, and ``value`` is what the named public
    function gives for them on the maximally mixed qubit (every state gives
    the same; see the module docstring): one evaluation, the whole run.
    ``certified_bound`` caps the functional over every assignment of unit
    vectors; ``converged`` means it is at most 1e-10 above ``value``, so the
    global maximum was found.  ``n`` is range-checked as a chain length for
    every objective; only ``chained_bell`` reads it.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    _check_chain_length(n)
    rho = maximally_mixed(2)
    x = _spectral_start(objective)
    angles = tuple(float(a) for a in _angles(x))
    s = settings_from_angles(angles)
    if objective == "s_lgi":
        value = s_lgi(rho, s[0:2], s[2:4]).value
    elif objective == "chained_bell":
        value = chained_bell(n, s[0:2], s[2:4], rho).total
    else:
        value = monogamy_sum(rho, s[0:2], s[2:4], s[4:6]).total
    bound = _certified_bound(_quadratic_form(objective, n), x)
    return OptimizeResult(
        objective=objective,
        value=value,
        angles=angles,
        settings=s,
        trace=((1, angles, value),),
        converged=bound - value <= _CONVERGED_TOL,
        evaluations=1,
        certified_bound=bound,
    )
