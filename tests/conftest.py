"""Shared fixtures and small experiment corpora used across test modules."""

import math
from typing import NamedTuple, Optional

import numpy as np
import pytest

from qhist import (
    BridgingSet,
    HistoryState,
    MeasurementSetting,
    TimeGrid,
    normalize,
)
from qhist import bell
from qhist.linalg import pauli, projector, qubit_ket

SQRT2 = math.sqrt(2.0)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2


@pytest.fixture
def rng():
    return np.random.default_rng(20250815)


def random_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def open_certificate(monkeypatch):
    """Make ``bell._certified_bound`` read 1 above the true bound, so the
    optimizer's start does not certify and the run reports ``converged``
    false (the CLI's exit 3)."""
    certified_bound = bell._certified_bound
    monkeypatch.setattr(bell, "_certified_bound", lambda q, x: certified_bound(q, x) + 1.0)


def random_ket(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_dichotomic(rng) -> np.ndarray:
    """Hermitian qubit observable with eigenvalues exactly +1 and -1."""
    u = random_unitary(rng, 2)
    return u @ np.diag([1.0, -1.0]).astype(complex) @ u.conj().T


def random_setting(rng, label: str = "R") -> MeasurementSetting:
    return MeasurementSetting(label, random_dichotomic(rng))


def diagonal_branches(n_slots: int):
    """The pair of trivial z-branch histories on a regular qubit grid."""
    grid = TimeGrid.regular(n_slots)
    up = HistoryState.from_slots(grid, [projector(qubit_ket("0"))] * n_slots)
    down = HistoryState.from_slots(grid, [projector(qubit_ket("1"))] * n_slots)
    return grid, up, down


class Experiment(NamedTuple):
    """``sequence_distribution``'s arguments, in its order:
    ``sequence_distribution(*exp)``."""

    pre: np.ndarray
    slots: tuple
    unitaries: Optional[tuple] = None
    post: Optional[np.ndarray] = None

    @property
    def measured_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.slots) if s is not None)


def experiment_corpus() -> list[Experiment]:
    """Pre/post-selected experiments covering the shapes the tests exercise."""
    x = MeasurementSetting.from_pauli("X")
    y = MeasurementSetting.from_pauli("Y")
    z = MeasurementSetting.from_pauli("Z")
    k0, k1 = qubit_ket("0"), qubit_ket("1")
    kp = qubit_ket("+")
    eye = np.eye(2, dtype=complex)
    out = [
        Experiment(k0, (x, x), post=k0),
        Experiment(k0, (x, x), post=k1),
        Experiment(k0, (x, y, z)),
        Experiment(kp, (z, x), post=kp),
        Experiment(k0, (x, None, z), unitaries=(eye, HADAMARD, HADAMARD, eye)),
        Experiment(k0, (z, z), unitaries=(HADAMARD, pauli("X"), HADAMARD), post=k0),
        Experiment(qubit_ket("i+"), (y,), post=k0),
    ]
    return out


def consistent_family_corpus():
    """(family, bridging) pairs that pass the consistency check."""
    corpus = []

    grid, up, down = diagonal_branches(3)
    corpus.append(([up, down], BridgingSet.trivial(grid)))

    grid5, up5, down5 = diagonal_branches(5)
    corpus.append(([up5, down5], BridgingSet.trivial(grid5)))

    # orthonormal x-branching family that refocuses in the z basis
    g3 = TimeGrid.regular(3)
    zp, zm = projector(qubit_ket("0")), projector(qubit_ket("1"))
    xp, xm = projector(qubit_ket("+")), projector(qubit_ket("-"))

    def member(first, a, b):
        return normalize(
            HistoryState.from_slots(g3, [first, xp, a])
            + HistoryState.from_slots(g3, [first, xm, b])
        )

    family = [
        member(zp, zp, zm),
        member(zp, zm, zp),
        member(zm, zp, zm),
        member(zm, zm, zp),
    ]
    corpus.append((family, BridgingSet.trivial(g3)))

    # two-branch interferometer paths under Hadamard/X/Hadamard bridging
    g4 = TimeGrid.regular(4)
    bridging = BridgingSet(g4, (HADAMARD, pauli("X"), HADAMARD))
    upper = HistoryState.from_slots(g4, [zp, zp, zm, zm])
    lower = HistoryState.from_slots(g4, [zp, zm, zp, zp])
    corpus.append(([upper, lower], bridging))
    return corpus
