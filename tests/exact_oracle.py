"""Exact outcome tables from the package's own float inputs.

Every finite float is a rational number, so a table built from the kets,
projectors and unitaries the package holds has one exact value.  This oracle
rebuilds it with ``fractions.Fraction``, a complex number held as a
(real, imaginary) pair, and measures how far a printed value is from it in
units in the last place (ulps) of the exact value.

The chain of an outcome string is K = U_n P_n ... U_1 P_1 U_0, as the chain
kernel builds it (``histories._chains``: interval k, then slot k), and its
weight is Tr(K rho K^dag), or <post|K rho K^dag|post> with a post-selection;
a pure pre-selection is rho = |pre><pre|.  The table is each weight over the
weights' total.  Strings share their prefixes, so each state along the row is
computed once.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from qhist import serialize
from qhist.linalg import as_ket, maximally_mixed
from qhist.twostate import TwoTimeExperiment, _checked_row

ZERO = (Fraction(0), Fraction(0))


def _exact(a) -> list:
    """A complex array as nested lists of exact (real, imaginary) pairs."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 0:
        z = complex(a)
        return (Fraction(z.real), Fraction(z.imag))
    return [_exact(row) for row in a]


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _matmul(a, b) -> list:
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = ZERO
            for k, x in enumerate(row):
                acc = _add(acc, _mul(x, b[k][j]))
            new.append(acc)
        out.append(new)
    return out


def _dagger(a) -> list:
    return [[(a[j][i][0], -a[j][i][1]) for j in range(len(a))] for i in range(len(a[0]))]


def _conjugate(op, rho) -> list:
    """op rho op^dag."""
    return _matmul(_matmul(op, rho), _dagger(op))


def exact_table(start, unitaries, pairs, post=None) -> dict[str, Fraction]:
    """Exact normalized weights of every outcome string of a slot row.

    ``start`` is the pre-selected ket or the initial density matrix,
    ``unitaries`` the row's interval unitaries (one more than slots),
    ``pairs`` each slot's (P+, P-) stack or None for an unmeasured slot, and
    ``post`` a ket or None; all are the package's floats, read exactly.
    """
    rho = _exact(start)
    if np.ndim(start) == 1:
        column = [[x] for x in rho]
        rho = _matmul(column, _dagger(column))
    states = {"": rho}
    # the kernel's row: interval k, then slot k, and the last interval alone
    for u, pair in zip(unitaries, [*pairs, None]):
        u = _exact(u)
        states = {s: _conjugate(u, r) for s, r in states.items()}
        if pair is not None:
            ops = [_exact(p) for p in pair]
            states = {s + c: _conjugate(op, r) for s, r in states.items() for c, op in zip("+-", ops)}
    if post is not None:
        bra = _dagger([[x] for x in _exact(post)])
        states = {s: _conjugate(bra, r) for s, r in states.items()}  # <post| r |post>, 1 x 1
    weights = {s: sum(r[i][i][0] for i in range(len(r))) for s, r in sorted(states.items())}
    total = sum(weights.values(), Fraction(0))
    return {s: w / total for s, w in weights.items()}


def spec_table(path) -> dict[str, Fraction]:
    """``exact_table`` of an ``abl`` spec file, from the inputs ``qhist abl``
    builds: the checked experiment for a pure 'pre', or the maximally mixed
    qubit, the checked row and the normalized post ket for a mixed one."""
    parsed = serialize.experiment_from_document(serialize.load_document(str(path)))
    slots = parsed["slots"]
    if parsed["initial"] == "mixed":
        start = maximally_mixed(2)
        unitaries = _checked_row(2, slots, parsed["unitaries"])
        post = None if parsed["post"] is None else as_ket(parsed["post"], normalized=True)
    else:
        exp = TwoTimeExperiment.build(parsed["pre"], slots, post=parsed["post"], unitaries=parsed["unitaries"])
        start, unitaries, post = exp.pre, exp.unitaries, exp.post
    pairs = [None if s is None else s.projectors() for s in slots]
    return exact_table(start, unitaries, pairs, post)


def ulp_error(printed: float, exact: Fraction) -> float:
    """|printed - exact| in ulps of the exact value (0 for an exact zero
    printed as zero, inf for any other value printed for an exact zero)."""
    err = abs(Fraction(printed) - exact)
    if exact == 0:
        return 0.0 if err == 0 else math.inf
    return float(err / Fraction(math.ulp(float(exact))))
