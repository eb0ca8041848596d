"""Exact outcome tables and Bell values from the package's own float inputs.

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

A two-time correlator is E = sum over a, b of a * b * Tr(P_b U P_a rho P_a
U^dag P_b), and a pair functional's value S = E11 + E12 + E21 - E22; the
chained reading's second pair takes rho' = U1 (1/|A|) sum over a in A and
+/- of P rho P U1^dag, rational as well (``bell_values``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from qhist import cli, serialize
from qhist.linalg import as_ket, identity, maximally_mixed
from qhist.twostate import _checked_row

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
    builds: the normalized pre ket, or the maximally mixed qubit for a mixed
    spec, the checked row and the normalized post ket."""
    parsed = serialize.experiment_from_document(serialize.load_document(str(path)))
    slots = parsed["slots"]
    start = maximally_mixed(2) if parsed["initial"] == "mixed" else as_ket(parsed["pre"], normalized=True)
    unitaries = _checked_row(len(start), slots, parsed["unitaries"])
    post = None if parsed["post"] is None else as_ket(parsed["post"], normalized=True)
    pairs = [None if s is None else s.projectors() for s in slots]
    return exact_table(start, unitaries, pairs, post)


def _trace(r) -> Fraction:
    return sum((r[i][i][0] for i in range(len(r))), Fraction(0))


def _pair(rho, first, u, second) -> dict:
    """The exact correlator table and value of one pair functional: exact
    ``rho`` and ``u``, and the two parties' settings."""
    table = []
    for s in first:
        # P_a rho P_a carried through U, for a = +1 then -1
        after = [_conjugate(u, _conjugate(_exact(p), rho)) for p in s.projectors()]
        table.append([
            sum((a * b * _trace(_conjugate(_exact(q), r))
                 for a, r in zip((1, -1), after) for b, q in zip((1, -1), t.projectors())), Fraction(0))
            for t in second
        ])
    return {"correlators": table, "value": table[0][0] + table[0][1] + table[1][0] - table[1][1]}


def bell_values(command: str, spec=None, n: int | None = None, mode: str = "independent") -> dict:
    """Exact correlator tables and values of a ``qhist lgi``, ``chained`` or
    ``monogamy`` report, laid out as its JSON artifacts, from the inputs the
    command builds (its spec file, or its preset without one): a pair's
    ``correlators`` and ``value``, a chain's ``block_reports`` and ``total``,
    and a two-pair sum's ``first_pair``, ``second_pair`` and ``total``.
    ``n`` overrides a chain's block count, as ``-n`` does."""
    args = SimpleNamespace(command=command, spec=None if spec is None else str(spec))
    rho, parties, unitaries, blocks = cli._bell_inputs(args)
    d = rho.shape[0]
    rho = _exact(rho)
    us = [_exact(identity(d) if u is None else u) for u in unitaries]
    first = _pair(rho, parties[0], us[0], parties[1])
    if command == "lgi":
        return first
    if command == "chained":
        blocks = blocks if n is None else n
        return {"block_reports": [first] * blocks, "total": blocks * first["value"]}
    if mode == "chained":
        # rho' = U1 (1/|A|) sum of P rho P U1^dag over the first party's projectors
        mixed = [[ZERO] * d for _ in range(d)]
        for s in parties[0]:
            for p in s.projectors():
                kept = _conjugate(_matmul(us[0], _exact(p)), rho)
                mixed = [[_add(x, y) for x, y in zip(row, new)] for row, new in zip(mixed, kept)]
        m = len(parties[0])
        rho = [[(x[0] / m, x[1] / m) for x in row] for row in mixed]
    second = _pair(rho, parties[1], us[1], parties[2])
    return {"first_pair": first, "second_pair": second, "total": first["value"] + second["value"]}


def ulp_error(printed: float, exact: Fraction, zero_scale: float | None = None) -> float:
    """|printed - exact| in ulps of the exact value.  An exact zero has no
    ulp of its own: its error counts in ulps of ``zero_scale`` when one is
    given (1.0 for a correlator, whose range is [-1, 1]), and is otherwise 0
    for a zero printed as zero and inf for any other printed value."""
    err = abs(Fraction(printed) - exact)
    if exact == 0:
        if zero_scale is not None:
            return float(err / Fraction(math.ulp(zero_scale)))
        return 0.0 if err == 0 else math.inf
    return float(err / Fraction(math.ulp(float(exact))))
