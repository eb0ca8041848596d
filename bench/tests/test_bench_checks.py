"""Each checker accepts the program's real output and rejects a corrupted one."""

import itertools
import json

import numpy as np
import pytest

import checks
import workloads
from checks import CheckError
from workloads import CliRun


def _op(workload, kind, workdir, seed=7, pick=0):
    cases = [c for c in workloads.generate(workload, seed, str(workdir)) if c.kind == kind]
    return workloads.operations([cases[pick]])[0]


def _with_doc(out, index, edit):
    doc = json.loads(out[index].text)
    edit(doc)
    runs = list(out)
    runs[index] = CliRun(0, json.dumps(doc))
    return tuple(runs)


def test_lgi_value_off_by_1e_6_is_rejected(workdir):
    op = _op("bounds", "lgi", workdir)
    out = op.run()
    op.check(out)

    def edit(doc):
        doc["artifacts"]["value"] += 1e-6

    with pytest.raises(CheckError):
        op.check(_with_doc(out, 0, edit))


def test_chained_total_not_n_blocks_is_rejected(workdir):
    op = _op("bounds", "chained", workdir, pick=3)
    out = op.run()
    op.check(out)

    def edit(doc):
        doc["artifacts"]["total"] += 1e-6

    with pytest.raises(CheckError):
        op.check(_with_doc(out, 0, edit))


def test_optimize_value_off_by_1e_6_is_rejected():
    class Result:
        objective, converged, value = "s_lgi", True, checks.TSIRELSON
    checks.check_optimize(Result, checks.TSIRELSON)
    Result.value += 1e-6
    with pytest.raises(CheckError):
        checks.check_optimize(Result, checks.TSIRELSON)


def test_classical_bound_must_be_exactly_2n():
    checks.check_classical(12.0, 6)
    with pytest.raises(CheckError):
        checks.check_classical(12.0 + 1e-12, 6)


@pytest.mark.parametrize("kind, index", [("abl-post", 0), ("abl-pure", 0), ("abl-pure", 1),
                                         ("abl-mixed", 1)])
def test_probability_moved_between_outcomes_is_rejected(workdir, kind, index):
    op = _op("records", kind, workdir)
    out = op.run()
    op.check(out)
    text = out[index].text
    if text.startswith("outcome,"):
        lines = text.splitlines()
        (a, pa), (b, pb) = (row.split(",") for row in lines[1:3])
        lines[1:3] = [f"{a},0", f"{b},{float(pa) + float(pb)!r}"]
        bad = "\n".join(lines) + "\n"
    else:
        doc = json.loads(text)
        table = doc["artifacts"]["distribution"]["table"]
        a, b = sorted(table)[:2]
        table[b] += table[a]
        table[a] = 0.0
        bad = json.dumps(doc)
    runs = list(out)
    runs[index] = CliRun(0, bad)
    with pytest.raises(CheckError):
        op.check(tuple(runs))


def test_bundle_probability_moved_is_rejected(workdir):
    op = _op("records", "bundle", workdir)
    dist = op.run()
    op.check(dist)

    class Moved:
        table = dict(dist.table)

    a, b = sorted(Moved.table)[:2]
    Moved.table[b] += Moved.table[a]
    Moved.table[a] = 0.0
    with pytest.raises(CheckError):
        op.check(Moved)


def test_reduction_member_replaced_is_rejected(workdir):
    import qhist

    op = _op("histories", "reduce", workdir, pick=5)
    out = op.run()
    op.check(out)
    mixed = out[0]
    (p0, h0), rest = mixed.ensemble[0], mixed.ensemble[1:]
    wrong = qhist.normalize(qhist.HistoryState.from_slots(h0.grid, [np.eye(2)] * h0.grid.n_slots))
    bad = qhist.MixedHistory(((p0, wrong),) + rest)
    with pytest.raises(CheckError):
        op.check((bad, out[1]))


def test_unequal_complementary_spectra_are_rejected(workdir):
    import qhist

    op = _op("histories", "reduce", workdir, pick=2)
    a, b = op.run()
    checks.check_equal_spectra(a, b)
    probs = [p for p, _ in a.ensemble]
    shifted = [probs[0] + 1e-6, probs[1] - 1e-6] + probs[2:]
    bad = qhist.MixedHistory(tuple((p, h) for p, (_, h) in zip(shifted, a.ensemble)))
    with pytest.raises(CheckError):
        checks.check_equal_spectra(bad, b)


def test_ghz_purity_off_is_rejected(workdir):
    op = _op("histories", "temporal-ghz", workdir)
    out = op.run()
    op.check(out)

    def edit(doc):
        doc["artifacts"]["reduction_purity_t0"] += 1e-9

    with pytest.raises(CheckError):
        op.check(_with_doc(out, 0, edit))


def test_weight_off_is_rejected(workdir):
    op = _op("histories", "weight", workdir)
    out = op.run()
    op.check(out)

    def edit(doc):
        doc["artifacts"]["weight"] *= 1 + 1e-9

    with pytest.raises(CheckError):
        op.check(_with_doc(out, 0, edit))


def test_non_hermitian_consistency_matrix_is_rejected(workdir):
    op = _op("histories", "weight", workdir)
    out = op.run()

    def edit(doc):
        doc["artifacts"]["term_consistency"]["matrix"][0][1][1] += 1e-6

    with pytest.raises(CheckError):
        op.check(_with_doc(out, 0, edit))


def test_flipped_byte_in_repeated_cli_output_is_rejected(workdir):
    op = _op("histories", "scenario", workdir, pick=2)
    first = tuple(r.text for r in op.run())
    again = tuple(r.text for r in op.run())
    checks.check_repeated(first, again)
    text = again[0]
    k = len(text) // 2
    flipped = text[:k] + chr(ord(text[k]) ^ 1) + text[k + 1:]
    with pytest.raises(CheckError):
        checks.check_repeated(first, (flipped,))


def test_probability_references_match_literal_products():
    """The prefix-sharing references equal one explicit product per string."""
    rng = np.random.default_rng(5)
    n = 4
    obs = [checks.bloch_observable(*workloads._angles(rng)) for _ in range(n)]
    unis = [workloads._unitary(rng) for _ in range(n + 1)]
    pre, post = workloads._ket(rng), workloads._ket(rng)
    proj = [[(checks.EYE2 + o) / 2, (checks.EYE2 - o) / 2] for o in obs]
    pure, mixed = {}, {}
    for bits in itertools.product((0, 1), repeat=n):
        chain = unis[0]
        for k, b in enumerate(bits):
            chain = unis[k + 1] @ proj[k][b] @ chain
        key = "".join("+-"[b] for b in bits)
        pure[key] = abs(np.vdot(post, chain @ pre)) ** 2
        mixed[key] = float(np.trace(chain @ chain.conj().T).real) / 2
    for ref, want in ((checks.pure_probabilities(pre, post, obs, unis), pure),
                      (checks.mixed_probabilities(None, obs, unis), mixed)):
        total = sum(want.values())
        for key, w in want.items():
            assert abs(ref[key] - w / total) < 1e-14
