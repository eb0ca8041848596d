"""History-state layer: grids, chain operators, consistency, reductions."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from qhist import (
    BridgingSet,
    DegenerateHistoryError,
    ElementaryHistory,
    GridMismatchError,
    HistoryState,
    MixedHistory,
    NonFactorizableEvolutionError,
    ShapeError,
    TimeGrid,
    best_joint_bell_reduction_overlap,
    chain_operator_sum,
    hs_inner,
    hs_norm,
    is_consistent_family,
    mixed_history_density,
    mixed_overlap,
    normalize,
    purity,
    subsystem_trace_out,
    temporal_partial_trace,
    weight,
)
from qhist import histories
from qhist.histories import MERGE_TOL
from qhist.linalg import bell_pair_ket, identity, partial_trace, projector, qubit_ket

import histories_oracle
from histories_oracle import exhaustive_projector_family, history_vector, is_projector
from conftest import consistent_family_corpus, diagonal_branches, random_unitary


_AXIS_KETS = {"z+": "0", "z-": "1", "x+": "+", "x-": "-", "y+": "i+", "y-": "i-"}


def proj(name: str) -> np.ndarray:
    return projector(qubit_ket(_AXIS_KETS[name]))


def ghz_like(n_slots: int) -> HistoryState:
    _, up, down = diagonal_branches(n_slots)
    return normalize(up + down)


class TestTimeGrid:
    def test_regular(self):
        g = TimeGrid.regular(3)
        assert g.labels == (0.0, 1.0, 2.0)
        assert g.slot_dims == (2, 2, 2)
        assert g.n_slots == 3

    def test_single_slot_allowed(self):
        g = TimeGrid((0.0,), (2,))
        assert g.n_slots == 1

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid((), ())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeGrid((0.0, 1.0), (2,))

    def test_labels_must_increase(self):
        with pytest.raises(ValueError):
            TimeGrid((0.0, 0.0), (2, 2))
        with pytest.raises(ValueError):
            TimeGrid((1.0, 0.0), (2, 2))

    @pytest.mark.parametrize("labels", [(0.0, math.nan), (math.nan, 0.0), (math.nan,), (0.0, math.inf),
                                        (-math.inf, 0.0), (math.inf,)])
    def test_labels_must_be_finite(self, labels):
        # NaN compares false with every label, so it would pass the increasing check
        with pytest.raises(ValueError, match="time labels must be finite"):
            TimeGrid(labels, (2,) * len(labels))

    def test_dims_at_least_two(self):
        with pytest.raises(ValueError):
            TimeGrid((0.0, 1.0), (2, 1))

    def test_mixed_dims(self):
        g = TimeGrid((0.0, 0.5, 2.0), (2, 4, 3))
        assert g.slot_dims == (2, 4, 3)


class TestElementaryHistory:
    def test_slot_count_enforced(self):
        g = TimeGrid.regular(2)
        with pytest.raises(ShapeError):
            ElementaryHistory(g, (proj("z+"),))

    def test_slot_shape_enforced(self):
        g = TimeGrid.regular(2)
        with pytest.raises(ShapeError):
            ElementaryHistory(g, (proj("z+"), np.eye(3)))

    def test_slots_frozen(self):
        g = TimeGrid.regular(2)
        eh = ElementaryHistory(g, (proj("z+"), proj("x+")))
        with pytest.raises(ValueError):
            eh.slots[0][0, 0] = 5.0


class TestHistoryStateAlgebra:
    def test_equal_strings_merge(self):
        g = TimeGrid.regular(2)
        a = HistoryState.from_slots(g, (proj("z+"), proj("z+")), 0.25)
        b = HistoryState.from_slots(g, (proj("z+"), proj("z+")), 0.5)
        s = a + b
        assert s.n_terms == 1
        assert s.terms[0][0] == pytest.approx(0.75)

    def test_distinct_strings_stack(self):
        g = TimeGrid.regular(2)
        a = HistoryState.from_slots(g, (proj("z+"), proj("z+")))
        b = HistoryState.from_slots(g, (proj("z-"), proj("z-")))
        assert (a + b).n_terms == 2

    def test_grid_mismatch_raises(self):
        a = HistoryState.from_slots(TimeGrid.regular(2), (proj("z+"), proj("z+")))
        b = HistoryState.from_slots(
            TimeGrid((0.0, 2.0), (2, 2)), (proj("z+"), proj("z+"))
        )
        with pytest.raises(GridMismatchError):
            a + b

    def test_scalar_multiplication_both_sides(self):
        g = TimeGrid.regular(2)
        a = HistoryState.from_slots(g, (proj("z+"), proj("z+")))
        assert (2.0 * a).terms[0][0] == pytest.approx(2.0)
        assert (a * (1.0 + 1.0j)).terms[0][0] == pytest.approx(1.0 + 1.0j)

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            HistoryState(())

    def test_self_subtraction_is_degenerate(self):
        g = TimeGrid.regular(2)
        a = HistoryState.from_slots(g, (proj("z+"), proj("x+")))
        with pytest.raises(DegenerateHistoryError):
            normalize(a + (-1.0) * a)


class TestChainOperator:
    def test_literal_two_slot(self):
        # [x+] then [z+], identity bridge: K = P_{z+} P_{x+}
        g = TimeGrid.regular(2)
        eh = ElementaryHistory(g, (proj("x+"), proj("z+")))
        k = chain_operator_sum(eh, BridgingSet.trivial(g))
        assert np.allclose(k, [[0.5, 0.5], [0.0, 0.0]], atol=1e-12)
        assert weight(eh, BridgingSet.trivial(g)) == pytest.approx(0.5, abs=1e-12)

    def test_literal_three_slot(self):
        g = TimeGrid.regular(3)
        eh = ElementaryHistory(g, (proj("x+"), proj("y+"), proj("z+")))
        assert weight(eh, BridgingSet.trivial(g)) == pytest.approx(0.25, abs=1e-12)

    def test_latest_slot_leftmost(self):
        g = TimeGrid.regular(2)
        a, b = proj("x+"), proj("z+")
        k = chain_operator_sum(ElementaryHistory(g, (a, b)), BridgingSet.trivial(g))
        assert np.allclose(k, b @ a)
        assert not np.allclose(k, a @ b)

    def test_bridges_interleave(self, rng):
        g = TimeGrid.regular(3)
        u0 = random_unitary(rng, 2)
        u1 = random_unitary(rng, 2)
        b = BridgingSet(g, (u0, u1))
        p = [proj("z+"), proj("x-"), proj("y+")]
        k = chain_operator_sum(ElementaryHistory(g, tuple(p)), b)
        assert np.allclose(k, p[2] @ u1 @ p[1] @ u0 @ p[0], atol=1e-12)

    def test_non_unitary_bridge_rejected(self, rng):
        g = TimeGrid((0.0, 1.0, 2.0), (2, 3, 3))
        isometry = random_unitary(rng, 3)[:, :2]
        BridgingSet(g, (isometry, identity(3)))
        with pytest.raises(ValueError, match=r"^bridge 1 is not unitary$"):
            BridgingSet(g, (isometry, np.diag([1.0, 1.0, 0.5])))

    def test_identity_middle_slot_collapses(self, rng):
        # an unobserved intermediate slot is the same as composing the bridges
        u0 = random_unitary(rng, 2)
        u1 = random_unitary(rng, 2)
        g3 = TimeGrid.regular(3)
        g2 = TimeGrid.regular(2)
        p0, p2 = proj("y-"), proj("z+")
        k3 = chain_operator_sum(
            ElementaryHistory(g3, (p0, identity(2), p2)), BridgingSet(g3, (u0, u1))
        )
        k2 = chain_operator_sum(
            ElementaryHistory(g2, (p0, p2)), BridgingSet(g2, (u1 @ u0,))
        )
        assert np.allclose(k3, k2, atol=1e-12)

    def test_sum_is_linear(self):
        g = TimeGrid.regular(2)
        b = BridgingSet.trivial(g)
        h1 = HistoryState.from_slots(g, (proj("z+"), proj("z+")))
        h2 = HistoryState.from_slots(g, (proj("z-"), proj("x+")))
        combo = 0.3 * h1 + (0.5 - 0.2j) * h2
        k = chain_operator_sum(combo, b)
        expect = 0.3 * chain_operator_sum(h1, b) + (0.5 - 0.2j) * chain_operator_sum(
            h2, b
        )
        assert np.allclose(k, expect, atol=1e-12)

    def test_global_conjugation_invariance(self, rng):
        # rotating every slot and every bridge by the same unitary preserves
        # all weights and decoherence pairings
        g = TimeGrid.regular(3)
        v = random_unitary(rng, 2)
        slots1 = (proj("x+"), proj("z+"), proj("y-"))
        slots2 = (proj("z-"), proj("x-"), proj("y-"))
        u = (random_unitary(rng, 2), random_unitary(rng, 2))
        b = BridgingSet(g, u)
        b_rot = BridgingSet(g, tuple(v @ x @ v.conj().T for x in u))
        rot = lambda ops: tuple(v @ s @ v.conj().T for s in ops)
        h1, h1r = ElementaryHistory(g, slots1), ElementaryHistory(g, rot(slots1))
        h2, h2r = ElementaryHistory(g, slots2), ElementaryHistory(g, rot(slots2))
        assert weight(h1, b) == pytest.approx(weight(h1r, b_rot), abs=1e-12)
        assert is_consistent_family([h1, h2], b).matrix[0, 1] == pytest.approx(
            is_consistent_family([h1r, h2r], b_rot).matrix[0, 1], abs=1e-12
        )

    def test_grid_mismatch(self):
        g2, g3 = TimeGrid.regular(2), TimeGrid.regular(3)
        eh = ElementaryHistory(g2, (proj("z+"), proj("z+")))
        with pytest.raises(GridMismatchError):
            chain_operator_sum(eh, BridgingSet.trivial(g3))


class TestConsistency:
    def test_orthogonal_branches_consistent(self):
        g = TimeGrid.regular(2)
        fam = [
            ElementaryHistory(g, (proj("z+"), proj("z+"))),
            ElementaryHistory(g, (proj("z-"), proj("z-"))),
        ]
        rep = is_consistent_family(fam, BridgingSet.trivial(g))
        assert bool(rep)
        assert rep.max_offdiagonal < 1e-12
        assert np.allclose(np.diag(rep.matrix), [1.0, 1.0])

    def test_overlapping_branches_inconsistent(self):
        g = TimeGrid.regular(2)
        fam = [
            ElementaryHistory(g, (proj("x+"), proj("z+"))),
            ElementaryHistory(g, (proj("z+"), proj("z+"))),
        ]
        rep = is_consistent_family(fam, BridgingSet.trivial(g))
        assert not rep
        assert rep.max_offdiagonal == pytest.approx(0.5, abs=1e-12)

    def test_corpus_families_consistent(self):
        for fam, b in consistent_family_corpus():
            rep = is_consistent_family(fam, b)
            assert bool(rep), f"family of {len(fam)} failed: {rep.max_offdiagonal}"

    def test_empty_family_rejected(self):
        g = TimeGrid.regular(2)
        with pytest.raises(ValueError):
            is_consistent_family([], BridgingSet.trivial(g))

    def test_matrix_is_hermitian(self):
        g = TimeGrid.regular(2)
        fam = [
            ElementaryHistory(g, (proj("x+"), proj("z+"))),
            ElementaryHistory(g, (proj("z+"), proj("z+"))),
            ElementaryHistory(g, (proj("y-"), proj("z-"))),
        ]
        rep = is_consistent_family(fam, BridgingSet.trivial(g))
        assert np.allclose(rep.matrix, rep.matrix.conj().T)


class TestExhaustiveFamily:
    def test_chain_operators_resolve_identity(self, rng):
        g = TimeGrid.regular(3)
        b = BridgingSet(g, (random_unitary(rng, 2), random_unitary(rng, 2)))
        fam = exhaustive_projector_family(g)
        assert len(fam) == 8
        total = sum(chain_operator_sum(h, b) for h in fam)
        # completeness: summing all basis strings undoes every projection
        assert np.allclose(total, b.unitaries[1] @ b.unitaries[0], atol=1e-12)

    def test_weights_sum_to_dimension(self, rng):
        g = TimeGrid.regular(2)
        b = BridgingSet(g, (random_unitary(rng, 2),))
        fam = exhaustive_projector_family(g)
        assert sum(weight(h, b) for h in fam) == pytest.approx(2.0, abs=1e-12)


class TestHilbertSchmidtGeometry:
    def test_literal_inner(self):
        g = TimeGrid.regular(2)
        zz = HistoryState.from_slots(g, (proj("z+"), proj("z+")))
        xx = HistoryState.from_slots(g, (proj("x+"), proj("x+")))
        assert hs_inner(zz, xx) == pytest.approx(0.25, abs=1e-12)

    def test_antilinear_first_argument(self):
        g = TimeGrid.regular(2)
        zz = HistoryState.from_slots(g, (proj("z+"), proj("z+")))
        xx = HistoryState.from_slots(g, (proj("x+"), proj("x+")))
        c = 0.3 + 0.7j
        assert hs_inner(c * zz, xx) == pytest.approx(np.conj(c) * hs_inner(zz, xx))
        assert hs_inner(zz, c * xx) == pytest.approx(c * hs_inner(zz, xx))

    def test_conjugate_symmetry(self):
        g = TimeGrid.regular(2)
        a = HistoryState.from_slots(g, (proj("z+"), proj("x-")), 0.2 + 0.1j)
        b = HistoryState.from_slots(g, (proj("y+"), proj("z+")), 1.0 - 0.4j)
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_norm_of_projector_string(self):
        g = TimeGrid.regular(2)
        h = HistoryState.from_slots(g, (proj("z+"), proj("x+")))
        assert hs_norm(h) == pytest.approx(1.0, abs=1e-12)
        assert hs_norm(normalize(2.0j * h)) == pytest.approx(1.0, abs=1e-12)

    def test_history_vector_reproduces_inner(self):
        g = TimeGrid.regular(2)
        a = normalize(
            HistoryState.from_slots(g, (proj("z+"), proj("z+")))
            + 1j * HistoryState.from_slots(g, (proj("z-"), proj("x+")))
        )
        b = HistoryState.from_slots(g, (proj("x+"), proj("x+")))
        assert np.vdot(history_vector(a), history_vector(b)) == pytest.approx(
            hs_inner(a, b), abs=1e-12
        )

    @pytest.mark.parametrize("bad", [1e300, np.inf, np.nan])
    def test_non_finite_norm_rejected(self, bad):
        g = TimeGrid.regular(2)
        if not math.isfinite(bad):
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                HistoryState.from_slots(g, (proj("z+"), proj("x+")), bad)
            return
        h = HistoryState.from_slots(g, (proj("z+"), proj("x+")), bad)
        for f in (hs_norm, normalize):
            with pytest.raises(ValueError, match="history norm is not finite"):
                f(h)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, -np.inf), complex(1.0, np.nan)])
    def test_every_construction_checks_coefficients(self, bad):
        g = TimeGrid.regular(2)
        ops = (proj("z+"), proj("x+"))
        h = HistoryState.from_slots(g, ops)
        eh = ElementaryHistory(g, ops)
        builds = [
            lambda: HistoryState.from_slots(g, ops, bad),
            lambda: HistoryState(((1.0, eh), (bad, eh))),
            lambda: h * bad,
            lambda: bad * h,
            # unpickling goes through the same construction
            lambda: HistoryState._from_rows(g, [bad], h._rows, True),
        ]
        for build in builds:
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                build()


def _shifted(eh, k, i, j, delta) -> ElementaryHistory:
    """``eh`` with entry (i, j) of slot k moved by ``delta``."""
    ops = [op.copy() for op in eh.slots]
    ops[k][i, j] += delta
    return ElementaryHistory(eh.grid, tuple(ops))


def _merge_corpus(rng):
    """A random state's 1-40 terms and how many distinct strings they hold.

    Terms are fresh strings, strings 1e-13 off or equal to an earlier
    distinct one (merged into it), at most one string 1e-11 off each fresh
    one (kept apart), and straddles: a string 1.5e-12 off a fresh one (kept
    apart) followed by their midpoint, within 1e-12 of both, which must
    merge into the earlier.
    """
    dims = tuple(int(d) for d in rng.choice([2, 3], size=rng.integers(1, 5)))
    grid = TimeGrid(tuple(float(k) for k in range(len(dims))), dims)
    n_terms = rng.integers(1, 41)
    distinct, untwinned, strings = [], [], []

    def near(base, *sizes):
        k = rng.integers(len(dims))
        i, j = rng.integers(dims[k], size=2)
        unit = np.exp(2j * np.pi * rng.random())
        return [_shifted(base, k, i, j, size * unit) for size in sizes]

    while len(strings) < n_terms:
        kind = rng.choice(["fresh", "apart", "straddle", "merged", "equal"])
        if kind in ("merged", "equal") and distinct:
            strings += near(distinct[rng.integers(len(distinct))], 1e-13 if kind == "merged" else 0.0)
        elif kind == "apart" and untwinned:
            strings += near(untwinned.pop(rng.integers(len(untwinned))), 1e-11)
            distinct.append(strings[-1])
        elif kind == "straddle" and untwinned and len(strings) + 2 <= n_terms:
            strings += near(untwinned.pop(rng.integers(len(untwinned))), 1.5e-12, 0.75e-12)
            distinct.append(strings[-2])
        else:
            strings.append(ElementaryHistory(grid, tuple(_ops(rng, dims))))
            distinct.append(strings[-1])
            untwinned.append(strings[-1])
    return [(complex(rng.normal(), rng.normal()), eh) for eh in strings], len(distinct)


class TestGeometryAgainstPairwiseOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_merge_matches_first_match_oracle(self, seed):
        terms, n_distinct = _merge_corpus(np.random.default_rng(seed))
        h = HistoryState(tuple(terms))
        want = histories_oracle.merge_terms(terms)
        assert h.n_terms == len(want) == n_distinct
        for (c, eh), (c0, eh0) in zip(h.terms, want):
            assert [op.tobytes() for op in eh.slots] == [op.tobytes() for op in eh0.slots]
            assert abs(c - c0) <= 1e-15
        with pytest.raises(DegenerateHistoryError):
            normalize(h + (-1.0) * h)

    @pytest.mark.parametrize("seed", range(40))
    def test_hs_inner_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        terms, _ = _merge_corpus(rng)
        h = HistoryState(tuple(terms))
        dims = h.grid.slot_dims
        g = _term_history(rng, dims, [_ops(rng, dims) for _ in range(rng.integers(1, 41))])
        scale = math.sqrt(histories_oracle.pairwise_hs_inner(h, h).real
                          * histories_oracle.pairwise_hs_inner(g, g).real)
        for a, b in ((h, h), (h, g), (g, h)):
            assert abs(hs_inner(a, b) - histories_oracle.pairwise_hs_inner(a, b)) <= 1e-13 * scale


def _planted_rows(rng, n_rows: int, length: int) -> np.ndarray:
    """Random complex rows, some of them copies of an earlier row moved by
    0.5, 0.9, 1.1 or 2 MERGE_TOL in one entry, some with a NaN or an
    infinite entry."""
    rows = rng.normal(size=(n_rows, length)) + 1j * rng.normal(size=(n_rows, length))
    for t in range(1, n_rows):
        kind = rng.integers(4)
        if kind == 0:
            rows[t] = rows[rng.integers(t)]
            rows[t, rng.integers(length)] += rng.choice([0.0, 0.5, 0.9, 1.1, 2.0]) * MERGE_TOL
        elif kind == 1:
            rows[t, rng.integers(length)] = rng.choice([np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    return rows


def _merged_by_loop(rows: np.ndarray, coefs) -> tuple[np.ndarray, np.ndarray]:
    """The merged rows and coefficients of ``HistoryState._from_rows``, from
    the row-at-a-time loop and Python complex sums in term order."""
    firsts, group = histories_oracle.merge_rows(rows)
    sums = [complex(coefs[t]) for t in firsts]
    for t, g in enumerate(group.tolist()):
        if t != firsts[g]:
            sums[g] += complex(coefs[t])
    return rows[firsts], np.array(sums)


def _from_rows(rows: np.ndarray, coefs) -> HistoryState:
    # the merge reads no grid, so one grid serves rows of any length
    return HistoryState._from_rows(TimeGrid.regular(1), coefs, rows)


class TestMergeRows:
    """The term merge of ``HistoryState._from_rows`` (``_merge_kept`` on one
    slot, the whole row) against the row-at-a-time loop it replaces, bit for
    bit in rows and coefficient sums."""

    def _check(self, rows: np.ndarray, rng) -> HistoryState:
        # coefficients in [1, 2] + i [1, 2]: no sum cancels
        coefs = rng.uniform(1.0, 2.0, len(rows)) + 1j * rng.uniform(1.0, 2.0, len(rows))
        with np.errstate(invalid="ignore"):  # inf - inf
            h = _from_rows(rows, coefs.tolist())
            want_rows, want_coefs = _merged_by_loop(rows, coefs)
        assert h._rows.tobytes() == want_rows.tobytes()
        assert h._coefs.tobytes() == want_coefs.tobytes()
        return h

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("block", [None, 1, 37])
    def test_matches_the_loop(self, seed, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(histories, "_MERGE_BLOCK", block)
        rng = np.random.default_rng(seed)
        self._check(_planted_rows(rng, int(rng.integers(1, 40)), int(rng.integers(1, 10))), rng)

    def test_first_unmerged_row_wins(self):
        tol = MERGE_TOL
        # row 2 is within MERGE_TOL of rows 0 and 1, which are apart: it joins row 0
        h = _from_rows(np.array([[0.0], [1.5 * tol], [0.75 * tol]], dtype=complex), [1.0, 2.0, 4.0])
        assert h._rows.ravel().tolist() == [0.0, 1.5 * tol] and h._coefs.tolist() == [5.0, 2.0]
        # row 2 is within MERGE_TOL only of row 1, which is merged: it is a string of its own
        h = _from_rows(np.array([[0.0], [0.75 * tol], [1.6 * tol]], dtype=complex), [1.0, 2.0, 4.0])
        assert h._rows.ravel().tolist() == [0.0, 1.6 * tol] and h._coefs.tolist() == [3.0, 4.0]

    @pytest.mark.parametrize("seed", range(30))
    def test_row_blocks_of_one_match_the_loop(self, seed, monkeypatch):
        # every row is compared alone with the rows before it, in one slab of
        # entries and then in slabs of one or a few entries
        rng = np.random.default_rng(seed)
        rows = _planted_rows(rng, int(rng.integers(1, 40)), int(rng.integers(1, 10)))
        for block in (rows.size, 1, 37):
            monkeypatch.setattr(histories, "_MERGE_BLOCK", block)
            self._check(rows, np.random.default_rng(seed))

    def test_long_rows_are_compared_in_bounded_slabs(self, monkeypatch):
        # 48 rows of 4096 entries that differ only in their last entry: every
        # row is compared with all earlier rows in every slab of 1024 entries
        monkeypatch.setattr(histories, "_MERGE_BLOCK", 1 << 10)
        rows = np.repeat(np.exp(1j * np.arange(4096.0))[None], 48, axis=0)
        rows[:, -1] += np.arange(48) % 40
        coefs = np.arange(48.0, dtype=complex)
        tracemalloc.start()
        try:
            # HistoryState's merge, without the copy of the 40 merged rows
            firsts = histories._merge_kept(rows, [4096], np.ones((1, 1), dtype=bool), coefs[None, None])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert firsts == list(range(40))
        assert coefs[:40].tolist() == [2.0 * g + 40.0 if g < 8 else g for g in range(40)]
        # one slab and its modulus take 24 kB; the whole (47, 4096) difference
        # and its modulus of the last row would take 4.6 MB
        assert peak < 256 << 10

    def test_first_matches_are_settled_in_bounded_blocks(self, monkeypatch):
        # 512 equal rows: 130816 close pairs, of which each block lists only
        # its own and those with the one unmerged row before it
        monkeypatch.setattr(histories, "_MERGE_BLOCK", 1 << 10)
        rows = np.ones((512, 4), dtype=complex)
        tracemalloc.start()
        try:
            h = _from_rows(rows, [1.0] * 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h._coefs.tolist() == [512.0]
        # the closeness and its per-set copy take 256 kB each; every pair's
        # indices alone would take 2 MB
        assert peak < 1 << 20

    @pytest.mark.parametrize("length", [255, 256, 300])
    def test_long_rows_match_the_loop(self, length):
        rng = np.random.default_rng(length)
        rows = _planted_rows(rng, 24, length)
        rows[5, 7] = np.nan  # a NaN entry in a row that others copy
        rows[9] = rows[5]
        h = self._check(rows, rng)
        assert sum(row.tobytes() == rows[5].tobytes() for row in h._rows) == 2

    def test_single_and_non_finite_rows(self):
        assert _from_rows(np.ones((1, 4), dtype=complex), [1.0]).n_terms == 1
        assert _from_rows(np.full((3, 2), np.nan, dtype=complex), [1.0] * 3).n_terms == 3
        with np.errstate(invalid="ignore"):
            assert _from_rows(np.full((2, 2), np.inf, dtype=complex), [1.0] * 2).n_terms == 2

    @pytest.mark.parametrize("n_rows", [1, 2, 40])
    def test_rows_with_no_merge_are_held(self, n_rows):
        rng = np.random.default_rng(n_rows)
        rows = rng.normal(size=(n_rows, 8)) + 1j * rng.normal(size=(n_rows, 8))
        assert np.shares_memory(_from_rows(rows, [1.0] * n_rows)._rows, rows)


class TestOutcomeStrings:
    """The chain kernel's outcome strings: sorted, and one shared tuple per
    length up to _SHARED_OUTCOME_STRINGS strings."""

    @staticmethod
    def _kernel_strings(n: int) -> tuple:
        pair = np.stack([projector(qubit_ket("+")), projector(qubit_ket("-"))])[None]
        return histories._chains(identity(2), (None,) * n, (pair,) * n)[0]

    @pytest.mark.parametrize("n", range(0, 11))
    def test_sorted_and_shared(self, n):
        strings = self._kernel_strings(n)
        assert list(strings) == sorted(strings) == ["".join(s) for s in itertools.product("+-", repeat=n)]
        assert self._kernel_strings(n) is strings

    def test_bound(self, monkeypatch):
        # the default bound keeps no table of MAX_MEASURED_SLOTS slots
        assert histories._SHARED_OUTCOME_STRINGS < 1 << histories.MAX_MEASURED_SLOTS
        monkeypatch.setattr(histories, "_SHARED_OUTCOME_STRINGS", 4)
        assert self._kernel_strings(2) is self._kernel_strings(2)
        longer = self._kernel_strings(3)
        assert longer is not self._kernel_strings(3)
        assert longer == self._kernel_strings(3) and len(longer) == 8
        monkeypatch.setattr(histories, "_SHARED_OUTCOME_STRINGS", 1)
        assert self._kernel_strings(0) is self._kernel_strings(0) and self._kernel_strings(0) == ("",)
        assert self._kernel_strings(1) is not self._kernel_strings(1)


class TestTemporalPartialTrace:
    def test_product_history_reduces_pure(self):
        g = TimeGrid.regular(3)
        h = HistoryState.from_slots(g, (proj("z+"), proj("x+"), proj("y-")))
        m = temporal_partial_trace(h, [1])
        assert purity(m) == pytest.approx(1.0, abs=1e-9)
        target = HistoryState.from_slots(m.grid, (proj("x+"),))
        assert mixed_overlap(m, target) == pytest.approx(1.0, abs=1e-9)

    def test_branching_history_reduces_mixed(self):
        h = ghz_like(3)
        m = temporal_partial_trace(h, [0, 2])
        assert len(m.ensemble) == 2
        probs = sorted(p for p, _ in m.ensemble)
        assert probs == pytest.approx([0.5, 0.5], abs=1e-9)
        assert purity(m) == pytest.approx(0.5, abs=1e-9)
        zz = HistoryState.from_slots(m.grid, (proj("z+"), proj("z+")))
        oo = HistoryState.from_slots(m.grid, (proj("z-"), proj("z-")))
        assert mixed_overlap(m, zz) == pytest.approx(0.5, abs=1e-9)
        assert mixed_overlap(m, oo) == pytest.approx(0.5, abs=1e-9)
        # the coherent superposition is NOT recovered: a uniform mixture of
        # the two branches has the same overlap with it as with either branch
        plus = normalize(zz + oo)
        assert mixed_overlap(m, plus) == pytest.approx(0.5, abs=1e-9)

    def test_density_matches_contraction_oracle(self):
        # contract the middle slot by hand on the raw outer product and
        # compare against the ensemble returned by the library
        h = ghz_like(3)
        m = temporal_partial_trace(h, [0, 2])
        lhs = mixed_history_density(m)
        v = history_vector(normalize(h))
        rho6 = np.outer(v, v.conj()).reshape(4, 4, 4, 4, 4, 4)
        rhs = np.einsum("aibcid->abcd", rho6).reshape(16, 16)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_keep_all_or_none_rejected(self):
        h = ghz_like(3)
        with pytest.raises(ValueError):
            temporal_partial_trace(h, [])
        with pytest.raises(ValueError):
            temporal_partial_trace(h, [0, 1, 2])
        with pytest.raises(ValueError):
            temporal_partial_trace(h, [5])

    def test_single_slot_reduction(self):
        h = ghz_like(2)
        m = temporal_partial_trace(h, [0])
        assert m.grid.n_slots == 1
        assert purity(m) == pytest.approx(0.5, abs=1e-9)


def _random_history(rng) -> HistoryState:
    """1-7 terms of non-Hermitian slot operators on a 2-4 slot grid of
    mixed dimensions 2 and 3, with at most 1296 history-space dimensions."""
    while True:
        dims = tuple(int(d) for d in rng.choice([2, 3], size=rng.integers(2, 5)))
        if math.prod(d * d for d in dims) <= 1296:
            break
    grid = TimeGrid(tuple(float(k) for k in range(len(dims))), dims)
    terms = []
    for _ in range(rng.integers(1, 8)):
        ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims]
        coef = complex(rng.normal(), rng.normal())
        terms.append((coef, ElementaryHistory(grid, tuple(ops))))
    return HistoryState(tuple(terms))


class TestFactoredReductionAgainstDenseOracle:
    def test_random_histories_match_dense_route(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            h = _random_history(rng)
            n, dims = h.grid.n_slots, h.grid.slot_dims
            # the dense oracle's outer product of the kept space stays small
            while True:
                keep = [int(k) for k in rng.permutation(n)[: rng.integers(1, n)]]
                if math.prod(dims[k] ** 2 for k in keep) <= 81:
                    break
            got = mixed_history_density(temporal_partial_trace(h, keep))
            want = histories_oracle.temporal_reduction_density(h, keep)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e300, complex(0.0, np.inf)])
    def test_non_finite_coefficient_rejected(self, bad):
        g = TimeGrid.regular(3)
        if not np.isfinite(bad):
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                HistoryState.from_slots(g, [proj("z+")] * 3, bad)
            return
        h = HistoryState.from_slots(g, [proj("z+")] * 3, bad) + HistoryState.from_slots(
            g, [proj("z-")] * 3
        )
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                temporal_partial_trace(h, [0, 2])

    def test_no_history_space_vector(self, monkeypatch):
        import qhist.histories as histories
        import qhist.linalg as linalg

        def dense(*args, **kwargs):
            raise AssertionError("dense history-space route used")

        # histories does not import partial_trace; patch it there too in case it ever does
        monkeypatch.setattr(histories, "partial_trace", dense, raising=False)
        monkeypatch.setattr(linalg, "partial_trace", dense)
        # 16 slots: the dense outer product would hold 16**16 entries
        m = temporal_partial_trace(ghz_like(16), [3, 11])
        assert m.grid.n_slots == 2
        assert purity(m) == pytest.approx(0.5, abs=1e-12)


def _term_history(rng, dims, slot_lists) -> HistoryState:
    """Random complex coefficients on the given slot strings."""
    grid = TimeGrid(tuple(float(k) for k in range(len(dims))), tuple(dims))
    return HistoryState(tuple(
        (complex(rng.normal(), rng.normal()), ElementaryHistory(grid, tuple(ops))) for ops in slot_lists
    ))


def _ops(rng, dims) -> list[np.ndarray]:
    return [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims]


def _two_route_cases():
    """(name, history, keep): narrow (T <= D_keep terms) and wide (T > D_keep)."""
    rng = np.random.default_rng(8)
    q4, mixed = (2, 2, 2, 2), (3, 2, 2)
    shared = _ops(rng, (2,))[0]
    a, b = _ops(rng, (2, 2))
    same_traced = _ops(rng, (2, 2))
    return [
        ("narrow", _term_history(rng, q4, [_ops(rng, q4) for _ in range(3)]), [0, 2]),
        ("wide", _term_history(rng, q4, [_ops(rng, q4) for _ in range(24)]), [1]),
        # every term has the same kept operator, so K has rank one
        ("shared kept strings, narrow", _term_history(
            rng, q4, [[o[0], shared, o[2], o[3]] for o in (_ops(rng, q4) for _ in range(3))]), [1]),
        ("shared kept strings, wide", _term_history(
            rng, q4, [[o[0], shared, o[2], o[3]] for o in (_ops(rng, q4) for _ in range(6))]), [1]),
        # kept strings a, b, a + b, 2a - 3b span only two dimensions
        ("dependent kept strings", _term_history(
            rng, q4, [[k] + _ops(rng, (2, 2, 2)) for k in (a, b, a + b, 2 * a - 3 * b)]), [0]),
        # the traced slots agree in every term, so A = c c^dag |G|^2 has rank one
        ("rank-deficient A", _term_history(
            rng, q4, [_ops(rng, (2, 2)) + same_traced for _ in range(5)]), [0, 1]),
        ("qutrit, narrow", _term_history(rng, mixed, [_ops(rng, mixed) for _ in range(4)]), [0]),
        ("qutrit, wide", _term_history(rng, mixed, [_ops(rng, mixed) for _ in range(12)]), [0]),
        ("256 terms, wide", _term_history(rng, q4, [_ops(rng, q4) for _ in range(256)]), [0, 2]),
    ]


TWO_ROUTE_CASES = _two_route_cases()


def _kept_dim(h, keep) -> int:
    return math.prod(h.grid.slot_dims[k] ** 2 for k in keep)


class TestTwoRouteReduction:
    @pytest.mark.parametrize("name, h, keep", TWO_ROUTE_CASES, ids=[c[0] for c in TWO_ROUTE_CASES])
    def test_matches_dense_oracle_and_complement(self, name, h, keep):
        comp = [k for k in range(h.grid.n_slots) if k not in keep]
        for slots in (keep, comp):
            got = mixed_history_density(temporal_partial_trace(h, slots))
            want = histories_oracle.temporal_reduction_density(h, slots)
            assert np.max(np.abs(got - want)) <= 1e-12
        spectra = [sorted(p for p, _ in temporal_partial_trace(h, s).ensemble) for s in (keep, comp)]
        assert len(spectra[0]) == len(spectra[1])
        assert np.max(np.abs(np.subtract(*spectra))) <= 1e-12

    @pytest.mark.parametrize("name, h, keep", TWO_ROUTE_CASES, ids=[c[0] for c in TWO_ROUTE_CASES])
    def test_members_are_written_over_the_kept_strings(self, name, h, keep):
        n_terms = normalize(h).n_terms
        wide = n_terms > _kept_dim(h, keep)
        assert wide == ("wide" in name)
        m = temporal_partial_trace(h, keep)
        strings = {tuple(eh.slots[k].tobytes() for k in keep) for _, eh in h.terms}
        for _, member in m.ensemble:
            assert member.n_terms <= n_terms
            assert all(tuple(op.tobytes() for op in eh.slots) in strings for _, eh in member.terms)

    def test_dependent_strings_give_at_most_their_rank(self):
        _, h, keep = next(c for c in TWO_ROUTE_CASES if c[0] == "dependent kept strings")
        assert len(temporal_partial_trace(h, keep).ensemble) == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_narrow_members_stay_normalized_at_tiny_kept_eigenvalues(self, seed):
        # three nonorthogonal kept strings; the traced strings differ by
        # 1e-5, so A is non-diagonal and the second eigenvalue is 1e-12 to 1e-9
        rng = np.random.default_rng(seed)
        grid = TimeGrid.regular(3)
        kept, base, dev = _ops(rng, (2, 2, 2)), _ops(rng, (2, 2)), _ops(rng, (2, 2))
        traced = [base, [b + 1e-5 * d for b, d in zip(base, dev)], [b - 1e-5j * d for b, d in zip(base, dev)]]
        coefs = rng.normal(size=3) + 1j * rng.normal(size=3)
        h = HistoryState(tuple(
            (complex(coefs[t]), ElementaryHistory(grid, (kept[t],) + tuple(traced[t]))) for t in range(3)))
        m = temporal_partial_trace(h, [0])
        assert len(m.ensemble) == 2 and 1e-13 < m.ensemble[1][0] < 1e-9
        assert all(abs(hs_norm(member) - 1.0) <= 1e-12 for _, member in m.ensemble)
        want = histories_oracle.temporal_reduction_density(h, [0])
        assert np.max(np.abs(mixed_history_density(m) - want)) <= 1e-12

    def test_narrow_reduction_writes_few_terms(self):
        # 3 terms on 6 slots kept to 5: D_keep = 1024, yet each member has at most 3 terms
        rng = np.random.default_rng(2)
        h = _term_history(rng, (2,) * 6, [_ops(rng, (2,) * 6) for _ in range(3)])
        m = temporal_partial_trace(h, [0, 1, 2, 3, 4])
        assert len(m.ensemble) == 3
        assert all(member.n_terms <= 3 for _, member in m.ensemble)


def _rotating_eigh(rng):
    """np.linalg.eigh with every degenerate eigenspace's basis turned by a
    random unitary, as another LAPACK build could legitimately return it;
    each matrix of a stack is turned on its own."""
    real_eigh = np.linalg.eigh

    def eigh(a):
        vals, vecs = real_eigh(a)
        vecs = vecs.copy()
        for vs, ws in zip(vals.reshape(-1, vals.shape[-1]), vecs.reshape((-1,) + vecs.shape[-2:])):
            start = 0
            while start < len(vs):
                stop = start + 1
                while stop < len(vs) and vs[stop] - vs[start] <= 1e-9:
                    stop += 1
                if stop - start > 1:
                    ws[:, start:stop] = ws[:, start:stop] @ random_unitary(rng, stop - start)
                start = stop
        return vals, vecs

    return eigh


def _degenerate_cases():
    """(name, history, keep, expected member vectors in order) with a two-fold
    reduced spectrum."""
    z0, z1 = proj("z+"), proj("z-")
    xp, xm = proj("x+"), proj("x-")
    g2 = TimeGrid.regular(2)
    # kept strings a = |0><0| and b = (|0><0| + |1><1|)/sqrt2 overlap; with
    # traced strings of overlap -1/sqrt2 the reduction is (a a^dag + e e^dag)/2
    # for e = |1><1|, so the members are a and b orthogonalized against a
    skew = HistoryState.from_slots(g2, (z0, z0)) + HistoryState.from_slots(
        g2, ((z0 + z1) / math.sqrt(2), (z1 - z0) / math.sqrt(2)))
    # six terms on one kept qubit slot (T = 6 > D_keep = 4): x+ three times,
    # then x- three times, each with its own orthonormal traced string
    g3 = TimeGrid.regular(3)
    units = [np.eye(2, dtype=complex)[:, [i]] @ np.eye(2, dtype=complex)[[j]] for i in (0, 1) for j in (0, 1)]
    traced = [(units[0], units[0]), (units[1], units[0]), (units[2], units[0]),
              (units[3], units[0]), (units[0], units[1]), (units[0], units[2])]
    wide = HistoryState(tuple(
        (1.0, ElementaryHistory(g3, (xp if t < 3 else xm,) + traced[t])) for t in range(6)))
    return [
        ("equal-amplitude branches, down first", ghz_like(3), [0, 2], None),
        ("down first", normalize(diagonal_branches(3)[2] + diagonal_branches(3)[1]), [0, 2],
         [(z1, z1), (z0, z0)]),
        ("overlapping kept strings", skew, [0], [(z0,), (z1,)]),
        ("wide", wide, [0], [(xp,), (xm,)]),
    ]


DEGENERATE_CASES = _degenerate_cases()


class TestCanonicalDegenerateMembers:
    @pytest.mark.parametrize("name, h, keep, expected", DEGENERATE_CASES,
                             ids=[c[0] for c in DEGENERATE_CASES])
    def test_members_do_not_depend_on_the_eigenbasis(self, name, h, keep, expected, monkeypatch):
        ref = temporal_partial_trace(h, keep)
        assert [p for p, _ in ref.ensemble] == pytest.approx([0.5, 0.5], abs=1e-12)
        for seed in range(5):
            monkeypatch.setattr(np.linalg, "eigh", _rotating_eigh(np.random.default_rng(seed)))
            got = temporal_partial_trace(h, keep)
            monkeypatch.undo()
            assert len(got.ensemble) == len(ref.ensemble)
            for (p, m), (p0, m0) in zip(got.ensemble, ref.ensemble):
                assert abs(p - p0) <= 1e-12
                assert np.max(np.abs(history_vector(m) - history_vector(m0))) <= 1e-12

    @pytest.mark.parametrize("name, h, keep, expected", DEGENERATE_CASES[1:],
                             ids=[c[0] for c in DEGENERATE_CASES[1:]])
    def test_members_are_the_orthonormalized_term_strings(self, name, h, keep, expected):
        m = temporal_partial_trace(h, keep)
        for (_, member), ops in zip(m.ensemble, expected):
            target = HistoryState.from_slots(member.grid, ops)
            assert np.max(np.abs(history_vector(member) - history_vector(target))) <= 1e-12
            # the overlap with the generating string is real and positive
            assert hs_inner(target, member).real > 0.5
            assert abs(hs_inner(target, member).imag) <= 1e-15

    def test_equal_amplitude_ghz_reduces_to_its_branches_in_term_order(self):
        m = temporal_partial_trace(ghz_like(3), [0, 2])
        (p0, up), (p1, down) = m.ensemble
        assert p0 == p1 == pytest.approx(0.5, abs=1e-15)
        assert up.n_terms == down.n_terms == 1
        assert up.terms[0][0] == pytest.approx(1.0, abs=1e-15)
        assert all(np.array_equal(op, proj("z+")) for op in up.terms[0][1].slots)
        assert all(np.array_equal(op, proj("z-")) for op in down.terms[0][1].slots)


class TestReductionArguments:
    @pytest.mark.parametrize("bad", [1.7, "0", True, np.True_, None, [0]])
    def test_non_integer_slot_rejected(self, bad):
        with pytest.raises(ValueError, match=f"keep_slots entry {re.escape(repr(bad))} is not an integer"):
            temporal_partial_trace(ghz_like(3), [0, bad])

    def test_integer_like_slots_accepted(self):
        h = ghz_like(3)
        ref = temporal_partial_trace(h, [0, 2])
        for keep in ([np.int64(0), np.uint8(2)], (2, 0, 2), range(0, 3, 2)):
            got = temporal_partial_trace(h, keep)
            assert got.grid == ref.grid
            assert got._coefs.tobytes() == ref._coefs.tobytes()

    @staticmethod
    def _unequal():
        # 0.6 |00> + 0.8 |11> kept to one slot: eigenvalues 0.36 and 0.64
        _, up, down = diagonal_branches(2)
        return 0.6 * up + 0.8 * down

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf, -math.inf])
    def test_non_positive_or_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            temporal_partial_trace(self._unequal(), [0], tol=tol)

    @pytest.mark.parametrize("tol", [0.65, 0.7, 1.0, 1e300])
    def test_tol_at_or_above_the_spectrum_named(self, tol):
        with pytest.raises(ValueError, match=rf"tol {re.escape(repr(tol))} is at or above the largest eigenvalue 0\.64"):
            temporal_partial_trace(self._unequal(), [0], tol=tol)

    def test_tol_between_eigenvalues_keeps_the_top_member(self):
        m = temporal_partial_trace(self._unequal(), [0], tol=0.5)
        assert [p for p, _ in m.ensemble] == [1.0]
        assert mixed_overlap(m, HistoryState.from_slots(m.grid, [proj("z-")])) == pytest.approx(1.0, abs=1e-15)


def _stacked_cases():
    """(name, state) with T = 1-8 terms on n = 2-5 slots of dimension 2 or 3:
    generic terms, equal-amplitude projector strings (degenerate spectra,
    repeated kept strings) and terms drawing their slots from a small pool
    (repeated kept strings, the merge path)."""
    rng = np.random.default_rng(21)
    cases = []
    for i in range(36):
        n, t = int(rng.integers(2, 6)), int(rng.integers(1, 9))
        dims = (int(rng.integers(2, 4)),) * n if i % 2 else tuple(int(d) for d in rng.choice([2, 3], size=n))
        grid = TimeGrid(tuple(float(k) for k in range(n)), dims)
        kind = ("generic", "equal-amplitude", "pooled")[i % 3]
        if kind == "generic":
            h = _term_history(rng, dims, [_ops(rng, dims) for _ in range(t)])
        elif kind == "equal-amplitude":
            units = [[np.diag(np.eye(d)[int(rng.integers(d))]).astype(complex) for d in dims] for _ in range(t)]
            h = HistoryState(tuple((1.0, ElementaryHistory(grid, tuple(ops))) for ops in units))
        else:
            pool = [_ops(rng, dims) for _ in range(2)]
            h = _term_history(rng, dims, [[pool[int(rng.integers(2))][k] if rng.random() < 0.7 else op
                                           for k, op in enumerate(_ops(rng, dims))] for _ in range(t)])
        cases.append((f"{i}: {kind}, {t} terms on dims {dims}", h))
    return cases


STACKED_CASES = _stacked_cases()


def _assert_same_reduction(a: MixedHistory, b: MixedHistory) -> None:
    assert a.grid == b.grid
    assert [p for p, _ in a.ensemble] == [p for p, _ in b.ensemble]
    for (_, m), (_, m0) in zip(a.ensemble, b.ensemble, strict=True):
        assert np.array_equal(m._coefs, m0._coefs) and np.array_equal(m._rows, m0._rows)
    for x, y in ((a._gram, b._gram), (a._coefs, b._coefs), (a._pairings, b._pairings), *zip(a._strings, b._strings)):
        assert x.shape == y.shape and np.array_equal(x, y)


class TestStackedReductions:
    """Reductions of one state to many slot sets in one pass, each bit for
    bit the reduction to its set alone."""

    @pytest.mark.parametrize("name, h", STACKED_CASES, ids=[c[0] for c in STACKED_CASES])
    def test_every_keep_set_equals_its_lone_reduction(self, name, h):
        from qhist.histories import _reductions

        n = h.grid.n_slots
        sets = [list(c) for r in range(1, n) for c in itertools.combinations(range(n), r)]
        for keep, got in zip(sets, _reductions(h, sets), strict=True):
            _assert_same_reduction(got, _reductions(h, [keep])[0])

    def test_temporal_ghz_24_reductions_equal_their_lone_reductions(self):
        from qhist.scenarios import MAX_GHZ_SLOTS, temporal_ghz

        n = MAX_GHZ_SLOTS
        a = temporal_ghz(n, 0.6, 0.8).artifacts
        _, up, down = diagonal_branches(n)
        h = 0.6 * up + 0.8 * down
        sets = [[i] for i in range(n)] + [[i, j] for i in range(n) for j in range(i + 1, n)]
        assert len(sets) == 300
        for keep in sets:
            _assert_same_reduction(a["reduction_" + "_".join(f"t{k}" for k in keep)],
                                   temporal_partial_trace(h, keep))

    def test_one_bad_set_fails_the_pass_before_any_arithmetic(self, monkeypatch):
        from qhist.histories import _reductions

        monkeypatch.setattr(np.linalg, "eigh", lambda a: pytest.fail("eigh reached"))
        with pytest.raises(ValueError, match="keep_slots entry 0.5"):
            _reductions(ghz_like(3), [[0], [1, 2], [0.5]])
        with pytest.raises(ValueError, match="out of range"):
            _reductions(ghz_like(3), [[0], [3]])


def _assert_matches_retired_tail(got: MixedHistory, want: MixedHistory) -> None:
    """``got`` against the set-by-set tail's reduction ``want``: the same
    strings, Gram and member strings, and probabilities within 1e-13.
    Member coefficients agree within 1e-13 times the larger of 1 and their
    largest over the member's phase anchor (its first normalized overlap
    above SPAN_TOL with a kept string), whose rounding the phase amplifies;
    pairing (m, n) within 1e-13 times the larger of 1 and the product of
    members m's and n's largest coefficients, as for any quadratic form."""
    assert got.grid == want.grid and len(got.ensemble) == len(want.ensemble)
    assert np.array_equal(got._gram, want._gram)
    for x, y in zip(got._strings, want._strings, strict=True):
        assert np.array_equal(x, y)
    assert got._pairings.shape == want._pairings.shape
    sizes = np.array([np.max(np.abs(m._coefs)) for _, m in got.ensemble])
    assert (np.abs(got._pairings - want._pairings) <= 1e-13 * np.maximum(1.0, np.outer(sizes, sizes))).all()
    norms = np.sqrt(got._gram.diagonal().real)
    overlaps = np.abs(got._coefs.conj().T @ got._gram) / np.where(norms > 0.0, norms, 1.0)
    for (p, m), (p0, m0), row in zip(got.ensemble, want.ensemble, overlaps):
        assert abs(p - p0) <= 1e-13
        assert np.array_equal(m._rows, m0._rows)
        anchor = row[row > histories.SPAN_TOL][0]
        scale = max(1.0, np.max(np.abs(m._coefs)) / anchor)
        assert np.max(np.abs(m._coefs - m0._coefs)) <= 1e-13 * scale


def _assert_same_bits(a: MixedHistory, b: MixedHistory) -> None:
    _assert_same_reduction(a, b)
    for (_, m), (_, m0) in zip(a.ensemble, b.ensemble):
        assert m._coefs.tobytes() == m0._coefs.tobytes()


def _all_keep_sets(n: int) -> list:
    return [list(c) for r in range(1, n) for c in itertools.combinations(range(n), r)]


class TestStackedTailAgainstRetiredTail:
    """The stacked tail of ``_reductions`` against the set-by-set tail it
    replaces (``histories_oracle.reductions``), which runs the same front."""

    @pytest.mark.parametrize("name, h", STACKED_CASES, ids=[c[0] for c in STACKED_CASES])
    def test_every_keep_set_matches(self, name, h):
        from qhist.histories import _reductions

        sets = _all_keep_sets(h.grid.n_slots)
        for got, want in zip(_reductions(h, sets), histories_oracle.reductions(h, sets), strict=True):
            _assert_matches_retired_tail(got, want)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("alpha, beta", [(0.6, 0.8), (2 ** -0.5, 2 ** -0.5), (0.28, -0.96j)])
    def test_temporal_ghz_family_bit_for_bit(self, n, alpha, beta):
        from qhist.histories import _reductions

        _, up, down = diagonal_branches(n)
        h = alpha * up + beta * down
        sets = [[i] for i in range(n)] + ([[i, j] for i in range(n) for j in range(i + 1, n)] if n > 2 else [])
        for got, want in zip(_reductions(h, sets), histories_oracle.reductions(h, sets), strict=True):
            _assert_same_bits(got, want)


def _mixed_kinds_state() -> HistoryState:
    """a (|0 00> + |0 11>) + b (|1 01> + |1 10>) on three qubit slots, as
    z projector strings: kept to [0] its strings merge (spectrum 2a^2,
    2b^2), to [1, 2] they are distinct (the same spectrum), to [1] they
    merge and the spectrum is (1/2, 1/2), and to [0, 1] they are distinct
    with that degenerate spectrum."""
    z = [proj("z+"), proj("z-")]
    a, b = 0.6 / math.sqrt(2.0), 0.8 / math.sqrt(2.0)
    grid = TimeGrid.regular(3)
    bits = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    return HistoryState(tuple((c, ElementaryHistory(grid, tuple(z[i] for i in s)))
                              for c, s in zip((a, a, b, b), bits)))


class TestMixedPasses:
    """One ``_reductions`` call whose sets take different routes of the tail."""

    SETS = [[0], [1, 2], [1], [0, 1]]

    def test_each_set_is_its_lone_reduction_and_the_retired_tail(self):
        from qhist.histories import _reductions

        h = _mixed_kinds_state()
        got = _reductions(h, self.SETS)
        for keep, m in zip(self.SETS, got, strict=True):
            _assert_same_bits(m, _reductions(h, [keep])[0])
        for m, m0 in zip(got, histories_oracle.reductions(h, self.SETS), strict=True):
            _assert_matches_retired_tail(m, m0)

    def test_each_set_takes_its_route(self):
        from qhist.histories import _reductions

        merged, distinct, degenerate_merged, degenerate = _reductions(_mixed_kinds_state(), self.SETS)
        # merging sets hold two strings of the four terms' kept strings
        assert [len(m._gram) for m in (merged, distinct, degenerate_merged, degenerate)] == [2, 4, 2, 4]
        for m in (merged, distinct):
            assert [p for p, _ in m.ensemble] == pytest.approx([0.64, 0.36], abs=1e-14)
        for m in (degenerate_merged, degenerate):
            assert [p for p, _ in m.ensemble] == pytest.approx([0.5, 0.5], abs=1e-14)
        # merged: the z- and z+ strings, one term each with coefficient 1
        for (_, member), ops in zip(merged.ensemble, ([proj("z-")], [proj("z+")])):
            target = HistoryState.from_slots(member.grid, ops)
            assert np.max(np.abs(history_vector(member) - history_vector(target))) <= 1e-15
        # a degenerate cluster's members are the term strings, in term order
        for (_, member), ops in zip(degenerate_merged.ensemble, ([proj("z+")], [proj("z-")])):
            target = HistoryState.from_slots(member.grid, ops)
            assert np.max(np.abs(history_vector(member) - history_vector(target))) <= 1e-15
        assert all(abs(hs_norm(m) - 1.0) <= 1e-15 for r in (merged, degenerate) for _, m in r.ensemble)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sets_of_a_pooled_state(self, seed):
        from qhist.histories import _reductions

        rng = np.random.default_rng(seed)
        dims = (2, 3, 2, 2)
        h = _shared_kept_strings(rng, dims, [0, 2], 9, 3)
        sets = [list(s) for s in rng.permutation(np.array(_all_keep_sets(4), dtype=object))[:6]]
        for keep, got, want in zip(sets, _reductions(h, sets), histories_oracle.reductions(h, sets),
                                   strict=True):
            _assert_same_bits(got, _reductions(h, [keep])[0])
            _assert_matches_retired_tail(got, want)

    def test_tol_error_names_the_first_failing_set(self):
        from qhist.histories import _reductions

        # 0.6 |0 0 +> + 0.8 |1 1 +>: kept to [2] or [0, 1] the reduction is pure,
        # kept to [1] or [0] its largest eigenvalue is 0.64
        grid = TimeGrid.regular(3)
        h = (0.6 * HistoryState.from_slots(grid, (proj("z+"), proj("z+"), proj("x+")))
             + 0.8 * HistoryState.from_slots(grid, (proj("z-"), proj("z-"), proj("x+"))))
        assert [len(m.ensemble) for m in _reductions(h, [[2], [0, 1]], tol=0.7)] == [1, 1]
        for sets, named in (([[2], [0, 1], [1], [0]], r"\[1\]"), ([[0], [1]], r"\[0\]")):
            with pytest.raises(ValueError, match=rf"tol 0\.7 is at or above the largest eigenvalue 0\.6[34]\d* "
                                                 rf"of the reduction to slots {named}$"):
                _reductions(h, sets, tol=0.7)


class TestOneMemberClusters:
    """The stacked one-member route of ``_canonical_members`` against the
    Gram-Schmidt oracle, alone and stacked with another set."""

    @staticmethod
    def _random_set(rng):
        from qhist.histories import DEGENERACY_TOL, SPAN_TOL

        t, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        evals = np.sort(rng.random(m))
        if rng.random() < 0.25 and m > 1:
            evals[1:] = evals[0] + np.cumsum(rng.uniform(2, 4, m - 1)) * DEGENERACY_TOL  # close but distinct
        assert (np.diff(evals) > DEGENERACY_TOL).all()
        vecs = rng.normal(size=(t, m)) + 1j * rng.normal(size=(t, m))
        overlaps = rng.normal(size=(m, t)) + 1j * rng.normal(size=(m, t))
        norms = rng.uniform(0.5, 2.0, size=t)
        # leading overlaps below SPAN_TOL move the phase to a later string;
        # a row of them leaves only the eigenvector's own basis
        overlaps[:, : int(rng.integers(0, t + 1))] *= SPAN_TOL * 0.5
        if rng.random() < 0.2:
            overlaps[int(rng.integers(m))] *= SPAN_TOL * 0.5
        norms[rng.random(t) < 0.2] = 0.0
        return evals, vecs, overlaps, norms

    @staticmethod
    def _stacked(sets, n_terms):
        """``_canonical_members``' arguments for ``sets``: eigenpairs largest
        first, each member a row over the terms, K times it the conjugate
        of its overlaps, and each set's dead rows and terms past its own zero."""
        width = max(len(e) for e, _, _, _ in sets)
        evals, live = np.zeros((len(sets), width)), np.zeros((len(sets), width), dtype=bool)
        vecs = np.zeros((len(sets), width, n_terms), dtype=complex)
        k_vecs = np.zeros_like(vecs)
        norms = np.zeros((len(sets), n_terms))
        for i, (e, v, o, n) in enumerate(sets):
            m, t = len(e), len(n)
            evals[i, :m], live[i, :m] = e[::-1], True
            vecs[i, :m, :t], k_vecs[i, :m, :t], norms[i, :t] = v.T[::-1], o[::-1].conj(), n
        return evals, live, vecs, k_vecs, norms

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_gram_schmidt_bit_for_bit(self, seed):
        from qhist.histories import _canonical_members

        rng = np.random.default_rng(seed)
        one, other = self._random_set(rng), self._random_set(rng)
        want = histories_oracle.canonical_basis(*one)
        t = len(one[3])
        for sets, i in (([one], 0), ([one, other], 0), ([other, one], 1)):
            args = self._stacked(sets, max(len(s[3]) for s in sets))
            evals, members, k_members = _canonical_members(*args)
            assert len(want) == len(one[0])
            for j, (lam0, v0) in enumerate(want):
                lam = evals[i, j].item()
                assert type(lam) is float and lam == lam0
                assert members[i, j, :t].tobytes() == v0.tobytes()
            assert not members[i, :, t:].any() and not members[i, len(want):].any()
            # K times the members: the same turn of K times the eigenvectors
            evals, live, _, k_vecs, norms = args
            assert np.array_equal(k_members, _canonical_members(evals, live, k_vecs, k_vecs, norms)[1])

    @pytest.mark.parametrize("seed", range(12))
    def test_clusters_take_the_gram_schmidt_step(self, seed):
        from qhist.histories import DEGENERACY_TOL, _canonical_members

        rng = np.random.default_rng(100 + seed)
        evals, vecs, overlaps, norms = self._random_set(rng)
        m = len(evals)
        # clusters of two or three within DEGENERACY_TOL, beside single eigenvalues
        for start in range(0, m - 1, 3):
            evals[start + 1:start + 3] = evals[start] + 0.4 * DEGENERACY_TOL
        evals = np.sort(evals)
        want = histories_oracle.canonical_basis(evals, vecs, overlaps, norms)
        got_evals, members, _ = _canonical_members(*self._stacked([(evals, vecs, overlaps, norms)], len(norms)))
        for j, (lam0, v0) in enumerate(want):
            assert got_evals[0, j] == lam0
            assert np.max(np.abs(members[0, j] - v0), initial=0.0) <= 1e-15


def _close_pairs(rows: np.ndarray, sizes) -> np.ndarray:
    """close[s, t, j] of ``_close_strings``, one row and one slot at a time."""
    ends = np.cumsum(sizes)
    close = np.zeros((len(sizes), len(rows), len(rows)), dtype=bool)
    for s, (size, end) in enumerate(zip(sizes, ends)):
        for t in range(len(rows)):
            close[s, t, :t] = np.abs(rows[:t, end - size:end] - rows[t, end - size:end]).max(axis=1) <= MERGE_TOL
    return close


class TestCloseStrings:
    """The per-slot closeness that ``_reductions`` merges every set's kept strings by."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("block", [1 << 17, 1, 5, 37])
    def test_matches_the_pairwise_loop(self, seed, block, monkeypatch):
        monkeypatch.setattr(histories, "_MERGE_BLOCK", block)
        rng = np.random.default_rng(seed)
        sizes = [int(d) ** 2 for d in rng.choice([2, 3], size=int(rng.integers(1, 5)))]
        rows = _planted_rows(rng, int(rng.integers(1, 24)), sum(sizes))
        # whole slots copied from an earlier row: close on some slots only
        for t in range(1, len(rows)):
            if rng.random() < 0.5:
                s = int(rng.integers(len(sizes)))
                end = sum(sizes[:s + 1])
                rows[t, end - sizes[s]:end] = rows[int(rng.integers(t)), end - sizes[s]:end]
        with np.errstate(invalid="ignore"):  # inf - inf
            got = histories._close_strings(rows, sizes)
            want = _close_pairs(rows, sizes)
        assert np.array_equal(got, want)

    def test_closeness_is_blocked(self, monkeypatch):
        # 256 terms on four qubit slots, every fourth term a copy of an earlier
        # one on two slots: the unblocked (16, 256, 256) difference would take 16 MB
        monkeypatch.setattr(histories, "_MERGE_BLOCK", 1 << 10)
        rng = np.random.default_rng(3)
        dims = (2, 2, 2, 2)
        slot_lists = [_ops(rng, dims) for _ in range(256)]
        for t in range(3, 256, 4):
            slot_lists[t][:2] = slot_lists[t - 3][:2]
        rows = _term_history(rng, dims, slot_lists)._rows
        assert len(rows) == 256
        tracemalloc.start()
        try:
            close = histories._close_strings(rows, [4] * 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result (4, 256, 256) takes 256 kB; one block and its modulus take 24 kB
        assert peak < 512 << 10
        assert np.array_equal(close, _close_pairs(rows, [4] * 4))

    def test_a_pooled_state_merges_on_the_kept_slots_only(self):
        from qhist.histories import _reductions

        rng = np.random.default_rng(4)
        h = _shared_kept_strings(rng, (2, 2, 2), [0, 2], 12, 3)
        # the three pooled strings on slots (0, 2), which no other slot set shares
        merged = [len(m._gram) for m in _reductions(h, [[0], [2], [0, 2], [1], [0, 1]])]
        assert merged == [3, 3, 3, 12, 12]


def _on_grid(rng, grid, n_terms) -> HistoryState:
    """A normalized random history of ``n_terms`` terms on ``grid``."""
    return normalize(HistoryState(tuple(
        (complex(rng.normal(), rng.normal()), ElementaryHistory(grid, tuple(_ops(rng, grid.slot_dims))))
        for _ in range(n_terms))))


def _shared_kept_strings(rng, dims, keep, n_terms, n_strings) -> HistoryState:
    """Random terms whose kept slots carry one of ``n_strings`` random
    strings, so the reduction merges T = n_terms kept strings into fewer."""
    pool = [_ops(rng, [dims[k] for k in keep]) for _ in range(n_strings)]
    slot_lists = []
    for t in range(n_terms):
        ops = _ops(rng, dims)
        for k, op in zip(keep, pool[t % n_strings]):
            ops[k] = op
        slot_lists.append(ops)
    return _term_history(rng, dims, slot_lists)


def _term_coordinate_cases():
    """(name, history, keep, number of distinct kept strings) on grids
    small enough for the dense oracle."""
    rng = np.random.default_rng(13)
    cases = []
    # the member-by-member oracle costs M^2 T^2: 64 terms keep one qubit slot
    for n_terms, dims, keep in ((1, (2, 2), [1]), (2, (2, 2, 2), [0, 2]), (5, (3, 2), [0]),
                                (16, (2, 2, 2, 2), [1, 2]), (64, (2, 2, 2), [2]), (64, (3, 2, 2), [1])):
        h = _term_history(rng, dims, [_ops(rng, dims) for _ in range(n_terms)])
        cases.append((f"{n_terms} terms on dims {dims}", h, keep, n_terms))
    for n_terms, n_strings in ((6, 2), (24, 3), (64, 5)):
        h = _shared_kept_strings(rng, (2, 2, 2), [0, 2], n_terms, n_strings)
        cases.append((f"{n_terms} terms on {n_strings} kept strings", h, [0, 2], n_strings))
    # degenerate spectra: equal-amplitude branches give a 2- and a 4-fold
    # eigenvalue, and repeated kept strings on orthogonal traced strings
    # both merge and degenerate
    cases.append(("ghz, two-fold", ghz_like(4), [1, 2], 2))
    z = [proj("z+"), proj("z-")]
    g3 = TimeGrid.regular(3)
    four = HistoryState(tuple((0.5, ElementaryHistory(g3, (z[i], z[j], z[i ^ j]))) for i in (0, 1) for j in (0, 1)))
    cases.append(("four branches, four-fold", four, [0, 1], 4))
    cases.append(("four branches, merged kept strings", four, [2], 2))
    return cases


TERM_COORDINATE_CASES = _term_coordinate_cases()


def _string_vectors(m) -> np.ndarray:
    """Row j: the ensemble's term string j in ``history_vector`` layout."""
    rows = []
    for j in range(len(m._strings[0])):
        v = np.ones(1, dtype=complex)
        for stack in m._strings:
            v = np.kron(v, stack[j].reshape(-1))
        rows.append(v)
    return np.array(rows)


def _check_term_coordinates(m, rho, rng) -> None:
    """purity, mixed_overlap, the pairings and C against the member-by-member
    oracle and the dense density ``rho``, within 1e-12."""
    assert abs(purity(m) - np.trace(rho @ rho).real) <= 1e-12
    assert abs(purity(m) - histories_oracle.pairwise_purity(m)) <= 1e-12
    members = [h for _, h in m.ensemble]
    for i, hi in enumerate(members):
        for j, hj in enumerate(members):
            assert abs(m._pairings[i, j] - histories_oracle.pairwise_hs_inner(hi, hj)) <= 1e-12
        assert abs(hs_norm(hi) - 1.0) <= 1e-12
    # column m of C rebuilds member m from the term strings
    rebuilt = _string_vectors(m).T @ m._coefs
    for i, hi in enumerate(members):
        assert np.max(np.abs(rebuilt[:, i] - history_vector(hi))) <= 1e-12
    for t in members + [_on_grid(rng, m.grid, 1), _on_grid(rng, m.grid, 4)]:
        v = history_vector(t)
        got = mixed_overlap(m, t)
        assert abs(got - (v.conj() @ rho @ v).real) <= 1e-12
        assert abs(got - histories_oracle.pairwise_mixed_overlap(m, t)) <= 1e-12


class TestTermCoordinates:
    @pytest.mark.parametrize("name, h, keep, n_strings", TERM_COORDINATE_CASES,
                             ids=[c[0] for c in TERM_COORDINATE_CASES])
    def test_reduction_matches_oracles(self, name, h, keep, n_strings):
        m = temporal_partial_trace(h, keep)
        assert m._coefs.shape == (n_strings, len(m.ensemble))
        assert m._gram.shape == (n_strings, n_strings)
        assert len(m._strings) == len(keep)
        _check_term_coordinates(m, histories_oracle.temporal_reduction_density(h, keep),
                                np.random.default_rng(len(name)))

    @pytest.mark.parametrize("seed", range(12))
    def test_mix_of_arbitrary_states_matches_oracles(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            dims = tuple(int(d) for d in rng.choice([2, 3], size=rng.integers(1, 4)))
            if math.prod(d * d for d in dims) <= 324:
                break
        grid = TimeGrid(tuple(float(k) for k in range(len(dims))), dims)
        states = [_on_grid(rng, grid, int(rng.integers(1, 9))) for _ in range(rng.integers(1, 6))]
        if seed % 3 == 0:
            states.append(states[0])  # two members on the same strings
        probs = rng.dirichlet(np.ones(len(states)))
        m = MixedHistory(tuple((p, normalize(complex(rng.normal(), rng.normal()) * h))
                               for p, h in zip(probs, states)))
        # the members' terms laid end to end, C block diagonal
        counts = [h.n_terms for _, h in m.ensemble]
        assert m._coefs.shape == (sum(counts), len(counts))
        ends = np.cumsum(counts)
        for i, end in enumerate(ends):
            assert not m._coefs[:end - counts[i], i].any() and not m._coefs[end:, i].any()
        _check_term_coordinates(m, mixed_history_density(m), rng)

    def test_unnormalized_member_rejected(self):
        g = TimeGrid.regular(2)
        h = HistoryState.from_slots(g, (proj("z+"), proj("z+")), 1.0 + 1e-6)
        with pytest.raises(ValueError, match="ensemble members must be normalized"):
            MixedHistory(((1.0, h),))
        huge = HistoryState.from_slots(g, (1e160 * proj("z+"), proj("z+")))
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="history norm is not finite"):
                MixedHistory(((0.5, normalize(h)), (0.5, huge)))

    @pytest.mark.parametrize("probs, message", [
        ((), "nonempty"),
        ((0.0, 1.0), "must be positive"),
        ((-0.5, 1.5), "must be positive"),
        ((math.nan,), "must be positive"),
        ((math.nan, 1.0), "must be positive"),
        ((-math.inf, 1.0), "must be positive"),
        ((0.5, 0.6), "must sum to 1"),
        ((math.inf,), "must sum to 1"),
        ((math.inf, 1.0), "must sum to 1"),
    ])
    def test_bad_probabilities_rejected(self, probs, message):
        h = normalize(HistoryState.from_slots(TimeGrid.regular(2), (proj("z+"), proj("x+"))))
        with pytest.raises(ValueError, match=f"ensemble probabilities {message}|ensemble must be {message}"):
            MixedHistory(tuple((p, h) for p in probs))


class TestCachedGeometry:
    def test_reductions_of_one_state_compute_its_grams_once(self, monkeypatch):
        import qhist.histories as histories

        calls = []
        real = histories._grams
        monkeypatch.setattr(histories, "_grams", lambda a, b: calls.append(1) or real(a, b))
        _, up, down = diagonal_branches(6)
        h = 0.6 * up + 0.8 * down
        assert hs_norm(h) == pytest.approx(1.0, abs=1e-15)
        n = normalize(h)
        assert hs_inner(n, n) == hs_inner(h, h)
        pairs = [[i, j] for i in range(6) for j in range(i + 1, 6)]
        for keep in [[i] for i in range(6)] + pairs:
            assert purity(temporal_partial_trace(h, keep)) == pytest.approx(0.6 ** 4 + 0.8 ** 4, abs=1e-15)
        assert len(calls) == 1

    def test_caches_are_read_only(self, rng):
        dims = (2, 3, 2)
        h = _term_history(rng, dims, [_ops(rng, dims) for _ in range(5)])
        reduced = temporal_partial_trace(h, [0, 2])
        mixed = MixedHistory(((0.25, normalize(h)), (0.75, normalize(h.terms[0][1]))))
        arrays = [*h._self_grams, h._rows, *h._stacks]
        for m in (reduced, mixed):
            arrays += [m._gram, m._coefs, m._pairings, *m._strings]
            arrays += [member._rows for _, member in m.ensemble]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0


def _term_array_states():
    """(name, state) from each route that builds a state from term arrays:
    the spec reader, ``+`` (with merged and cancelled terms), ``*`` and the
    members of a temporal reduction."""
    from qhist.serialize import history_from_document
    from serialize_oracle import matrix_document

    rng = np.random.default_rng(17)
    dims = (2, 3, 3)
    a = _term_history(rng, dims, [_ops(rng, dims) for _ in range(5)])
    shared = [s[1] for s in a._stacks]
    b = _term_history(rng, dims, [_ops(rng, dims), shared, _ops(rng, dims)])
    spec, _ = history_from_document({
        "terms": [{"coefficient": [float(rng.normal()), float(rng.normal())],
                   "slots": [matrix_document(op) for op in ops]} for ops in [_ops(rng, dims), shared] * 2],
        "bridging": [matrix_document(np.eye(3, 2)), matrix_document(np.eye(3))]})
    return [("spec", spec), ("sum", a + b), ("difference", a + b + (-1.0) * b), ("scaled", (0.3 - 1.2j) * a),
            *((f"member {i}", m) for i, (_, m) in enumerate(temporal_partial_trace(a, [0, 2]).ensemble))]


class TestTermArrays:
    """A state is its coefficient and row arrays; ``terms`` is built from them on request."""

    @pytest.mark.parametrize("name, h", _term_array_states())
    def test_terms_are_built_once_as_views_of_the_rows(self, name, h):
        assert "terms" not in vars(h)
        terms = h.terms
        assert h.terms is terms
        assert len(terms) == h.n_terms
        for _, eh in terms:
            assert eh.grid == h.grid
            for op in eh.slots:
                assert not op.flags.writeable and np.shares_memory(op, h._rows)
        rebuilt = HistoryState(terms)
        assert rebuilt._coefs.tobytes() == h._coefs.tobytes()
        assert rebuilt._rows.tobytes() == h._rows.tobytes()

    @pytest.mark.parametrize("name, h", _term_array_states())
    def test_printing_builds_no_terms(self, name, h):
        from qhist.serialize import to_jsonable

        assert "HistoryState(grid=" in repr(h) and str(h) == repr(h)
        to_jsonable(h)
        hs_norm(h)
        assert "terms" not in vars(h)
        assert not h._coefs.flags.writeable and not h._rows.flags.writeable

    @pytest.mark.parametrize("name, h", _term_array_states())
    def test_copies_and_pickles_keep_the_arrays(self, name, h):
        import copy
        import pickle

        for c in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
            assert c.grid == h.grid
            assert c._coefs.tobytes() == h._coefs.tobytes() and c._rows.tobytes() == h._rows.tobytes()
            assert not c._coefs.flags.writeable and not c._rows.flags.writeable

    def test_coefficients_keep_python_complex_arithmetic(self, rng):
        # numpy's complex product differs from Python's in the last bits on some machines
        grid = TimeGrid.regular(2)
        strings = [ElementaryHistory(grid, tuple(_ops(rng, (2, 2)))) for _ in range(3)]
        terms = [(complex(rng.normal(), rng.normal()), strings[t % 3]) for t in range(200)]
        h = HistoryState(tuple(terms))
        sums = [sum((c for c, eh in terms if eh is e), 0j) for e in strings]
        assert h._coefs.tolist() == sums
        s = complex(rng.normal(), rng.normal())
        assert (s * h)._coefs.tolist() == [s * c for c in sums]

    def test_equality_is_identity(self):
        h = ghz_like(3)
        assert h == h and h != HistoryState(h.terms)
        assert len({h, h, 1.0 * h}) == 2


class TestMixedHistory:
    def test_normalized_member_has_unit_norm(self):
        g = TimeGrid.regular(2)
        h = HistoryState.from_slots(g, (proj("z+"), proj("z+")), 3.0)
        m = MixedHistory(((1.0, normalize(h)),))
        assert hs_norm(m.ensemble[0][1]) == pytest.approx(1.0, abs=1e-12)

    def test_density_trace_one(self):
        h = ghz_like(3)
        m = temporal_partial_trace(h, [0, 1])
        rho = mixed_history_density(m)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(rho, rho.conj().T)


class TestSubsystemTraceOut:
    def bell_history(self, n_slots, bridges):
        g = TimeGrid.regular(n_slots, dim=4)
        phi = bell_pair_ket()
        h = HistoryState.from_slots(g, (projector(phi),) * n_slots)
        return h, BridgingSet(g, bridges)

    def test_bell_record_yields_bell_like_reduction(self):
        h, b = self.bell_history(2, (identity(4),))
        red = subsystem_trace_out(h, b, (2, 2), traced=1)
        target = normalize(
            HistoryState.from_slots(red.state.grid, (proj("z+"), proj("z+")))
            + HistoryState.from_slots(red.state.grid, (proj("z-"), proj("z-")))
        )
        f = abs(hs_inner(normalize(red.state), target))
        assert f == pytest.approx(1.0, abs=1e-9)
        assert bool(red.consistency)

    def test_reduced_slots_are_projectors(self):
        h, b = self.bell_history(2, (identity(4),))
        red = subsystem_trace_out(h, b, (2, 2), traced=1)
        for _, eh in red.state.terms:
            assert all(is_projector(op) for op in eh.slots)

    def test_recordless_slots_ignore_traced_unitary(self, rng):
        # when no slot looks at the discarded factor, its evolution is
        # invisible to the kept reduction
        u = random_unitary(rng, 2)
        g = TimeGrid.regular(2, dim=4)
        h = HistoryState.from_slots(
            g, (np.kron(proj("x+"), identity(2)), np.kron(proj("z+"), identity(2)))
        )
        r0 = subsystem_trace_out(h, BridgingSet(g, (identity(4),)), (2, 2), traced=1)
        r1 = subsystem_trace_out(
            h, BridgingSet(g, (np.kron(identity(2), u),)), (2, 2), traced=1
        )
        f = abs(hs_inner(normalize(r0.state), normalize(r1.state)))
        assert f == pytest.approx(1.0, abs=1e-9)

    def test_traced_evolution_transposes_onto_bell_record(self, rng):
        # (1 x u) acts on a maximally entangled record like (u^T x 1), so the
        # kept trajectories follow the conjugated evolution
        u = random_unitary(rng, 2)
        h, b = self.bell_history(3, (np.kron(identity(2), u),) * 2)
        red = subsystem_trace_out(h, b, (2, 2), traced=1)
        g2 = red.state.grid
        expected = None
        for c in (np.array([1, 0], complex), np.array([0, 1], complex)):
            kets = [c.conj(), (u @ c).conj(), (u @ u @ c).conj()]
            term = HistoryState(((1.0, ElementaryHistory(g2, tuple(projector(k) for k in kets))),))
            expected = term if expected is None else expected + term
        f = abs(hs_inner(normalize(red.state), normalize(expected)))
        assert f == pytest.approx(1.0, abs=1e-9)

    def test_kept_side_bridging_survives(self, rng):
        u = random_unitary(rng, 2)
        h, b = self.bell_history(2, (np.kron(u, identity(2)),))
        red = subsystem_trace_out(h, b, (2, 2), traced=1)
        assert np.allclose(np.abs(red.bridging.unitaries[0]), np.abs(u), atol=1e-9)

    def test_entangling_bridge_rejected(self):
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        h, b = self.bell_history(2, (cnot,))
        with pytest.raises(NonFactorizableEvolutionError):
            subsystem_trace_out(h, b, (2, 2), traced=1)

    def test_trace_first_factor(self):
        h, b = self.bell_history(2, (identity(4),))
        red = subsystem_trace_out(h, b, (2, 2), traced=0)
        target = normalize(
            HistoryState.from_slots(red.state.grid, (proj("z+"), proj("z+")))
            + HistoryState.from_slots(red.state.grid, (proj("z-"), proj("z-")))
        )
        assert abs(hs_inner(normalize(red.state), target)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_wrong_factor_dims_rejected(self):
        h, b = self.bell_history(2, (identity(4),))
        with pytest.raises(ShapeError):
            subsystem_trace_out(h, b, (3, 2), traced=1)

    def test_overflowing_compressed_slot_rejected(self):
        # the Hadamard-bridged trajectory sums four 0.5e308 entries to inf, so
        # that slot's unit-norm rescaling is NaN
        g = TimeGrid.regular(2, dim=4)
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
        b = BridgingSet(g, (np.kron(identity(2), hadamard),))
        h = HistoryState.from_slots(g, (identity(4), np.full((4, 4), 1e308)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                subsystem_trace_out(h, b, (2, 2), traced=1)


def _bridged_state(rng, dims, n_terms):
    """Random terms on slots of the given (nondecreasing) dimensions, with
    random isometric bridges, rectangular where the dimension grows."""
    h = _term_history(rng, dims, [_ops(rng, dims) for _ in range(n_terms)])
    bridges = tuple(random_unitary(rng, d1)[:, :d0] for d0, d1 in zip(dims, dims[1:]))
    return h, BridgingSet(h.grid, bridges)


_KERNEL_DIMS = [(2,), (2, 2), (2, 3, 3), (3, 3, 4, 4), (2, 4, 5)]


class TestChainKernelAgainstLoopOracle:
    @pytest.mark.parametrize("dims", _KERNEL_DIMS)
    @pytest.mark.parametrize("seed", range(6))
    def test_chain_sum_and_weight_equal_the_loop_bit_for_bit(self, dims, seed):
        rng = np.random.default_rng(seed)
        h, b = _bridged_state(rng, dims, int(rng.integers(1, 20)))
        want = histories_oracle.chain_operator_sum(h, b)
        got = chain_operator_sum(h, b)
        assert got.shape == (dims[-1], dims[0])
        assert np.array_equal(got, want)
        assert weight(h, b) == histories_oracle.loop_pairing(want, want).real
        eh = h.terms[0][1]
        assert np.array_equal(chain_operator_sum(eh, b),
                              histories_oracle.chain_operator_sum(HistoryState(((1.0, eh),)), b))

    @pytest.mark.parametrize("dims", _KERNEL_DIMS)
    @pytest.mark.parametrize("seed", range(6))
    def test_consistency_matrix_matches_the_vdot_loop(self, dims, seed):
        rng = np.random.default_rng(seed)
        _, b = _bridged_state(rng, dims, 1)
        family = [_term_history(rng, dims, [_ops(rng, dims) for _ in range(rng.integers(1, 5))])
                  for _ in range(rng.integers(1, 12))]
        rep = is_consistent_family(family, b)
        want = histories_oracle.consistency_matrix(family, b)
        assert np.array_equal(rep.matrix, want)
        assert np.all(rep.matrix.diagonal().imag == 0.0)
        assert rep.max_offdiagonal == np.abs(want - np.diag(want.diagonal())).max()


class TestBatchedConsistency:
    """is_consistent_family runs every member's terms through one kernel call."""

    @pytest.mark.parametrize("dims", _KERNEL_DIMS)
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_term_counts_match_the_member_by_member_oracle(self, dims, seed):
        rng = np.random.default_rng(100 + seed)
        _, b = _bridged_state(rng, dims, 1)
        family = []
        for _ in range(rng.integers(2, 10)):
            h = _term_history(rng, dims, [_ops(rng, dims) for _ in range(rng.integers(1, 9))])
            family.append(h.terms[0][1] if rng.random() < 0.3 else h)
        states = [HistoryState(((1.0, h),)) if isinstance(h, ElementaryHistory) else h for h in family]
        rep = is_consistent_family(family, b)
        # each member's terms are summed left to right, as the loop sums them
        assert np.array_equal(rep.matrix, histories_oracle.consistency_matrix(states, b))

    def test_member_on_another_grid_rejected(self, rng):
        dims = (2, 2, 2)
        h, b = _bridged_state(rng, dims, 3)
        other = TimeGrid((0.0, 1.0, 2.5), dims)
        stray = ElementaryHistory(other, tuple(_ops(rng, dims)))
        with pytest.raises(GridMismatchError):
            is_consistent_family([h, h.terms[0][1], stray], b)
        with pytest.raises(GridMismatchError):
            is_consistent_family([HistoryState(((1.0, stray),))], b)


class TestTermConsistency:
    """The weight command's per-term family: each term normalized on its own."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_normalized_singleton_family(self, seed):
        import qhist.histories as histories

        rng = np.random.default_rng(seed)
        dims = _KERNEL_DIMS[seed % len(_KERNEL_DIMS)]
        h, b = _bridged_state(rng, dims, int(rng.integers(1, 65)))
        singletons = [normalize(HistoryState(((c, eh),))) for c, eh in h.terms]
        want = is_consistent_family(singletons, b)
        got = histories._term_consistency(h, b)
        assert np.array_equal(got.matrix, want.matrix)
        assert (got.consistent, got.max_offdiagonal, got.tol) == (want.consistent, want.max_offdiagonal, want.tol)

    def test_first_bad_term_sets_the_error(self):
        import qhist.histories as histories

        g = TimeGrid.regular(2)
        b = BridgingSet.trivial(g)
        zero = ElementaryHistory(g, (np.zeros((2, 2)), proj("z+")))
        huge = ElementaryHistory(g, (1e160 * proj("x+"), proj("z-")))
        fine = ElementaryHistory(g, (proj("z+"), proj("z+")))
        with np.errstate(all="raise"):
            with pytest.raises(DegenerateHistoryError, match="cannot normalize a zero-norm history"):
                histories._term_consistency(HistoryState(((1.0, fine), (1.0, zero), (1.0, huge))), b)
            with pytest.raises(ValueError, match="history norm is not finite"):
                histories._term_consistency(HistoryState(((1.0, fine), (1.0, huge), (1.0, zero))), b)


def _product_bridges(rng, n_slots, d0, d1, traced_side=None):
    """Random product unitaries u0 (x) u1; ``traced_side`` replaces one factor."""
    out = []
    for _ in range(n_slots - 1):
        u0, u1 = random_unitary(rng, d0), random_unitary(rng, d1)
        if traced_side is not None:
            u0, u1 = traced_side(rng, u0, u1)
        out.append(np.kron(u0, u1))
    return tuple(out)


class TestSubsystemTraceOutAgainstLoopOracle:
    def assert_matches(self, h, b, factor_dims, traced):
        red = subsystem_trace_out(h, b, factor_dims, traced=traced)
        want = histories_oracle.subsystem_trace_out(h, b, factor_dims, traced)
        assert red.state.n_terms == want.n_terms
        for (c, eh), (c0, eh0) in zip(red.state.terms, want.terms):
            assert abs(c - c0) <= 1e-12
            for op, op0 in zip(eh.slots, eh0.slots):
                assert np.abs(op - op0).max() <= 1e-12
        members = [normalize(HistoryState(((1.0, eh),))) for _, eh in want.terms]
        assert np.abs(red.consistency.matrix
                      - histories_oracle.consistency_matrix(members, red.bridging)).max() <= 1e-12
        # bit for bit against the object route the term arrays replace
        state, report = histories_oracle.object_trace_out(h, b, factor_dims, traced)
        assert np.array_equal(red.state._coefs, state._coefs)
        assert np.array_equal(red.state._rows, state._rows)
        assert np.array_equal(red.consistency.matrix, report.matrix)
        assert red.consistency.max_offdiagonal == report.max_offdiagonal
        assert red.consistency.consistent == report.consistent
        return red

    @pytest.mark.parametrize("traced", [0, 1])
    @pytest.mark.parametrize("factor_dims", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_product_bridges(self, seed, factor_dims, traced):
        rng = np.random.default_rng(seed)
        d0, d1 = factor_dims
        n_slots = int(rng.integers(1, 5))
        dims = (d0 * d1,) * n_slots
        h = _term_history(rng, dims, [_ops(rng, dims) for _ in range(rng.integers(1, 6))])
        b = BridgingSet(h.grid, _product_bridges(rng, n_slots, d0, d1))
        self.assert_matches(h, b, factor_dims, traced)

    @pytest.mark.parametrize("traced", [0, 1])
    def test_a_vanishing_trajectory_is_dropped(self, rng, traced):
        # the traced side of the first term is |0><0| at every slot, and the
        # traced bridges are diagonal, so trajectory 1 stays on |1> and
        # compresses that term to zero; the second term keeps both
        def diagonal_traced(rng, u0, u1):
            phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
            return (phases, u1) if traced == 0 else (u0, phases)

        n_slots = 3
        g = TimeGrid.regular(n_slots, dim=4)
        zero = proj("z+")

        def local(kept):
            return np.kron(zero, kept) if traced == 0 else np.kron(kept, zero)

        h = HistoryState((
            (0.8, ElementaryHistory(g, tuple(local(op) for op in _ops(rng, (2,) * n_slots)))),
            (0.6j, ElementaryHistory(g, tuple(_ops(rng, (4,) * n_slots)))),
        ))
        b = BridgingSet(g, _product_bridges(rng, n_slots, 2, 2, diagonal_traced))
        red = self.assert_matches(h, b, (2, 2), traced)
        assert red.state.n_terms == 3
        dead = HistoryState.from_slots(g, (local(np.zeros((2, 2))),) * n_slots)
        with pytest.raises(DegenerateHistoryError, match="every record trajectory contributes zero"):
            subsystem_trace_out(dead, b, (2, 2), traced=traced)


class TestReductionSearch:
    def test_bound_and_search(self):
        res = best_joint_bell_reduction_overlap()
        assert res.upper_bound == pytest.approx(0.75, abs=1e-12)
        assert res.best_overlap <= res.upper_bound + 1e-9
        assert res.best_overlap < 1.0 - 1e-6
        assert abs(np.linalg.norm(res.coefficients) - 1.0) < 1e-9
        # the witness attains the bound on both windows, by the dense reduction
        psi = np.array(res.coefficients)
        rho = np.outer(psi, psi.conj())
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        for keep in ([0, 1], [1, 2]):
            fidelity = np.vdot(bell, partial_trace(rho, [2, 2, 2], keep) @ bell).real
            assert abs(fidelity - 0.75) < 1e-12
        assert res.best_overlap == pytest.approx(0.75, abs=1e-12)


class TestStackedBridges:
    """A bridging row is one stack and one ``check_unitary`` per bridge shape;
    a bad bridge at any position still raises its own error."""

    @pytest.mark.parametrize("dims, n_shapes", [((2, 2, 2, 2), 1), ((2, 3, 3, 3), 2), ((2, 3, 3, 4), 3)])
    def test_one_check_per_shape(self, rng, monkeypatch, dims, n_shapes):
        from qhist import linalg

        calls = []
        real = linalg.check_unitary
        monkeypatch.setattr(linalg, "check_unitary", lambda *a, **k: calls.append(1) or real(*a, **k))
        # a unitary where the dimension stays, an isometry where it grows
        row = [random_unitary(rng, b)[:, :a] for a, b in zip(dims, dims[1:])]
        b = BridgingSet(TimeGrid(tuple(map(float, range(len(dims)))), dims), tuple(row))
        assert len(calls) == n_shapes
        assert [u.tobytes() for u in b.unitaries] == [u.tobytes() for u in row]
        assert all(not u.flags.writeable for u in b.unitaries)

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("bad, message", [
        (np.diag([1.0, 0.5]), "bridge {k} is not unitary"),
        (np.array([[np.nan, 0], [0, 1]]), "matrix entries must be finite"),
        (np.eye(3), r"bridge {k} shape \(3, 3\) incompatible with slot dims"),
    ])
    def test_bad_bridge_at_each_position(self, rng, position, bad, message):
        row = [random_unitary(rng, 2) for _ in range(3)]
        row[position] = bad
        with pytest.raises(ValueError, match="^" + message.format(k=position) + "$"):
            BridgingSet(TimeGrid.regular(4), tuple(row))

    @pytest.mark.parametrize("first, second", itertools.combinations(range(3), 2))
    @pytest.mark.parametrize("bad_first, bad_second, message", [
        # a non-finite entry anywhere is named before an earlier non-unitary one
        (np.diag([1.0, 0.5]), np.array([[np.nan, 0], [0, 1]]), "matrix entries must be finite"),
        # then the bridges go in order, shape before unitarity
        (np.diag([1.0, 0.5]), np.eye(3), "bridge {first} is not unitary"),
        (np.eye(3), np.diag([1.0, 0.5]), r"bridge {first} shape \(3, 3\) incompatible with slot dims"),
        (np.diag([1.0, 0.5]), np.diag([0.5, 1.0]), "bridge {first} is not unitary"),
    ])
    def test_two_bad_bridges_in_either_order(self, rng, first, second, bad_first, bad_second, message):
        row = [random_unitary(rng, 2) for _ in range(3)]
        row[first], row[second] = bad_first, bad_second
        with pytest.raises(ValueError, match="^" + message.format(first=first) + "$"):
            BridgingSet(TimeGrid.regular(4), tuple(row))

    @pytest.mark.parametrize("bad, named", [((), 1), ((0,), 0), ((2,), 1), ((0, 2), 0)])
    def test_earliest_bad_bridge_named_across_shapes(self, rng, bad, named):
        # bridge shapes (3, 2), (2, 3), (3, 2): no (2, 3) bridge is an isometry,
        # so bridge 1 always fails, and a bad bridge 2 of bridge 0's shape
        # must not be named before it
        dims = (2, 3, 2, 3)
        row = [random_unitary(rng, 3)[:, :2], random_unitary(rng, 3)[:2], random_unitary(rng, 3)[:, :2]]
        for k in bad:
            row[k] = 0.5 * row[k]
        grid = TimeGrid(tuple(map(float, range(len(dims)))), dims)
        message = ("^bridge 1: a unitary bridge cannot shrink the slot dimension from 3 to 2$" if named == 1
                   else f"^bridge {named} is not unitary$")
        with pytest.raises(ValueError, match=message):
            BridgingSet(grid, tuple(row))
        # nor does a wrong shape after it
        row[2] = np.eye(2)
        with pytest.raises(ValueError, match=message):
            BridgingSet(grid, tuple(row))

    @pytest.mark.parametrize("dims, k", [((2, 3, 2), 1), ((3, 2), 0), ((4, 4, 3, 3), 1), ((3, 2, 2), 0)])
    def test_shrinking_slot_dimension_named(self, dims, k):
        # a (d_{k+1}, d_k) bridge with d_{k+1} < d_k is never an isometry
        grid = TimeGrid(tuple(map(float, range(len(dims)))), dims)
        row = [np.eye(b, a, dtype=complex) for a, b in zip(dims, dims[1:])]
        message = f"^bridge {k}: a unitary bridge cannot shrink the slot dimension from {dims[k]} to {dims[k + 1]}$"
        with pytest.raises(ShapeError, match=message):
            BridgingSet(grid, tuple(row))
        # an earlier non-unitary bridge is still named first
        if k:
            row[0] = 0.5 * row[0]
            with pytest.raises(ValueError, match="^bridge 0 is not unitary$"):
                BridgingSet(grid, tuple(row))

    def test_trivial_bridging_is_not_checked(self, monkeypatch):
        import qhist.histories as histories
        from qhist import linalg

        calls = []
        for module, name in ((linalg, "check_unitary"), (linalg, "as_matrix"), (histories, "as_matrix")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
        b = BridgingSet.trivial(TimeGrid.regular(12, dim=3))
        assert not calls
        assert len(b.unitaries) == 11
        assert all(np.array_equal(u, identity(3)) and not u.flags.writeable for u in b.unitaries)
        with pytest.raises(ShapeError, match="^trivial bridging requires equal slot dimensions$"):
            BridgingSet.trivial(TimeGrid((0.0, 1.0), (2, 3)))

    def test_wrong_count_still_named(self):
        with pytest.raises(ShapeError, match="^need exactly one bridge per adjacent slot pair$"):
            BridgingSet(TimeGrid.regular(3), (identity(2),))
