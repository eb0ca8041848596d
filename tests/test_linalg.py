"""Unit tests for the dense linear algebra helpers."""

import itertools
import math
import warnings

import numpy as np
import pytest

from qhist.errors import ShapeError
from qhist.linalg import (
    as_ket,
    as_matrix,
    bell_pair_ket,
    check_unitary,
    density_operator,
    dichotomic_projectors,
    identity,
    is_projector,
    kron,
    max_abs,
    maximally_mixed,
    partial_trace,
    pauli,
    projector,
    qubit_ket,
)

from conftest import random_unitary


class TestBasics:
    def test_as_matrix_rejects_vector(self):
        with pytest.raises(ShapeError):
            as_matrix(np.array([1.0, 0.0]))

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_as_ket_normalization_check(self):
        as_ket([1.0, 0.0], normalized=True)
        with pytest.raises(ValueError):
            as_ket([1.0, 1.0], normalized=True)


class TestKron:
    def test_kron_z_x_literal(self):
        expected = np.array(
            [
                [0, 1, 0, 0],
                [1, 0, 0, 0],
                [0, 0, 0, -1],
                [0, 0, -1, 0],
            ],
            dtype=complex,
        )
        assert max_abs(kron(pauli("Z"), pauli("X")) - expected) == 0.0


def brute_partial_trace(a, dims, keep):
    """Index-loop reference implementation used as the oracle."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    kd = math.prod(kept_dims) if kept_dims else 1
    out = np.zeros((kd, kd), dtype=complex)

    def flatten(multi, ds):
        idx = 0
        for x, d in zip(multi, ds):
            idx = idx * d + x
        return idx

    ranges = [range(d) for d in dims]
    for row in itertools.product(*ranges):
        for col in itertools.product(*ranges):
            if any(row[i] != col[i] for i in traced):
                continue
            kr = flatten([row[i] for i in keep], kept_dims)
            kc = flatten([col[i] for i in keep], kept_dims)
            out[kr, kc] += a[flatten(row, dims), flatten(col, dims)]
    return out


class TestPartialTrace:
    @pytest.mark.parametrize("keep", [[0], [1], [2], [0, 1], [0, 2], [1, 2], []])
    def test_matches_bruteforce(self, rng, keep):
        dims = (2, 3, 2)
        d = math.prod(dims)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got = partial_trace(a, dims, keep)
        want = brute_partial_trace(a, dims, keep)
        assert max_abs(got - want) < 1e-12

    def test_empty_keep_is_full_trace(self, rng):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        got = partial_trace(a, (2, 3), [])
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - np.trace(a)) < 1e-12

    def test_keep_everything_returns_input(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert max_abs(partial_trace(a, (2, 2), [0, 1]) - a) == 0.0

    def test_bell_marginal_is_maximally_mixed(self):
        rho = projector(bell_pair_ket())
        for keep in ([0], [1]):
            assert max_abs(partial_trace(rho, (2, 2), keep) - maximally_mixed(2)) < 1e-12

    def test_dims_mismatch_raises(self):
        with pytest.raises(ShapeError):
            partial_trace(np.eye(4), (2, 3), [0])

    def test_keep_out_of_range_raises(self):
        with pytest.raises(ShapeError):
            partial_trace(np.eye(4), (2, 2), [2])


class TestPauliAlgebra:
    def test_sigma_y_sigma_x(self):
        assert max_abs(pauli("Y") @ pauli("X") - (-1j) * pauli("Z")) == 0.0

    def test_paulis_hermitian_unitary(self):
        for name in "XYZ":
            p = pauli(name)
            assert max_abs(p - p.conj().T) == 0.0
            assert max_abs(p.conj().T @ p - identity(2)) == 0.0
            assert not is_projector(p)

    def test_unknown_pauli_raises(self):
        with pytest.raises(ValueError):
            pauli("Q")


class TestPredicates:
    def test_is_projector_examples(self):
        assert is_projector(projector(qubit_ket("+")))
        assert is_projector(identity(2))
        assert not is_projector(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_random_unitary_is_unitary(self, rng):
        for d in (2, 3, 4):
            u = random_unitary(rng, d)
            assert max_abs(u.conj().T @ u - identity(d)) <= 1e-9


class TestInputChecks:
    """Each kind of physical input has one check, which rejects a bad matrix
    and a stack holding one bad matrix alike."""

    @staticmethod
    def forms(m):
        """A matrix alone and as the last entry of a stack of good ones."""
        good = identity(m.shape[-1])
        return [m, np.stack([good, good, m])]

    def test_unitary(self, rng):
        u = random_unitary(rng, 3)
        assert check_unitary(u).tobytes() == u.tobytes()
        assert check_unitary(np.stack([u, u.conj().T])).shape == (2, 3, 3)
        for form in self.forms(0.5 * identity(2)):
            with pytest.raises(ValueError, match=r"^unitaries\[0\] is not unitary$"):
                check_unitary(form, "unitaries[0]")
        for form in self.forms(np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="interval operator entries must be finite"):
                check_unitary(form, "interval operator")

    def test_unitary_accepts_a_tall_isometry_only(self, rng):
        v = random_unitary(rng, 4)[:, :2]
        check_unitary(v, "bridge 0")
        with pytest.raises(ValueError, match=r"^bridge 0 is not unitary$"):
            check_unitary(v.T, "bridge 0")

    def test_density_operator(self, rng):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
        assert density_operator(rho).tobytes() == rho.tobytes()
        for bad in (2.0 * maximally_mixed(2), np.array([[0.5, 0.4], [0.0, 0.5]])):
            with pytest.raises(ValueError, match="^initial state must be a unit-trace Hermitian density operator$"):
                density_operator(bad)
        with pytest.raises(ShapeError, match="rho must be square"):
            density_operator(np.ones((2, 3)) / 2.0, "rho")
        with pytest.raises(ShapeError):
            density_operator(np.stack([maximally_mixed(2)] * 2))
        with pytest.raises(ValueError, match="finite"):
            density_operator(np.full((2, 2), np.inf))

    def test_dichotomic(self):
        cases = [
            (np.array([[0, 1], [0, 0]], dtype=complex), "observable is not Hermitian"),
            (0.5 * pauli("Z"), r"observable is not dichotomic \(O\^2 != I\)"),
            (np.full((2, 2), np.nan), "observable entries must be finite"),
        ]
        for bad, message in cases:
            for form in self.forms(bad):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    dichotomic_projectors(form)
        with pytest.raises(ShapeError, match="observable must be square"):
            dichotomic_projectors(np.ones((2, 3)))

    def test_a_name_per_matrix_names_the_first_bad_one(self):
        stack = np.stack([identity(2), 0.5 * identity(2), np.full((2, 2), np.nan)])
        # one name for the stack: the first condition any matrix fails
        with pytest.raises(ValueError, match="^u entries must be finite$"):
            check_unitary(stack, "u")
        # a name per matrix: the first matrix that fails, by its first failing condition
        with pytest.raises(ValueError, match="^b is not unitary$"):
            check_unitary(stack, "abc".__getitem__)
        obs = np.array([[pauli("Z"), [[0, 1], [0, 0]]], [np.full((2, 2), np.nan), 0.5 * pauli("Z")]])
        with pytest.raises(ValueError, match="^o entries must be finite$"):
            dichotomic_projectors(obs, "o")
        # a (2, 2, d, d) stack is named by the flat index
        with pytest.raises(ValueError, match="^o1 is not Hermitian$"):
            dichotomic_projectors(obs, "o{}".format)
        obs[0, 1] = pauli("X")
        with pytest.raises(ValueError, match="^o2 entries must be finite$"):
            dichotomic_projectors(obs, "o{}".format)

    def test_shape_error_formats_no_name_per_matrix(self):
        def names(i):
            raise AssertionError("a shape error must not name a matrix")

        with pytest.raises(ShapeError, match="^observables must be square$"):
            dichotomic_projectors(np.ones((2, 2, 3)), names)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf), complex(np.nan, 1)])
    def test_non_finite_entries_rejected_without_warnings(self, bad):
        m = identity(2)
        m[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                as_matrix(m)
            for what in ("m", ("good", "m").__getitem__):
                with pytest.raises(ValueError, match="^m entries must be finite$"):
                    check_unitary(np.stack([identity(2), m]), what)
                with pytest.raises(ValueError, match="^m entries must be finite$"):
                    dichotomic_projectors(np.stack([pauli("Z"), m]), what)

    def test_dichotomic_pair_is_i_plus_minus_o_over_two(self, rng):
        u = random_unitary(rng, 3)
        obs = np.stack([pauli("X"), pauli("Y")]), u @ np.diag([1.0, 1.0, -1.0]) @ u.conj().T
        for o in obs:
            eye = identity(o.shape[-1])
            pair = dichotomic_projectors(o)
            assert pair.shape == (2,) + o.shape
            assert pair[0].tobytes() == ((eye + o) / 2.0).tobytes()
            assert pair[1].tobytes() == ((eye - o) / 2.0).tobytes()


class TestNamedStates:
    def test_qubit_kets_are_eigenvectors(self):
        cases = [("0", "Z", 1), ("1", "Z", -1), ("+", "X", 1), ("-", "X", -1),
                 ("i+", "Y", 1), ("i-", "Y", -1)]
        for name, p, sign in cases:
            ket = qubit_ket(name)
            assert np.allclose(pauli(p) @ ket, sign * ket)

    def test_projector_outer_literal(self):
        expected = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        assert max_abs(projector(qubit_ket("+")) - expected) < 1e-15

    def test_bell_pair_normalized(self):
        assert abs(np.linalg.norm(bell_pair_ket()) - 1.0) < 1e-15

    def test_unknown_ket_raises(self):
        with pytest.raises(ValueError):
            qubit_ket("q")
