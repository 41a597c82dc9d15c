"""Hermitian core: eigensolvers, resolvents, rank-one updates, sum bound."""

import warnings

import numpy as np
import pytest

from framesel import (
    BarrierError,
    EigenSystem,
    chebyshev_sum_bound,
    composed_resolvent_inverse,
    eigh,
    hermitian_defect,
    outer_product_accumulate,
    resolvent_quadratic_form,
    resolvent_rank_one_downdate,
    sherman_morrison_resolvent_update,
)

import oracles
from oracles import (
    ConvergenceError,
    determinant_cofactor,
    eigenvalues_by_charpoly,
    gauss_jordan_inverse,
    jacobi_eigh,
    random_hermitian,
    random_psd,
    random_unit,
)


class TestHermitianBasics:
    def test_defect_of_hermitian_is_zero(self):
        rng = np.random.default_rng(0)
        T = random_hermitian(rng, 5)
        assert hermitian_defect(T) == 0.0

    def test_defect_measures_asymmetry(self):
        T = np.array([[1.0, 2.0], [2.5, 3.0]], dtype=np.complex128)
        assert hermitian_defect(T) == pytest.approx(0.5)

    def test_defect_of_infinite_entry_is_nan_without_warning(self):
        # the infinite diagonal entry meets its own mirror: inf - inf
        T = np.eye(2, dtype=np.complex128)
        T[0, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(hermitian_defect(T))

    def test_defect_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            hermitian_defect(np.zeros((2, 3)))

    def test_accumulate_matches_sum(self):
        rng = np.random.default_rng(1)
        T = random_psd(rng, 4)
        v = random_unit(rng, 4)
        assert np.allclose(outer_product_accumulate(T, v), T + np.outer(v, v.conj()))

    def test_accumulate_rejects_mismatched_vector(self):
        with pytest.raises(ValueError):
            outer_product_accumulate(np.zeros((3, 3)), np.zeros(4))

    def test_eigh_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigh_rejects_nan(self):
        # the defect of these is NaN or Inf; no inf - inf warning may escape
        inputs = [np.full((2, 2), np.nan)]
        for entry in (np.inf, -np.inf):
            T = np.eye(3, dtype=np.complex128)
            T[1, 1] = entry
            inputs.append(T)
        T = np.eye(3, dtype=np.complex128)
        T[0, 2], T[2, 0] = complex(0.0, np.inf), complex(0.0, -np.inf)
        inputs.append(T)
        T = np.eye(3, dtype=np.complex128)
        T[2, 1] = np.nan  # one triangle only
        inputs.append(T)
        for T in inputs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="NaN or Inf"):
                    eigh(T)


class TestEigensolvers:
    @pytest.mark.parametrize("solve", [eigh, jacobi_eigh], ids=["lapack", "jacobi"])
    def test_matches_charpoly_roots(self, solve):
        rng = np.random.default_rng(7)
        for k in (2, 3, 4, 5, 6):
            T = random_hermitian(rng, k)
            eig = solve(T)
            oracle = eigenvalues_by_charpoly(T)
            assert np.allclose(eig.eigenvalues, oracle, atol=1e-8)

    @pytest.mark.parametrize("solve", [eigh, jacobi_eigh], ids=["lapack", "jacobi"])
    def test_reconstruction_and_orthonormality(self, solve):
        rng = np.random.default_rng(8)
        for k in (1, 2, 5, 9):
            T = random_hermitian(rng, k)
            eig = solve(T)
            assert np.linalg.norm(eig.reconstruct() - T) < 1e-11 * max(1.0, np.linalg.norm(T))
            U = eig.eigenvectors
            assert np.linalg.norm(U.conj().T @ U - np.eye(k)) < 1e-12 * k

    def test_eigenvalues_ascending(self):
        # eigh hands on LAPACK's arrays unsorted and uncopied; the certificate
        # bytes depend on their order and on C-contiguous eigenvectors
        rng = np.random.default_rng(9)
        sizes = [6] * 20 + [1, 2, 8, 64]
        matrices = [random_hermitian(rng, k) for k in sizes]
        v = random_unit(rng, 8)
        for T in matrices + [np.outer(v, v.conj())]:
            eig = eigh(T)
            assert np.all(np.diff(eig.eigenvalues) >= 0.0)
            assert eig.eigenvectors.flags.c_contiguous

    def test_determinant_equals_eigenvalue_product(self):
        rng = np.random.default_rng(10)
        T = random_hermitian(rng, 5)
        eig = eigh(T)
        det = determinant_cofactor(T)
        assert det.real == pytest.approx(float(np.prod(eig.eigenvalues)), rel=1e-9)
        assert abs(det.imag) < 1e-9

    def test_jacobi_agrees_with_lapack(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            k = int(rng.integers(2, 12))
            T = random_hermitian(rng, k)
            ej = jacobi_eigh(T)
            el = eigh(T)
            assert np.allclose(ej.eigenvalues, el.eigenvalues, atol=1e-12 * max(1.0, np.linalg.norm(T)))

    def test_jacobi_on_diagonal_input(self):
        eig = jacobi_eigh(np.diag([3.0, -1.0, 2.0]).astype(np.complex128))
        assert np.allclose(eig.eigenvalues, [-1.0, 2.0, 3.0])

    def test_jacobi_zero_matrix(self):
        eig = jacobi_eigh(np.zeros((4, 4), dtype=np.complex128))
        assert np.allclose(eig.eigenvalues, 0.0)

    def test_jacobi_sweep_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(12)
        T = random_hermitian(rng, 8)
        monkeypatch.setattr(oracles, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError):
            jacobi_eigh(T)

    def test_eigensystem_properties(self):
        eig = EigenSystem(
            eigenvalues=np.array([-2.0, 0.5]),
            eigenvectors=np.eye(2, dtype=np.complex128),
        )
        assert eig.dim == 2
        assert eig.lambda_min == -2.0
        assert eig.lambda_max == 0.5


class TestResolventForms:
    def test_quadratic_form_matches_dense_inverse(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            k = int(rng.integers(2, 8))
            T = random_psd(rng, k)
            eig = eigh(T)
            a = eig.lambda_max + float(rng.uniform(0.1, 1.0))
            v = random_unit(rng, k)
            R1 = gauss_jordan_inverse(a * np.eye(k) - T)
            for power, R in ((1, R1), (2, R1 @ R1)):
                direct = float(np.real(np.vdot(v, R @ v)))
                assert resolvent_quadratic_form(eig, a, v, power) == pytest.approx(direct, rel=1e-9)

    def test_quadratic_form_requires_barrier_above_spectrum(self):
        eig = eigh(np.diag([0.3, 0.9]).astype(np.complex128))
        with pytest.raises(BarrierError):
            resolvent_quadratic_form(eig, 0.9, np.array([1.0, 0.0]), 1)

    def test_quadratic_form_validates_power_and_shape(self):
        eig = eigh(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            resolvent_quadratic_form(eig, 1.0, np.zeros(2), 3)
        with pytest.raises(ValueError):
            resolvent_quadratic_form(eig, 1.0, np.zeros(3), 1)

    def test_sherman_morrison_update_matches_dense(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            k = int(rng.integers(2, 8))
            T = random_psd(rng, k) + 0.5 * np.eye(k)
            v = 0.5 * random_unit(rng, k)
            Rinv = gauss_jordan_inverse(T)
            updated = sherman_morrison_resolvent_update(Rinv, v)
            direct = gauss_jordan_inverse(T + np.outer(v, v.conj()))
            assert np.linalg.norm(updated - direct) < 1e-9 * np.linalg.norm(direct)

    def test_downdate_matches_dense(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            k = int(rng.integers(2, 8))
            T = random_psd(rng, k) + 2.0 * np.eye(k)
            v = 0.5 * random_unit(rng, k)
            Rinv = gauss_jordan_inverse(T)
            downdated = resolvent_rank_one_downdate(Rinv, v)
            direct = gauss_jordan_inverse(T - np.outer(v, v.conj()))
            assert np.linalg.norm(downdated - direct) < 1e-9 * np.linalg.norm(direct)

    def test_update_then_downdate_round_trips(self):
        rng = np.random.default_rng(23)
        k = 5
        T = random_psd(rng, k) + np.eye(k)
        v = random_unit(rng, k)
        Rinv = gauss_jordan_inverse(T)
        back = resolvent_rank_one_downdate(sherman_morrison_resolvent_update(Rinv, v), v)
        assert np.linalg.norm(back - Rinv) < 1e-10

    def test_downdate_refuses_singular(self):
        # removing v (x) v from vv* itself is singular
        v = np.array([1.0, 0.0], dtype=np.complex128)
        Rinv = gauss_jordan_inverse(np.outer(v, v.conj()) + 1e-18 * np.eye(2))
        with pytest.raises(ValueError):
            resolvent_rank_one_downdate(Rinv, v)

    def test_composed_resolvent_matches_dense(self):
        rng = np.random.default_rng(24)
        k, count = 4, 6
        vectors = np.array([0.3 * random_unit(rng, k) for _ in range(count)])
        a = 2.0
        T = vectors.T @ vectors.conj()
        direct = gauss_jordan_inverse(a * np.eye(k) - T)
        chained = composed_resolvent_inverse(a, vectors)
        assert np.linalg.norm(chained - direct) < 1e-9


class TestOrderedSumBound:
    def test_random_monotone_pairs(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            k = int(rng.integers(1, 21))
            a = np.sort(rng.uniform(0.1, 5.0, size=k))
            b = np.sort(rng.uniform(0.1, 5.0, size=k))[::-1]
            lhs, rhs = chebyshev_sum_bound(a, b)
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_equality_for_constant_sequence(self):
        lhs, rhs = chebyshev_sum_bound(np.full(7, 3.0), np.full(7, 0.2))
        assert lhs == pytest.approx(rhs, rel=1e-15)

    def test_rejects_bad_monotonicity(self):
        with pytest.raises(ValueError):
            chebyshev_sum_bound(np.array([2.0, 1.0]), np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            chebyshev_sum_bound(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_rejects_nonpositive_and_mismatch(self):
        with pytest.raises(ValueError):
            chebyshev_sum_bound(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            chebyshev_sum_bound(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            chebyshev_sum_bound(np.array([]), np.array([]))
