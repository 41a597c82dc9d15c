"""Dense complex Hermitian linear algebra used throughout the package.

Operators are plain ``numpy`` arrays of dtype ``complex128`` (each entry is an
interleaved pair of real/imaginary doubles, row-major). Everything here is a
pure function of its inputs; nothing is mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BarrierError, ConvergenceError

_HERMITIAN_ATOL = 1e-12  # largest conjugate-symmetry defect eigh accepts, absolute


def hermitian_defect(T: np.ndarray) -> float:
    """Largest entrywise deviation of T from its conjugate transpose."""
    T = np.asarray(T)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {T.shape}")
    if T.size == 0:
        raise ValueError("empty matrix")
    with np.errstate(invalid="ignore"):  # inf - inf gives a NaN defect, not a warning
        return float(np.max(np.abs(T - T.conj().T)))


def require_hermitian(T: np.ndarray) -> np.ndarray:
    """Validate conjugate symmetry within ``_HERMITIAN_ATOL`` and return a symmetrized copy.

    One pass on valid input: a NaN or Inf entry makes the defect NaN or Inf.
    """
    T = np.asarray(T, dtype=np.complex128)
    defect = hermitian_defect(T)
    if not defect <= _HERMITIAN_ATOL:
        if not np.isfinite(T).all():
            raise ValueError("matrix contains NaN or Inf")
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} exceeds {_HERMITIAN_ATOL:.3e}")
    return 0.5 * (T + T.conj().T)


def outer_product_accumulate(T: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Return T + v (x) v.  Hermiticity and positivity are preserved."""
    T = np.asarray(T, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {T.shape}")
    if v.ndim != 1 or v.shape[0] != T.shape[0]:
        raise ValueError(f"dimension mismatch: operator is {T.shape[0]}x{T.shape[0]}, vector has length {v.shape[0]}")
    return T + np.outer(v, v.conj())


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray   # (k,) float64, ascending
    eigenvectors: np.ndarray  # (k, k) complex128, column d pairs with eigenvalue d

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    def reconstruct(self) -> np.ndarray:
        U = self.eigenvectors
        return (U * self.eigenvalues) @ U.conj().T


def _sorted_system(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> EigenSystem:
    order = np.argsort(eigenvalues, kind="stable")
    return EigenSystem(
        eigenvalues=np.ascontiguousarray(eigenvalues[order], dtype=np.float64),
        eigenvectors=np.ascontiguousarray(eigenvectors[:, order], dtype=np.complex128),
    )


def lapack_eigh(T: np.ndarray) -> EigenSystem:
    """Eigendecomposition via LAPACK (``numpy.linalg.eigh``).

    LAPACK already returns ascending eigenvalues and C-contiguous eigenvector
    columns, so its output is the system as it stands.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(np.asarray(T, dtype=np.complex128))
    return EigenSystem(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


_JACOBI_OFFDIAG_RTOL = 1e-13  # jacobi_eigh's off-diagonal target, relative to the input's Frobenius norm
_JACOBI_MAX_SWEEPS = 100      # jacobi_eigh's sweep cap


def jacobi_eigh(T: np.ndarray) -> EigenSystem:
    """Cyclic Jacobi eigendecomposition for complex Hermitian matrices.

    Sweeps row pairs (p, q) in a fixed order, annihilating A[p, q] with a
    complex Givens rotation, until the off-diagonal Frobenius mass drops
    below ``_JACOBI_OFFDIAG_RTOL`` times the Frobenius norm of the input.

    Deterministic: identical input always yields identical output. This is
    the slow reference that tests compare ``lapack_eigh`` against; nothing in
    the package calls it.

    Raises
    ------
    ConvergenceError
        If the target is not met within ``_JACOBI_MAX_SWEEPS`` sweeps.
    """
    A = np.array(T, dtype=np.complex128)
    k = A.shape[0]
    V = np.eye(k, dtype=np.complex128)
    fro = float(np.linalg.norm(A))
    if k == 1 or fro == 0.0:
        return _sorted_system(np.real(np.diag(A)).astype(np.float64), V)
    target = _JACOBI_OFFDIAG_RTOL * fro
    # pair-level skip threshold; rotations on tiny entries only churn roundoff
    skip = target / (k * k)

    def offdiag_norm() -> float:
        # summed directly over off-diagonal entries; subtracting squared
        # norms would lose the target under cancellation noise
        off = A.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    converged = False
    for _ in range(_JACOBI_MAX_SWEEPS):
        if offdiag_norm() <= target:
            converged = True
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = A[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                phase = apq / r
                app = A[p, p].real
                aqq = A[q, q].real
                tau = (aqq - app) / (2.0 * r)
                t = 1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # unitary block [[c, s], [-s e^{-ip}, c e^{-ip}]] zeroes A[p, q]
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - (s * np.conj(phase)) * col_q
                A[:, q] = s * col_p + (c * np.conj(phase)) * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - (s * phase) * row_q
                A[q, :] = s * row_p + (c * phase) * row_q
                A[p, p] = app - t * r
                A[q, q] = aqq + t * r
                A[p, q] = 0.0
                A[q, p] = 0.0
                vec_p = V[:, p].copy()
                vec_q = V[:, q].copy()
                V[:, p] = c * vec_p - (s * np.conj(phase)) * vec_q
                V[:, q] = s * vec_p + (c * np.conj(phase)) * vec_q
    else:
        converged = offdiag_norm() <= target

    if not converged:
        raise ConvergenceError(
            f"Jacobi did not reach off-diagonal target {target:.3e} in {_JACOBI_MAX_SWEEPS} sweeps"
        )
    return _sorted_system(np.real(np.diag(A)).astype(np.float64), V)


def eigh(T: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix by LAPACK.

    The input must be finite and Hermitian within ``_HERMITIAN_ATOL``, or
    ValueError is raised; it is symmetrized before factorization.
    """
    return lapack_eigh(require_hermitian(T))


def resolvent_quadratic_form(eig: EigenSystem, a: float, v: np.ndarray, power: int) -> float:
    """<(aI - T)^{-power} v, v> evaluated through the eigenbasis of T.

    ``power`` must be 1 or 2 and ``a`` must exceed the top eigenvalue.
    """
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power}")
    if a <= eig.lambda_max:
        raise BarrierError(f"barrier violated: a = {a} <= lambda_max = {eig.lambda_max}")
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (eig.dim,):
        raise ValueError(f"vector length {v.shape} does not match dimension {eig.dim}")
    w2 = np.abs(eig.eigenvectors.conj().T @ v) ** 2
    return float(np.sum(w2 / (a - eig.eigenvalues) ** power))


_DENOMINATOR_FLOOR = 1e-14  # rank-one update singularity guard


def _rank_one_inverse(Rinv: np.ndarray, v: np.ndarray, sign: float, what: str) -> np.ndarray:
    """(R + sign v (x) v)^{-1} from R^{-1}, for sign = +1 or -1 (Sherman-Morrison)."""
    Rinv = np.asarray(Rinv, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1 or Rinv.shape != (v.shape[0], v.shape[0]):
        raise ValueError(f"dimension mismatch: {Rinv.shape} versus vector length {v.shape}")
    Rv = Rinv @ v
    denom = 1.0 + sign * float(np.real(np.vdot(v, Rv)))
    if denom < _DENOMINATOR_FLOOR:
        raise ValueError(f"numerically singular {what}: denominator {denom:.3e}")
    correction = np.outer(Rv, Rv.conj()) / denom
    return Rinv - correction if sign > 0 else Rinv + correction


def sherman_morrison_resolvent_update(Rinv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(R + v (x) v)^{-1} from R^{-1}, by the Sherman-Morrison formula.

    ``Rinv`` must be the (Hermitian) inverse of a positive definite R.
    """
    return _rank_one_inverse(Rinv, v, 1.0, "update")


def resolvent_rank_one_downdate(Rinv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(R - v (x) v)^{-1} from R^{-1}.

    This is the Sherman-Morrison update with the vector's contribution
    negated; it is how a resolvent (aI - T)^{-1} absorbs a new vector added
    to T while the barrier a stays fixed. Valid while R - v (x) v stays
    positive definite, i.e. while the denominator 1 - <R^{-1}v, v> remains
    positive.
    """
    return _rank_one_inverse(Rinv, v, -1.0, "downdate")


def composed_resolvent_inverse(a: float, vectors: np.ndarray) -> np.ndarray:
    """(aI - sum_i v_i (x) v_i)^{-1} built by chained rank-one downdates.

    Cross-check path for the eigenbasis evaluation used elsewhere: starts
    from (aI)^{-1} and folds in one vector at a time.
    """
    vectors = np.asarray(vectors, dtype=np.complex128)
    if vectors.ndim != 2:
        raise ValueError("expected a (count, dim) array of row vectors")
    k = vectors.shape[1]
    Rinv = np.eye(k, dtype=np.complex128) / a
    for v in vectors:
        Rinv = resolvent_rank_one_downdate(Rinv, v)
    return Rinv


def chebyshev_sum_bound(a_seq: np.ndarray, b_seq: np.ndarray) -> tuple[float, float]:
    """Both sides of the ordered-sum inequality sum a_i b_i <= (1/k) sum a_i sum b_i.

    ``a_seq`` must be nondecreasing, ``b_seq`` nonincreasing, both strictly
    positive and of equal length. Returns (lhs, rhs); the inequality
    lhs <= rhs holds with equality iff either sequence is constant.
    """
    a = np.asarray(a_seq, dtype=np.float64)
    b = np.asarray(b_seq, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("sequences must be one-dimensional")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} versus {b.shape[0]}")
    if a.shape[0] < 1:
        raise ValueError("sequences must be nonempty")
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("sequences must be strictly positive")
    if np.any(np.diff(a) < 0.0):
        raise ValueError("first sequence must be nondecreasing")
    if np.any(np.diff(b) > 0.0):
        raise ValueError("second sequence must be nonincreasing")
    lhs = float(a @ b)
    rhs = float(a.sum() * b.sum() / a.shape[0])
    return lhs, rhs
