"""Dense complex Hermitian linear algebra used throughout the package.

Operators are plain ``numpy`` arrays of dtype ``complex128`` (each entry is an
interleaved pair of real/imaginary doubles, row-major). Everything here is a
pure function of its inputs; nothing is mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BarrierError

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


def eigh(T: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix by LAPACK.

    The input must be finite and Hermitian within ``_HERMITIAN_ATOL``, or
    ValueError is raised; it is symmetrized before factorization. LAPACK's
    ascending eigenvalues and C-contiguous eigenvectors are kept as they stand.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(require_hermitian(T))
    return EigenSystem(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


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
