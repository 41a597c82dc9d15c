"""Independent oracles for cross-checking the library's linear algebra.

Everything here is deliberately written along a different route from the
package code: inverses come from hand-rolled Gauss-Jordan elimination,
eigenvalues from characteristic-polynomial roots, eigenvectors from cyclic
Jacobi rotations, determinants from cofactor expansion, subset optima from
exhaustive enumeration, set-system ranges from Python sets instead of
bitmasks, set-system extremes by popcounting every point instead of split
masks, resolvents by chained rank-one downdates, and the certificate replay
one step at a time instead of in stacked chunks. Slow and simple on purpose;
tests compare the fast paths against these.
"""

from __future__ import annotations

import itertools

import numpy as np

from framesel.hermitian import EigenSystem, outer_product_accumulate, resolvent_rank_one_downdate
from framesel.selector import _advance, _gap, _potential

_KATZ_BLOCK_BYTES = 1 << 18  # count_extremes_all_points' AND buffer per block of subsets


class ConvergenceError(RuntimeError):
    """The Jacobi sweep cap was reached before the off-diagonal target."""


def gauss_jordan_inverse(A: np.ndarray) -> np.ndarray:
    """Dense inverse by Gauss-Jordan elimination with partial pivoting."""
    A = np.asarray(A, dtype=np.complex128)
    k = A.shape[0]
    work = np.hstack([A.copy(), np.eye(k, dtype=np.complex128)])
    for col in range(k):
        pivot = col + int(np.argmax(np.abs(work[col:, col])))
        if abs(work[pivot, col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
        work[col] = work[col] / work[col, col]
        for row in range(k):
            if row != col:
                work[row] = work[row] - work[row, col] * work[col]
    return work[:, k:]


def determinant_cofactor(A: np.ndarray) -> complex:
    """Determinant by recursive cofactor expansion along the first row."""
    A = np.asarray(A, dtype=np.complex128)
    k = A.shape[0]
    if k == 1:
        return complex(A[0, 0])
    if k == 2:
        return complex(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    total = 0.0 + 0.0j
    for col in range(k):
        minor = np.delete(np.delete(A, 0, axis=0), col, axis=1)
        total += (-1) ** col * A[0, col] * determinant_cofactor(minor)
    return complex(total)


def charpoly_coefficients(A: np.ndarray) -> np.ndarray:
    """Coefficients of det(tI - A) = t^k + c_1 t^(k-1) + ... + c_k.

    Faddeev-LeVerrier recurrence: exact in exact arithmetic, stable enough
    at the tiny sizes used in tests.
    """
    A = np.asarray(A, dtype=np.complex128)
    k = A.shape[0]
    coeffs = np.empty(k + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    M = np.eye(k, dtype=np.complex128)
    for j in range(1, k + 1):
        AM = A @ M
        coeffs[j] = -np.trace(AM) / j
        M = AM + coeffs[j] * np.eye(k)
    return coeffs


def eigenvalues_by_charpoly(A: np.ndarray) -> np.ndarray:
    """Hermitian eigenvalues as sorted real roots of the characteristic polynomial."""
    roots = np.roots(charpoly_coefficients(A))
    return np.sort(roots.real)


def potential_by_inverse(T: np.ndarray, a: float) -> float:
    """Tr((aI - T)^{-1}) via the Gauss-Jordan inverse."""
    k = T.shape[0]
    return float(np.real(np.trace(gauss_jordan_inverse(a * np.eye(k) - T))))


def feasibility_by_inverse(T: np.ndarray, v: np.ndarray, a: float, a_next: float) -> float:
    """The barrier feasibility value evaluated directly from dense inverses."""
    k = T.shape[0]
    R1 = gauss_jordan_inverse(a_next * np.eye(k) - T)
    R2 = R1 @ R1
    q1 = float(np.real(np.vdot(v, R1 @ v)))
    q2 = float(np.real(np.vdot(v, R2 @ v)))
    gap = potential_by_inverse(T, a) - potential_by_inverse(T, a_next)
    return q2 / gap + q1


def _sorted_system(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> EigenSystem:
    order = np.argsort(eigenvalues, kind="stable")
    return EigenSystem(
        eigenvalues=np.ascontiguousarray(eigenvalues[order], dtype=np.float64),
        eigenvectors=np.ascontiguousarray(eigenvectors[:, order], dtype=np.complex128),
    )


_JACOBI_OFFDIAG_RTOL = 1e-13  # jacobi_eigh's off-diagonal target, relative to the input's Frobenius norm
_JACOBI_MAX_SWEEPS = 100      # jacobi_eigh's sweep cap


def jacobi_eigh(T: np.ndarray) -> EigenSystem:
    """Cyclic Jacobi eigendecomposition for complex Hermitian matrices.

    Sweeps row pairs (p, q) in a fixed order, annihilating A[p, q] with a
    complex Givens rotation, until the off-diagonal Frobenius mass drops
    below ``_JACOBI_OFFDIAG_RTOL`` times the Frobenius norm of the input.

    Deterministic: identical input always yields identical output. This is
    the slow reference that tests compare the package's ``eigh`` against.

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


def replay_per_step(F, order, values):
    """Rebuild T_j = T_{j-1} + v (x) v for the 1-based ``order`` against the barriers ``values``.

    Yields (U, spectrum of T_j, Phi^{a_j}(T_j), failure, T_j) per step, as
    ``_advance`` gives the last two. U comes from one solve
    x = (a_j I - T_{j-1})^{-1} v, since that resolvent is Hermitian:
    <(a_j I - T)^{-2} v, v> = ||x||^2 and <(a_j I - T)^{-1} v, v> = Re <v, x>.
    The spectra come from LAPACK without eigenvectors, on the symmetrized T_j;
    none of this goes through the selection's rank-one update.

    It needs its caller's errstate to raise on overflow and on invalid values
    (``np.errstate(over="raise", invalid="raise")``): a T_j that overflows then ends
    the replay, and its step yields an infinite spectrum, no Phi, and T_{j-1}, the
    last finite sum. Under numpy's default errstate it only warns, and runs on.
    """
    k = F.k
    T = np.zeros((k, k), dtype=np.complex128)
    eigenvalues = np.zeros(k)
    for j, index in enumerate(order, 1):
        a, a_next = float(values[j - 1]), float(values[j])
        v = F.vectors[index - 1]
        gap = _gap(eigenvalues, a, a_next)
        shifted = -T
        shifted.flat[:: k + 1] += a_next  # a_j I - T_{j-1}
        x = np.linalg.solve(shifted, v)
        u = float(np.vdot(x, x).real) / gap + float(np.vdot(v, x).real)
        try:
            T_next = outer_product_accumulate(T, v)
            eigenvalues_next = np.linalg.eigvalsh(0.5 * (T_next + T_next.conj().T))
        except FloatingPointError as exc:
            yield u, np.full(k, np.inf), None, f"T_{j} is not finite ({exc})", T
            return
        T = T_next
        phi, failure = _advance(_potential(eigenvalues, a), eigenvalues_next, a_next)
        yield u, eigenvalues_next, phi, failure, T
        eigenvalues = eigenvalues_next


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


def lambda_max_by_subset(vectors: np.ndarray, subset) -> float:
    """Top eigenvalue of the rank-one sum over 0-based rows of ``vectors``."""
    vs = vectors[list(subset)]
    T = vs.T @ vs.conj()
    return float(np.max(np.linalg.eigvalsh(T)))


def all_subsets_meeting_bound(vectors: np.ndarray, n: int, bound: float) -> list[tuple[int, ...]]:
    """All 0-based n-subsets whose rank-one sum stays strictly below the bound."""
    m = vectors.shape[0]
    hits = []
    for subset in itertools.combinations(range(m), n):
        if lambda_max_by_subset(vectors, subset) < bound:
            hits.append(subset)
    return hits


def random_hermitian(rng: np.random.Generator, k: int, scale: float = 1.0) -> np.ndarray:
    A = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return scale * (A + A.conj().T) / 2


def random_psd(rng: np.random.Generator, k: int, scale: float = 1.0) -> np.ndarray:
    A = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return scale * (A @ A.conj().T) / k


def random_unit(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return v / np.linalg.norm(v)


def dichotomy_by_sets(N: int, points, subsets) -> dict:
    """The katz dichotomy tallies, one Python-set intersection at a time.

    ``points`` are the point sets A and ``subsets`` the subsets S, in the
    order to check them, both as collections of 1-based ground elements.
    Each S's range is min and max of len(A & S) over the points, held against
    the closed form max(0, |S| - N) .. min(|S|, N). The result has the
    fields of ``DichotomyReport`` that depend on the subsets, with the first
    32 confined and off-formula subsets as sorted member tuples.
    """
    points = [set(A) for A in points]
    tally = {"subsets_checked": 0, "min_pinned": 0, "max_pinned": 0, "both_pinned": 0,
             "violations": [], "closed_form_mismatches": []}
    for S in subsets:
        S = set(S)
        counts = [len(A & S) for A in points]
        lo, hi = min(counts), max(counts)
        tally["subsets_checked"] += 1
        tally["min_pinned"] += lo == 0
        tally["max_pinned"] += hi == N
        tally["both_pinned"] += lo == 0 and hi == N
        if lo != 0 and hi != N:
            tally["violations"].append(tuple(sorted(S)))
        if (lo, hi) != (max(0, len(S) - N), min(len(S), N)):
            tally["closed_form_mismatches"].append(tuple(sorted(S)))
    tally["violations"] = tuple(tally["violations"][:32])
    tally["closed_form_mismatches"] = tuple(tally["closed_form_mismatches"][:32])
    return tally


def count_extremes_all_points(masks: np.ndarray, draws: np.ndarray | None, low_bits: int) -> tuple[np.ndarray, ...]:
    """Per subset: min and max over the points of |A intersect S|, and |S|, as uint8.

    The direct route against ``katz._count_extremes``'s split masks: every
    subset is ANDed with every point and popcounted, and each row reduced.
    The subsets are ``draws``, masks of ``masks.dtype``, or every mask of the
    lowest 2 * ``low_bits`` bits in order when ``draws`` is None; they go in
    blocks whose AND with every point fills about ``_KATZ_BLOCK_BYTES``.
    ``masks`` is only read.
    """
    rows = max(1, _KATZ_BLOCK_BYTES // max(1, masks.nbytes))
    buf = np.empty((rows, masks.size), dtype=masks.dtype)
    cnt = np.empty((rows, masks.size), dtype=np.uint8)
    count = 1 << 2 * low_bits if draws is None else draws.size
    lo = np.empty(count, dtype=np.uint8)
    hi = np.empty(count, dtype=np.uint8)
    size = np.empty(count, dtype=np.uint8)
    for start in range(0, count, rows):
        end = min(start + rows, count)
        block = np.arange(start, end, dtype=masks.dtype) if draws is None else draws[start:end]
        n = block.size
        np.bitwise_and(masks, block[:, None], out=buf[:n])
        np.bitwise_count(buf[:n], out=cnt[:n])
        cnt[:n].min(axis=1, out=lo[start:start + n])
        cnt[:n].max(axis=1, out=hi[start:start + n])
        np.bitwise_count(block, out=size[start:start + n])
    return lo, hi, size
