"""Independent oracles for cross-checking the library's linear algebra.

Everything here is deliberately written along a different route from the
package code: inverses come from hand-rolled Gauss-Jordan elimination,
eigenvalues from characteristic-polynomial roots, determinants from cofactor
expansion, subset optima from exhaustive enumeration, and set-system ranges
from Python sets instead of bitmasks. Slow and simple on purpose; tests
compare the fast paths against these.
"""

from __future__ import annotations

import itertools

import numpy as np


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
