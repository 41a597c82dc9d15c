"""Independent oracles for cross-checking the library's linear algebra.

Everything here is deliberately written along a different route from the
package code: inverses come from hand-rolled Gauss-Jordan elimination,
eigenvalues from characteristic-polynomial roots, eigenvectors from cyclic
Jacobi rotations, determinants from cofactor expansion, subset optima from
exhaustive enumeration, set-system ranges from Python sets instead of
bitmasks, set-system extremes by popcounting every point instead of split
masks, resolvents by chained rank-one downdates, and the certificate replay
one step at a time instead of in stacked chunks, and DFT frame entries by one
exponential each instead of a table of the m roots. Slow and simple on purpose;
tests compare the fast paths against these. One oracle is the package's own
route, copied: ``select_per_step`` is the greedy step as it stood before its
copy-free trims (the FFT scan's gather by ``remaining - 1``, ``np.delete``, and
``np.diag`` plus ``np.outer``), so a test can hold every step to its bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from framesel.hermitian import EigenSystem, outer_product_accumulate, resolvent_rank_one_downdate
from framesel import selector
from framesel.selector import SelectionStep, _advance, _gap, _potential, barrier_schedule, initial_selection_state

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


def dft_frame_vectors(k: int, N: int, seed: int | None = None) -> np.ndarray:
    """harmonic_frame(k, N).vectors, or modulated_harmonic_frame(k, N, seed).vectors, one exponential per entry.

    Entry (i, d) is exp(2 pi i ((i r_d) mod m) / m) / sqrt(m), times phi_i for a seed, with the
    rows r and phases phi drawn from ``default_rng(seed)`` in the constructor's order.
    """
    m = k * N
    rng = None if seed is None else np.random.default_rng(seed)
    rows = np.arange(k, dtype=np.int64) if rng is None else np.sort(rng.choice(m, size=k, replace=False))
    i = np.arange(m, dtype=np.int64)[:, None]
    vectors = np.exp(2j * np.pi * ((i * rows[None, :]) % m) / m)
    vectors /= math.sqrt(m)
    if rng is not None:
        vectors *= np.exp(2j * np.pi * rng.random(m))[:, None]
    return vectors


def reconstruct(eig: EigenSystem) -> np.ndarray:
    """U diag(lambda) U*, the operator an eigensystem describes."""
    U = eig.eigenvectors
    return (U * eig.eigenvalues) @ U.conj().T


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


def select_per_step(F, n):
    """Yield (SelectionStep, spectrum of T_j) for each step j of ``select_subset(F, n)``, one step as first written.

    The step is the package's, copied with the expressions it had before three
    trims that keep its bits: the FFT scan gathers U by the shifted
    ``remaining - 1``, the chosen index leaves ``remaining`` by ``np.delete``,
    and the update builds Lambda + r r^T as ``np.diag(d) + np.outer(r, r)``. It
    has its own copies of the potential, the gap, the weights, the Loewner
    vectors and the two checks after the update, so a change to any of the
    package's shows as a different bit. The start (T_0's eigensystem and the
    FFT bins), the schedule and the tolerances are the package's. A run that
    the package refuses raises RuntimeError here.
    """

    def potential(eigenvalues, a):
        if a <= eigenvalues[-1]:
            raise RuntimeError(f"barrier violated: a = {a} <= lambda_max = {eigenvalues[-1]}")
        return float((1.0 / (a - eigenvalues)).sum())

    def gap_of(eigenvalues, a, a_next):
        gap = float((a_next - a) * (1.0 / ((a - eigenvalues) * (a_next - eigenvalues))).sum())
        if gap <= selector._GAP_FLOOR:
            raise RuntimeError(f"potential gap {gap:.3e} at or below the floor")
        return gap

    def weights_of(eigenvalues, a_next, gap):
        inv_next = 1.0 / (a_next - eigenvalues)
        return inv_next * inv_next / gap + inv_next

    def lowner_vectors(d, mu):
        k = d.shape[0]
        gaps = (d - d[:, None]).ravel()[1:].reshape(k - 1, k + 1)[:, :-1].reshape(k, k - 1)
        W = np.sqrt((mu[-1] - d) * ((mu[:-1] - d[:, None]) / gaps).prod(axis=1))[:, None] / (d[:, None] - mu)
        return W / np.sqrt(np.einsum("ic,ic->c", W, W))

    def rank_one_update(eig, v):
        E, d = eig.eigenvectors, eig.eigenvalues
        z = E.conj().T @ v
        r = np.abs(z)
        p = np.ones_like(z)
        np.divide(z, r, out=p, where=r > 0.0)
        A, tol, W = np.diag(d) + np.outer(r, r), selector._DEFLATION_TOL * max(1.0, d[-1]), None
        if d.shape[0] >= selector._LOWNER_MIN_K and r.min() > tol and np.diff(d).min() > tol:
            mu = np.linalg.eigvalsh(A)
            gain = selector._LOWNER_GAIN / (max(1.0, mu[-1]) * math.sqrt(r @ r))
            if (r < gain * (mu - d)).all() and (r[1:] < gain * (d[1:] - mu[:-1])).all():
                W = lowner_vectors(d, mu)
        if W is None:
            mu, W = np.linalg.eigh(A)
        Ep = E * p
        vectors = np.empty_like(Ep)
        vectors.real = Ep.real @ W
        vectors.imag = Ep.imag @ W
        return EigenSystem(eigenvalues=mu, eigenvectors=vectors)

    def scan(remaining, eig, a, a_next):
        weights = weights_of(eig.eigenvalues, a_next, gap_of(eig.eigenvalues, a, a_next))
        if bins is None:
            return np.abs(F.vectors[remaining - 1] @ eig.eigenvectors.conj()) ** 2 @ weights
        M = (eig.eigenvectors * weights) @ eig.eigenvectors.conj().T
        sums = np.bincount(bins, M.view(np.float64).ravel(), 2 * F.m).view(np.complex128)
        return np.fft.irfft(sums[: F.m // 2 + 1], F.m)[remaining - 1]

    state = initial_selection_state(F)
    remaining, eig, phi, bins = state.remaining, state.eig, state.phi, state.dft_bins
    values = barrier_schedule(F.N, F.m, n).values
    for j in range(n):
        a, a_next = float(values[j]), float(values[j + 1])
        profile = scan(remaining, eig, a, a_next)
        u_min = float(profile.min())
        edge = u_min + selector._TIE_BAND * max(1.0, u_min)
        inside = profile <= edge
        pos = int(inside.argmax())
        u_best = float(profile[pos])
        if u_best > 1.0 + selector._FEASIBILITY_SLACK:
            raise RuntimeError(f"no feasible candidate at step {j}: chosen U = {u_best}")
        index = int(remaining[pos])
        eig = rank_one_update(eig, F.vectors[index - 1])
        lam = float(eig.eigenvalues[-1])
        if lam >= a_next:
            raise RuntimeError(f"step {j + 1}: norm bound breached: lambda_max = {lam} >= a_next = {a_next}")
        phi_next = potential(eig.eigenvalues, a_next)
        if phi_next > phi + selector._POTENTIAL_SLACK:
            raise RuntimeError(f"step {j + 1}: potential rose: {phi_next} > {phi}")
        yield SelectionStep(
            j=j + 1,
            index=index,
            feasibility=u_best,
            potential=phi_next,
            lambda_max=lam,
            feasibility_sum=float(profile.sum()),
            remaining_count=len(profile),
            tie_count=int(np.count_nonzero(inside)),
            band_gap=float(profile.min(where=~inside, initial=math.inf)) - edge,
        ), eig.eigenvalues
        remaining, phi = np.delete(remaining, pos), phi_next


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
