"""Greedy subset selection under a receding spectral barrier.

Given an equal-norm Parseval frame, vectors are chosen one at a time so that
the running rank-one sum T_j keeps its spectral norm strictly below the
schedule value a_j, where

    a_j = 1/sqrt(N) + (1 + 1/(sqrt(N) - 1)) * j / m.

The tool that makes this work is the upper potential

    Phi^a(T) = Tr((aI - T)^{-1}),

which blows up as eigenvalues approach the barrier. A candidate vector v is
safe to add exactly when its feasibility value

    U(v) = <(a'I - T)^{-2} v, v> / (Phi^a(T) - Phi^{a'}(T)) + <(a'I - T)^{-1} v, v>

is at most 1 (with a' the next barrier): then ||T + v (x) v|| < a' and the
potential does not increase. Averaging U over the unused vectors gives
exactly their count, so a qualifying vector always exists and the greedy
loop never stalls. After n steps ||T_n|| < a_n, which is n/m plus an
O(1/sqrt(N)) term.

The loop carries T_j's eigensystem from step to step by a real rank-one
update. Every run emits a SelectionCertificate recording per-step choices,
margins, and potentials; ``verify_certificate`` recomputes all of it with
LAPACK and without the update, a chunk of steps at a time: one stacked
eigvalsh of the T_j (Phi, the gap and the norm need no eigenvectors), one
stacked solve with the a_j I - T_{j-1} for U, and one factorization of T_n.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BarrierError,
    CertificateMismatchError,
    FrameError,
    SelectionError,
    ToleranceBreachError,
)
from .frames import _RESCALE_LIMIT, FrameFamily, _integer, _number, _read_json, _write_json, validate_frame
from .hermitian import EigenSystem, eigh, outer_product_accumulate
from .hermitian import resolvent_quadratic_form  # noqa: F401  a perfbench/spans.py patch target


@dataclass(frozen=True, eq=False)
class BarrierSchedule:
    """The bounds a_0 < a_1 < ... < a_n receding ahead of the growing sum."""

    N: int
    m: int
    n: int
    values: np.ndarray  # (n + 1,) float64, strictly increasing

    @property
    def step(self) -> float:
        """Constant increment (1 + 1/(sqrt(N) - 1)) / m."""
        root = math.sqrt(self.N)
        return (1.0 + 1.0 / (root - 1.0)) / self.m

    @property
    def start(self) -> float:
        return float(self.values[0])

    @property
    def bound(self) -> float:
        return float(self.values[-1])


def barrier_schedule(N: int, m: int, n: int) -> BarrierSchedule:
    """a_j = 1/sqrt(N) + (1 + 1/(sqrt(N) - 1)) * j/m for j = 0..n."""
    if N < 2:
        raise ValueError(f"N must be at least 2, got {N}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not 0 <= n < m:
        raise ValueError(f"n must satisfy 0 <= n < m, got n={n}, m={m}")
    root = math.sqrt(N)
    j = np.arange(n + 1, dtype=np.float64)
    values = 1.0 / root + (1.0 + 1.0 / (root - 1.0)) * j / m
    values.setflags(write=False)
    return BarrierSchedule(N=N, m=m, n=n, values=values)


# Half-width of the greedy rule's tie band, relative to max(1, u*). The same U differs
# by about 1e-15 between the FFT and the dense scan, by up to 1e-13 between eigh and the
# tests' Jacobi oracle, and by up to 5e-13 between the update's Loewner and eigh routes over
# full runs at k = 20..128, so roundoff never reaches the band edge. On harmonic frames the U
# not tied sit 2e-7 or more above u*; seeded modulated frames have true gaps of any size, and
# SelectionStep.band_gap records how close each decision came. The band is ten times narrower
# than _FEASIBILITY_SLACK, so a chosen U inside it stays feasible.
_TIE_BAND = 1e-10
_FEASIBILITY_SLACK = 1e-9  # U <= 1 + slack admits a candidate
_POTENTIAL_SLACK = 1e-10   # allowed potential rise per step
_GAP_FLOOR = 1e-14         # smallest usable potential gap


def _potential(eigenvalues: np.ndarray, a) -> float | np.ndarray:
    stacked = eigenvalues.ndim > 1
    if (a <= eigenvalues[:, -1]).any() if stacked else a <= eigenvalues[-1]:
        raise BarrierError(f"barrier violated: a = {a} <= lambda_max = {eigenvalues[..., -1]}")
    phi = (1.0 / ((a[:, None] if stacked else a) - eigenvalues)).sum(-1)  # the method skips np.sum's dispatch
    return phi if stacked else float(phi)


# The barrier step from (T, a, a'), shared by every caller: the potential gap,
# U over a block of rows, and the update T -> T + v (x) v with its two checks. Phi and the gap also take a
# stack of spectra (c, k) with (c,) arrays a, a_next: a sum along each contiguous row keeps the one-spectrum bits.

def _gap(eigenvalues: np.ndarray, a, a_next) -> float | np.ndarray:
    # Phi^a - Phi^{a_next} without cancellation: sum (a_next - a)/((a - l)(a_next - l))
    stacked = eigenvalues.ndim > 1
    col, col_next = (a[:, None], a_next[:, None]) if stacked else (a, a_next)
    gap = (a_next - a) * (1.0 / ((col - eigenvalues) * (col_next - eigenvalues))).sum(-1)
    low = gap <= _GAP_FLOOR
    if low.any() if stacked else low:  # name the first
        raise BarrierError(f"potential gap {np.ravel(gap)[np.argmax(low)]:.3e} at or below the floor {_GAP_FLOOR:.1e}")
    return gap if stacked else float(gap)


def _weights(eigenvalues: np.ndarray, a_next: float, gap: float) -> np.ndarray:
    """f(lambda) = 1/(gap (a' - lambda)^2) + 1/(a' - lambda), so that U(v) = <E f(Lambda) E* v, v>."""
    inv_next = 1.0 / (a_next - eigenvalues)
    return inv_next * inv_next / gap + inv_next


def _feasibility(rows: np.ndarray, eigenvectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """U of each row of the (r, k) block ``rows``, given T's eigenvectors and ``_weights``."""
    return np.abs(rows @ eigenvectors.conj()) ** 2 @ weights


# The update's Loewner route takes 1.36x the time of eigh at k = 12, 1.02-1.15x at 16-18, 0.90x at 20
# and 0.5-0.7x at 64, so eigh runs below _LOWNER_MIN_K; also where an r_i or a gap of Lambda is at most
# _DEFLATION_TOL max(1, d_k), or where mu's roundoff eps max(1, mu_k) could move z z^T by over 1e-13.
_LOWNER_MIN_K = 20
_DEFLATION_TOL = 1e-8
_LOWNER_GAIN = 1e-13 / np.finfo(np.float64).eps


def _lowner_vectors(d: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Eigenvectors of diag(d) + z z^T, whose eigenvalues mu interlace d strictly (Gu and Eisenstat, SIMAX 1994).

    Column c is z / (d - mu_c), normalized, where z_i^2 = (mu_k - d_i) prod_{l<i} (mu_l - d_i)/(d_l - d_i)
    prod_{l>i} (mu_{l-1} - d_i)/(d_l - d_i): each ratio is in (0, 1), so no partial product underflows.
    """
    k = d.shape[0]
    gaps = (d - d[:, None]).ravel()[1:].reshape(k - 1, k + 1)[:, :-1].reshape(k, k - 1)  # d_l - d_i, l != i
    W = np.sqrt((mu[-1] - d) * ((mu[:-1] - d[:, None]) / gaps).prod(axis=1))[:, None] / (d[:, None] - mu)
    return W / np.sqrt(np.einsum("ic,ic->c", W, W))


def _rank_one_update(eig: EigenSystem, v: np.ndarray) -> EigenSystem:
    """The eigensystem of T + v (x) v from eig, the eigensystem of T, by a real k x k rank-one update.

    With z = E* v, r = |z| and p = z/r (p = 1 where r = 0), T + v (x) v = E diag(p) (Lambda + r r^T) diag(p)* E*,
    and Lambda + r r^T = W diag(mu) W^T gives E' = E diag(p) W (Bunch, Nielsen and Sorensen, Numer. Math. 1978).
    A step without deflation takes mu from eigvalsh and W by ``_lowner_vectors``, others eigh. An error e in mu_c
    moves z_c by about r_c e / 2 min(mu_c - d_c, d_c - mu_{c-1}): E Lambda E* drifts faster than by eigh alone.
    """
    E, d = eig.eigenvectors, eig.eigenvalues
    z = E.conj().T @ v
    r = np.abs(z)
    p = np.ones_like(z)
    np.divide(z, r, out=p, where=r > 0.0)
    A, tol, W = np.diag(d) + np.outer(r, r), _DEFLATION_TOL * max(1.0, d[-1]), None
    if d.shape[0] >= _LOWNER_MIN_K and r.min() > tol and np.diff(d).min() > tol:
        mu = np.linalg.eigvalsh(A)
        gain = _LOWNER_GAIN / (max(1.0, mu[-1]) * math.sqrt(r @ r))  # largest r_c / offset allowed
        if (r < gain * (mu - d)).all() and (r[1:] < gain * (d[1:] - mu[:-1])).all():
            W = _lowner_vectors(d, mu)
    if W is None:
        mu, W = np.linalg.eigh(A)
    Ep = E * p
    vectors = np.empty_like(Ep)
    vectors.real = Ep.real @ W  # two real GEMMs beat one complex-by-real product
    vectors.imag = Ep.imag @ W
    return EigenSystem(eigenvalues=mu, eigenvectors=vectors)


def _advance(phi: float, eigenvalues_next: np.ndarray, a_next: float) -> tuple:
    """(Phi^{a_next} after the step, failure), given Phi^a(T) and the ascending spectrum of T + v (x) v.

    ``failure`` is None when the norm stays below a_next and the potential does
    not rise above ``phi`` by more than ``_POTENTIAL_SLACK``; otherwise it names
    the conclusion that broke. The potential is None when the norm broke.
    """
    lam = float(eigenvalues_next[-1])
    if lam >= a_next:
        return None, f"norm bound breached: lambda_max = {lam} >= a_next = {a_next} (margin {a_next - lam:.3e})"
    phi_next = _potential(eigenvalues_next, a_next)
    if phi_next > phi + _POTENTIAL_SLACK:
        return phi_next, f"potential rose: {phi_next} > {phi} (excess {phi_next - phi:.3e})"
    return phi_next, None


def upper_potential(T: np.ndarray, a: float) -> float:
    """Phi^a(T) = Tr((aI - T)^{-1}); requires a above the top eigenvalue."""
    return _potential(eigh(T).eigenvalues, a)


def feasibility_value(T: np.ndarray, v: np.ndarray, a: float, a_next: float) -> float:
    """The quantity U(v) certifying that T + v (x) v stays under the shifted barrier.

    Requires lambda_max(T) < a < a_next. U is nonnegative, vanishes only at
    v = 0, and U <= 1 guarantees both barrier and potential conclusions.
    """
    eig = eigh(T)
    if not eig.lambda_max < a < a_next:
        raise BarrierError(
            f"need lambda_max < a < a_next, got lambda_max={eig.lambda_max}, a={a}, a_next={a_next}"
        )
    weights = _weights(eig.eigenvalues, a_next, _gap(eig.eigenvalues, a, a_next))
    return float(_feasibility(np.asarray(v)[None, :], eig.eigenvectors, weights)[0])


def barrier_push_check(T: np.ndarray, v: np.ndarray, a: float, a_next: float) -> tuple[bool, float]:
    """Add v (x) v and confirm the two certified conclusions.

    For U(v) <= 1 the norm of T + v (x) v must stay below a_next and the
    potential must not rise; a numerical failure of either raises
    ToleranceBreachError with the margins spelled out rather than passing
    silently. Returns (norm_ok, potential at a_next after the update).
    """
    phi = upper_potential(T, a)
    phi_after, failure = _advance(phi, eigh(outer_product_accumulate(T, v)).eigenvalues, a_next)
    if failure is not None:
        raise ToleranceBreachError(failure)
    return True, phi_after


@dataclass(frozen=True, eq=False)
class SelectionState:
    """Mid-run snapshot, never modified: the unused indices, the eigensystem of T_j and its potential.

    T_j itself is not kept, and the selection order lives in the step records.
    """

    frame: FrameFamily
    remaining: np.ndarray       # (m - j,) int64, 1-based, ascending, read-only; new per step
    step: int                   # j, the number of vectors added so far
    eig: EigenSystem            # eigensystem of T_j, carried by rank-one updates from T_0 = 0
    phi: float                  # Phi^{a_j}(T_j), carried from the step that made T_j
    dft_bins: np.ndarray | None = None  # (2 k^2,) FFT-scan bins of a DFT row-subset frame; None scans densely


@dataclass(frozen=True)
class SelectionStep:
    """Per-step certificate entry (index and values after adding vector j)."""

    j: int                # 1-based step number
    index: int            # 1-based chosen vector
    feasibility: float    # U of the chosen vector, computed before adding
    potential: float      # Phi^{a_j}(T_j)
    lambda_max: float     # top eigenvalue of T_j
    # diagnostics carried in memory only, not serialized
    feasibility_sum: float | None = None   # sum of U over the unused set before the step
    remaining_count: int | None = None     # |S'| before the step
    tie_count: int | None = None           # unused vectors inside the tie band
    band_gap: float | None = None          # band edge to the nearest U outside it (inf if none)


@dataclass(frozen=True, eq=False)
class SelectionCertificate:
    """Replayable record of one greedy run: schedule, steps, final spectrum."""

    schedule: BarrierSchedule
    steps: tuple[SelectionStep, ...]
    indices: tuple[int, ...]    # final set S, 1-based ascending
    eigenvalues: np.ndarray     # spectrum of T_n, ascending
    bound: float                # a_n
    norm_deviation: float = 0.0  # worst input-norm deviation seen at selection time

    @property
    def n(self) -> int:
        return len(self.indices)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def margin(self) -> float:
        """Distance from the final norm to the final barrier (positive iff valid)."""
        return self.bound - self.lambda_max

    @property
    def excess(self) -> float:
        """lambda_max minus the trivial average n/m."""
        return self.lambda_max - self.n / self.schedule.m


# Largest entry residual, relative to the entry size 1/sqrt(m), for which a
# frame counts as a DFT row subset. Generated and JSON-loaded frames sit near
# 2e-15; a residual eps moves U by about eps relative, far inside _TIE_BAND.
_DFT_RESIDUAL_LIMIT = 1e-13


def _dft_row_offsets(vectors: np.ndarray) -> np.ndarray | None:
    """r_d - r_0 mod m per column if row i is phi_i omega^(i r_d) / sqrt(m) with |phi_i| = 1, else None.

    Only the differences r_d - r_e enter U, so phi_i omega^(i r_0) is taken as
    the phase of row i: its first entry times sqrt(m). Row 1 gives the
    offsets, and every entry is then checked against them.
    """
    m = vectors.shape[0]
    if m < 2:
        return None
    root = math.sqrt(m)
    if np.abs(np.abs(vectors[:, 0]) * root - 1.0).max() > _DFT_RESIDUAL_LIMIT:
        return None
    offsets = np.rint(np.angle(vectors[1] * vectors[1, 0].conj()) * (m / (2.0 * np.pi))).astype(np.int64) % m
    powers = np.exp(2j * np.pi * np.arange(m) / m)
    predicted = vectors[:, :1] * powers[(np.arange(m, dtype=np.int64)[:, None] * offsets) % m]
    if np.abs(vectors - predicted).max() * root > _DFT_RESIDUAL_LIMIT:
        return None
    return offsets


def initial_selection_state(F: FrameFamily) -> SelectionState:
    """The empty selection; a DFT row-subset frame gets the FFT scan's bins.

    Entry (d, e) of a (k, k) complex matrix goes to bin r_e - r_d mod m. The
    bins index the matrix's float64 view, so its real part goes to 2 s and its
    imaginary part to 2 s + 1, and the sums view back as m complex numbers.
    """
    eig = EigenSystem(
        eigenvalues=np.zeros(F.k, dtype=np.float64),
        eigenvectors=np.eye(F.k, dtype=np.complex128),
    )
    remaining = np.arange(1, F.m + 1, dtype=np.int64)
    remaining.setflags(write=False)
    offsets = _dft_row_offsets(F.vectors)
    bins = None
    if offsets is not None:
        bins = (2 * ((offsets[None, :] - offsets[:, None]) % F.m)[..., None] + np.arange(2)).ravel()
        bins.setflags(write=False)
    phi = _potential(eig.eigenvalues, 1.0 / math.sqrt(F.N))  # at a_0, which is 1/sqrt(N) to the bit
    return SelectionState(frame=F, remaining=remaining, step=0, eig=eig, phi=phi, dft_bins=bins)


def _scan(state: SelectionState, schedule: BarrierSchedule) -> tuple:
    """(a_{j+1}, U of every unused vector via the eigenbasis of T_j).

    U(v) = <M v, v> with M = E f(Lambda) E*. On a DFT row subset,
    <M v_i, v_i> = (1/m) sum_{d,e} M_de omega^(i (r_e - r_d)), so summing M's
    entries by (r_e - r_d) mod m and taking one inverse FFT gives U at every
    i in O(k^3 + m log m). Other frames take the (m - j, k) product.
    """
    j = state.step
    if j >= schedule.n:
        raise ValueError(f"schedule exhausted: step {j} of {schedule.n}")
    if state.remaining.size == 0:
        raise ValueError("no vectors remain")
    a = float(schedule.values[j])
    a_next = float(schedule.values[j + 1])
    eig = state.eig
    if eig.lambda_max >= a:
        raise ToleranceBreachError(
            f"state invalid at step {j}: lambda_max = {eig.lambda_max} >= a_j = {a}"
        )
    weights = _weights(eig.eigenvalues, a_next, _gap(eig.eigenvalues, a, a_next))
    bins = state.dft_bins
    if bins is None:
        return a_next, _feasibility(state.frame.vectors[state.remaining - 1], eig.eigenvectors, weights)
    M = (eig.eigenvectors * weights) @ eig.eigenvectors.conj().T
    m = state.frame.m
    sums = np.bincount(bins, M.view(np.float64).ravel(), 2 * m).view(np.complex128)
    # M is Hermitian, so sums[m - s] = conj(sums[s]) and the transform is real
    return a_next, np.fft.irfft(sums[: m // 2 + 1], m)[state.remaining - 1]


def selection_step(state: SelectionState, schedule: BarrierSchedule) -> tuple[SelectionState, SelectionStep]:
    """One greedy step: add the smallest unused index whose U is within the tie band.

    With u* the smallest U, the band is U <= u* + tau max(1, u*) for the
    module constant tau = ``_TIE_BAND``. Candidates inside it count as tied,
    so the choice does not depend on roundoff: the same subset comes out of
    the FFT and the dense scan, and with either eigensolver. Returns a new
    state, whose ``remaining`` lacks the chosen index, and the step's record.
    Raises SelectionError (with the U profile and the unused indices
    attached) if the chosen U exceeds 1 + ``_FEASIBILITY_SLACK``, and
    ToleranceBreachError if a certified inequality fails after the update.
    """
    j = state.step
    a_next, profile = _scan(state, schedule)
    u_min = float(profile.min())
    edge = u_min + _TIE_BAND * max(1.0, u_min)
    inside = profile <= edge
    pos = int(inside.argmax())  # remaining is ascending: the first is the smallest index
    u_best = float(profile[pos])
    if u_best > 1.0 + _FEASIBILITY_SLACK:
        raise SelectionError(
            f"no feasible candidate at step {j}: chosen U = {u_best} (min {u_min}) over {len(profile)} vectors "
            f"(frame invalid or tolerances breached)",
            u_profile=profile,
            remaining=state.remaining,
        )

    index = int(state.remaining[pos])
    tie_count = int(np.count_nonzero(inside))
    eig_next = _rank_one_update(state.eig, state.frame.vectors[index - 1])
    phi_next, failure = _advance(state.phi, eig_next.eigenvalues, a_next)
    if failure is not None:
        raise ToleranceBreachError(f"step {j + 1}: {failure}")

    record = SelectionStep(
        j=j + 1,
        index=index,
        feasibility=u_best,
        potential=phi_next,
        lambda_max=eig_next.lambda_max,
        feasibility_sum=float(profile.sum()),
        remaining_count=len(profile),
        tie_count=tie_count,
        band_gap=float(profile.min(where=~inside, initial=math.inf)) - edge,
    )
    remaining = np.delete(state.remaining, pos)
    remaining.setflags(write=False)
    next_state = SelectionState(
        frame=state.frame, remaining=remaining, step=j + 1, eig=eig_next, phi=phi_next, dft_bins=state.dft_bins
    )
    return next_state, record


def select_prefixes(F: FrameFamily, ns: Iterable[int]) -> Iterator[SelectionCertificate]:
    """Yield ``select_subset(F, n)`` for each n of the nondecreasing ``ns``, from one run.

    a_j does not depend on n, so the run for n is the first n steps of any
    longer run: each step is taken once. An n outside 1..m-1 raises
    ValueError when reached, after the certificates before it.
    """
    report = validate_frame(F)
    if not report.count_ok:
        raise FrameError(f"invalid frame: {report.summary()}")
    if report.norm_deviation > _RESCALE_LIMIT or report.parseval_deviation > _RESCALE_LIMIT:
        raise FrameError(f"frame too far from contract: {report.summary()}")
    state = initial_selection_state(F)
    steps = []
    for n in ns:
        if not 1 <= n < F.m:
            raise ValueError(f"n must satisfy 1 <= n < m = {F.m}, got {n}")
        if n < state.step:
            raise ValueError(f"n must not decrease, got {n} after {state.step}")
        schedule = barrier_schedule(F.N, F.m, n)
        while state.step < n:
            state, record = selection_step(state, schedule)
            steps.append(record)
        yield SelectionCertificate(
            schedule=schedule,
            steps=tuple(steps),
            indices=tuple(sorted(s.index for s in steps)),
            eigenvalues=state.eig.eigenvalues.copy(),
            bound=schedule.bound,
            norm_deviation=report.norm_deviation,
        )


def select_subset(F: FrameFamily, n: int) -> SelectionCertificate:
    """Greedily select n of the m frame vectors with ||T_n|| < a_n.

    The frame must satisfy m = k N and stay within ``_RESCALE_LIMIT`` of the
    exact norm and Parseval contracts; deviations beyond ``validate_frame``'s
    tolerance are tolerated (the guarantee degrades gracefully) and recorded
    on the certificate. Requires 1 <= n < m.
    """
    return next(select_prefixes(F, (n,)))


def averaging_identity_check(state: SelectionState, schedule: BarrierSchedule) -> tuple[float, int]:
    """Sum of U over the unused vectors, and their count m - j.

    For exact frames the sum never exceeds the count (the proof's averaging
    step), which is why the greedy choice always finds U <= 1.
    """
    profile = _scan(state, schedule)[1]
    return float(profile.sum()), len(profile)


def complement_lower_bound(F: FrameFamily, cert: SelectionCertificate) -> tuple[float, float]:
    """Smallest eigenvalue of the complement sum, against its bound 1 - a_n.

    The unselected m - n vectors sum to I - T_n, so the upper barrier on the
    selected set becomes a uniform lower bound on the complement.
    """
    _require_matching(F, cert)
    unselected = np.ones(F.m, dtype=bool)
    unselected[np.asarray(cert.indices, dtype=np.int64) - 1] = False
    rows = F.vectors[unselected]
    eig = eigh(rows.T @ rows.conj())
    return eig.lambda_min, 1.0 - cert.bound


def _require_matching(F: FrameFamily, cert: SelectionCertificate) -> None:
    sched = cert.schedule
    if sched.m != F.m or sched.N != F.N:
        raise CertificateMismatchError(
            f"frame/certificate mismatch: frame has (m, N) = ({F.m}, {F.N}), "
            f"certificate has ({sched.m}, {sched.N})"
        )
    if cert.eigenvalues.shape[0] != F.k:
        raise CertificateMismatchError(
            f"frame/certificate mismatch: frame dimension {F.k}, certificate spectrum "
            f"has {cert.eigenvalues.shape[0]} entries"
        )
    m = F.m
    for i in cert.indices:
        if not 1 <= i <= m:
            raise CertificateMismatchError(f"certificate index {i} outside 1..{m}")


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of replaying a certificate from scratch against a frame."""

    checks: tuple[tuple[str, bool, str], ...]
    final_margin: float = math.nan
    min_step_margin: float = math.nan
    min_margin_step: int | None = None  # 1-based step of min_step_margin; None if no step replayed

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.checks if not ok]

    def summary(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        lines.append(f"final margin a_n - lambda_max = {self.final_margin:.6e}")
        lines.append(f"smallest per-step margin      = {self.min_step_margin:.6e}")
        return "\n".join(lines)


_REPLAY_CHUNK_BYTES = 256 * 1024  # the T_j of one replay chunk: 256 steps at k = 8, 4 at k = 64


def _replay(F: FrameFamily, order: Iterable[int], values: np.ndarray) -> tuple:
    """Rebuild T_j = T_{j-1} + v (x) v for the 1-based ``order`` against the barriers ``values``.

    Returns, over the replayed steps: U, the spectra of the T_j, Phi^{a_j}(T_j) for each step that does not end the
    replay, ``_advance``'s failure texts by step number, and the last finite T_j. U = ||x||^2 / gap + Re <v, x> with
    x = (a_j I - T_{j-1})^{-1} v, since that resolvent is Hermitian. The T_j are built by in-place adds in selection
    order, a chunk of steps at a time; per chunk their spectra (eigvalsh of the symmetrized T_j), solves and vecdots
    take one stacked call each, with the bits of one call per step, and gaps, Phi and checks are array expressions.

    The replay ends at the first step whose norm reaches its barrier or whose T_j is not finite, which counts as an
    infinite spectrum: that step has no Phi and, if T_j is not finite, leaves T_{j-1} as the last T. Nothing past it
    is solved. Overflow inside the replay is expected, so it runs under its own errstate.
    """
    k, order = F.k, np.asarray(order, dtype=np.int64)
    c = max(1, _REPLAY_CHUNK_BYTES // (16 * k * k))
    sums = np.zeros((c + 1, k, k), dtype=np.complex128)  # T_lo, ..., T_{lo+c}
    work = np.empty((c, k, k), dtype=np.complex128)      # the symmetrized T_j, then a_j I - T_{j-1}
    us, spectra, phis = np.empty(len(order)), np.full((len(order) + 1, k), np.inf), np.empty(len(order) + 1)
    spectra[0], phis[0], failures = 0.0, _potential(np.zeros(k), float(values[0])), {}  # T_0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(order), c):
            vs = F.vectors[order[lo : lo + c] - 1]
            T, spectrum, a = sums[1 : len(vs) + 1], spectra[lo : lo + len(vs) + 1], values[lo : lo + len(vs) + 1]
            np.multiply(vs[:, :, None], vs.conj()[:, None, :], out=T)
            for i in range(len(vs)):
                T[i] += sums[i]
            sym = np.conjugate(T.transpose(0, 2, 1), out=work[: len(vs)])
            sym += T
            finite = np.isfinite(sym.view(np.float64)).all(axis=(1, 2))
            stop = len(vs) if finite.all() else int(finite.argmin())  # the first T_j not finite
            spectrum[1 : stop + 1] = np.linalg.eigvalsh(np.multiply(sym[:stop], 0.5, out=sym[:stop]))
            crossed = np.flatnonzero(spectrum[1:, -1] >= a[1:])
            end = int(crossed[0]) + 1 if crossed.size else len(vs)  # the steps to replay
            shifted = np.negative(sums[:end], out=work[:end])  # eigvalsh has copied sym
            shifted.reshape(end, k * k)[:, :: k + 1] += a[1 : end + 1, None]
            xs = np.linalg.solve(shifted, vs[:end, :, None])[..., 0]
            gaps = _gap(spectrum[:end], a[:end], a[1 : end + 1])
            us[lo : lo + end] = np.vecdot(xs, xs).real / gaps + np.vecdot(vs[:end], xs).real
            last = end - 1 if crossed.size else end  # the steps that keep the replay going
            phi = phis[lo : lo + last + 1]  # Phi of T_lo, then of the steps that go on
            phi[1:] = _potential(spectrum[1 : last + 1], a[1 : last + 1])
            rows = np.flatnonzero(np.append(phi[1:] > phi[:-1] + _POTENTIAL_SLACK, crossed.size > 0))  # rise, crossing
            failures.update({lo + i + 1: _advance(float(phi[i]), spectrum[i + 1], float(a[i + 1]))[1] for i in rows})
            if end > stop:  # every operand before T_j is finite, and numpy names overflow first
                op = "add" if np.isfinite(np.outer(vs[stop], vs[stop].conj())).all() else "multiply"
                failures[lo + end] = f"T_{lo + end} is not finite (overflow encountered in {op})"
            if last < end:  # the last finite sum is T_{j-1} if T_j is not finite
                j = lo + end
                return us[:j], spectra[1 : j + 1], phis[1:j], failures, sums[min(end, stop)]
            sums[0] = sums[len(vs)]
    return us, spectra[1:], phis[1:], failures, sums[0]


def verify_certificate(F: FrameFamily, cert: SelectionCertificate) -> CertificateReport:
    """Recompute every certificate claim from the frame alone.

    Replays the recorded choices against the formula's schedule, a chunk of steps at a time: feasibility
    of each recorded U, the strict norm bound at every step, potential monotonicity from the exact start
    k sqrt(N), agreement of the recorded numbers with recomputed ones, and the final set, spectrum and
    bound. A step whose norm reaches its barrier or whose T_j overflows ends the replay; the report then
    fails and names it instead of raising.
    """
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    try:
        _require_matching(F, cert)
        check("compatibility", True, "frame and certificate dimensions agree")
    except CertificateMismatchError as exc:
        check("compatibility", False, str(exc))
        return CertificateReport(checks=tuple(checks))

    sched = cert.schedule
    n = sched.n
    if not (0 <= n < sched.m and len(sched.values) == n + 1):
        detail = f"n = {n} with {len(sched.values)} values; need 0 <= n < m = {sched.m} and n + 1 values"
        check("schedule", False, detail)
        return CertificateReport(checks=tuple(checks))
    expected = barrier_schedule(sched.N, sched.m, n)
    sched_ok = np.allclose(sched.values, expected.values, rtol=1e-12, atol=0.0)
    check("schedule", sched_ok, "values match the formula" if sched_ok else "schedule values off formula")

    count_ok = len(cert.steps) == n and len(cert.indices) == n
    check("counts", count_ok, f"|S| = {len(cert.indices)}, steps = {len(cert.steps)}, n = {n}")
    chosen_order = [s.index for s in cert.steps]
    set_ok = sorted(chosen_order) == list(cert.indices) and len(set(chosen_order)) == len(chosen_order)
    check("index-set", set_ok, "step indices are distinct and match the final set")
    if not (count_ok and set_ok):
        return CertificateReport(checks=tuple(checks))

    us, spectra, phis, failures, T = _replay(F, chosen_order, expected.values)
    lams, r, p = spectra[:, -1], len(us), len(phis)  # r steps replayed, p with a Phi: all but one that stopped
    margins = expected.values[1 : r + 1] - lams
    min_step = int(margins.argmin()) + 1 if r else None  # the first of equal margins
    min_margin = float(margins[min_step - 1]) if r else math.inf
    recorded = np.array([(s.feasibility, s.lambda_max, s.potential) for s in cert.steps[:r]], float).reshape(r, 3)
    flags = np.zeros((r, 6), dtype=bool)  # in message order: step number, U, slack, lambda, Phi, failure
    flags[:, 0] = [s.j != j for j, s in enumerate(cert.steps[:r], 1)]
    with np.errstate(invalid="ignore"):  # an in-memory record of inf against an infinite U, as Python floats
        for col, got, want in ((1, us, recorded[:, 0]), (3, lams[:p], recorded[:p, 1]), (4, phis, recorded[:p, 2])):
            flags[: len(got), col] = np.abs(got - want) > 1e-8 * np.maximum(1.0, np.abs(got))
    flags[:, 2] = us > 1.0 + _FEASIBILITY_SLACK
    flags[np.asarray(list(failures), dtype=np.int64) - 1, 5] = True
    details = []
    for i in np.flatnonzero(flags.any(axis=1)):  # messages for flagged steps only, in step order
        step, u, lam, phi = cert.steps[i], float(us[i]), float(lams[i]), float(phis[i]) if i < p else None
        texts = (f"recorded as step {step.j}", f"recorded U {step.feasibility} != recomputed {u}",
                 f"U = {u} exceeds 1 + slack", f"recorded lambda_max {step.lambda_max} != recomputed {lam}",
                 f"recorded potential {step.potential} != recomputed {phi}", failures.get(i + 1))
        details += [f"step {i + 1}: {text}" for text, bad in zip(texts, flags[i]) if bad]
    stopped = f"replay stopped at step {r} of {n}" if p < r else None
    if stopped:  # the norm crossed its barrier or T_j overflowed: nothing after it can replay, so name it first
        details.insert(0, details.pop())
    steps_ok = not details
    check("steps", steps_ok, "all per-step claims replay" if steps_ok else "; ".join(details[:4]))

    # the one factorization with vectors, for the printed spectrum; T_j symmetrized has no defect, however huge
    eig = eigh(0.5 * (T + T.conj().T))
    spec_ok = bool(np.allclose(np.sort(eig.eigenvalues), np.sort(cert.eigenvalues), rtol=0.0, atol=1e-8))
    check("spectrum", spec_ok, "final eigenvalues match" if spec_ok else "final eigenvalues differ")
    bound_ok = abs(cert.bound - float(sched.values[-1])) <= 1e-12 * max(1.0, cert.bound)
    check("bound", bound_ok, f"bound = a_n = {cert.bound}")
    if stopped is None:
        final_margin = expected.bound - eig.lambda_max
        check("final-norm", final_margin > 0.0, f"lambda_max = {eig.lambda_max} < a_n = {expected.bound}")
    else:
        final_margin = math.nan
        check("final-norm", False, stopped)

    return CertificateReport(
        checks=tuple(checks), final_margin=final_margin, min_step_margin=min_margin, min_margin_step=min_step
    )


def eigenvalue_histogram(cert: SelectionCertificate, bins: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of the final spectrum (diagnostic; most mass sits near n/m)."""
    return np.histogram(cert.eigenvalues, bins=bins, range=(0.0, cert.bound))


# ---------------------------------------------------------------------------
# Certificate JSON. Indices are 1-based, matching {1, ..., m} everywhere in
# the API; the optional top-level "norm_deviation" preserves the input-norm
# disclosure for frames that are slightly off contract.
# ---------------------------------------------------------------------------

def certificate_to_dict(cert: SelectionCertificate) -> dict:
    return {
        "schedule": {
            "N": cert.schedule.N,
            "m": cert.schedule.m,
            "n": cert.schedule.n,
            "values": [float(v) for v in cert.schedule.values],
        },
        "steps": [
            {
                "j": s.j,
                "index": s.index,
                "U": float(s.feasibility),
                "phi": float(s.potential),
                "lambda_max": float(s.lambda_max),
            }
            for s in cert.steps
        ],
        "final": {
            "indices": [int(i) for i in cert.indices],
            "eigenvalues": [float(x) for x in cert.eigenvalues],
            "bound": float(cert.bound),
        },
        "norm_deviation": float(cert.norm_deviation),
    }


def certificate_from_dict(data: dict) -> SelectionCertificate:
    try:
        sched = data["schedule"]
        values = np.asarray([_number(v) for v in sched["values"]], dtype=np.float64)
        schedule = BarrierSchedule(
            N=_integer(sched["N"]), m=_integer(sched["m"]), n=_integer(sched["n"]), values=values
        )
        steps = tuple(
            SelectionStep(
                j=_integer(s["j"]),
                index=_integer(s["index"]),
                feasibility=_number(s["U"]),
                potential=_number(s["phi"]),
                lambda_max=_number(s["lambda_max"]),
            )
            for s in data["steps"]
        )
        final = data["final"]
        return SelectionCertificate(
            schedule=schedule,
            steps=steps,
            indices=tuple(_integer(i) for i in final["indices"]),
            eigenvalues=np.asarray([_number(x) for x in final["eigenvalues"]], dtype=np.float64),
            bound=_number(final["bound"]),
            norm_deviation=_number(data.get("norm_deviation", 0.0)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CertificateMismatchError(f"malformed certificate JSON: {exc}") from exc


def save_certificate(cert: SelectionCertificate, path) -> None:
    _write_json(certificate_to_dict(cert), path)


def load_certificate(path) -> SelectionCertificate:
    return certificate_from_dict(_read_json(path))
