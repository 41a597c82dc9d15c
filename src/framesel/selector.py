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
margins, and potentials; ``verify_certificate`` recomputes all of it from
scratch with LAPACK and without the update: each T_j's eigenvalues alone
(Phi, the gap and the norm need no eigenvectors), each U from one linear
solve with a_j I - T_{j-1}, and one full factorization of T_n at the end.
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


# Half-width of the greedy rule's tie band, relative to max(1, u*). The same U
# differs by about 1e-15 between the FFT and the dense scan and by up to 1e-13
# between eigh and the tests' Jacobi oracle, so roundoff never reaches the band
# edge. On harmonic frames the U that are not tied sit 2e-7 or more above u*;
# seeded modulated frames have true gaps of any size, and SelectionStep.band_gap
# records how close each decision came. The band is ten times narrower than
# _FEASIBILITY_SLACK, so a chosen U inside it stays feasible.
_TIE_BAND = 1e-10
_FEASIBILITY_SLACK = 1e-9  # U <= 1 + slack admits a candidate
_POTENTIAL_SLACK = 1e-10   # allowed potential rise per step
_GAP_FLOOR = 1e-14         # smallest usable potential gap


def _potential(eigenvalues: np.ndarray, a: float) -> float:
    if a <= eigenvalues[-1]:
        raise BarrierError(f"barrier violated: a = {a} <= lambda_max = {eigenvalues[-1]}")
    return float((1.0 / (a - eigenvalues)).sum())  # the method skips np.sum's dispatch


# The barrier step from (T, a, a'), shared by every caller: the potential gap,
# U over a block of rows, and the update T -> T + v (x) v with its two checks.

def _gap(eigenvalues: np.ndarray, a: float, a_next: float) -> float:
    # Phi^a - Phi^{a_next} without cancellation: sum (a_next - a)/((a - l)(a_next - l))
    gap = float((a_next - a) * (1.0 / ((a - eigenvalues) * (a_next - eigenvalues))).sum())
    if gap <= _GAP_FLOOR:
        raise BarrierError(f"potential gap {gap:.3e} at or below the floor {_GAP_FLOOR:.1e}")
    return gap


def _weights(eigenvalues: np.ndarray, a_next: float, gap: float) -> np.ndarray:
    """f(lambda) = 1/(gap (a' - lambda)^2) + 1/(a' - lambda), so that U(v) = <E f(Lambda) E* v, v>."""
    inv_next = 1.0 / (a_next - eigenvalues)
    return inv_next * inv_next / gap + inv_next


def _feasibility(rows: np.ndarray, eigenvectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """U of each row of the (r, k) block ``rows``, given T's eigenvectors and ``_weights``."""
    return np.abs(rows @ eigenvectors.conj()) ** 2 @ weights


def _rank_one_update(eig: EigenSystem, v: np.ndarray) -> EigenSystem:
    """The eigensystem of T + v (x) v from eig, the eigensystem of T, by one real k x k eigh.

    With z = E* v, r = |z| and p = z/r (p = 1 where r = 0), E diag(p) r = E z = v,
    so T + v (x) v = E diag(p) (Lambda + r r^T) diag(p)* E*. The middle matrix is
    real symmetric; LAPACK factors it as W diag(mu) W^T, deflation and clusters
    included, and E' = E diag(p) W (Bunch, Nielsen and Sorensen, Numer. Math. 1978).
    """
    E = eig.eigenvectors
    z = E.conj().T @ v
    r = np.abs(z)
    p = np.ones_like(z)
    np.divide(z, r, out=p, where=r > 0.0)
    mu, W = np.linalg.eigh(np.diag(eig.eigenvalues) + np.outer(r, r))
    Ep = E * p
    vectors = np.empty_like(Ep)
    vectors.real = Ep.real @ W  # two real GEMMs beat one complex-by-real product
    vectors.imag = Ep.imag @ W
    return EigenSystem(eigenvalues=mu, eigenvectors=vectors)


def _advance(eigenvalues: np.ndarray, eigenvalues_next: np.ndarray, a: float, a_next: float) -> tuple:
    """(Phi^{a_next} after the step, failure), given the ascending spectra of T and of T + v (x) v.

    ``failure`` is None when the norm stays below a_next and the potential does
    not rise above Phi^a(T) by more than ``_POTENTIAL_SLACK``; otherwise it names
    the conclusion that broke. The potential is None when the norm broke.
    """
    phi = _potential(eigenvalues, a)
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
    phi_after, failure = _advance(eigh(T).eigenvalues, eigh(outer_product_accumulate(T, v)).eigenvalues, a, a_next)
    if failure is not None:
        raise ToleranceBreachError(failure)
    return True, phi_after


@dataclass(frozen=True, eq=False)
class SelectionState:
    """Mid-run snapshot, never modified: the unused indices and the eigensystem of T_j.

    T_j itself is not kept, and the selection order lives in the step records.
    """

    frame: FrameFamily
    remaining: np.ndarray       # (m - j,) int64, 1-based, ascending, read-only; new per step
    step: int                   # j, the number of vectors added so far
    eig: EigenSystem            # eigensystem of T_j, carried by rank-one updates from T_0 = 0
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
    return SelectionState(frame=F, remaining=remaining, step=0, eig=eig, dft_bins=bins)


def _scan(state: SelectionState, schedule: BarrierSchedule) -> tuple:
    """(a_j, a_{j+1}, eigensystem of T_j, U of every unused vector via that eigenbasis).

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
        return a, a_next, eig, _feasibility(state.frame.vectors[state.remaining - 1], eig.eigenvectors, weights)
    M = (eig.eigenvectors * weights) @ eig.eigenvectors.conj().T
    m = state.frame.m
    sums = np.bincount(bins, M.view(np.float64).ravel(), 2 * m).view(np.complex128)
    # M is Hermitian, so sums[m - s] = conj(sums[s]) and the transform is real
    return a, a_next, eig, np.fft.irfft(sums[: m // 2 + 1], m)[state.remaining - 1]


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
    a, a_next, eig, profile = _scan(state, schedule)
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
    eig_next = _rank_one_update(eig, state.frame.vectors[index - 1])
    phi_next, failure = _advance(eig.eigenvalues, eig_next.eigenvalues, a, a_next)
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
        frame=state.frame, remaining=remaining, step=j + 1, eig=eig_next, dft_bins=state.dft_bins
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
    profile = _scan(state, schedule)[3]
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
    for i in cert.indices:
        if not 1 <= i <= F.m:
            raise CertificateMismatchError(f"certificate index {i} outside 1..{F.m}")


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of replaying a certificate from scratch against a frame."""

    checks: tuple[tuple[str, bool, str], ...]
    final_margin: float
    min_step_margin: float
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


def _replay(F: FrameFamily, order: Iterable[int], values: np.ndarray) -> Iterator[tuple]:
    """Rebuild T_j = T_{j-1} + v (x) v for the 1-based ``order`` against the barriers ``values``.

    Yields (U, spectrum of T_j, Phi^{a_j}(T_j), failure, T_j) per step, as
    ``_advance`` gives the last two. U comes from one solve
    x = (a_j I - T_{j-1})^{-1} v, since that resolvent is Hermitian:
    <(a_j I - T)^{-2} v, v> = ||x||^2 and <(a_j I - T)^{-1} v, v> = Re <v, x>.
    The spectra come from LAPACK without eigenvectors, on the symmetrized T_j;
    none of this goes through the selection's rank-one update.

    Under ``verify_certificate``'s errstate a T_j that overflows ends the replay:
    its step yields an infinite spectrum, no Phi, and T_{j-1}, the last finite sum.
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
        phi, failure = _advance(eigenvalues, eigenvalues_next, a, a_next)
        yield u, eigenvalues_next, phi, failure, T
        eigenvalues = eigenvalues_next


def verify_certificate(F: FrameFamily, cert: SelectionCertificate) -> CertificateReport:
    """Recompute every certificate claim from the frame alone.

    Replays the recorded choices step by step against the formula's
    schedule: feasibility of each recorded U, the strict norm bound at every
    step, potential monotonicity from the exact start k sqrt(N), agreement of
    the recorded numbers with recomputed ones, and the final set, spectrum,
    and bound. A step whose norm reaches its barrier or whose T_j overflows
    ends the replay; the report then fails and names it instead of raising.
    """
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    try:
        _require_matching(F, cert)
        check("compatibility", True, "frame and certificate dimensions agree")
    except CertificateMismatchError as exc:
        check("compatibility", False, str(exc))
        return CertificateReport(checks=tuple(checks), final_margin=math.nan, min_step_margin=math.nan)

    sched = cert.schedule
    n = sched.n
    if not (0 <= n < sched.m and len(sched.values) == n + 1):
        detail = f"n = {n} with {len(sched.values)} values; need 0 <= n < m = {sched.m} and n + 1 values"
        check("schedule", False, detail)
        return CertificateReport(checks=tuple(checks), final_margin=math.nan, min_step_margin=math.nan)
    expected = barrier_schedule(sched.N, sched.m, n)
    sched_ok = np.allclose(sched.values, expected.values, rtol=1e-12, atol=0.0)
    check("schedule", sched_ok, "values match the formula" if sched_ok else "schedule values off formula")

    count_ok = len(cert.steps) == n and len(cert.indices) == n
    check("counts", count_ok, f"|S| = {len(cert.indices)}, steps = {len(cert.steps)}, n = {n}")
    chosen_order = [s.index for s in cert.steps]
    set_ok = sorted(chosen_order) == list(cert.indices) and len(set(chosen_order)) == len(chosen_order)
    check("index-set", set_ok, "step indices are distinct and match the final set")
    if not (count_ok and set_ok):
        return CertificateReport(checks=tuple(checks), final_margin=math.nan, min_step_margin=math.nan)

    # T_0 = 0 replays zero steps: the final factorization below still runs on it
    T = np.zeros((F.k, F.k), dtype=np.complex128)
    min_margin, min_step, stopped = math.inf, None, None
    details = []
    replay = _replay(F, chosen_order, expected.values)
    # numpy raises on overflow and NaN, also in the generator the loop resumes; _replay stops there
    with np.errstate(over="raise", invalid="raise"):
        for (j, step), (u, eigenvalues, phi, failure, T) in zip(enumerate(cert.steps, 1), replay):
            if step.j != j:
                details.append(f"step {j}: recorded as step {step.j}")
            if abs(u - step.feasibility) > 1e-8 * max(1.0, abs(u)):
                details.append(f"step {j}: recorded U {step.feasibility} != recomputed {u}")
            if u > 1.0 + _FEASIBILITY_SLACK:
                details.append(f"step {j}: U = {u} exceeds 1 + slack")
            lam = float(eigenvalues[-1])
            margin = float(expected.values[j]) - lam
            if margin < min_margin:
                min_margin, min_step = margin, j
            if phi is None:
                # the norm crossed its barrier or T_j overflowed: nothing after it can replay, so name it first
                details.insert(0, f"step {j}: {failure}")
                stopped = f"replay stopped at step {j} of {n}"
                break
            if abs(lam - step.lambda_max) > 1e-8 * max(1.0, abs(lam)):
                details.append(f"step {j}: recorded lambda_max {step.lambda_max} != recomputed {lam}")
            if abs(phi - step.potential) > 1e-8 * max(1.0, abs(phi)):
                details.append(f"step {j}: recorded potential {step.potential} != recomputed {phi}")
            if failure is not None:
                details.append(f"step {j}: {failure}")
    steps_ok = not details
    check("steps", steps_ok, "all per-step claims replay" if steps_ok else "; ".join(details[:4]))

    # the replay's one factorization with eigenvectors, for the final spectrum the report prints
    eig = eigh(T)
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
