"""Central tolerance record shared by every module."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances and resource caps, overridable per call.

    Defaults are strict where exact structure is expected (harmonic frames,
    recorded certificates) and loose only where dense floating-point algebra
    accumulates roundoff.
    """

    hermitian_atol: float = 1e-12        # conjugate-symmetry defect, absolute
    jacobi_offdiag_rtol: float = 1e-13   # off-diagonal target, rel. Frobenius
    jacobi_max_sweeps: int = 100
    eigh_backend: str = "lapack"         # "lapack" or "jacobi"
    frame_tol: float = 1e-9              # frame validation (norms, Parseval)
    rescale_limit: float = 1e-6          # worst norm deviation we will repair
    gap_floor: float = 1e-14             # smallest usable potential gap
    feasibility_slack: float = 1e-9      # U <= 1 + slack admits a candidate
    potential_slack: float = 1e-10       # allowed potential rise per step
    m_cap: int = 100_000                 # largest frame we will construct
    katz_build_cap: int = 200_000        # largest |X| = C(2N, N) enumerated
    katz_exhaustive_max_n: int = 6       # exhaustive dichotomy up to 2^(2N)
    katz_default_trials: int = 100_000   # sampled-mode subset draws

    def with_overrides(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLS = Tolerances()
