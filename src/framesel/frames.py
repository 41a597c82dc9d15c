"""Equal-norm Parseval frames and their Gram / projection counterparts.

A frame here is m vectors in C^k, each of squared norm 1/N, whose rank-one
sum is the identity; necessarily m = k N. Vectors are stored as the rows of
an (m, k) complex array. The Gram matrix of such a frame is an m x m
projection with constant diagonal 1/N, and conversely any projection with
constant diagonal 1/N compresses back to a frame on its range; both
directions are implemented below.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FrameError
from .hermitian import eigh

_FRAME_TOL = 1e-9        # frame validation (norms, Parseval), unless validate_frame is given a tol
_RESCALE_LIMIT = 1e-6    # worst norm deviation rescale_norms repairs and select_subset accepts
_M_CAP = 100_000         # largest frame the constructors build


@dataclass(frozen=True, eq=False)
class FrameFamily:
    """m = k N vectors of squared norm 1/N forming a Parseval frame for C^k."""

    k: int
    N: int
    vectors: np.ndarray  # (m, k) complex128, row i holds vector i

    def __post_init__(self):
        if self.k < 1:
            raise FrameError(f"dimension k must be positive, got {self.k}")
        if self.N < 2:
            raise FrameError(f"norm parameter N must be at least 2, got {self.N}")
        vs = np.asarray(self.vectors, dtype=np.complex128)
        if vs.ndim != 2 or vs.shape[1] != self.k:
            raise FrameError(f"vector array must have shape (m, {self.k}), got {vs.shape}")
        if not np.isfinite(vs).all():
            raise FrameError("frame vectors contain NaN or Inf")
        vs = np.ascontiguousarray(vs)
        vs.setflags(write=False)
        object.__setattr__(self, "vectors", vs)

    @property
    def m(self) -> int:
        return int(self.vectors.shape[0])

    def rank_one_sum(self, indices=None) -> np.ndarray:
        """sum of v_i (x) v_i over the given 1-based indices (all by default)."""
        if indices is None:
            vs = self.vectors
        else:
            idx = _checked_indices(indices, self.m)
            vs = self.vectors[idx - 1]
        return vs.T @ vs.conj()


@dataclass(frozen=True)
class DiagonalSelector:
    """A sorted subset S of {1, ..., m}, i.e. a diagonal 0/1 projection."""

    m: int
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = _checked_indices(self.indices, self.m)
        object.__setattr__(self, "indices", tuple(int(i) for i in idx))

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class FrameValidationReport:
    """Deviations of a candidate frame from the exact contracts."""

    k: int
    N: int
    m: int
    count_ok: bool            # m == k N
    norm_deviation: float     # max_i | ||v_i||^2 - 1/N |
    parseval_deviation: float  # || sum v_i (x) v_i - I ||_F
    tol: float

    @property
    def passed(self) -> bool:
        return self.count_ok and self.norm_deviation <= self.tol and self.parseval_deviation <= self.tol

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: m={self.m} (expected {self.k * self.N}), "
            f"norm deviation {self.norm_deviation:.3e}, "
            f"Parseval deviation {self.parseval_deviation:.3e}, tol {self.tol:.1e}"
        )


def _checked_indices(indices, m: int) -> np.ndarray:
    idx = np.asarray(sorted(int(i) for i in indices), dtype=np.int64)
    if idx.size and (idx[0] < 1 or idx[-1] > m):
        raise FrameError(f"indices must lie in 1..{m}")
    if np.unique(idx).size != idx.size:
        raise FrameError("indices must be distinct")
    return idx


def _check_parameters(k: int, N: int) -> int:
    if k < 1:
        raise FrameError(f"dimension k must be positive, got {k}")
    if N < 2:
        raise FrameError(f"norm parameter N must be at least 2, got {N}")
    m = k * N
    if m > _M_CAP:
        raise FrameError(f"m = k*N = {m} exceeds the cap {_M_CAP}")
    return m


def _dft_rows(m: int, rows: np.ndarray) -> np.ndarray:
    """The DFT rows ``rows`` as m frame vectors: entry (i, d) is omega^(i rows[d]) / sqrt(m)."""
    i = np.arange(m, dtype=np.int64)[:, None]
    return np.exp(2j * np.pi * ((i * rows[None, :]) % m) / m) / math.sqrt(m)


def harmonic_frame(k: int, N: int) -> FrameFamily:
    """Frame from the first k rows of the m-point DFT matrix, m = k N.

    Vector i has entries omega^(i d) / sqrt(m) for d = 0..k-1 with
    omega = exp(2 pi i / m). Row-orthogonality of the DFT makes the frame
    exactly Parseval up to roundoff, with every squared norm k/m = 1/N.
    """
    m = _check_parameters(k, N)
    return FrameFamily(k=k, N=N, vectors=_dft_rows(m, np.arange(k, dtype=np.int64)))


def modulated_harmonic_frame(k: int, N: int, seed: int) -> FrameFamily:
    """Seeded variant: a random k-subset of DFT rows, random phase per vector.

    Row subsets of the scaled DFT keep the frame Parseval with equal norms,
    and a unit-modulus phase on a vector leaves its rank-one term unchanged.
    Randomness comes from ``numpy.random.default_rng(seed)`` (PCG64), so a
    fixed seed always reproduces the same frame.
    """
    m = _check_parameters(k, N)
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(m, size=k, replace=False))
    phases = np.exp(2j * np.pi * rng.random(m))
    return FrameFamily(k=k, N=N, vectors=_dft_rows(m, rows) * phases[:, None])


def validate_frame(F: FrameFamily, tol: float = _FRAME_TOL) -> FrameValidationReport:
    """Measure norm, Parseval, and count deviations; pass iff all within ``tol``."""
    with np.errstate(over="ignore", invalid="ignore"):  # squares that overflow read as inf/NaN deviations
        norms2 = np.sum(np.abs(F.vectors) ** 2, axis=1)
        norm_dev = float(np.max(np.abs(norms2 - 1 / F.N))) if F.m else 0.0
        parseval_dev = float(np.linalg.norm(F.rank_one_sum() - np.eye(F.k)))
    return FrameValidationReport(
        k=F.k,
        N=F.N,
        m=F.m,
        count_ok=(F.m == F.k * F.N),
        norm_deviation=norm_dev,
        parseval_deviation=parseval_dev,
        tol=float(tol),
    )


def rescale_norms(F: FrameFamily) -> FrameFamily:
    """Rescale every vector to squared norm exactly 1/N, warning when it acts.

    Refuses deviations above ``_RESCALE_LIMIT``; those indicate a wrong frame
    rather than accumulated roundoff.
    """
    with np.errstate(over="ignore"):  # an infinite deviation is refused below
        norms2 = np.sum(np.abs(F.vectors) ** 2, axis=1)
    dev = float(np.max(np.abs(norms2 - 1.0 / F.N))) if F.m else 0.0
    if dev > _RESCALE_LIMIT:
        raise FrameError(
            f"norm deviation {dev:.3e} exceeds the rescale limit {_RESCALE_LIMIT:.1e}"
        )
    if dev > _FRAME_TOL:
        warnings.warn(f"rescaling frame vectors: worst norm deviation {dev:.3e}", stacklevel=2)
    scale = 1.0 / np.sqrt(norms2 * F.N)
    return FrameFamily(k=F.k, N=F.N, vectors=F.vectors * scale[:, None])


def frame_to_projection(F: FrameFamily) -> np.ndarray:
    """The m x m Gram matrix G[i, j] = <v_j, v_i>: a rank-k projection with diagonal 1/N."""
    report = validate_frame(F)
    if not report.passed:
        raise FrameError(f"invalid frame: {report.summary()}")
    return F.vectors.conj() @ F.vectors.T


def projection_to_frame(P: np.ndarray, N: int) -> FrameFamily:
    """Compress a constant-diagonal projection onto its range as a frame.

    ``P`` must be an m x m projection whose diagonal entries all equal 1/N;
    the result is the family P e_i expressed in an orthonormal eigenbasis of
    the range, which has dimension k = rank(P) = m / N. A P that is not
    Hermitian, or holds NaN or Inf, raises ValueError from ``eigh``; the other
    contracts raise FrameError.
    """
    if N < 2:
        raise FrameError(f"norm parameter N must be at least 2, got {N}")
    eig = eigh(P)
    m = eig.dim
    # for Hermitian P = E diag(lam) E*, ||P^2 - P||_F = ||lam^2 - lam|| and ||P||_F = ||lam||
    lam = eig.eigenvalues
    idem_dev = float(np.linalg.norm(lam * lam - lam))
    if idem_dev > _FRAME_TOL * max(1.0, float(np.linalg.norm(lam))):
        raise FrameError(f"not a projection: ||P^2 - P||_F = {idem_dev:.3e}")
    diag_dev = float(np.max(np.abs(np.real(np.diagonal(P)) - 1.0 / N)))
    if diag_dev > _FRAME_TOL:
        raise FrameError(f"diagonal entries deviate from 1/{N} by {diag_dev:.3e}")
    if m % N != 0:
        raise FrameError(f"rank m/N = {m}/{N} is not integral")
    k = m // N
    range_mask = lam > 0.5
    rank = int(np.count_nonzero(range_mask))
    if rank != k:
        raise FrameError(f"rank {rank} does not match trace m/N = {k}")
    basis = eig.eigenvectors[:, range_mask]
    return FrameFamily(k=k, N=N, vectors=basis.conj())


def compressed_gram(P: np.ndarray, selector: DiagonalSelector) -> np.ndarray:
    """The principal submatrix of P on the selector's rows and columns.

    Its spectral norm is ||Q P Q|| for the diagonal projection Q onto the
    selected coordinates, and equals the norm of the corresponding rank-one
    sum when P is the Gram matrix of a frame.
    """
    P = np.asarray(P, dtype=np.complex128)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise FrameError(f"expected a square matrix, got shape {P.shape}")
    if selector.m != P.shape[0]:
        raise FrameError(f"selector size {selector.m} does not match matrix size {P.shape[0]}")
    idx = np.asarray(selector.indices, dtype=np.int64) - 1
    return P[np.ix_(idx, idx)]


# ---------------------------------------------------------------------------
# JSON interchange. Complex numbers are two-element [re, im] arrays; NaN and
# Inf are refused in both directions (on reading, frames by FrameFamily and
# other numbers by _number); doubles survive a write/read round trip
# bit for bit (shortest-repr decimal serialization). Loaders check types and
# coerce nothing: a count is an integer, a value is a number, and neither may
# be a string or a boolean.
# ---------------------------------------------------------------------------

def _integer(value) -> int:
    """``value`` if it is an integer; TypeError for anything else, floats and booleans included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _number(value) -> float:
    """``value`` as a float if it is a finite real number; TypeError for strings, booleans and the rest."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _encode_complex_rows(rows: np.ndarray) -> list:
    # a complex128 entry is its [re, im] pair of doubles in memory
    return np.ascontiguousarray(rows, dtype=np.complex128)[..., None].view(np.float64).tolist()


def _decode_complex_rows(data, rows: int, cols: int) -> np.ndarray:
    try:
        # [] has shape (0,) as an array: it is the empty block of any row length.
        # Without a dtype numpy converts nothing: strings and nulls keep the
        # array from being numeric.
        pairs = np.empty((0, cols, 2)) if data == [] else np.array(data)
    except (TypeError, ValueError) as exc:
        raise FrameError(f"frame vectors: entries must be [re, im] pairs of numbers ({exc})") from exc
    if pairs.shape != (rows, cols, 2):
        raise FrameError(f"frame vectors: expected {rows} rows of {cols} [re, im] pairs, got shape {pairs.shape}")
    if pairs.dtype.kind not in "fiu":
        raise FrameError(f"frame vectors: entries must be numbers within double range (read as {pairs.dtype})")
    # a boolean among numbers becomes 0 or 1, so only those entries need a look
    hits = np.flatnonzero((pairs == 0) | (pairs == 1))
    for r, c, p in zip(*np.unravel_index(hits, pairs.shape)):
        if isinstance(data[r][c][p], bool):
            raise FrameError(f"frame vectors: entry [{r}][{c}][{p}] is a boolean, not a number")
    # NaN and Inf pass here: FrameFamily refuses them
    return pairs.astype(np.float64).view(np.complex128)[..., 0]


def frame_to_dict(F: FrameFamily) -> dict:
    return {"k": F.k, "N": F.N, "m": F.m, "vectors": _encode_complex_rows(F.vectors)}


def frame_from_dict(data: dict) -> FrameFamily:
    try:
        k, N, m = (_integer(data[key]) for key in ("k", "N", "m"))
    except (KeyError, TypeError) as exc:
        raise FrameError(f"frame JSON missing or malformed header: {exc}") from exc
    vectors = _decode_complex_rows(data.get("vectors"), m, k)
    return FrameFamily(k=k, N=N, vectors=vectors)


def _write_json(data: dict, path) -> None:
    """The package's JSON file form: utf-8, no NaN or Inf, indent 1, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, allow_nan=False, indent=1)
        fh.write("\n")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:  # nesting deeper than the decoder's stack
            raise ValueError(f"malformed JSON input: {exc}") from None


def save_frame(F: FrameFamily, path) -> None:
    """Write ``frame_to_dict(F)`` in the package's JSON file form, one vector at a time.

    The bytes are ``_write_json``'s: at indent 1 json puts every list element
    on a line of its own and writes a float as its ``float.__repr__``, so a
    filled-in row template gives them without json's pure-Python encoder and
    without the whole document in memory.
    """
    row = "  [\n" + ",\n".join(["   [\n    %r,\n    %r\n   ]"] * F.k) + "\n  ]"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "k": {F.k},\n "N": {F.N},\n "m": {F.m},\n "vectors": ')
        # a complex128 row is its k [re, im] pairs of doubles in memory
        for i, pairs in enumerate(F.vectors.view(np.float64)):
            fh.write((",\n" if i else "[\n") + row % tuple(pairs.tolist()))
        fh.write("\n ]\n}\n" if F.m else "[]\n}\n")


def load_frame(path) -> FrameFamily:
    return frame_from_dict(_read_json(path))

