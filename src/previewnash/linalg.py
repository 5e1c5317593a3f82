"""Dense real-matrix kernel for small control problems.

Everything here is sized for state/control dimensions up to a few dozen;
no sparse formats, no general nonsymmetric eigensolvers.  All operations
are pure functions of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "NonSquareError",
    "NoConvergenceError",
    "AllZeroError",
    "PowerOverflowError",
    "CholeskyCheck",
    "SingularExtremes",
    "as_matrix",
    "as_vector",
    "symmetrize",
    "cholesky_pd",
    "sym_eig",
    "singular_extremes",
    "spectral_radius_est",
    "solve_linear",
    "two_norm",
]


@dataclass(frozen=True)
class Tolerances:
    """Centralized numerical tolerances.

    pd_pivot: smallest Cholesky pivot still counted as positive.
    symmetry: allowed asymmetry before a matrix is rejected as non-symmetric.
    mat_eq: entrywise tolerance for matrix-equality checks.
    spectral_margin: required gap below 1 for closed-loop spectral radii.
    """

    pd_pivot: float = 1e-10
    symmetry: float = 1e-8
    mat_eq: float = 1e-8
    spectral_margin: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"tolerance {f.name} must be finite and non-negative, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()


class NonSquareError(ValueError):
    """Raised when an operation needs a square matrix and got something else."""


class NoConvergenceError(RuntimeError):
    """Symmetric eigensolve failed to converge."""


class AllZeroError(ValueError):
    """Matrix is numerically zero where a positive singular value is required."""


class PowerOverflowError(ArithmeticError):
    """Norm scaling broke down during the spectral radius power estimate."""


class CholeskyCheck(NamedTuple):
    is_pd: bool
    min_pivot: float


class SingularExtremes(NamedTuple):
    sigma_max: float
    sigma_min_pos: float


# what int(), float() and numpy read as numbers though JSON does not
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


def _floats(a, name: str) -> np.ndarray:
    """np.array(a, dtype=float) of numbers.  Text and booleans, which numpy
    reads as numbers but JSON does not, are a ValueError, as is an integer
    too large for a float.  An array is judged by its dtype, and only lists
    and tuples (or an object array) are walked entry by entry."""
    pending = [a]
    while pending:
        x = pending.pop()
        if isinstance(x, (list, tuple)):
            pending.extend(reversed(x))
        elif isinstance(x, np.ndarray) and x.dtype.kind == "O":
            pending.extend(reversed(x.ravel().tolist()))
        elif isinstance(x, np.ndarray) and x.dtype.kind not in "fiu":
            raise ValueError(f"{name}: entries must be numbers, got an array of dtype {x.dtype}")
        elif isinstance(x, _NOT_NUMBERS):
            raise ValueError(f"{name}: entries must be numbers, got {x!r}")
    try:
        return np.array(a, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"{name}: entries must be finite") from exc


def as_matrix(a, rows: int | None = None, cols: int | None = None, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array, optionally pinning the shape."""
    m = _floats(a, name)
    if m.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"{name}: expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"{name}: expected {cols} columns, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name}: entries must be finite")
    return m


def as_vector(a, length: int | None = None, *, name: str = "vector") -> np.ndarray:
    v = _floats(a, name).reshape(-1)
    if length is not None and v.shape[0] != length:
        raise ValueError(f"{name}: expected length {length}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name}: entries must be finite")
    return v


def _require_square(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"{name}: expected a square matrix, got shape {m.shape}")
    return m


def symmetrize(m) -> np.ndarray:
    """(M + M') / 2, of one matrix or of each matrix of a (..., k, k) stack; an
    exactly symmetric input comes back as a copy, which cannot overflow."""
    m = np.asarray(m, dtype=float)
    mt = np.swapaxes(m, -1, -2)
    return m.copy() if np.array_equal(m, mt) else (m + mt) / 2.0


def two_norm(m) -> float:
    """Spectral norm for matrices, Euclidean norm for vectors."""
    a = np.asarray(m, dtype=float)
    if a.ndim <= 1:
        return float(np.linalg.norm(a))
    return float(np.linalg.norm(a, 2))


def cholesky_pd(m, tol: float | None = None) -> CholeskyCheck:
    """Positive-definiteness check with the smallest pivot as a margin.

    The input is symmetrized as (M + M')/2 before factoring.  is_pd is true
    iff every pivot exceeds tol; the factorization stops at the first
    failing pivot, whose value is still reported.
    """
    m = _require_square(m, "cholesky_pd")
    if tol is None:
        tol = DEFAULT_TOLERANCES.pd_pivot
    is_pd, min_pivot = _pivots(m[None], tol)
    return CholeskyCheck(bool(is_pd[0]), float(min_pivot[0]))


@np.errstate(over="ignore", invalid="ignore")  # a pivot past the float range fails
def _pivots(stack: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """`cholesky_pd`'s (is_pd, min_pivot) of each matrix of a (G, k, k) stack.

    Each matrix is symmetrized alone, stops at its own first failing pivot,
    and skips a NaN pivot in its running min, as Python's `min` does.  Each
    dot product is the `@` one matrix alone takes, so results are bitwise its."""
    mt = np.swapaxes(stack, -1, -2)
    s = stack + mt
    s /= 2.0
    np.copyto(s, stack, where=np.all(stack == mt, axis=(-2, -1))[:, None, None])
    G, n = s.shape[:2]
    min_pivot = np.full(G, np.inf)
    live = np.ones(G, dtype=bool)
    for i in range(n):  # each factor overwrites its matrix's lower triangle, a column a step
        row = s[:, i, :i, None]  # row i of each factor, as a column
        pivot = s[:, i, i] - (np.swapaxes(row, -1, -2) @ row)[:, 0, 0]
        min_pivot = np.where(live & (pivot < min_pivot), pivot, min_pivot)
        live &= pivot > tol
        if not live.any():
            break
        s[:, i, i] = diag = np.sqrt(np.where(live, pivot, 1.0))  # a failed row is void
        s[:, i + 1:, i] = (s[:, i + 1:, i] - (s[:, i + 1:, :i] @ row)[..., 0]) / diag[:, None]
    return live, min_pivot


def _all_pd(sym: np.ndarray, tol: float, ratio: float = 0.0) -> bool:
    """Whether every matrix of a symmetric (..., k, k) stack has all Cholesky
    pivots above tol, and above `ratio` times its own largest pivot.

    One LAPACK factorization of the whole stack, with pivots diag(L)^2; a
    non-finite one fails (LAPACK factors a matrix of infinities).  The
    stack's smallest and largest pivots settle a pass at once.  A pivot
    that cancels to noise, about eps ||M||, can differ in sign from
    `cholesky_pd`'s, which callers ask for the failing matrix and pivot."""
    try:
        pivots = np.diagonal(np.linalg.cholesky(sym), axis1=-2, axis2=-1) ** 2
    except np.linalg.LinAlgError:
        return False
    lo, hi = pivots.min(), pivots.max()
    if hi < np.inf and lo > max(tol, ratio * hi):  # every pivot clears both floors
        return True
    ok = (tol < pivots) & (pivots < np.inf)
    if ratio:
        ok &= pivots > ratio * np.max(pivots, axis=-1, keepdims=True)
    return bool(np.all(ok))


def _not_pd(sym: np.ndarray, tol: float, ratio: float = 0.0) -> list:
    """Indices of the matrices of a symmetric (G, k, k) stack that `_all_pd` rejects.

    The stack is halved until each half passes or is one matrix, so a pass
    costs one factorization and a few failures cost O(log G) more each.
    """
    if _all_pd(sym, tol, ratio):
        return []
    if len(sym) == 1:
        return [0]
    half = len(sym) // 2
    return _not_pd(sym[:half], tol, ratio) + [half + g for g in _not_pd(sym[half:], tol, ratio)]


def _asymmetry(stack: np.ndarray) -> np.ndarray:
    """||M - M'||_2 of each matrix of a finite (..., k, k) stack; inf where M - M' overflows."""
    with np.errstate(over="ignore"):
        diff = stack - np.swapaxes(stack, -1, -2)
    if not diff.any():  # exactly symmetric: no SVD
        return np.zeros(diff.shape[:-2])
    norms = np.linalg.norm(np.nan_to_num(diff), 2, axis=(-2, -1))
    return np.where(np.isfinite(diff).all(axis=(-2, -1)), norms, np.inf)


# A Frobenius bound rules out a spectral norm only with this much to spare:
# the computed sigma_max and ||M||_F each carry about n eps of rounding.
_NORM_SLACK = 1e-10


@np.errstate(over="ignore", invalid="ignore")  # a non-finite matrix's bound is NaN
def _frobenius(stack: np.ndarray) -> np.ndarray:
    """||M||_F of each matrix of a (..., k, l) stack, scaled by max|M| so that
    tiny entries do not underflow: 0 for a zero matrix, NaN for a non-finite one."""
    peak = np.max(np.abs(stack), axis=(-2, -1), keepdims=True)
    scaled = stack / np.where(peak > 0.0, peak, 1.0)
    return peak[..., 0, 0] * np.sqrt(np.sum(np.square(scaled, out=scaled), axis=(-2, -1)))


def _two_norms(stack: np.ndarray, ceiling, bounds: np.ndarray | None = None) -> np.ndarray:
    """||M||_2 of each matrix of a (..., k, l) stack wherever it may exceed
    `ceiling` (broadcast against the leading axes), and elsewhere its bound,
    no larger than ceiling: a comparison or a maximum with the ceiling is the
    exact norm's.  The bounds are `_frobenius(stack)` unless given, each
    ||M||_F or ||M||_2 itself.  Only a NaN bound, or one past the ceiling,
    takes an SVD."""
    norms = _frobenius(stack) if bounds is None else np.array(bounds, dtype=float)
    exact = ~(norms * (1.0 + _NORM_SLACK) <= ceiling)
    if exact.any():
        norms[exact] = _svd_norms(stack[exact])
    return norms


def _svd_norms(stack: np.ndarray) -> np.ndarray:
    """np.linalg.norm(stack, 2, axis=(-2, -1)), bit for bit, without its axis bookkeeping."""
    return np.max(np.linalg.svd(stack, compute_uv=False), axis=-1)


def _max_two_norms(stack: np.ndarray, bounds: np.ndarray | None = None) -> np.ndarray:
    """`_two_norms` along axis -3 of a (..., S, k, l) stack, with the matrix of
    largest bound's norm as ceiling, and that norm appended: (..., S+1).  Their
    maximum is the exact norms', under np.fmax's NaN rule and under Python's
    `max`, which keeps a leading NaN.  Each bound is taken once, and not at
    all when given, as in `_two_norms`."""
    bounds = _frobenius(stack) if bounds is None else bounds
    top = np.argmax(bounds, axis=-1)[..., None, None, None]
    top_norm = _svd_norms(np.take_along_axis(stack, top, axis=-3))
    return np.concatenate((_two_norms(stack, top_norm, bounds), top_norm), axis=-1)


def sym_eig(m) -> np.ndarray:
    """Eigenvalues of the symmetrized input, ascending."""
    s = symmetrize(_require_square(m, "sym_eig"))
    try:
        return np.linalg.eigvalsh(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails at this size
        raise NoConvergenceError(str(exc)) from exc


def singular_extremes(m, tol: float = 1e-10) -> SingularExtremes:
    """Largest singular value and smallest singular value above tol."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("singular_extremes: expected a 2-D array")
    s = np.linalg.svd(a, compute_uv=False)
    positive = s[s > tol]
    if positive.size == 0:
        raise AllZeroError("singular_extremes: matrix is numerically zero")
    return SingularExtremes(float(s[0]), float(positive[-1]))


def spectral_radius_est(m) -> float:
    """Spectral radius estimate ||M^128||^(1/128).

    Powers are formed by 7 repeated squarings with per-step norm scaling, so
    the powers never overflow; the scale is tracked in log space, and a
    radius past the float range is inf.  Good to about a percent on
    well-conditioned eigenbases, which is all the stability verdicts here
    need.
    """
    a = _require_square(m, "spectral_radius_est")
    if a.shape[0] == 0:
        return 0.0
    norm = float(np.linalg.norm(a, 2))
    if norm == 0.0:
        return 0.0
    log_scale = 0.0
    if norm == math.inf:  # a finite matrix whose norm passes the float range: scale by max|M| first
        peak = float(np.max(np.abs(a)))
        a = a / peak
        log_scale, norm = math.log(peak), float(np.linalg.norm(a, 2))
    log_scale += math.log(norm)
    b = a / norm
    for _ in range(7):
        b = b @ b
        norm = float(np.linalg.norm(b, 2))
        if not math.isfinite(norm):
            raise PowerOverflowError("spectral_radius_est: scaling broke down")
        if norm == 0.0:
            return 0.0
        log_scale = 2.0 * log_scale + math.log(norm)
        b = b / norm
    try:
        return math.exp(log_scale / 128.0)
    except OverflowError:  # the radius passes the float range
        return math.inf


def solve_linear(a, b) -> np.ndarray:
    """Solve A X = B by LU with partial pivoting (stacked right-hand sides)."""
    a = _require_square(a, "solve_linear")
    return np.linalg.solve(a, np.asarray(b, dtype=float))
