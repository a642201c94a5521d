"""Small dense linear-algebra helpers shared across the package."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NotNormalizedError

__all__ = [
    "DEFAULT_TOL",
    "dagger",
    "hermiticity_error",
    "partial_trace",
    "random_unitary",
    "random_isometry",
]

# Default tolerance of the physicality, normalization and attainability tests.
DEFAULT_TOL = 1e-9

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@functools.lru_cache(maxsize=256)  # few distinct (shape, spec) pairs occur
def _fits(shape: tuple, spec: tuple) -> bool:
    if spec[:1] == (...,):
        spec = spec[1:]
        shape = shape[len(shape) - len(spec) :]  # stays shorter than spec if it was
    if len(shape) != len(spec):
        return False
    sizes: dict[str, int] = {}
    for n, want in zip(shape, spec):
        if isinstance(want, str):
            factor = int(want[:-1] or 1)
            if n % factor or sizes.setdefault(want[-1], n // factor) != n // factor:
                return False
        elif n != want:
            return False
    return True


def _checked(
    x, name: str, shape: tuple, dtype=float, *, finite: bool = True, unit_tol: float | None = None
) -> np.ndarray:
    """x as an array of dtype, after the package's one set of input checks.

    shape lists the wanted axis lengths: an int is an exact length, a name
    such as "d" any length shared by every axis of that name ("2d" is twice
    it), and a leading ... any number of leading axes.  A wrong shape or a
    non-finite entry raises ValueError naming the argument; finite=False
    skips the finiteness test, for predicates that answer False on such
    entries.  With unit_tol the squared norm must lie within unit_tol of 1,
    which non-finite entries fail too (NotNormalizedError).
    """
    a = np.asarray(x, dtype=dtype)
    if a.shape != shape and not _fits(a.shape, shape):
        text = ", ".join("..." if n is ... else str(n) for n in shape)
        raise ValueError(f"{name} must have shape ({text}{',' * (len(shape) == 1)}), got {a.shape}")
    if unit_tol is not None:
        norm_sq = float(np.vdot(a, a).real)
        if not abs(norm_sq - 1.0) <= unit_tol:
            raise NotNormalizedError(f"{name} must have unit squared norm, got {norm_sq!r}")
    elif finite and not np.isfinite(a).all():
        raise ValueError(f"{name} must have finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def hermiticity_error(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0


def partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every tensor factor of a square matrix except those in keep.

    Args:
        mat: square matrix on the tensor product of the given factors.
        dims: dimension of each factor, in order.
        keep: index or iterable of indices of the factors to retain.

    Returns:
        The reduced matrix on the retained factors, in their original order.
    """
    dims = tuple(int(d) for d in dims)
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted(int(k) for k in keep))
    n = len(dims)
    total = math.prod(dims)
    mat = _checked(mat, "mat", (total, total), dtype=None)
    if not keep:
        raise ValueError("keep must name at least one factor")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")

    row = list(_LETTERS[:n])
    col = list(_LETTERS[n : 2 * n])
    for i in range(n):
        if i not in keep:
            col[i] = row[i]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    subscripts = "".join(row) + "".join(col) + "->" + out
    kept = math.prod(dims[i] for i in keep)
    return np.einsum(subscripts, mat.reshape(dims + dims)).reshape(kept, kept)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary from a QR-factored complex Gaussian."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Random rows x cols matrix with orthonormal columns."""
    if cols > rows:
        raise ValueError("an isometry needs at least as many rows as columns")
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(z)
    return q[:, :cols]
