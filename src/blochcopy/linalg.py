"""Small dense linear-algebra helpers shared across the package."""

from __future__ import annotations

import functools

import numpy as np

from .errors import NotNormalizedError

__all__ = [
    "DEFAULT_TOL",
    "dagger",
    "random_isometry",
]

# Default tolerance of the physicality, normalization and attainability tests.
DEFAULT_TOL = 1e-9


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


def _in_unit_interval(x, name: str) -> float:
    """x as a float, which must lie in [0, 1]; NaN and infinities fail too."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return x


def _tolerance(tol) -> float:
    """A tol argument as a float, which must be finite and at least 0; NaN fails too."""
    tol = float(tol)
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a nonnegative finite number, got {tol}")
    return tol


def dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(np.conj(m), -1, -2)


def _hermiticity_error(m: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of m from its conjugate transpose, one per matrix (0-d for one matrix).

    Unchecked: every caller has passed m through _checked as square matrices.
    """
    return np.abs(m - dagger(m)).max(axis=(-2, -1), initial=0.0)


def random_isometry(rows: int, cols: int, rng: np.random.Generator, size: tuple = ()) -> np.ndarray:
    """Random rows x cols matrix with orthonormal columns, or a size-shaped stack of them.

    Each matrix draws its real parts, then its imaginary parts, so a stack
    equals one call per matrix in order, bit for bit, and leaves rng where
    those calls do.
    """
    if cols > rows:
        raise ValueError("an isometry needs at least as many rows as columns")
    z = rng.standard_normal((*size, 2, rows, cols))
    q, _ = np.linalg.qr(z[..., 0, :, :] + 1j * z[..., 1, :, :])
    return q[..., :cols]
