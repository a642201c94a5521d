"""Distinguishability-based quality measures for the machine outputs.

The quality of a channel in mode direction m is the trace norm that the
channel leaves between the two perfectly distinguishable inputs +-m.  For
the one-qubit outputs this reduces to |m . linear| of the affine map; for
the environment E it is the trace norm of a mode operator built from the
expansion vectors.  The input side always has quality 1.
"""

from __future__ import annotations

import numpy as np

from .channel import AffineBlochMap, isometry_residuals, realize_e_vectors
from .circuit import channel_tomography
from .errors import NotHermitianError, NotPhysicalError
from .linalg import DEFAULT_TOL, _checked, _hermiticity_error
from .optimizer import _pair_products
from .pauli import l_table

__all__ = [
    "trace_norm",
    "min_error_rate",
    "quality_bloch",
    "omega_e",
    "quality_e",
    "quality_e_from_vectors",
    "quality_e_diagonal",
    "quality_c_from_circuit",
    "distinguishability",
]


def trace_norm(h: np.ndarray) -> float | np.ndarray:
    """Sum of absolute eigenvalues of a Hermitian matrix, or of each matrix in a stack."""
    h = _checked(h, "h", (..., "n", "n"), complex)
    err = _hermiticity_error(h)
    if np.any(err > DEFAULT_TOL * np.maximum(1.0, np.max(np.abs(h), axis=(-2, -1)))):
        raise NotHermitianError(f"matrix deviates from Hermitian by {np.max(err):.3e}")
    norms = np.sum(np.abs(np.linalg.eigvalsh(h)), axis=-1)
    return float(norms) if h.ndim == 2 else norms


def min_error_rate(rho1: np.ndarray, rho2: np.ndarray, p1: float = 0.5, p2: float = 0.5) -> float:
    """Minimum error probability for distinguishing two states with priors p1, p2."""
    if not (p1 >= 0.0 and p2 >= 0.0 and abs(p1 + p2 - 1.0) <= 1e-12):  # NaN fails too
        raise ValueError("priors must be nonnegative and sum to 1")
    rho1 = _checked(rho1, "rho1", ("n", "n"), complex)
    rho2 = _checked(rho2, "rho2", rho1.shape, complex)
    return 0.5 * (1.0 - trace_norm(p1 * rho1 - p2 * rho2))


def _unit_mode(m) -> np.ndarray:
    return _checked(m, "mode direction m", (3,), unit_tol=DEFAULT_TOL)


def quality_bloch(bmap: AffineBlochMap, m) -> float:
    """Quality of a one-qubit output in mode direction m: |m . linear|."""
    m = _unit_mode(m)
    return float(np.linalg.norm(m @ bmap.linear))


def omega_e(e_vectors: np.ndarray, m) -> np.ndarray:
    """Mode operator of the environment, sum_q m_q F_q0.

    F_lm = sum_jk L(jk;lm) |e_j><e_k| is an operator on the E space.

    Works for expansion vectors of any dimension (the block-embedded case
    included) and stacks.  Equals the partial trace over B of V (m . sigma / 2) V^dag.
    """
    m = _unit_mode(m)
    e_vectors = _checked(e_vectors, "e_vectors", (..., 4, "d"), complex)
    return np.einsum("q,jkq,...jd,...ke->...de", m, l_table()[:, :, 1:, 0], e_vectors, e_vectors.conj())


def quality_e_from_vectors(e_vectors: np.ndarray, m) -> float | np.ndarray:
    """Environment quality from concrete expansion vectors (no physicality check)."""
    return trace_norm(omega_e(e_vectors, m))


def quality_e(e_gram: np.ndarray, m) -> float | np.ndarray:
    """Environment quality Tr|Omega_E(m)| of a physical machine Gram matrix, or of each in a stack.

    Raises NotPhysicalError on every Gram matrix that check_physical fails:
    realize_e_vectors runs the one eigendecomposition and rejects negative
    eigenvalues, the Hermiticity and isometry residuals (worst of a stack) are tested here.
    """
    e_vectors = realize_e_vectors(e_gram)
    herm = _hermiticity_error(e_gram)
    residual = np.maximum(*isometry_residuals(e_gram))
    if not np.all(np.maximum(herm, residual) <= DEFAULT_TOL):
        raise NotPhysicalError(
            f"Gram matrix fails physicality: Hermiticity error {np.max(herm):.3e}, isometry residual {np.max(residual):.3e}"
        )
    return quality_e_from_vectors(e_vectors, m)


def quality_e_diagonal(beta, m) -> float:
    """Closed form of the environment quality for a centered machine.

    With axes weights c~_q = 2 (|beta_0 beta_q| + |beta_q' beta_q''|) the
    quality is the quadrature sum over the mode components.  Cross-check
    for the eigensolve path, and the analogue of quality_bloch with the
    cloning partner's axes.
    """
    p, s = _pair_products(_checked(beta, "beta", (4,)))
    m = _unit_mode(m)
    c_tilde = 2.0 * (np.abs(p) + np.abs(s))
    return float(np.sqrt(np.sum((c_tilde * m) ** 2)))


def quality_c_from_circuit(beta, m) -> float:
    """Quality of the C output computed by circuit tomography.

    For the centered machines this equals the environment quality, which is
    the statement that C is the best qubit the environment contains.
    """
    return quality_bloch(channel_tomography(beta, "C"), m)


def distinguishability(rep, x1, x2, channel: str = "B") -> float:
    """Residual distinguishability of two Bloch vectors after the channel.

    Args:
        rep: AffineBlochMap for channels "B"/"C", Gram matrix for "E".
        x1, x2: input Bloch vectors (length at most 1).
        channel: which output carries the pair.

    Returns (|x1 - x2| / 2) * Q(unit direction); 0 for identical inputs.
    """
    x1 = _checked(x1, "x1", (3,))
    x2 = _checked(x2, "x2", (3,))
    for x in (x1, x2):
        if x @ x > 1.0 + DEFAULT_TOL:
            raise ValueError("Bloch vectors must lie inside the unit ball")
    diff = x1 - x2
    dist = float(np.linalg.norm(diff))
    if dist == 0.0:
        return 0.0
    direction = diff / dist
    ch = channel.upper() if isinstance(channel, str) else channel
    if ch in ("B", "C"):
        q = quality_bloch(rep, direction)
    elif ch == "E":
        q = quality_e(rep, direction)
    else:
        raise ValueError("channel must be 'B', 'C' or 'E'")
    return 0.5 * dist * q
