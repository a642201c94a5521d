"""Distinguishability-based quality measures for the machine outputs.

The quality of a channel in mode direction m is the trace norm that the
channel leaves between the two perfectly distinguishable inputs +-m.  For
the one-qubit outputs this reduces to |m . linear| of the affine map; for
the environment E it is the trace norm of a mode operator built from the
expansion vectors.  The input side always has quality 1.
"""

from __future__ import annotations

import numpy as np

from .channel import AffineBlochMap, _affine_map, _isometry_residuals, _realized
from .circuit import channel_tomography
from .errors import NotHermitianError, NotPhysicalError
from .linalg import DEFAULT_TOL, _checked, _hermiticity_error, _in_unit_ball, _in_unit_interval
from .optimizer import _pair_products
from .pauli import l_table

__all__ = [
    "trace_norm",
    "min_error_rate",
    "quality_bloch",
    "quality_e",
    "quality_e_diagonal",
    "quality_c_from_circuit",
    "distinguishability",
]


# L(jk; q0) for q = 1, 2, 3: the coefficients of the mode operators F_q0
_MODE_L = l_table()[:, :, 1:, 0]


def trace_norm(h: np.ndarray) -> float | np.ndarray:
    """Sum of absolute eigenvalues of a Hermitian matrix, or of each matrix in a stack."""
    h = _checked(h, "h", (..., "n", "n"), complex)
    norms = _trace_norms(h)
    return float(norms) if h.ndim == 2 else norms


def _trace_norms(h: np.ndarray) -> np.ndarray:
    """trace_norm of a checked matrix or stack, as an array."""
    err = _hermiticity_error(h)
    if (err > DEFAULT_TOL * np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))).any():
        raise NotHermitianError(f"matrix deviates from Hermitian by {np.max(err):.3e}")
    return np.abs(np.linalg.eigvalsh(h)).sum(axis=-1)


def min_error_rate(rho1: np.ndarray, rho2: np.ndarray, p1: float = 0.5, p2: float = 0.5) -> float:
    """Minimum error probability for distinguishing two states with priors p1, p2."""
    p1, p2 = _in_unit_interval(p1, "p1"), _in_unit_interval(p2, "p2")
    if not abs(p1 + p2 - 1.0) <= 1e-12:
        raise ValueError(f"priors p1 and p2 must sum to 1, got {p1} and {p2}")
    rho1 = _checked(rho1, "rho1", ("n", "n"), complex)
    rho2 = _checked(rho2, "rho2", rho1.shape, complex)
    return 0.5 * (1.0 - trace_norm(p1 * rho1 - p2 * rho2))


def _unit_mode(m) -> np.ndarray:
    return _checked(m, "mode direction m", (3,), unit_tol=DEFAULT_TOL)


def quality_bloch(bmap: AffineBlochMap, m) -> float:
    """Quality of a one-qubit output in mode direction m: |m . linear|."""
    linear = _affine_map(bmap, "bmap").linear
    return float(np.linalg.norm(_unit_mode(m) @ linear))


def _omega(e_vectors: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Mode operator of the environment, sum_q m_q F_q0, of checked expansion vectors and a checked mode.

    F_lm = sum_jk L(jk;lm) |e_j><e_k| is an operator on the E space.

    Works for expansion vectors of any dimension (the block-embedded case
    included) and stacks.  Equals the partial trace over B of V (m . sigma / 2) V^dag.
    m is folded into the L table first: each (j, k) has at most one nonzero
    L(jk; q0), so this gives the bits of the four-operand einsum.
    """
    return np.einsum("jk,...jd,...ke->...de", np.einsum("q,jkq->jk", m, _MODE_L), e_vectors, e_vectors.conj())


def quality_e(e_gram: np.ndarray, m) -> float | np.ndarray:
    """Environment quality Tr|Omega_E(m)| of a physical machine Gram matrix, or of each in a stack.

    Raises NotPhysicalError on every Gram matrix that check_physical fails:
    the one eigendecomposition of realize_e_vectors rejects negative
    eigenvalues, then the Hermiticity and isometry residuals are tested
    (the message gives the worst of a stack).
    """
    e_gram = _checked(e_gram, "e_gram", (..., 4, 4), complex)
    q = _quality_e(e_gram, m)
    return float(q) if e_gram.ndim == 2 else q


def _quality_e(e_gram: np.ndarray, m) -> np.ndarray:
    """quality_e of a checked Gram matrix or stack, as an array; m is checked once the Grams pass."""
    e_vectors = _realized(e_gram)
    herm = _hermiticity_error(e_gram)
    residual = np.maximum(*_isometry_residuals(e_gram))
    if not (np.maximum(herm, residual) <= DEFAULT_TOL).all():
        raise NotPhysicalError(
            f"Gram matrix fails physicality: Hermiticity error {np.max(herm):.3e}, isometry residual {np.max(residual):.3e}"
        )
    return _trace_norms(_omega(e_vectors, _unit_mode(m)))


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
        rep: AffineBlochMap for channels "B"/"C" (TypeError otherwise), Gram matrix for "E".
        x1, x2: input Bloch vectors (length at most 1).
        channel: which output carries the pair.

    Returns (|x1 - x2| / 2) * Q(unit direction); 0 for identical inputs.
    """
    diff = _in_unit_ball(x1, "x1") - _in_unit_ball(x2, "x2")
    dist = float(np.linalg.norm(diff))
    if dist == 0.0:
        return 0.0
    direction = diff / dist
    ch = channel.upper() if isinstance(channel, str) else channel
    if ch in ("B", "C"):
        q = quality_bloch(_affine_map(rep, "rep"), direction)
    elif ch == "E":
        q = quality_e(rep, direction)
    else:
        raise ValueError("channel must be 'B', 'C' or 'E'")
    return 0.5 * dist * q
