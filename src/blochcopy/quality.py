"""Distinguishability-based quality measures for the machine outputs.

The quality of a channel in mode direction m is the trace norm that the
channel leaves between the two perfectly distinguishable inputs +-m.  For
the one-qubit outputs this reduces to |m . linear| of the affine map; for
the environment E it is the trace norm of a mode operator built from the
expansion vectors.  The input side always has quality 1.
"""

from __future__ import annotations

import numpy as np

from .channel import (
    DEFAULT_TOL,
    AffineBlochMap,
    check_physical,
    realize_e_vectors,
)
from .circuit import channel_tomography
from .errors import NotHermitianError, NotPhysicalError
from .linalg import hermiticity_error
from .pauli import CYCLIC, l_table

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


def trace_norm(h: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    err = hermiticity_error(h)
    if err > tol * max(1.0, float(np.max(np.abs(h)))):
        raise NotHermitianError(f"matrix deviates from Hermitian by {err:.3e}")
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def min_error_rate(rho1: np.ndarray, rho2: np.ndarray, p1: float = 0.5, p2: float = 0.5) -> float:
    """Minimum error probability for distinguishing two states with priors p1, p2."""
    if p1 < 0.0 or p2 < 0.0 or abs(p1 + p2 - 1.0) > 1e-12:
        raise ValueError("priors must be nonnegative and sum to 1")
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    return 0.5 * (1.0 - trace_norm(p1 * rho1 - p2 * rho2))


def _unit_mode(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3,):
        raise ValueError("mode direction must have three components")
    if abs(m @ m - 1.0) > 1e-9:
        raise ValueError("mode direction must be a unit vector")
    return m


def quality_bloch(bmap: AffineBlochMap, m) -> float:
    """Quality of a one-qubit output in mode direction m: |m . linear|."""
    m = _unit_mode(m)
    return float(np.linalg.norm(m @ bmap.linear))


def omega_e(e_vectors: np.ndarray, m) -> np.ndarray:
    """Mode operator of the environment, sum_q m_q F_q0.

    F_lm = sum_jk L(jk;lm) |e_j><e_k| is an operator on the E space.

    Works for expansion vectors of any dimension (the block-embedded case
    included).  Equals the partial trace over B of V (m . sigma / 2) V^dag.
    """
    m = _unit_mode(m)
    e_vectors = np.asarray(e_vectors, dtype=complex)
    return np.einsum("q,jkq,jd,ke->de", m, l_table()[:, :, 1:, 0], e_vectors, e_vectors.conj())


def quality_e_from_vectors(e_vectors: np.ndarray, m) -> float:
    """Environment quality from concrete expansion vectors (no physicality check)."""
    return trace_norm(omega_e(e_vectors, m))


def quality_e(e_gram: np.ndarray, m, tol: float = DEFAULT_TOL) -> float:
    """Environment quality Tr|Omega_E(m)| of a physical machine Gram matrix."""
    report = check_physical(e_gram, tol=tol)
    if not report.passed:
        raise NotPhysicalError(
            "Gram matrix fails physicality: "
            f"min eigenvalue {report.min_eigenvalue:.3e}, "
            f"isometry residual {report.isometry_error:.3e}"
        )
    return quality_e_from_vectors(realize_e_vectors(e_gram, tol=tol), m)


def quality_e_diagonal(beta, m) -> float:
    """Closed form of the environment quality for a centered machine.

    With axes weights c~_q = 2 (|beta_0 beta_q| + |beta_q' beta_q''|) the
    quality is the quadrature sum over the mode components.  Cross-check
    for the eigensolve path, and the analogue of quality_bloch with the
    cloning partner's axes.
    """
    beta = np.asarray(beta, dtype=float)
    m = _unit_mode(m)
    c_tilde = np.array(
        [
            2.0 * (abs(beta[0] * beta[q]) + abs(beta[qp] * beta[qpp]))
            for q, qp, qpp in CYCLIC
        ]
    )
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
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    for x in (x1, x2):
        if x.shape != (3,):
            raise ValueError("Bloch vectors must have three components")
        if x @ x > 1.0 + 1e-9:
            raise ValueError("Bloch vectors must lie inside the unit ball")
    diff = x1 - x2
    dist = float(np.linalg.norm(diff))
    if dist == 0.0:
        return 0.0
    direction = diff / dist
    ch = channel.upper()
    if ch in ("B", "C"):
        q = quality_bloch(rep, direction)
    elif ch == "E":
        q = quality_e(rep, direction)
    else:
        raise ValueError("channel must be 'B', 'C' or 'E'")
    return 0.5 * dist * q
