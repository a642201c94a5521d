"""Pauli matrices and the contraction tables built from them.

The four-index table L and the sign matrix Lambda encode how products of
Pauli operators contract; every entry is exactly 0, +-1 or +-i, so both
tables are exact in double precision.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SIGMA", "l_table", "lambda_matrix"]

SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
SIGMA.setflags(write=False)

# (q, q', q'') always runs over the even permutations of (1, 2, 3).
CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
# The same triples 0-indexed, for 3-component axis vectors.
CYCLIC_AXES = tuple((q - 1, qp - 1, qpp - 1) for q, qp, qpp in CYCLIC)
# The triples as index rows: column i holds the q, q', q'' of triple i.
_TRIPLES = np.array(CYCLIC).T

_LAMBDA = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=float,
)
_LAMBDA.setflags(write=False)


def _build_l_table() -> np.ndarray:
    # L[j, k, l, m] = (1/2) Tr[sigma_j sigma_l sigma_k sigma_m]; note the
    # interleaved order of the factors inside the trace.
    table = 0.5 * np.einsum("jab,lbc,kcd,mda->jklm", SIGMA, SIGMA, SIGMA, SIGMA)
    table.setflags(write=False)
    return table


_L = _build_l_table()


def l_table() -> np.ndarray:
    """Full (4, 4, 4, 4) table of L(jk;lm), read-only, axes ordered [j, k, l, m]."""
    return _L


def lambda_matrix() -> np.ndarray:
    """The symmetric 4 x 4 sign matrix with Lambda @ Lambda = 4 I, read-only.

    Row j holds the signs L(jj;ll) over l, so it also converts between the
    squared machine coefficients and the ellipsoid semi-axes.
    """
    return _LAMBDA
