"""Pauli matrices and the contraction tables built from them.

The four-index table L and the sign matrix Lambda encode how products of
Pauli operators contract; every entry is exactly 0, +-1 or +-i, so both
tables are exact in double precision.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SIGMA", "LAMBDA", "L_TABLE"]

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

# The symmetric 4 x 4 sign matrix, with LAMBDA @ LAMBDA = 4 I.  Row j holds the signs L(jj;ll) over l,
# so it also converts between the squared machine coefficients and the ellipsoid semi-axes.
LAMBDA = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=float,
)
LAMBDA.setflags(write=False)

# The (4, 4, 4, 4) table of L(jk;lm), axes ordered [j, k, l, m]: L[j, k, l, m] =
# (1/2) Tr[sigma_j sigma_l sigma_k sigma_m], with the factors interleaved inside the trace.
L_TABLE = 0.5 * np.einsum("jab,lbc,kcd,mda->jklm", SIGMA, SIGMA, SIGMA, SIGMA)
L_TABLE.setflags(write=False)
