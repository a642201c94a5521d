"""Machine descriptions: Gram matrices, affine Bloch maps and isometries.

A machine that copies one input qubit A into two output qubits B and C
(with a leftover qubit D) is an isometry V from A into B (x) E, where
E = C (x) D.  Expanding V|a> = sum_l (sigma_l |a>) (x) |e_l> over the Pauli
basis, the machine is fully described by the 4 x 4 Gram matrix
E_lm = <e_l|e_m> of the four expansion vectors.  Any single output qubit
then sees an affine map of the Bloch ball,

    r  |->  s = delta + linear^T r,

whose image is an ellipsoid with displacement delta and semi-axes given by
the singular values of the linear part.

Conventions used throughout: |0> and |1> are the spin up/down basis states,
three-qubit amplitudes are ordered |bcd> with the B bit most significant,
and the E-space computational basis is |cd> (index 2c + d).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotHermitianError, NotIsometricError, NotPhysicalError
from .linalg import DEFAULT_TOL, _checked, _hermiticity_error, dagger
from .pauli import CYCLIC, CYCLIC_AXES, SIGMA, l_table

__all__ = [
    "E_HAT",
    "AffineBlochMap",
    "ConstraintReport",
    "DiagonalForm",
    "density_from_bloch",
    "bloch_vector",
    "transfer_from_gram",
    "gram_from_transfer",
    "b_from_e",
    "e_from_b",
    "isometry_residuals",
    "check_physical",
    "diagonalize",
    "tetrahedron_check",
    "tetrahedron_mask",
    "tetrahedron_violations",
    "isometry_from_beta",
    "isometry_from_e_vectors",
    "extract_e_vectors",
    "gram_matrix",
    "realize_e_vectors",
    "output_map",
    "map_bloch",
    "complex_matrix_to_json",
    "complex_matrix_from_json",
]

_RT2 = 1.0 / np.sqrt(2.0)

# Orthonormal magic basis of the 4-dimensional E space, rows indexed like the
# Pauli label they pair with, components in the |cd> basis.
E_HAT = _RT2 * np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, -1j, 1j, 0],
        [1, 0, 0, -1],
    ],
    dtype=complex,
)
E_HAT.setflags(write=False)


# ---------------------------------------------------------------------------
# Bloch ball basics


def density_from_bloch(r) -> np.ndarray:
    """2 x 2 density matrix (1/2)(I + r . sigma) for a Bloch vector r."""
    r = _checked(r, "r", (3,))
    return 0.5 * (SIGMA[0] + r[0] * SIGMA[1] + r[1] * SIGMA[2] + r[2] * SIGMA[3])


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector of a 2 x 2 density matrix."""
    rho = _checked(rho, "rho", (2, 2), complex)
    return np.array([np.trace(rho @ SIGMA[q]).real for q in (1, 2, 3)])


@dataclass(frozen=True, eq=False)
class AffineBlochMap:
    """Affine map of the Bloch ball, r |-> delta + linear^T r."""

    delta: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", _checked(self.delta, "delta", (3,)))
        object.__setattr__(self, "linear", _checked(self.linear, "linear", (3, 3)))

    @classmethod
    def identity(cls) -> "AffineBlochMap":
        return cls(np.zeros(3), np.eye(3))

    @classmethod
    def diagonal(cls, axes, delta=None) -> "AffineBlochMap":
        """Centered (or displaced) map with a diagonal linear part."""
        d = np.zeros(3) if delta is None else delta
        return cls(d, np.diag(np.asarray(axes, dtype=float)))

    def as_matrix(self) -> np.ndarray:
        """4 x 4 form: first row (1, delta), first column (1, 0, 0, 0)^T."""
        m = np.zeros((4, 4))
        m[0, 0] = 1.0
        m[0, 1:] = self.delta
        m[1:, 1:] = self.linear
        return m

    @classmethod
    def from_matrix(cls, m) -> "AffineBlochMap":
        m = _checked(m, "m", (4, 4))
        if abs(m[0, 0] - 1.0) > 1e-12 or np.max(np.abs(m[1:, 0])) > 1e-12:
            raise ValueError("first column must be (1, 0, 0, 0)")
        return cls(m[0, 1:], m[1:, 1:])

    def to_json(self) -> dict:
        return {
            "delta": [float(x) for x in self.delta],
            "linear": [[float(x) for x in row] for row in self.linear],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AffineBlochMap":
        return cls(obj["delta"], obj["linear"])


def map_bloch(bmap: AffineBlochMap, r) -> np.ndarray:
    """Apply the affine map to an input Bloch vector."""
    r = _checked(r, "r", (3,))
    return bmap.delta + bmap.linear.T @ r


# ---------------------------------------------------------------------------
# Gram matrix <-> transfer matrix


def transfer_from_gram(e_gram: np.ndarray) -> np.ndarray:
    """Contract a Hermitian Gram matrix to the full 4 x 4 real transfer matrix.

    T_lm = sum_jk L(lm;jk) E_jk.  For a Hermitian input the result is real;
    the imaginary residue is checked against a fixed DEFAULT_TOL bound.
    """
    e_gram = _checked(e_gram, "e_gram", (4, 4), complex)
    herm = _hermiticity_error(e_gram)
    if herm > DEFAULT_TOL:
        raise NotHermitianError(f"Gram matrix deviates from Hermitian by {herm:.3e}")
    full = np.einsum("lmjk,jk->lm", l_table(), e_gram)
    return full.real


def gram_from_transfer(transfer: np.ndarray) -> np.ndarray:
    """Inverse contraction: E_jk = (1/4) sum_lm L(jk;lm) T_lm."""
    transfer = _checked(transfer, "transfer", (4, 4))
    return 0.25 * np.einsum("jklm,lm->jk", l_table(), transfer)


def isometry_residuals(e_gram: np.ndarray) -> tuple:
    """Residuals of the two isometry conditions on a Gram matrix.

    Returns (trace residual |sum_l E_ll - 1|, largest residual of
    Re E_0q = Im E_q'q'' over the cyclic triples), as arrays for a stack.
    """
    e_gram = _checked(e_gram, "e_gram", (..., 4, 4), complex)
    q, qp, qpp = np.transpose(CYCLIC)
    trace_err = np.abs(np.trace(e_gram, axis1=-2, axis2=-1) - 1.0)
    reim = np.max(np.abs(e_gram[..., 0, q].real - e_gram[..., qp, qpp].imag), axis=-1)
    return (float(trace_err), float(reim)) if e_gram.ndim == 2 else (trace_err, reim)


def b_from_e(e_gram: np.ndarray, check: bool = True, tol: float = DEFAULT_TOL) -> AffineBlochMap:
    """Affine Bloch map of the B output from the machine Gram matrix.

    Args:
        e_gram: Hermitian 4 x 4 Gram matrix of the expansion vectors.
        check: verify the isometry conditions before converting.  Unchecked
            mode drops the first column of the transfer matrix, which is
            only meaningful input when those conditions hold.
        tol: tolerance for the isometry check.
    """
    full = transfer_from_gram(e_gram)
    if check:
        trace_err, reim = isometry_residuals(e_gram)
        if max(trace_err, reim) > tol:
            raise NotIsometricError(
                f"isometry conditions violated (trace {trace_err:.3e}, re/im {reim:.3e})"
            )
    return AffineBlochMap(full[0, 1:], full[1:, 1:])


def e_from_b(bmap: AffineBlochMap) -> np.ndarray:
    """Gram matrix whose B output realizes the given affine map."""
    return gram_from_transfer(bmap.as_matrix())


@dataclass(frozen=True)
class ConstraintReport:
    """Numerical summary of the physicality checks on a Gram matrix."""

    hermiticity_error: float
    trace_error: float
    isometry_error: float
    min_eigenvalue: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def check_physical(e_gram: np.ndarray, tol: float = DEFAULT_TOL) -> ConstraintReport:
    """Check Hermiticity, positivity and the isometry conditions of a Gram matrix."""
    e_gram = _checked(e_gram, "e_gram", (4, 4), complex)
    herm = _hermiticity_error(e_gram)
    trace_err, reim = isometry_residuals(e_gram)
    sym = 0.5 * (e_gram + np.conj(e_gram).T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    passed = herm <= tol and trace_err <= tol and reim <= tol and min_eig >= -tol
    return ConstraintReport(
        hermiticity_error=herm,
        trace_error=trace_err,
        isometry_error=max(trace_err, reim),
        min_eigenvalue=min_eig,
        tolerance=tol,
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# Diagonal form of the linear part


class DiagonalForm(NamedTuple):
    """Result of diagonalize: linear = rot_out @ diag(axes) @ rot_in."""

    axes: np.ndarray
    delta: np.ndarray
    rot_in: np.ndarray
    rot_out: np.ndarray


def diagonalize(bmap: AffineBlochMap) -> DiagonalForm:
    """Rotate an affine map into diagonal form with proper rotations.

    The linear part is factored as rot_out @ diag(axes) @ rot_in where both
    factors are rotations with determinant +1.  Determinant bookkeeping
    leaves at most one negative axis, and the axes are sorted by increasing
    magnitude.  The returned delta is the displacement expressed in the
    rotated output frame, rot_in @ bmap.delta: writing r' = rot_out^T r and
    s' = rot_in s, the map reads s' = delta' + diag(axes) r'.
    """
    u, s, vh = np.linalg.svd(bmap.linear)
    s = s.copy()
    neg_u = np.linalg.det(u) < 0
    neg_v = np.linalg.det(vh) < 0
    # Flip the smallest singular value's column/row so both factors become
    # proper rotations; a sign lands on the axes only when exactly one
    # factor was improper, so at most one axis can come out negative.
    if neg_u and neg_v:
        u[:, 2] *= -1.0
        vh[2, :] *= -1.0
    elif neg_u:
        u[:, 2] *= -1.0
        s[2] *= -1.0
    elif neg_v:
        vh[2, :] *= -1.0
        s[2] *= -1.0

    order = np.argsort(np.abs(s), kind="stable")
    perm = np.zeros((3, 3))
    perm[np.arange(3), order] = 1.0
    if np.linalg.det(perm) < 0:
        perm[0, :] *= -1.0  # signed permutation, keeps both factors proper
    rot_out = u @ perm.T
    rot_in = perm @ vh
    axes = s[order]
    return DiagonalForm(axes=axes, delta=rot_in @ bmap.delta, rot_in=rot_in, rot_out=rot_out)


# ---------------------------------------------------------------------------
# Centered machines: attainable axes and explicit isometries


def tetrahedron_violations(b, tol: float = 1e-12) -> list[str]:
    """Names of the attainability inequalities violated by semi-axes b."""
    b = _checked(b, "b", (3,), finite=False)
    bad = []
    # every comparison with a NaN is False, so a NaN only gets its own label
    if b.sum() < -1.0 - tol:
        bad.append("b1+b2+b3 < -1")
    for q, qp, qpp in CYCLIC:
        if b[q - 1] + b[qp - 1] > 1.0 + b[qpp - 1] + tol:
            bad.append(f"b{q}+b{qp} > 1+b{qpp}")
    if np.any(np.isinf(b)):
        bad.append("infinite component")
    if np.any(np.isnan(b)):
        bad.append("NaN component")
    return bad


def tetrahedron_mask(b_rows, tol: float = 1e-12) -> np.ndarray:
    """Row-wise tetrahedron test over an (..., 3) array of semi-axes.

    The vertices are (1,1,1) and the three permutations of (1,-1,-1).
    Rows with a NaN or infinite component fail.
    """
    b = _checked(b_rows, "b_rows", (..., 3), finite=False)
    # column by column: reductions over a length-3 axis are slow in numpy
    finite = np.isfinite(b)
    ok = finite[..., 0] & finite[..., 1] & finite[..., 2]
    ok &= b[..., 0] + b[..., 1] + b[..., 2] >= -1.0 - tol
    for q, qp, qpp in CYCLIC_AXES:
        ok &= b[..., q] + b[..., qp] <= 1.0 + b[..., qpp] + tol
    return ok


def tetrahedron_check(b, tol: float = 1e-12) -> bool:
    """True when b lies in the tetrahedron of attainable centered semi-axes."""
    return bool(tetrahedron_mask(_checked(b, "b", (3,), finite=False), tol=tol))


def isometry_from_beta(beta) -> np.ndarray:
    """Explicit 8 x 2 copying isometry for machine coefficients beta.

    beta weights the four Pauli error channels; sum of squares must be 1.
    Rows are ordered |bcd> with the B bit most significant.
    """
    b0, b1, b2, b3 = _checked(beta, "beta", (4,), unit_tol=DEFAULT_TOL)
    v = np.zeros((8, 2), dtype=complex)
    v[0, 0] = (b0 + b3) * _RT2  # |000>
    v[3, 0] = (b0 - b3) * _RT2  # |011>
    v[5, 0] = (b1 + b2) * _RT2  # |101>
    v[6, 0] = (b1 - b2) * _RT2  # |110>
    v[1, 1] = (b1 - b2) * _RT2  # |001>
    v[2, 1] = (b1 + b2) * _RT2  # |010>
    v[4, 1] = (b0 - b3) * _RT2  # |100>
    v[7, 1] = (b0 + b3) * _RT2  # |111>
    return v


def isometry_from_e_vectors(e_vectors: np.ndarray) -> np.ndarray:
    """Assemble V = sum_l sigma_l (x) |e_l> from four expansion vectors.

    e_vectors has shape (4, d); the result has shape (2 d, 2) with row index
    d * b + e.
    """
    e_vectors = _checked(e_vectors, "e_vectors", (4, "d"), complex)
    return np.einsum("lba,ld->bda", SIGMA, e_vectors).reshape(-1, 2)


def extract_e_vectors(v: np.ndarray) -> np.ndarray:
    """Recover the four expansion vectors from an isometry into B (x) E.

    Inverts isometry_from_e_vectors via e_l[d] = (1/2) sum_ba conj(sigma_l[b,a]) V[(b,d),a].
    Accepts any even number of rows, and stacks; the E dimension is rows / 2.
    """
    v = _checked(v, "v", (..., "2d", 2), complex)
    return 0.5 * np.einsum("lba,...bda->...ld", SIGMA.conj(), v.reshape(*v.shape[:-2], 2, v.shape[-2] // 2, 2))


def gram_matrix(e_vectors: np.ndarray) -> np.ndarray:
    """Gram matrix E_lm = <e_l|e_m> of the expansion vectors, or of each set in a stack."""
    e_vectors = _checked(e_vectors, "e_vectors", (..., 4, "d"), complex)
    return e_vectors.conj() @ np.swapaxes(e_vectors, -1, -2)


def realize_e_vectors(e_gram: np.ndarray) -> np.ndarray:
    """Concrete expansion vectors in the 4-dimensional E space with the given Gram matrix.

    The realization is fixed by the eigendecomposition of the Gram matrix
    and is unique up to a unitary on E.  Eigenvalues in [-DEFAULT_TOL, 0)
    are clipped to zero; anything lower, anywhere in a stack, raises NotPhysicalError.
    """
    e_gram = _checked(e_gram, "e_gram", (..., 4, 4), complex)
    w, u = np.linalg.eigh(0.5 * (e_gram + dagger(e_gram)))
    lowest = np.min(w[..., 0], initial=np.inf)
    if lowest < -DEFAULT_TOL:
        raise NotPhysicalError(f"Gram matrix has negative eigenvalue {lowest:.3e}")
    return u.conj() * np.sqrt(np.maximum(w, 0.0))[..., None, :]


def output_map(v: np.ndarray, qubit: str = "B") -> AffineBlochMap:
    """Affine Bloch map of one output qubit of an isometry, in the Heisenberg picture.

    With P_q the Pauli operator sigma_q on the kept qubit, M_q = V^dag P_q V
    is a 2 x 2 operator on the input, and the output's Bloch component q is
    Tr(rho M_q).  So delta_q = (1/2) Tr M_q and linear[p, q] =
    (1/2) Tr(M_q sigma_p).

    v has shape (2 d, 2) with rows ordered like isometry_from_e_vectors.
    qubit "B" works for any E dimension d; "C" and "D" need d = 4, the
    E = C (x) D split.
    """
    v = _checked(v, "v", ("2d", 2), complex)
    d = len(v) // 2
    key = qubit.upper() if isinstance(qubit, str) else qubit
    # row index = (left, kept qubit, right) with the kept qubit in the middle
    if key == "B":
        left, right = 1, d
    elif key in ("C", "D"):
        if d != 4:
            raise ValueError(f"{key} output requires a 4-dimensional E space")
        left, right = (2, 2) if key == "C" else (4, 1)
    else:
        raise ValueError("output qubit must be 'B', 'C' or 'D'")
    vk = v.reshape(left, 2, right, 2)
    m = np.einsum("xbya,qbc,xcyd->qad", vk.conj(), SIGMA[1:], vk)
    # row 0 is (1/2) Tr M_q, rows 1..3 the linear part
    full = 0.5 * np.einsum("qad,pda->pq", m, SIGMA).real
    return AffineBlochMap(full[0], full[1:])


# ---------------------------------------------------------------------------
# JSON helpers for complex matrices


def complex_matrix_to_json(m: np.ndarray) -> list:
    """Encode a complex matrix as nested [re, im] pairs, row-major."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def complex_matrix_from_json(obj) -> np.ndarray:
    """Inverse of complex_matrix_to_json."""
    rows = []
    for row in obj:
        rows.append([complex(re, im) for re, im in row])
    return np.array(rows, dtype=complex)
