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

from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import NotHermitianError, NotIsometricError, NotPhysicalError
from .linalg import DEFAULT_TOL, _checked, _hermiticity_error, _in_unit_ball, _tolerance, dagger
from .pauli import _TRIPLES, L_TABLE, SIGMA

__all__ = [
    "E_HAT",
    "AffineBlochMap",
    "ConstraintReport",
    "DiagonalForm",
    "density_from_bloch",
    "bloch_vector",
    "transfer_from_gram",
    "b_from_e",
    "check_physical",
    "diagonalize",
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
    """2 x 2 density matrix (1/2)(I + r . sigma) for a Bloch vector r, which must lie in the unit ball."""
    r = _in_unit_ball(r, "r")
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
    def diagonal(cls, axes) -> "AffineBlochMap":
        """Centered map with a diagonal linear part."""
        return cls(np.zeros(3), np.diag(_checked(axes, "axes", (3,))))

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}


def _affine_map(bmap, name: str) -> AffineBlochMap:
    """bmap, which must be an AffineBlochMap: anything else raises TypeError naming it."""
    if not isinstance(bmap, AffineBlochMap):
        raise TypeError(f"{name} must be an AffineBlochMap, got {type(bmap).__name__}")
    return bmap


def map_bloch(bmap: AffineBlochMap, r) -> np.ndarray:
    """Apply the affine map to an input Bloch vector."""
    bmap = _affine_map(bmap, "bmap")
    r = _in_unit_ball(r, "r")
    return bmap.delta + bmap.linear.T @ r


# ---------------------------------------------------------------------------
# Gram matrix -> transfer matrix


def transfer_from_gram(e_gram: np.ndarray) -> np.ndarray:
    """Contract a Hermitian Gram matrix, or each of a stack, to the full 4 x 4 real transfer matrix.

    T_lm = sum_jk L(lm;jk) E_jk.  For a Hermitian input the result is real;
    the imaginary residue is checked against a fixed DEFAULT_TOL bound, and
    a stack fails on its worst matrix.
    """
    e_gram = _checked(e_gram, "e_gram", (..., 4, 4), complex)
    herm = np.max(_hermiticity_error(e_gram), initial=0.0)
    if herm > DEFAULT_TOL:
        raise NotHermitianError(f"Gram matrix deviates from Hermitian by {herm:.3e}")
    return _transfer(e_gram)


def _transfer(e_gram: np.ndarray) -> np.ndarray:
    """transfer_from_gram of a checked Gram matrix or stack that is Hermitian within DEFAULT_TOL."""
    return np.einsum("lmjk,...jk->...lm", L_TABLE, e_gram).real


def _isometry_residuals(e_gram: np.ndarray) -> tuple:
    """Residuals of the two isometry conditions on a checked Gram matrix or stack, as arrays.

    Returns (trace residual |sum_l E_ll - 1|, largest residual of
    Re E_0q = Im E_q'q'' over the cyclic triples).
    """
    _, qp, qpp = _TRIPLES
    trace_err = np.abs(np.trace(e_gram, axis1=-2, axis2=-1) - 1.0)
    # e_gram[..., 0, 1:] holds E_0q for q = 1, 2, 3
    reim = np.abs(e_gram[..., 0, 1:].real - e_gram[..., qp, qpp].imag).max(axis=-1)
    return trace_err, reim


def b_from_e(e_gram: np.ndarray, check: bool = True) -> AffineBlochMap:
    """Affine Bloch map of the B output from the machine Gram matrix.

    Args:
        e_gram: Hermitian 4 x 4 Gram matrix of the expansion vectors.
        check: verify the isometry conditions, within DEFAULT_TOL, before
            converting.  Unchecked mode drops the first column of the
            transfer matrix, which is only meaningful input when those
            conditions hold.
    """
    e_gram = _checked(e_gram, "e_gram", (4, 4), complex)
    full = transfer_from_gram(e_gram)
    if check:
        trace_err, reim = map(float, _isometry_residuals(e_gram))
        if max(trace_err, reim) > DEFAULT_TOL:
            raise NotIsometricError(
                f"isometry conditions violated (trace {trace_err:.3e}, re/im {reim:.3e})"
            )
    return AffineBlochMap(full[0, 1:], full[1:, 1:])


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
    e_gram, tol = _checked(e_gram, "e_gram", (4, 4), complex), _tolerance(tol)
    herm = float(_hermiticity_error(e_gram))
    trace_err, reim = map(float, _isometry_residuals(e_gram))
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
    u, s, vh = np.linalg.svd(_affine_map(bmap, "bmap").linear)
    # Flip the smallest singular value's column/row of each improper factor
    # so both become proper rotations; a sign lands on the axes only when
    # exactly one factor was improper, so at most one axis can come out
    # negative.  Each sign is +-1, so a factor that was proper keeps its bits.
    sign_u, sign_v = np.sign(np.linalg.det(u)), np.sign(np.linalg.det(vh))
    u[:, 2] *= sign_u
    vh[2, :] *= sign_v
    s[2] *= sign_u * sign_v

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
# Centered machines: explicit isometries


def isometry_from_beta(beta) -> np.ndarray:
    """Explicit 8 x 2 copying isometry for machine coefficients beta.

    beta weights the four Pauli error channels; sum of squares must be 1.
    Rows are ordered |bcd> with the B bit most significant.
    """
    beta = _checked(beta, "beta", (4,), unit_tol=DEFAULT_TOL)
    return isometry_from_e_vectors(beta[:, None] * E_HAT)


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
    return _extracted(_checked(v, "v", (..., "2d", 2), complex))


def _extracted(v: np.ndarray) -> np.ndarray:
    """extract_e_vectors of a checked isometry or stack."""
    return 0.5 * np.einsum("lba,...bda->...ld", SIGMA.conj(), v.reshape(*v.shape[:-2], 2, v.shape[-2] // 2, 2))


def gram_matrix(e_vectors: np.ndarray) -> np.ndarray:
    """Gram matrix E_lm = <e_l|e_m> of the expansion vectors, or of each set in a stack."""
    return _gram(_checked(e_vectors, "e_vectors", (..., 4, "d"), complex))


def _gram(e_vectors: np.ndarray) -> np.ndarray:
    """gram_matrix of checked expansion vectors."""
    return e_vectors.conj() @ np.swapaxes(e_vectors, -1, -2)


def realize_e_vectors(e_gram: np.ndarray) -> np.ndarray:
    """Concrete expansion vectors in the 4-dimensional E space with the given Gram matrix.

    The realization is fixed by the eigendecomposition of the Gram matrix
    and is unique up to a unitary on E.  Eigenvalues in [-DEFAULT_TOL, 0)
    are clipped to zero; anything lower, anywhere in a stack, raises NotPhysicalError.
    """
    return _realized(_checked(e_gram, "e_gram", (..., 4, 4), complex))


def _realized(e_gram: np.ndarray) -> np.ndarray:
    """realize_e_vectors of a checked Gram matrix or stack."""
    w, u = np.linalg.eigh(0.5 * (e_gram + dagger(e_gram)))
    lowest = w[..., 0].min(initial=np.inf)
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
    return _output_map(_checked(v, "v", ("2d", 2), complex), qubit)


def _output_map(v: np.ndarray, qubit: str) -> AffineBlochMap:
    """output_map of a checked isometry."""
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
    m = _checked(m, "m", ("r", "c"), complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def complex_matrix_from_json(obj) -> np.ndarray:
    """Inverse of complex_matrix_to_json; anything but rows of finite [re, im] pairs raises ValueError naming obj."""
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in obj], dtype=complex)
    except (TypeError, ValueError):
        raise ValueError("obj must be a list of rows of [re, im] number pairs") from None
    return _checked(m, "obj", ("r", "c"), complex)
