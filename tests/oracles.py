"""Test oracles: independent routes to quantities the package computes another way.

apply_gate runs one gate by index arithmetic on the amplitudes, the way
the circuits were first simulated; the package builds each gate's matrix
instead.  partial_trace and reduced_state read output qubits off full
density matrices, where the package uses the Heisenberg picture.
sign_patterns enumerates sign variants in two branches, on whether a
component is zero; the package takes one pass over all eight patterns.
concavity_report checks one trial at a time, where the concavity
subcommand checks a block of trials per call.  gram_from_transfer is the
inverse of the package's transfer_from_gram, which the round-trip tests
compare it against.  quality_e_composed is the environment quality as the
composition of its steps, realize_e_vectors checking the Gram matrices,
which the package's quality_e does in one pass over them; omega_einsum is
the mode operator as one four-operand einsum, where the package folds the
mode into the L table first.
class_p_margins states the class-P inequalities in exact rational
arithmetic, where the package compares them in floating point on a scaled
copy of the vector, and tetrahedron_rows the rows of Lambda (1, b), which
the package sums in floating point; unscaled_positive_optimal tests the
box and products of b unscaled, where the package tests the lifted vector
(1, b).
sequential_g writes g out component by component, where the package runs
one kernel over index rows.  state_push_map pushes the six Bloch-axis
states through a machine and reads one output's Bloch vectors, where the
package reads the affine map off in the Heisenberg picture.
diagonalize_by_cases makes the SVD factors proper in three branches, on
which factor is improper, where the package multiplies by the signs of
both determinants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

_RT2 = 1.0 / np.sqrt(2.0)
_IDX = np.arange(8)
_SUBSYSTEM = {"B": 0, "C": 1, "D": 2}
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _bit(q: int) -> int:
    if q not in (0, 1, 2):
        raise ValueError(f"qubit index must be 0, 1 or 2, got {q}")
    return 4 >> q


def apply_gate(state: np.ndarray, gate: tuple) -> np.ndarray:
    """Apply one gate to an 8-amplitude state vector, returning a new vector."""
    state = np.asarray(state, dtype=complex)
    kind = gate[0]
    out = state.copy()
    if kind == "h":
        (t,) = gate[1:]
        bt = _bit(t)
        lo = _IDX[(_IDX & bt) == 0]
        hi = lo | bt
        out[lo] = (state[lo] + state[hi]) * _RT2
        out[hi] = (state[lo] - state[hi]) * _RT2
    elif kind == "xor":
        c, t = gate[1:]
        bc, bt = _bit(c), _bit(t)
        sel = _IDX[(_IDX & bc) != 0]
        out[sel] = state[sel ^ bt]
    elif kind == "phase":
        a, b = gate[1:]
        sel = _IDX[((_IDX & _bit(a)) != 0) & ((_IDX & _bit(b)) != 0)]
        out[sel] = -state[sel]
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return out


def apply_circuit(state: np.ndarray, gates) -> np.ndarray:
    """Run a gate sequence on an 8-amplitude state, one apply_gate per gate, the first gate first."""
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def column_unitary(gates) -> np.ndarray:
    """8 x 8 unitary of a gate sequence, built column by column with apply_circuit."""
    return np.column_stack([apply_circuit(np.eye(8, dtype=complex)[col], gates) for col in range(8)])


def partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every tensor factor of a square matrix except those in keep.

    dims lists the dimension of each factor in order, keep one index or
    several; the reduced matrix keeps the retained factors in order.
    """
    dims = tuple(int(d) for d in dims)
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted(int(k) for k in keep))
    n = len(dims)
    total = math.prod(dims)
    mat = np.asarray(mat)
    if mat.shape != (total, total):
        raise ValueError(f"mat must have shape ({total}, {total}), got {mat.shape}")
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


def reduced_state(state: np.ndarray, keep: str) -> np.ndarray:
    """Reduced density matrix of the named output qubits, e.g. "B", "C" or "BC"."""
    state = np.asarray(state, dtype=complex)
    axes = tuple(sorted(_SUBSYSTEM[ch] for ch in keep.upper()))
    rho = np.outer(state, state.conj())
    return partial_trace(rho, (2, 2, 2), axes)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary from a QR-factored complex Gaussian."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gram_from_transfer(transfer: np.ndarray) -> np.ndarray:
    """Inverse contraction of transfer_from_gram: E_jk = (1/4) sum_lm L(jk;lm) T_lm."""
    from blochcopy.pauli import L_TABLE

    return 0.25 * np.einsum("jklm,lm->jk", L_TABLE, np.asarray(transfer, dtype=float))


def sign_patterns(v: np.ndarray) -> list[np.ndarray]:
    """Distinct sign variants of v: even flips when no component is zero, else any flips of the nonzero ones."""
    nonzero = [i for i in range(3) if v[i] != 0.0]
    if len(nonzero) == 3:
        sign_sets = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    else:
        sign_sets = []
        for signs in product((1, -1), repeat=len(nonzero)):
            full = [1, 1, 1]
            for i, s in zip(nonzero, signs):
                full[i] = s
            sign_sets.append(tuple(full))
    seen = set()
    out = []
    for signs in sign_sets:
        variant = v * np.asarray(signs, dtype=float)
        key = tuple(variant)
        if key not in seen:
            seen.add(key)
            out.append(variant)
    return out


def concavity_report(trials: int, seed: int, p1: float, mode, tol: float) -> dict:
    """min_margin and violations of the concavity subcommand, one concavity_check call per trial.

    The subcommand checks its trials in blocks; this loop draws v1 then v2
    for one trial at a time, the draw order it must keep.
    """
    from blochcopy.linalg import random_isometry
    from blochcopy.validation import concavity_check

    rng = np.random.default_rng(seed)
    min_margin = np.inf
    bad = 0
    for _ in range(trials):
        v1 = random_isometry(8, 2, rng)
        v2 = random_isometry(8, 2, rng)
        mixed, averaged = concavity_check(v1, v2, p1, mode)
        margin = mixed - averaged
        min_margin = min(min_margin, margin)
        if margin < -tol:
            bad += 1
    return {"min_margin": float(min_margin), "violations": bad}


def quality_e_composed(e_gram, m):
    """quality_e as realize_e_vectors, then the physicality test, then trace_norm of the mode operator."""
    from blochcopy.channel import _isometry_residuals, realize_e_vectors
    from blochcopy.errors import NotPhysicalError
    from blochcopy.linalg import DEFAULT_TOL, _hermiticity_error
    from blochcopy.quality import _omega, _unit_mode, trace_norm

    e_vectors = realize_e_vectors(e_gram)
    e_gram = np.asarray(e_gram, dtype=complex)
    herm = _hermiticity_error(e_gram)
    residual = np.maximum(*_isometry_residuals(e_gram))
    if not np.all(np.maximum(herm, residual) <= DEFAULT_TOL):
        raise NotPhysicalError(
            f"Gram matrix fails physicality: Hermiticity error {np.max(herm):.3e}, isometry residual {np.max(residual):.3e}"
        )
    return trace_norm(_omega(e_vectors, _unit_mode(m)))


def omega_einsum(e_vectors, m):
    """The mode operator sum_q m_q F_q0 as one four-operand einsum over m, the L table and the vectors.

    The package folds m into the table first, with the same bits.
    """
    from blochcopy.pauli import L_TABLE

    return np.einsum("q,jkq,...jd,...ke->...de", m, L_TABLE[:, :, 1:, 0], e_vectors, e_vectors.conj())


def class_p_margins(xi, tol: float = 0.0) -> list[Fraction] | None:
    """Exact margins of the class-P inequalities of a float four-vector; None when a component is not finite.

    Floats convert to Fraction exactly, so no margin is rounded: first the
    box margins xi_q + tol and xi_0 + tol - xi_q for q = 1, 2, 3, then
    xi_0 xi_q - xi_q' xi_q'' + tol for each cyclic triple.  The vector is in
    class P exactly when none of them is negative.
    """
    if not all(math.isfinite(v) for v in xi):
        return None
    x = [Fraction(float(v)) for v in xi]
    t = Fraction(float(tol))
    box = [m for q in (1, 2, 3) for m in (x[q] + t, x[0] + t - x[q])]
    return box + [x[0] * x[q] - x[qp] * x[qpp] + t for q, qp, qpp in ((1, 2, 3), (2, 3, 1), (3, 1, 2))]


def tetrahedron_rows(b) -> list[Fraction] | None:
    """Exact rows of Lambda (1, b) of a float b, each sign written out; None when a component is not finite.

    Row 0 is 1 + b1 + b2 + b3, and row q'' is 1 + b_q'' - b_q - b_q' for the
    cyclic triples (q, q', q''); b is attainable exactly when none is negative.
    """
    if not all(math.isfinite(v) for v in b):
        return None
    b1, b2, b3 = (Fraction(float(v)) for v in b)
    return [1 + b1 + b2 + b3, 1 + b1 - b2 - b3, 1 + b2 - b3 - b1, 1 + b3 - b1 - b2]


def unscaled_positive_optimal(b_rows, tol: float = 0.0) -> np.ndarray:
    """0 <= b_q <= 1 and b_q >= b_q' b_q'' within tol, tested on the rows of an (..., 3) array as they are."""
    b = np.asarray(b_rows, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        ok = np.all((b >= -tol) & (b <= 1.0 + tol), axis=-1)
        for q, qp, qpp in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            ok &= b[..., q] >= b[..., qp] * b[..., qpp] - tol
    return ok


def sequential_g(b_rows) -> np.ndarray:
    """g in closed form over the rows of an (n, 3) array (or one b), each component written out, as (n, 3).

    beta_j^2 = 1/4 (1 +- b1 +- b2 +- b3) summed left to right, then
    c_q = 2 (beta_0 beta_q + beta_q' beta_q'').
    """
    b1, b2, b3 = np.asarray(b_rows, dtype=float).reshape(-1, 3).T
    beta0, beta1, beta2, beta3 = (
        np.sqrt(np.maximum(0.25 * v, 0.0))
        for v in (((1.0 + b1) + b2) + b3, ((1.0 + b1) - b2) - b3, ((1.0 - b1) + b2) - b3, ((1.0 - b1) - b2) + b3)
    )
    return np.stack(
        [
            2.0 * (beta0 * beta1 + beta2 * beta3),
            2.0 * (beta0 * beta2 + beta3 * beta1),
            2.0 * (beta0 * beta3 + beta1 * beta2),
        ],
        axis=1,
    )


# (+axis, -axis) eigenkets of sigma_x, sigma_y and sigma_z
_AXIS_KETS = (
    (np.array([1, 1]) * _RT2, np.array([1, -1]) * _RT2),
    (np.array([1, 1j]) * _RT2, np.array([1, -1j]) * _RT2),
    (np.array([1, 0]), np.array([0, 1])),
)


def state_push_map(push, qubit: str):
    """The AffineBlochMap of output qubit "B", "C" or "D", read off six pushed states.

    push takes a one-qubit ket to the machine's 8 output amplitudes.  The
    +-axis states give s(+-e_q) = delta +- linear[q], so linear[q] is half
    their difference and delta the mean of their half sums.
    """
    from blochcopy.channel import AffineBlochMap, bloch_vector

    s = np.array([[bloch_vector(reduced_state(push(ket), qubit)) for ket in pair] for pair in _AXIS_KETS])
    return AffineBlochMap(0.5 * (s[:, 0] + s[:, 1]).mean(axis=0), 0.5 * (s[:, 0] - s[:, 1]))


def diagonalize_by_cases(bmap):
    """diagonalize with a branch for each combination of improper SVD factors."""
    from blochcopy.channel import DiagonalForm

    u, s, vh = np.linalg.svd(bmap.linear)
    s = s.copy()
    neg_u = np.linalg.det(u) < 0
    neg_v = np.linalg.det(vh) < 0
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
        perm[0, :] *= -1.0
    rot_out = u @ perm.T
    rot_in = perm @ vh
    return DiagonalForm(axes=s[order], delta=rot_in @ bmap.delta, rot_in=rot_in, rot_out=rot_out)
