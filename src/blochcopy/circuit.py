"""Three-qubit gate realization of the copying machines.

Wire layout: qubit 0 is the top line and carries the input (it becomes the
B output), qubits 1 and 2 hold the two-qubit ancilla and become the C and D
outputs.  Amplitudes are ordered |bcd> with the qubit-0 bit most
significant, so basis index = 4 b + 2 c + d.

Two equivalent gate sequences are provided.  Circuit "a" is a Hadamard
followed by three XOR gates whose controls are the top, bottom and middle
qubit in that order.  Circuit "b" replaces the opening section with a
controlled phase flip plus one XOR, then uses a Hadamard and a final XOR to
rotate the ancilla pair into the magic basis.

Both gate lists are compiled once, at import, to 8 x 8 unitaries, each the
product of its gates' matrices.  Every circuit call and the tomography
apply these unitaries; no gate runs per call.
"""

from __future__ import annotations

import numpy as np

from .channel import _RT2, AffineBlochMap, output_map
from .linalg import DEFAULT_TOL, _checked, _in_unit_interval

__all__ = [
    "CIRCUIT_A",
    "CIRCUIT_B",
    "circuit_unitary",
    "prepare_ancilla",
    "beta_from_error_rates",
    "circuit_a",
    "circuit_b",
    "channel_tomography",
]

_IDX = np.arange(8)
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) * _RT2

# Gate tuples: ("h", target), ("xor", control, target), ("phase", q1, q2).
CIRCUIT_A = (("h", 1), ("xor", 0, 1), ("xor", 2, 0), ("xor", 1, 2))
CIRCUIT_B = (("phase", 0, 1), ("xor", 2, 0), ("h", 1), ("xor", 1, 2))


def _gate_matrix(gate: tuple) -> np.ndarray:
    """8 x 8 matrix of one gate tuple."""
    kind, *qubits = gate
    if any(q not in (0, 1, 2) for q in qubits):
        raise ValueError(f"qubit indices must be 0, 1 or 2, got {gate!r}")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"a gate needs distinct qubits, got {gate!r}")
    bits = [(_IDX >> (2 - q)) & 1 for q in qubits]
    if kind == "h" and len(qubits) == 1:
        q = qubits[0]
        return np.kron(np.kron(np.eye(1 << q), _H), np.eye(4 >> q)).astype(complex)
    if kind == "xor" and len(qubits) == 2:
        return np.eye(8, dtype=complex)[:, _IDX ^ (bits[0] << (2 - qubits[1]))]
    if kind == "phase" and len(qubits) == 2:
        return np.diag(1.0 - 2.0 * (bits[0] & bits[1])).astype(complex)
    raise ValueError(f"unknown gate {gate!r}")


def circuit_unitary(gates) -> np.ndarray:
    """Full 8 x 8 unitary of a gate sequence, the first gate acting first."""
    u = np.eye(8, dtype=complex)
    for gate in gates:
        u = _gate_matrix(gate) @ u
    return u


# Unitaries of both circuits, built once from their gate lists; column
# 4 a + j is the circuit's output for input |a> and ancilla |j>.
_UNITARY_A = circuit_unitary(CIRCUIT_A)
_UNITARY_B = circuit_unitary(CIRCUIT_B)
_UNITARY_A.setflags(write=False)
_UNITARY_B.setflags(write=False)


def prepare_ancilla(beta) -> np.ndarray:
    """Two-qubit ancilla amplitudes in the |cd> basis for coefficients beta.

    The coefficient-to-basis assignment is the single bug-prone spot of the
    whole construction: beta[2] weights |11> and beta[3] weights |10>.
    """
    beta = _checked(beta, "beta", (4,), unit_tol=DEFAULT_TOL)
    return np.array([beta[0], beta[1], beta[3], beta[2]], dtype=complex)


def beta_from_error_rates(d_xy: float, d_uv: float) -> np.ndarray:
    """Machine coefficients of a product-form ancilla given two error rates.

    The ancilla (sqrt(1-d_xy)|0> + sqrt(d_xy)|1>) (x) (sqrt(1-d_uv)|0> +
    sqrt(d_uv)|1>) expands into the standard coefficient order.
    """
    d_xy = _in_unit_interval(d_xy, "d_xy")
    d_uv = _in_unit_interval(d_uv, "d_uv")
    return np.array(
        [
            np.sqrt((1.0 - d_xy) * (1.0 - d_uv)),
            np.sqrt((1.0 - d_xy) * d_uv),
            np.sqrt(d_xy * d_uv),
            np.sqrt(d_xy * (1.0 - d_uv)),
        ]
    )


def _isometry(u: np.ndarray, beta) -> np.ndarray:
    """The 8 x 2 isometry V = U (I (x) |ancilla>) of a circuit unitary."""
    return u.reshape(8, 2, 4) @ prepare_ancilla(beta)


def circuit_a(psi, beta) -> np.ndarray:
    """Run circuit "a" on input qubit psi with ancilla coefficients beta."""
    psi = _checked(psi, "psi", (2,), complex, unit_tol=DEFAULT_TOL)
    return _isometry(_UNITARY_A, beta) @ psi


def circuit_b(psi, beta) -> np.ndarray:
    """Run circuit "b"; realizes the same unitary as circuit "a"."""
    psi = _checked(psi, "psi", (2,), complex, unit_tol=DEFAULT_TOL)
    return _isometry(_UNITARY_B, beta) @ psi


def channel_tomography(beta, channel: str = "B") -> AffineBlochMap:
    """Reconstruct one output qubit's affine map from circuit "a".

    The circuit with its ancilla prepared is the isometry
    V = U_a (I (x) |ancilla>), whose output map is read off in the
    Heisenberg picture by output_map.
    """
    return output_map(_isometry(_UNITARY_A, beta), channel)
