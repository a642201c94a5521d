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
"""

from __future__ import annotations

import numpy as np

from .channel import _RT2, AffineBlochMap, output_map
from .errors import NotNormalizedError
from .linalg import partial_trace

__all__ = [
    "CIRCUIT_A",
    "CIRCUIT_B",
    "apply_gate",
    "apply_circuit",
    "circuit_unitary",
    "prepare_ancilla",
    "beta_from_error_rates",
    "circuit_a",
    "circuit_b",
    "reduced_state",
    "channel_tomography",
]

_IDX = np.arange(8)
_SUBSYSTEM = {"B": 0, "C": 1, "D": 2}

# Gate tuples: ("h", target), ("xor", control, target), ("phase", q1, q2).
CIRCUIT_A = (("h", 1), ("xor", 0, 1), ("xor", 2, 0), ("xor", 1, 2))
CIRCUIT_B = (("phase", 0, 1), ("xor", 2, 0), ("h", 1), ("xor", 1, 2))


def _bit(q: int) -> int:
    if q not in (0, 1, 2):
        raise ValueError(f"qubit index must be 0, 1 or 2, got {q}")
    return 4 >> q


def apply_gate(state: np.ndarray, gate: tuple) -> np.ndarray:
    """Apply one gate to an 8-amplitude state vector, returning a new vector.

    Gates act by index arithmetic on the amplitudes rather than by matrix
    multiplication.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (8,):
        raise ValueError("state must have 8 amplitudes")
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
        if c == t:
            raise ValueError("control and target must differ")
        bc, bt = _bit(c), _bit(t)
        sel = _IDX[(_IDX & bc) != 0]
        out[sel] = state[sel ^ bt]
    elif kind == "phase":
        a, b = gate[1:]
        if a == b:
            raise ValueError("phase gate needs two distinct qubits")
        sel = _IDX[((_IDX & _bit(a)) != 0) & ((_IDX & _bit(b)) != 0)]
        out[sel] = -state[sel]
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return out


def apply_circuit(state: np.ndarray, gates) -> np.ndarray:
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def circuit_unitary(gates) -> np.ndarray:
    """Full 8 x 8 unitary of a gate sequence (built column by column)."""
    u = np.zeros((8, 8), dtype=complex)
    for col in range(8):
        basis = np.zeros(8, dtype=complex)
        basis[col] = 1.0
        u[:, col] = apply_circuit(basis, gates)
    return u


# Unitary of circuit "a", built once from the gate list; column 4 a + j is
# the circuit's output for input |a> and ancilla |j>.
_UNITARY_A = circuit_unitary(CIRCUIT_A)
_UNITARY_A.setflags(write=False)


def prepare_ancilla(beta, tol: float = 1e-9) -> np.ndarray:
    """Two-qubit ancilla amplitudes in the |cd> basis for coefficients beta.

    The coefficient-to-basis assignment is the single bug-prone spot of the
    whole construction: beta[2] weights |11> and beta[3] weights |10>.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (4,):
        raise ValueError("beta must have four components")
    if not abs(beta @ beta - 1.0) <= tol:  # NaN and inf fail too
        raise NotNormalizedError(f"ancilla coefficients have squared norm {beta @ beta:.12f}")
    return np.array([beta[0], beta[1], beta[3], beta[2]], dtype=complex)


def beta_from_error_rates(d_xy: float, d_uv: float) -> np.ndarray:
    """Machine coefficients of a product-form ancilla given two error rates.

    The ancilla (sqrt(1-d_xy)|0> + sqrt(d_xy)|1>) (x) (sqrt(1-d_uv)|0> +
    sqrt(d_uv)|1>) expands into the standard coefficient order.
    """
    for name, d in (("d_xy", d_xy), ("d_uv", d_uv)):
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {d}")
    return np.array(
        [
            np.sqrt((1.0 - d_xy) * (1.0 - d_uv)),
            np.sqrt((1.0 - d_xy) * d_uv),
            np.sqrt(d_xy * d_uv),
            np.sqrt(d_xy * (1.0 - d_uv)),
        ]
    )


def _combine(psi, beta) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise ValueError("input qubit state must have two amplitudes")
    norm = np.vdot(psi, psi).real
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalizedError(f"input state has squared norm {norm:.12f}")
    return np.kron(psi, prepare_ancilla(beta))


def circuit_a(psi, beta) -> np.ndarray:
    """Run circuit "a" on input qubit psi with ancilla coefficients beta."""
    return apply_circuit(_combine(psi, beta), CIRCUIT_A)


def circuit_b(psi, beta) -> np.ndarray:
    """Run circuit "b"; realizes the same unitary as circuit "a"."""
    return apply_circuit(_combine(psi, beta), CIRCUIT_B)


def reduced_state(state: np.ndarray, keep: str) -> np.ndarray:
    """Reduced density matrix of the named output qubits, e.g. "B", "C" or "BC"."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (8,):
        raise ValueError("state must have 8 amplitudes")
    try:
        axes = tuple(sorted(_SUBSYSTEM[ch] for ch in keep.upper()))
    except KeyError as exc:
        raise ValueError(f"unknown output qubit {exc.args[0]!r}") from None
    if not axes:
        raise ValueError("keep must name at least one output qubit")
    rho = np.outer(state, state.conj())
    return partial_trace(rho, (2, 2, 2), axes)


def channel_tomography(beta, channel: str = "B") -> AffineBlochMap:
    """Reconstruct one output qubit's affine map from circuit "a".

    The circuit with its ancilla prepared is the isometry
    V = U_a (I (x) |ancilla>), whose output map is read off in the
    Heisenberg picture by output_map.
    """
    keep = channel.upper()
    if keep not in _SUBSYSTEM:
        raise ValueError("channel must be 'B', 'C' or 'D'")
    v = _UNITARY_A.reshape(8, 2, 4) @ prepare_ancilla(beta)
    return output_map(v, keep)
