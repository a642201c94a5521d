"""Gate-level checks of the two copying circuits."""

import numpy as np
import pytest

from blochcopy import circuit
from blochcopy.channel import bloch_vector, density_from_bloch, isometry_from_beta
from blochcopy.circuit import (
    CIRCUIT_A,
    CIRCUIT_B,
    beta_from_error_rates,
    channel_tomography,
    circuit_a,
    circuit_b,
    circuit_unitary,
    prepare_ancilla,
)
from blochcopy.errors import NotNormalizedError
from blochcopy.optimizer import b_from_beta, gamma_from_beta
from blochcopy.pauli import SIGMA
from oracles import apply_circuit, column_unitary, partial_trace, reduced_state, state_push_map

_RT2 = 1.0 / np.sqrt(2.0)

# Opening section of circuit "b": the middle qubit flips the phase of the
# top qubit, then the bottom qubit flips its amplitude.  Order matters.
CIRCUIT_B_FIRST = CIRCUIT_B[:2]


def circuit_to_json(gates) -> list:
    """Gate list in a JSON-friendly form."""
    return [[gate[0], *map(int, gate[1:])] for gate in gates]


def pauli_mixture_check(beta, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: the circuit's B output and the Pauli mixture sum_l beta_l^2 sigma_l rho sigma_l."""
    beta = np.asarray(beta, dtype=float)
    eps = prepare_ancilla(beta)
    u = circuit_unitary(CIRCUIT_A)
    full = u @ np.kron(rho, np.outer(eps, eps.conj())) @ u.conj().T
    lhs = partial_trace(full, (2, 2, 2), (0,))
    rhs = sum(beta[l] ** 2 * SIGMA[l] @ rho @ SIGMA[l] for l in range(4))
    return lhs, rhs


def _basis(index: int) -> np.ndarray:
    state = np.zeros(8, dtype=complex)
    state[index] = 1.0
    return state


def _random_beta(rng) -> np.ndarray:
    return np.sqrt(rng.dirichlet(np.ones(4)))


def _run_gate(state: np.ndarray, gate: tuple) -> np.ndarray:
    """One gate applied through its compiled matrix."""
    return circuit_unitary([gate]) @ state


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


_PLACEMENTS = (
    [("h", q) for q in range(3)]
    + [("xor", c, t) for c in range(3) for t in range(3) if c != t]
    + [("phase", a, b) for a in range(3) for b in range(a + 1, 3)]
)


# ---------------------------------------------------------------------------
# single gates; amplitudes ordered |bcd> with the B bit most significant


@pytest.mark.parametrize("gate", _PLACEMENTS, ids=lambda gate: "-".join(map(str, gate)))
def test_gate_matrix_matches_the_oracle_column_build(gate):
    # equal entry by entry; a phase gate's oracle columns carry -0.0 where
    # the matrix has 0.0, so signed zeros are compared by value
    assert np.array_equal(circuit_unitary([gate]), column_unitary([gate]))
    if gate[0] != "phase":
        assert _same_bits(circuit_unitary([gate]), column_unitary([gate]))


def test_hadamard_on_middle_qubit():
    out = _run_gate(_basis(0), ("h", 1))
    expected = np.zeros(8, dtype=complex)
    expected[0] = _RT2  # |000>
    expected[2] = _RT2  # |010>
    assert np.allclose(out, expected)


def test_hadamard_involutive():
    rng = np.random.default_rng(41)
    state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for q in (0, 1, 2):
        twice = _run_gate(_run_gate(state, ("h", q)), ("h", q))
        assert np.allclose(twice, state, atol=1e-14)


def test_xor_flips_target_when_control_set():
    # control B, target C: |100> -> |110>
    assert np.allclose(_run_gate(_basis(4), ("xor", 0, 1)), _basis(6))
    # control clear: |010> stays
    assert np.allclose(_run_gate(_basis(2), ("xor", 0, 1)), _basis(2))
    # control D, target B: |001> -> |101>
    assert np.allclose(_run_gate(_basis(1), ("xor", 2, 0)), _basis(5))


def test_phase_gate_negates_both_set():
    assert np.allclose(_run_gate(_basis(6), ("phase", 0, 1)), -_basis(6))
    assert np.allclose(_run_gate(_basis(4), ("phase", 0, 1)), _basis(4))
    # symmetric in its two qubits
    state = np.arange(8, dtype=complex)
    assert np.allclose(_run_gate(state, ("phase", 0, 1)), _run_gate(state, ("phase", 1, 0)))


def test_gate_validation():
    with pytest.raises(ValueError, match="distinct qubits"):
        circuit_unitary([("xor", 1, 1)])
    with pytest.raises(ValueError, match="unknown gate"):
        circuit_unitary([("swap", 0, 1)])
    with pytest.raises(ValueError, match="must be 0, 1 or 2"):
        circuit_unitary([("h", 3)])


# ---------------------------------------------------------------------------
# full circuits


def test_circuit_unitaries_match_the_oracle_column_build():
    assert _same_bits(circuit._UNITARY_A, column_unitary(CIRCUIT_A))
    assert _same_bits(circuit._UNITARY_B, column_unitary(CIRCUIT_B))
    assert not circuit._UNITARY_A.flags.writeable
    assert not circuit._UNITARY_B.flags.writeable


def test_both_circuits_give_the_same_unitary():
    u_a = circuit_unitary(CIRCUIT_A)
    u_b = circuit_unitary(CIRCUIT_B)
    assert np.max(np.abs(u_a - u_b)) < 1e-12
    assert np.allclose(u_a.conj().T @ u_a, np.eye(8), atol=1e-12)


def test_circuits_realize_the_machine_isometry():
    rng = np.random.default_rng(42)
    for _ in range(100):
        beta = _random_beta(rng)
        v = isometry_from_beta(beta)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        expected = v @ psi
        assert np.max(np.abs(circuit_a(psi, beta) - expected)) < 1e-10
        assert np.max(np.abs(circuit_b(psi, beta) - expected)) < 1e-10


def test_first_two_gates_apply_conditional_paulis():
    # ancilla basis state |cd> selects which Pauli hits the input qubit:
    # |00> identity, |01> sigma_1, |10> sigma_3, |11> -i sigma_2
    rng = np.random.default_rng(43)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    expected_ops = {0: SIGMA[0], 1: SIGMA[1], 2: SIGMA[3], 3: -1j * SIGMA[2]}
    for idx, op in expected_ops.items():
        anc = np.zeros(4, dtype=complex)
        anc[idx] = 1.0
        out = circuit_unitary(CIRCUIT_B_FIRST) @ np.kron(psi, anc)
        assert np.allclose(out, np.kron(op @ psi, anc), atol=1e-12)


def test_prepare_ancilla_component_order():
    # beta_2 sits on |11> and beta_3 on |10>
    anc = prepare_ancilla([0.1, 0.2, 0.3, np.sqrt(1 - 0.14)])
    assert anc[0] == pytest.approx(0.1)
    assert anc[1] == pytest.approx(0.2)
    assert anc[2] == pytest.approx(np.sqrt(1 - 0.14))
    assert anc[3] == pytest.approx(0.3)
    with pytest.raises(NotNormalizedError):
        prepare_ancilla([1.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prepare_ancilla_rejects_non_finite(bad):
    with pytest.raises(NotNormalizedError):
        prepare_ancilla([bad, 1.0, 0.0, 0.0])
    with pytest.raises(NotNormalizedError):
        channel_tomography([bad, 1.0, 0.0, 0.0], "B")


def test_circuit_json():
    assert circuit_to_json(CIRCUIT_A) == [["h", 1], ["xor", 0, 1], ["xor", 2, 0], ["xor", 1, 2]]


# ---------------------------------------------------------------------------
# tomography


def test_tomography_of_b_output_is_diagonal():
    rng = np.random.default_rng(44)
    for _ in range(10):
        beta = _random_beta(rng)
        bmap = channel_tomography(beta, "B")
        assert np.allclose(bmap.delta, 0.0, atol=1e-12)
        assert np.allclose(bmap.linear, np.diag(b_from_beta(beta)), atol=1e-12)


def test_tomography_of_c_output_matches_partner_axes():
    rng = np.random.default_rng(45)
    for _ in range(10):
        beta = _random_beta(rng)
        cmap = channel_tomography(beta, "C")
        expected = b_from_beta(gamma_from_beta(beta))
        assert np.allclose(cmap.delta, 0.0, atol=1e-12)
        assert np.allclose(cmap.linear, np.diag(expected), atol=1e-12)


def test_swapping_beta_and_gamma_swaps_the_outputs():
    rng = np.random.default_rng(46)
    beta = _random_beta(rng)
    gamma = gamma_from_beta(beta)
    if np.any(gamma < 0):
        gamma = np.abs(gamma)  # keep it a valid amplitude vector
    via_c = channel_tomography(beta, "C")
    via_b = channel_tomography(gamma, "B")
    assert np.allclose(via_c.linear, via_b.linear, atol=1e-10)


def test_channel_validation():
    with pytest.raises(ValueError):
        channel_tomography([1.0, 0.0, 0.0, 0.0], "E")


def test_tomography_matches_the_state_push_oracle():
    rng = np.random.default_rng(49)
    for _ in range(30):
        beta = rng.standard_normal(4)
        beta /= np.linalg.norm(beta)
        for channel in "BCD":
            got = channel_tomography(beta, channel)
            # gate by gate on the state |a> (x) |ancilla>, qubit 0 most significant
            want = state_push_map(lambda ket: apply_circuit(np.kron(ket, prepare_ancilla(beta)), CIRCUIT_A), channel)
            assert np.max(np.abs(got.delta - want.delta)) < 1e-12
            assert np.max(np.abs(got.linear - want.linear)) < 1e-12


def test_tomography_runs_no_gates(monkeypatch):
    # circuit runs and tomography apply the unitaries built at import
    calls = []

    def counting_circuit_unitary(gates):
        calls.append(gates)
        return circuit_unitary(gates)

    monkeypatch.setattr(circuit, "circuit_unitary", counting_circuit_unitary)
    circuit.circuit_unitary(CIRCUIT_A)
    assert calls == [CIRCUIT_A]  # the counter sees builds
    calls.clear()
    beta = [0.8, 0.1, 0.1, np.sqrt(0.34)]
    circuit_a(np.array([1.0, 0.0]), beta)
    circuit_b(np.array([0.0, 1.0]), beta)
    for channel in "BCD":
        channel_tomography(beta, channel)
    assert calls == []


def test_b_output_is_a_pauli_mixture():
    rng = np.random.default_rng(47)
    for _ in range(10):
        beta = _random_beta(rng)
        r = rng.standard_normal(3)
        r *= rng.random() / np.linalg.norm(r)
        lhs, rhs = pauli_mixture_check(beta, density_from_bloch(r))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_reduced_state_of_perfect_copy():
    # beta = (1,0,0,0) copies B perfectly and leaves C maximally mixed
    beta = np.array([1.0, 0.0, 0.0, 0.0])
    out = circuit_a(np.array([1.0, 0.0]), beta)
    rho_b = reduced_state(out, "B")
    rho_c = reduced_state(out, "C")
    assert np.allclose(bloch_vector(rho_b), [0, 0, 1], atol=1e-12)
    assert np.allclose(rho_c, 0.5 * np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# error-rate parametrization


def test_beta_from_error_rates_endpoints():
    assert np.allclose(beta_from_error_rates(0.0, 0.0), [1, 0, 0, 0])
    assert np.allclose(beta_from_error_rates(0.5, 0.5), [0.5, 0.5, 0.5, 0.5])


def test_beta_from_error_rates_axes():
    # first-copy axes are (1-2x, (1-2x)(1-2u), 1-2u) for rates x, u
    rng = np.random.default_rng(48)
    for _ in range(10):
        x, u = rng.random(2) * 0.5
        beta = beta_from_error_rates(x, u)
        b = b_from_beta(beta)
        assert np.allclose(b, [1 - 2 * x, (1 - 2 * x) * (1 - 2 * u), 1 - 2 * u], atol=1e-12)


def test_beta_from_error_rates_range():
    with pytest.raises(ValueError):
        beta_from_error_rates(-0.1, 0.2)
    with pytest.raises(ValueError):
        beta_from_error_rates(0.2, 1.2)


def test_growing_error_rates_degrade_b_and_help_c():
    rates = np.linspace(0.0, 0.45, 10)
    b3 = []
    c3 = []
    for d in rates:
        beta = beta_from_error_rates(d, d)
        b3.append(b_from_beta(beta)[2])
        c3.append(b_from_beta(gamma_from_beta(beta))[2])
    assert np.all(np.diff(b3) < 0)
    assert np.all(np.diff(c3) > 0)
