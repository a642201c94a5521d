"""Exact checks of the Pauli trace table and the sign matrix."""

import numpy as np
import pytest

from blochcopy.pauli import L_TABLE, LAMBDA, SIGMA

# Closed-form single-qubit algebra: sigma_a sigma_b = phase * sigma_c.
# Built without any matrix arithmetic so it can serve as an independent
# oracle for the trace table.
_EPS = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1,
}


def _mul(a: int, b: int) -> tuple[complex, int]:
    if a == 0:
        return 1.0, b
    if b == 0:
        return 1.0, a
    if a == b:
        return 1.0, 0
    c = ({1, 2, 3} - {a, b}).pop()
    return 1j * _EPS[(a, b, c)], c


def _product_phase(indices) -> tuple[complex, int]:
    phase, idx = 1.0, 0
    for nxt in indices:
        p, idx = _mul(idx, nxt)
        phase *= p
    return phase, idx


def _oracle_entry(j: int, k: int, l: int, m: int) -> complex:
    # (1/2) Tr[sigma_j sigma_l sigma_k sigma_m]: trace kills everything
    # except multiples of the identity, whose trace is 2
    phase, idx = _product_phase((j, l, k, m))
    return phase if idx == 0 else 0.0


def test_sigma_algebra_oracle_matches_matrices():
    for a in range(4):
        for b in range(4):
            phase, c = _mul(a, b)
            assert np.array_equal(SIGMA[a] @ SIGMA[b], phase * SIGMA[c])


def test_l_table_matches_closed_form_exactly():
    oracle = np.empty((4, 4, 4, 4), dtype=complex)
    for j in range(4):
        for k in range(4):
            for l in range(4):
                for m in range(4):
                    oracle[j, k, l, m] = _oracle_entry(j, k, l, m)
    assert np.array_equal(L_TABLE, oracle)


def test_l_tensor_scalar_access():
    # L(jk;lm) is the entry L_TABLE[j, k, l, m]
    table = L_TABLE
    assert table[0, 0, 0, 0] == 1.0
    assert table[1, 2, 3, 0] == -1j
    assert table[2, 1, 3, 0] == 1j


def test_l_entries_are_unimodular_or_zero():
    mags = np.abs(L_TABLE)
    assert set(np.unique(mags)) <= {0.0, 1.0}


def test_half_l_is_its_own_inverse():
    # sum_lm L(jk;lm) L(lm;rs) = 4 delta_jr delta_ks, exact
    table = L_TABLE
    contracted = np.einsum("jklm,lmrs->jkrs", table, table)
    expected = 4.0 * np.einsum("jr,ks->jkrs", np.eye(4), np.eye(4))
    assert np.array_equal(contracted, expected.astype(complex))


def test_swap_symmetries_conjugate():
    table = L_TABLE
    assert np.array_equal(table.transpose(1, 0, 2, 3), table.conj())
    assert np.array_equal(table.transpose(0, 1, 3, 2), table.conj())
    assert np.array_equal(table.transpose(2, 3, 0, 1), table.conj())


def test_lambda_is_diagonal_block_of_l():
    lam = LAMBDA
    table = L_TABLE
    block = np.array([[table[j, j, l, l] for l in range(4)] for j in range(4)])
    assert np.array_equal(block, lam.astype(complex))


def test_lambda_squares_to_four():
    lam = LAMBDA
    assert np.array_equal(lam @ lam, 4.0 * np.eye(4))


def test_pauli_accessor():
    # sigma_i is SIGMA[i], for i in 0..3 (identity, x, y, z)
    assert np.array_equal(SIGMA[0], np.eye(2))
    assert np.array_equal(SIGMA[3], np.diag([1.0, -1.0]).astype(complex))


def test_sigma_readonly():
    with pytest.raises(ValueError):
        SIGMA[0, 0, 0] = 2.0
