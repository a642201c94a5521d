"""Trace-norm distinguishability and the three quality functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochcopy.channel import (
    E_HAT,
    AffineBlochMap,
    density_from_bloch,
    extract_e_vectors,
    gram_matrix,
    isometry_from_beta,
    isometry_residuals,
    output_map,
    realize_e_vectors,
)
from blochcopy.errors import NotHermitianError, NotPhysicalError
from blochcopy.linalg import dagger, random_isometry
from blochcopy.pauli import SIGMA
from blochcopy.quality import (
    distinguishability,
    min_error_rate,
    omega_e,
    quality_bloch,
    quality_c_from_circuit,
    quality_e,
    quality_e_diagonal,
    quality_e_from_vectors,
    trace_norm,
)
from blochcopy.validation import random_physical_gram
from oracles import partial_trace


def _random_beta(rng):
    return np.sqrt(rng.dirichlet(np.ones(4)))


def _random_mode(rng):
    m = rng.standard_normal(3)
    return m / np.linalg.norm(m)


# ---------------------------------------------------------------------------
# trace norm and discrimination


def test_trace_norm_examples():
    assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)
    assert trace_norm(SIGMA[1]) == pytest.approx(2.0)
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=9, max_size=9))
def test_trace_norm_dominates_trace(values):
    z = np.array(values).reshape(3, 3)
    h = 0.5 * (z + z.T)
    assert trace_norm(h) >= abs(np.trace(h)) - 1e-12


def test_min_error_rate_closed_form():
    # for Bloch vectors r1, r2 at equal priors the error is (2 - |r1 - r2|)/4
    rng = np.random.default_rng(51)
    for _ in range(20):
        r1 = rng.standard_normal(3)
        r1 *= rng.random() / np.linalg.norm(r1)
        r2 = rng.standard_normal(3)
        r2 *= rng.random() / np.linalg.norm(r2)
        got = min_error_rate(density_from_bloch(r1), density_from_bloch(r2))
        expected = 0.5 * (1.0 - 0.5 * np.linalg.norm(r1 - r2))
        assert got == pytest.approx(expected, abs=1e-12)


def test_min_error_rate_extremes():
    up = density_from_bloch([0, 0, 1])
    down = density_from_bloch([0, 0, -1])
    assert min_error_rate(up, down) == pytest.approx(0.0, abs=1e-12)
    assert min_error_rate(up, up) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        min_error_rate(up, down, 0.7, 0.7)


def test_biased_priors_shift_the_error():
    up = density_from_bloch([0, 0, 1])
    mixed = density_from_bloch([0, 0, 0])
    # guessing the likelier state alone already achieves p2
    assert min_error_rate(up, mixed, 0.8, 0.2) <= 0.2 + 1e-12


# ---------------------------------------------------------------------------
# the environment mode operator


def _oracle_omega(v, m):
    # half the mode contraction of Tr_B[V sigma_q V^dag]
    d = v.shape[0] // 2
    total = np.zeros((d, d), dtype=complex)
    for q in (1, 2, 3):
        total += m[q - 1] * partial_trace(v @ SIGMA[q] @ dagger(v), (2, d), 1)
    return 0.5 * total


def test_omega_matches_partial_trace_oracle():
    rng = np.random.default_rng(52)
    for _ in range(50):
        v = random_isometry(8, 2, rng)
        m = _random_mode(rng)
        got = omega_e(extract_e_vectors(v), m)
        assert np.max(np.abs(got - _oracle_omega(v, m))) < 1e-13


def test_omega_mode_z_structure_in_magic_basis():
    # for e_l = beta_l e^_l the only nonzero entries pair indices 0,3 and
    # 1,2; the latter carry the -i/+i phases
    rng = np.random.default_rng(53)
    beta = _random_beta(rng)
    om = omega_e(beta[:, None] * E_HAT, [0.0, 0.0, 1.0])
    magic = E_HAT.conj() @ om @ E_HAT.T
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[3, 0] = beta[0] * beta[3]
    expected[1, 2] = -1j * beta[1] * beta[2]
    expected[2, 1] = 1j * beta[1] * beta[2]
    assert np.max(np.abs(magic - expected)) < 1e-14


def test_omega_is_hermitian():
    rng = np.random.default_rng(54)
    for _ in range(20):
        v = random_isometry(8, 2, rng)
        om = omega_e(extract_e_vectors(v), _random_mode(rng))
        assert np.max(np.abs(om - dagger(om))) < 1e-13


# ---------------------------------------------------------------------------
# quality functions


def test_quality_bloch_of_diagonal_map():
    bmap = AffineBlochMap.diagonal([0.9, 0.8, 0.7])
    assert quality_bloch(bmap, [0, 0, 1]) == pytest.approx(0.7)
    m = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    assert quality_bloch(bmap, m) == pytest.approx(np.sqrt(0.81 + 0.64) / np.sqrt(2))


def test_quality_needs_unit_mode():
    with pytest.raises(ValueError):
        quality_bloch(AffineBlochMap.identity(), [0, 0, 2])


def test_closed_form_matches_eigensolve():
    rng = np.random.default_rng(55)
    for _ in range(200):
        beta = _random_beta(rng)
        m = _random_mode(rng)
        via_gram = quality_e(np.diag(beta**2).astype(complex), m)
        via_vectors = quality_e_from_vectors(beta[:, None] * E_HAT, m)
        closed = quality_e_diagonal(beta, m)
        assert abs(via_gram - closed) < 1e-12
        assert abs(via_vectors - closed) < 1e-12


def test_quality_e_rejects_unphysical_gram():
    with pytest.raises(NotPhysicalError):
        quality_e(np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex), [0, 0, 1])


def test_quality_e_decomposes_its_gram_once(monkeypatch):
    solved = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, **kwargs):
            solved.append(np.array(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(58)
    e = gram_matrix(extract_e_vectors(random_isometry(8, 2, rng)))
    quality_e(e, _random_mode(rng))
    # one eigendecomposition of the Gram matrix, one eigenvalue solve of the mode operator
    assert len(solved) == 2
    assert sum(a.shape == e.shape and np.allclose(a, e) for a in solved) == 1


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=float if np.isrealobj(x) else complex).tobytes()


def test_stacks_give_the_bits_of_one_call_per_matrix():
    rng = np.random.default_rng(2026)
    grams = gram_matrix(extract_e_vectors(np.array([random_isometry(8, 2, rng) for _ in range(1000)])))
    m = _random_mode(rng)
    vectors = realize_e_vectors(grams)
    assert _bits(vectors) == _bits([realize_e_vectors(e) for e in grams])
    assert _bits(isometry_residuals(grams)) == _bits(np.transpose([isometry_residuals(e) for e in grams]))
    omegas = omega_e(vectors, m)
    assert _bits(trace_norm(omegas)) == _bits([trace_norm(h) for h in omegas])
    single = [quality_e(e, m) for e in grams]
    assert all(type(q) is float for q in single)
    assert _bits(quality_e(grams, m)) == _bits(single)
    # any number of leading axes
    assert _bits(quality_e(grams.reshape(10, 25, 4, 4, 4), m)) == _bits(single)


@pytest.mark.parametrize("kind", ["negative-eigenvalue", "trace", "hermiticity"])
def test_one_unphysical_gram_fails_its_stack_with_its_own_message(kind):
    rng = np.random.default_rng(2027)
    grams = np.array([random_physical_gram(rng) for _ in range(50)])
    bad = {
        "negative-eigenvalue": np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex),
        "trace": grams[17] * 1.001,
        "hermiticity": grams[17] + np.diag([0.0, 1e-6, 0.0, 0.0]) @ np.ones((4, 4)),
    }[kind]
    grams[17] = bad
    with pytest.raises(NotPhysicalError) as alone:
        quality_e(bad, [0, 0, 1])
    with pytest.raises(NotPhysicalError) as stacked:
        quality_e(grams, [0, 0, 1])
    assert str(stacked.value) == str(alone.value)


def test_trace_norm_gates_each_matrix_of_a_stack():
    h = np.array([np.eye(2), [[1.0, 1e-3], [0.0, 1.0]]])
    with pytest.raises(NotHermitianError, match="by 1.000e-03"):
        trace_norm(h)
    # each matrix is measured against its own largest entry
    assert trace_norm(np.array([np.eye(2), 1e9 * np.eye(2) + [[0.0, 1.0], [0.0, 0.0]]]))[0] == 2.0


def test_perfect_transmission_to_environment():
    # beta = (1,0,0,1)/sqrt(2) sends mode 3 perfectly to the environment
    beta = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    assert quality_e_diagonal(beta, [0, 0, 1]) == pytest.approx(1.0)
    m = np.array([0.6, 0.0, 0.8])
    assert quality_e_diagonal(beta, m) == pytest.approx(0.8)


def test_second_copy_never_beats_the_environment():
    rng = np.random.default_rng(56)
    for _ in range(1000):
        v = random_isometry(8, 2, rng)
        m = _random_mode(rng)
        q_c = quality_bloch(output_map(v, "C"), m)
        q_e = quality_e(gram_matrix(extract_e_vectors(v)), m)
        assert q_c <= q_e + 1e-10


def test_centered_machine_c_equals_environment():
    rng = np.random.default_rng(57)
    for _ in range(20):
        beta = _random_beta(rng)
        m = _random_mode(rng)
        assert quality_c_from_circuit(beta, m) == pytest.approx(
            quality_e_diagonal(beta, m), abs=1e-10
        )


# ---------------------------------------------------------------------------
# distinguishability front end


def test_distinguishability_of_identical_inputs_is_zero():
    bmap = AffineBlochMap.diagonal([0.9, 0.8, 0.7])
    assert distinguishability(bmap, [0, 0, 1], [0, 0, 1]) == 0.0


def test_distinguishability_of_antipodal_inputs():
    bmap = AffineBlochMap.diagonal([0.9, 0.8, 0.7])
    got = distinguishability(bmap, [0, 0, 1], [0, 0, -1])
    assert got == pytest.approx(0.7)
    got = distinguishability(bmap, [0.3, 0, 0], [-0.3, 0, 0])
    assert got == pytest.approx(0.3 * 0.9)


def test_distinguishability_through_environment():
    beta = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    e_gram = np.diag(beta**2).astype(complex)
    got = distinguishability(e_gram, [0, 0, 1], [0, 0, -1], channel="E")
    assert got == pytest.approx(1.0)


def test_distinguishability_validates_inputs():
    bmap = AffineBlochMap.identity()
    with pytest.raises(ValueError):
        distinguishability(bmap, [0, 0, 2], [0, 0, -1])
    with pytest.raises(ValueError):
        distinguishability(bmap, [0, 0, 1], [0, 0, -1], channel="Q")
