"""Linear algebra of the package and of the test oracles: partial trace,
random unitaries and isometries."""

import numpy as np
import pytest

from blochcopy.linalg import _hermiticity_error, dagger, random_isometry
from oracles import partial_trace, random_unitary


def _rand_density(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = z @ dagger(z)
    return rho / np.trace(rho)


def test_hermiticity_error():
    assert _hermiticity_error(np.eye(3)) == 0.0
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert _hermiticity_error(m) == pytest.approx(1.0)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(11)
    a = _rand_density(rng, 2)
    b = _rand_density(rng, 3)
    rho = np.kron(a, b)
    assert np.allclose(partial_trace(rho, (2, 3), 0), a, atol=1e-13)
    assert np.allclose(partial_trace(rho, (2, 3), 1), b, atol=1e-13)


def test_partial_trace_three_factors():
    rng = np.random.default_rng(12)
    a = _rand_density(rng, 2)
    b = _rand_density(rng, 2)
    c = _rand_density(rng, 2)
    rho = np.kron(np.kron(a, b), c)
    kept = partial_trace(rho, (2, 2, 2), (0, 2))
    assert np.allclose(kept, np.kron(a, c), atol=1e-13)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(13)
    rho = _rand_density(rng, 12)
    for dims, keep in (((3, 4), 0), ((3, 4), 1), ((2, 2, 3), (1, 2))):
        reduced = partial_trace(rho, dims, keep)
        assert np.trace(reduced) == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_keep_everything_is_identity():
    rng = np.random.default_rng(14)
    rho = _rand_density(rng, 6)
    assert np.allclose(partial_trace(rho, (2, 3), (0, 1)), rho)


def test_partial_trace_rejects_bad_input():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 3), 0)  # 5 != 2 * 3... shape mismatch
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 3), 2)
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 3), ())


def test_random_unitary_is_unitary_and_seeded():
    rng = np.random.default_rng(15)
    u = random_unitary(4, rng)
    assert np.allclose(dagger(u) @ u, np.eye(4), atol=1e-12)
    again = random_unitary(4, np.random.default_rng(15))
    assert np.array_equal(u, again)


def test_random_isometry_columns_orthonormal():
    rng = np.random.default_rng(16)
    v = random_isometry(8, 2, rng)
    assert v.shape == (8, 2)
    assert np.allclose(dagger(v) @ v, np.eye(2), atol=1e-12)


def _one_isometry(rows, cols, rng):
    """One matrix the way random_isometry drew it before it took stacks."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(z)
    return q[:, :cols]


@pytest.mark.parametrize("size", [(), (1,), (7, 2), (1024, 2)])
def test_stacked_isometries_equal_one_call_per_matrix(size):
    for seed in range(20):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        v = random_isometry(8, 2, rng, size)
        each = [_one_isometry(8, 2, oracle_rng) for _ in range(int(np.prod(size)))]
        assert v.shape == (*size, 8, 2)
        assert np.array_equal(v.reshape(-1, 8, 2), np.array(each).reshape(-1, 8, 2))
        assert rng.random() == oracle_rng.random()


def test_random_isometry_rejects_wide_shape():
    with pytest.raises(ValueError):
        random_isometry(2, 4, np.random.default_rng(0))
