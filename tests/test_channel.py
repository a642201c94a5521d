"""Gram matrices, transfer matrices, affine maps and explicit isometries."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochcopy.channel import (
    E_HAT,
    AffineBlochMap,
    b_from_e,
    bloch_vector,
    check_physical,
    complex_matrix_from_json,
    complex_matrix_to_json,
    density_from_bloch,
    diagonalize,
    extract_e_vectors,
    gram_matrix,
    isometry_from_beta,
    isometry_from_e_vectors,
    map_bloch,
    output_map,
    realize_e_vectors,
    tetrahedron_check,
    tetrahedron_mask,
    tetrahedron_violations,
    transfer_from_gram,
)
from blochcopy.errors import (
    NotHermitianError,
    NotIsometricError,
    NotNormalizedError,
    NotPhysicalError,
)
from blochcopy.linalg import dagger, random_isometry
from blochcopy.pauli import lambda_matrix
from oracles import gram_from_transfer, state_push_map, tetrahedron_rows


def _random_machine_gram(rng):
    return gram_matrix(extract_e_vectors(random_isometry(8, 2, rng)))


def _rotation(axis: int, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    out = np.eye(3)
    i, j = [(1, 2), (2, 0), (0, 1)][axis]
    out[i, i] = c
    out[j, j] = c
    out[i, j] = -s
    out[j, i] = s
    return out


# ---------------------------------------------------------------------------
# Bloch ball basics


def test_density_bloch_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(50):
        r = rng.standard_normal(3)
        r *= rng.random() / np.linalg.norm(r)
        rho = density_from_bloch(r)
        assert np.trace(rho) == pytest.approx(1.0)
        assert np.allclose(rho, dagger(rho))
        assert np.allclose(bloch_vector(rho), r, atol=1e-14)


def test_pure_state_bloch_vectors():
    assert np.allclose(bloch_vector(np.array([[1, 0], [0, 0]], dtype=complex)), [0, 0, 1])
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    assert np.allclose(bloch_vector(plus), [1, 0, 0])


# ---------------------------------------------------------------------------
# transfer <-> gram


def test_transfer_gram_round_trip_on_random_hermitians():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        e = 0.5 * (z + dagger(z))
        back = gram_from_transfer(transfer_from_gram(e))
        assert np.max(np.abs(back - e)) < 1e-12 * max(1.0, np.max(np.abs(e)))


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=16, max_size=16)
)
def test_gram_transfer_round_trip_any_real_matrix(values):
    t = np.array(values).reshape(4, 4)
    back = transfer_from_gram(gram_from_transfer(t))
    assert np.max(np.abs(back - t)) <= 1e-12 * max(1.0, np.max(np.abs(t)))


def test_transfer_requires_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotHermitianError):
        transfer_from_gram(bad)


def test_stacked_transfer_equals_one_call_per_matrix():
    rng = np.random.default_rng(25)
    grams = np.array([_random_machine_gram(rng) for _ in range(24)]).reshape(4, 6, 4, 4)
    stacked = transfer_from_gram(grams)
    assert stacked.shape == (4, 6, 4, 4)
    for idx in np.ndindex(4, 6):
        assert np.array_equal(stacked[idx], transfer_from_gram(grams[idx]))
    assert transfer_from_gram(grams[:0]).shape == (0, 6, 4, 4)


def test_stacked_transfer_fails_on_its_worst_matrix():
    grams = np.zeros((3, 4, 4), dtype=complex)
    grams[1, 0, 1] = 1e-3
    grams[2, 2, 3] = 0.5
    with pytest.raises(NotHermitianError, match="by 5.000e-01"):
        transfer_from_gram(grams)


def test_perfect_machine_gram():
    # E_00 = 1, everything else 0, is the identity channel on B
    e = np.zeros((4, 4), dtype=complex)
    e[0, 0] = 1.0
    bmap = b_from_e(e)
    assert np.array_equal(bmap.delta, np.zeros(3))
    assert np.array_equal(bmap.linear, np.eye(3))


def test_b_from_e_checks_isometry():
    e = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    bmap = b_from_e(e)  # diagonal gram is isometric with trace 1
    assert np.allclose(bmap.delta, 0.0)
    e_bad = e.copy()
    e_bad[0, 1] = 0.05
    e_bad[1, 0] = 0.05
    with pytest.raises(NotIsometricError):
        b_from_e(e_bad)
    # unchecked mode converts anyway
    b_from_e(e_bad, check=False)


def test_isometry_residuals_on_machine_grams():
    rng = np.random.default_rng(23)
    for _ in range(20):
        report = check_physical(_random_machine_gram(rng))
        assert report.trace_error < 1e-12
        assert report.isometry_error < 1e-12


def test_machine_image_stays_in_bloch_ball():
    rng = np.random.default_rng(24)
    for _ in range(50):
        bmap = b_from_e(_random_machine_gram(rng))
        for _ in range(20):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            assert np.linalg.norm(map_bloch(bmap, r)) <= 1.0 + 1e-10


def test_check_physical_flags():
    rng = np.random.default_rng(25)
    report = check_physical(_random_machine_gram(rng))
    assert report.passed
    assert report.min_eigenvalue >= -1e-12

    not_positive = np.diag([0.55, 0.3, 0.2, -0.05]).astype(complex)
    assert not check_physical(not_positive).passed

    skewed = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    skewed[0, 1] = 0.1  # Re E_01 != Im E_23
    skewed[1, 0] = 0.1
    assert not check_physical(skewed).passed

    report = check_physical(_random_machine_gram(rng))
    keys = set(report.to_json())
    assert "min_eigenvalue" in keys and "passed" in keys


# ---------------------------------------------------------------------------
# diagonal form


def test_diagonalize_reconstructs_and_orders():
    rng = np.random.default_rng(26)
    for _ in range(100):
        linear = rng.standard_normal((3, 3))
        delta = rng.standard_normal(3)
        form = diagonalize(AffineBlochMap(delta, linear))
        assert np.allclose(form.rot_out @ np.diag(form.axes) @ form.rot_in, linear, atol=1e-12)
        assert np.linalg.det(form.rot_in) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(form.rot_out) == pytest.approx(1.0, abs=1e-12)
        mags = np.abs(form.axes)
        assert mags[0] <= mags[1] + 1e-15 <= mags[2] + 2e-15
        assert np.sum(form.axes < 0) <= 1
        assert np.allclose(form.delta, form.rot_in @ delta, atol=1e-12)


def test_diagonalize_known_diagonal_map():
    bmap = AffineBlochMap.diagonal([-0.2, 0.3, 0.4])
    form = diagonalize(bmap)
    assert np.allclose(np.abs(form.axes), [0.2, 0.3, 0.4], atol=1e-14)
    assert np.prod(form.axes) == pytest.approx(-0.024, abs=1e-14)
    assert np.allclose(form.rot_out @ np.diag(form.axes) @ form.rot_in, bmap.linear, atol=1e-14)


def test_diagonalize_undoes_known_rotations():
    rot_a = _rotation(2, 0.3) @ _rotation(0, -1.1)
    rot_b = _rotation(1, 0.7)
    axes = np.array([0.1, 0.5, 0.9])
    linear = rot_a @ np.diag(axes) @ rot_b
    form = diagonalize(AffineBlochMap(np.zeros(3), linear))
    assert np.allclose(np.abs(form.axes), axes, atol=1e-12)


# ---------------------------------------------------------------------------
# attainable axes


def test_tetrahedron_membership():
    assert tetrahedron_check((1, 1, 1))
    assert tetrahedron_check((1, -1, -1))
    assert tetrahedron_check((0, 0, 0))
    # a face point whose rows of Lambda (1, b) are all >= 0, though b3 + b1 rounds above 1 + b2
    assert tetrahedron_check((0.4556438356163038, -0.26701684648899165, 0.2773393178947046), tol=0.0)
    assert not tetrahedron_check((0.9, 0.9, 0.5))
    assert tetrahedron_violations((0.9, 0.9, 0.5)) == ["b1+b2 > 1+b3"]
    assert tetrahedron_violations((-0.5, -0.4, -0.3)) == ["b1+b2+b3 < -1"]


def test_tetrahedron_rejects_nan():
    assert not tetrahedron_check([np.nan] * 3)
    assert not tetrahedron_check([0.1, np.nan, 0.2])
    # a NaN is named as such, not as a violated sum
    assert tetrahedron_violations([np.nan] * 3) == ["NaN component"]
    assert tetrahedron_violations([0.1, np.nan, 0.2]) == ["NaN component"]


def test_tetrahedron_rejects_inf():
    # inf + inf <= 1 + inf holds, so the pair tests alone let this through
    assert not tetrahedron_check([np.inf] * 3)
    assert not tetrahedron_check([0.1, -np.inf, 0.2])
    assert tetrahedron_violations([np.inf] * 3) == ["infinite component"]


def test_tetrahedron_mask_matches_the_scalar_check():
    rng = np.random.default_rng(93)
    rows = 2.4 * rng.random((4000, 3)) - 1.2
    rows[:3] = [[1, 1, 1], [1, -1, -1], [0.9, 0.9, 0.5]]
    rows[3:6] = [[np.nan, 0, 0], [np.inf] * 3, [0, -np.inf, 0]]
    # face points b = Lambda beta^2: a Dirichlet beta^2 with a 0 put in at a random place
    rng = np.random.default_rng(1)
    squares = [np.insert(w, at, 0.0) for w, at in zip(rng.dirichlet(np.ones(3), 500), rng.integers(0, 4, 500))]
    rows = np.concatenate([rows, (np.array(squares) @ lambda_matrix().T)[:, 1:]])
    # tetrahedron_violations runs the mask's kernel; the exact rows of Lambda (1, b) are an independent check
    exact = [tetrahedron_rows(b) for b in rows]
    for tol in (0.0, 1e-12, 0.1):
        mask = tetrahedron_mask(rows, tol=tol)
        assert mask.shape == (len(rows),)
        assert list(mask) == [not tetrahedron_violations(b, tol=tol) for b in rows]
        if tol == 0.1:
            continue
        decided = 0
        for b, ok, rows_b in zip(rows, mask, exact):
            if rows_b is None:  # a NaN or infinite component
                assert not ok
                continue
            # three sums each round by at most 2^-53 of a partial sum, itself at most 1 + |b1| + |b2| + |b3|
            bound = Fraction(1, 2**51) * (1 + sum(abs(Fraction(v)) for v in b))
            margins = [r + Fraction(tol) for r in rows_b]
            if any(m < -bound for m in margins) or all(m > bound for m in margins):
                decided += 1
                assert ok == all(m >= 0 for m in margins)
        # at tol 0 the vertices' and face points' margins are within rounding of 0; at 1e-12 no finite row's is
        assert decided >= 3995 if tol == 0.0 else decided == 4497
    assert list(mask[:6]) == [True, True, False, False, False, False]
    assert tetrahedron_mask(rows.reshape(2, -1, 3)).shape == (2, len(rows) // 2)
    with pytest.raises(ValueError):
        tetrahedron_mask(np.zeros((5, 4)))


# ---------------------------------------------------------------------------
# explicit isometries


def test_isometry_from_beta_is_isometric():
    rng = np.random.default_rng(27)
    for _ in range(20):
        beta = rng.standard_normal(4)
        beta /= np.linalg.norm(beta)
        v = isometry_from_beta(beta)
        assert np.allclose(dagger(v) @ v, np.eye(2), atol=1e-12)


def test_isometry_from_beta_requires_normalization():
    with pytest.raises(NotNormalizedError):
        isometry_from_beta([1.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_isometry_from_beta_rejects_non_finite(bad):
    with pytest.raises(NotNormalizedError):
        isometry_from_beta([bad, 1.0, 0.0, 0.0])


def test_e_hat_rows_orthonormal():
    assert np.allclose(E_HAT.conj() @ E_HAT.T, np.eye(4), atol=1e-15)


def test_extract_recovers_scaled_magic_rows():
    rng = np.random.default_rng(28)
    for _ in range(20):
        beta = rng.dirichlet(np.ones(4)) ** 0.5
        v = isometry_from_beta(beta)
        e = extract_e_vectors(v)
        assert np.allclose(e, beta[:, None] * E_HAT, atol=1e-14)
        assert np.allclose(gram_matrix(e), np.diag(beta**2), atol=1e-14)


def test_assemble_extract_round_trip():
    rng = np.random.default_rng(29)
    vectors = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = isometry_from_e_vectors(vectors)
    assert np.allclose(extract_e_vectors(v), vectors, atol=1e-13)


def test_output_map_matches_gram_route():
    rng = np.random.default_rng(30)
    for rows in (8, 8, 16):
        for _ in range(10):
            v = random_isometry(rows, 2, rng)
            via_heisenberg = output_map(v, "B")
            via_gram = b_from_e(gram_matrix(extract_e_vectors(v)))
            assert np.allclose(via_heisenberg.delta, via_gram.delta, atol=1e-12)
            assert np.allclose(via_heisenberg.linear, via_gram.linear, atol=1e-12)


def test_output_map_matches_state_pushes_on_every_output():
    rng = np.random.default_rng(33)
    for _ in range(20):
        v = random_isometry(8, 2, rng)
        for qubit in "BCD":
            got = output_map(v, qubit)
            want = state_push_map(lambda ket: v @ ket, qubit)
            assert np.allclose(got.delta, want.delta, atol=1e-12)
            assert np.allclose(got.linear, want.linear, atol=1e-12)


def test_output_map_validation():
    rng = np.random.default_rng(34)
    with pytest.raises(ValueError):
        output_map(random_isometry(8, 2, rng), "E")
    with pytest.raises(ValueError):
        output_map(random_isometry(16, 2, rng), "C")
    with pytest.raises(ValueError):
        output_map(np.zeros((7, 2)), "B")
    v = random_isometry(16, 2, rng)
    assert np.array_equal(output_map(v, "b").linear, output_map(v, "B").linear)


def test_realize_e_vectors_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(20):
        e = _random_machine_gram(rng)
        vecs = realize_e_vectors(e)
        assert np.allclose(gram_matrix(vecs), e, atol=1e-12)


def test_realize_rejects_negative_gram():
    with pytest.raises(NotPhysicalError):
        realize_e_vectors(np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex))


# ---------------------------------------------------------------------------
# serialization


def test_affine_map_json_round_trip():
    bmap = AffineBlochMap([0.1, -0.2, 0.3], np.arange(9.0).reshape(3, 3))
    again = AffineBlochMap(**bmap.to_json())
    assert np.array_equal(again.delta, bmap.delta)
    assert np.array_equal(again.linear, bmap.linear)


def test_complex_matrix_json_round_trip():
    rng = np.random.default_rng(32)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    again = complex_matrix_from_json(complex_matrix_to_json(m))
    assert np.array_equal(again, m)
