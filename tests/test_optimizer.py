"""Coefficient chain, trade-off map, pair classification, Jacobians."""

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochcopy import validation
from blochcopy.channel import tetrahedron_check
from blochcopy.errors import NotPossibleError, NotPositiveOptimalError
from blochcopy.linalg import DEFAULT_TOL
from blochcopy.optimizer import (
    _g_columns,
    _sign_patterns,
    b_from_beta,
    beta_from_b,
    class_p_check,
    class_p_mask,
    classify_pair,
    g_map,
    g_map_many,
    gamma_from_beta,
    h_vector,
    isotropic_tradeoff,
    jacobians,
    positive_optimal_condition,
    positive_optimal_mask,
    same_order,
    sign_flip_variants,
)
from blochcopy.pauli import lambda_matrix
from oracles import class_p_margins, sequential_g, sign_patterns, unscaled_positive_optimal


def _random_tetra(rng):
    while True:
        b = rng.random(3)
        if tetrahedron_check(b):
            return b


# ---------------------------------------------------------------------------
# coefficient chain


def test_isotropic_fixed_point_coefficients():
    b = np.full(3, 2.0 / 3.0)
    beta = beta_from_b(b)
    assert beta == pytest.approx([np.sqrt(3) / 2] + [1 / np.sqrt(12)] * 3)
    # the fixed point is its own partner
    assert gamma_from_beta(beta) == pytest.approx(beta)
    assert g_map(b) == pytest.approx(b, abs=1e-14)


def test_identity_machine_chain():
    beta = beta_from_b([1.0, 1.0, 1.0])
    assert beta == pytest.approx([1.0, 0.0, 0.0, 0.0])
    assert gamma_from_beta(beta) == pytest.approx([0.5, 0.5, 0.5, 0.5])
    assert g_map([1.0, 1.0, 1.0]) == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


# a face point b = Lambda beta^2 (beta_2 = 0) whose row 2 of Lambda (1, b) rounds below 0
_ROUNDED_OUT = [0.4819727898195105, -0.5284020369017679, -0.010374826721278402]
# a face point b = Lambda beta^2 (beta_2 = 0) whose rows all round to >= 0, though b3 + b1 rounds above 1 + b2
_ROUNDED_IN = [0.4556438356163038, -0.26701684648899165, 0.2773393178947046]


@pytest.mark.parametrize(
    "bad, tol, name",
    [([0.9, 0.9, 0.5], DEFAULT_TOL, "b1+b2 > 1+b3"), (_ROUNDED_OUT, 0.0, "b3+b1 > 1+b2")],
    ids=["outside", "face-point-rounded-out"],
)
def test_unattainable_axes_raise_with_the_failed_face(bad, tol, name):
    assert not tetrahedron_check(bad, tol=tol)
    with pytest.raises(NotPossibleError) as err:
        beta_from_b(bad, tol=tol)
    assert str(err.value) == f"tetrahedron violated: {name}"


@pytest.mark.parametrize(
    "bad, names",
    [
        ([0.9, 0.5, 0.9], "b3+b1 > 1+b2"),
        ([1.5, 1.5, 1.5], "b1+b2 > 1+b3; b2+b3 > 1+b1; b3+b1 > 1+b2"),
        ([-0.9, -0.9, -0.9], "b1+b2+b3 < -1"),
        ([0.5, np.nan, 0.5], "NaN component"),
    ],
    ids=["one-face", "three-faces", "sum", "nan"],
)
def test_batch_and_scalar_g_name_the_first_bad_row(bad, names):
    rows = [[0.5, 0.5, 0.5], bad, [0.9, 0.9, 0.5]]
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotPossibleError) as batch:
            g_map_many(rows)
        with pytest.raises(NotPossibleError) as scalar:
            g_map(bad)
    assert str(batch.value) == str(scalar.value) == f"tetrahedron violated: {names}"


def test_chain_round_trip():
    rng = np.random.default_rng(60)
    for _ in range(200):
        b = _random_tetra(rng)
        assert b_from_beta(beta_from_b(b)) == pytest.approx(b, abs=1e-12)


def test_partner_map_is_involutive():
    rng = np.random.default_rng(61)
    lam = lambda_matrix()
    assert lam @ lam == pytest.approx(4.0 * np.eye(4))
    beta = np.sqrt(rng.dirichlet(np.ones(4)))
    assert gamma_from_beta(gamma_from_beta(beta)) == pytest.approx(beta)


def test_g_map_many_matches_scalar_map():
    rng = np.random.default_rng(62)
    rows = np.array([_random_tetra(rng) for _ in range(64)])
    batch = g_map_many(rows)
    for row, out in zip(rows, batch):
        assert np.array_equal(out, g_map(row))


_ATTAINABLE_AXES = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(tetrahedron_check)


@settings(deadline=None, max_examples=300)
@given(_ATTAINABLE_AXES)
def test_scalar_and_batch_g_agree_bit_for_bit(b):
    assert g_map(b).tobytes() == g_map_many([b])[0].tobytes()


def _matmul_g(b_rows):
    """g as three BLAS products: beta^2 = 1/4 (1, b) L, gamma = 1/2 beta L, c = gamma^2 L."""
    lam = lambda_matrix()
    lifted = np.concatenate([np.ones((len(b_rows), 1)), b_rows], axis=1)
    beta = np.sqrt(np.maximum(0.25 * lifted @ lam, 0.0))
    gamma = 0.5 * beta @ lam
    return (gamma**2 @ lam)[:, 1:]


def test_g_columns_equals_the_sequential_sum_oracle():
    # 1.1e6 rows: attainable axes Lambda p for points p of the simplex, and
    # draws in the unit cube kept when they lie in the good region (a quarter)
    rng = np.random.default_rng(71)
    lam_axes = lambda_matrix()[1:]
    for _ in range(4):
        tetra = np.einsum("qk,nk->nq", lam_axes, rng.dirichlet(np.ones(4), size=175_000))
        cube = rng.random((400_000, 3))
        good = cube[positive_optimal_mask(cube)]
        for rows in (tetra, good):
            got = g_map_many(rows)
            assert np.array_equal(got, sequential_g(rows))
            assert np.array_equal(_g_columns(rows.T).T, got)
            # the chain rounds differently, and its summation order is the BLAS's
            # choice, so only a tolerance is gated
            assert np.max(np.abs(got - _matmul_g(rows))) <= 1e-15
    assert g_map_many(np.empty((0, 3))).shape == (0, 3)


def _decimal_g(b):
    """g of the doubles in b, exact to 50 digits: the stdlib decimal oracle."""
    with localcontext() as ctx:
        ctx.prec = 50
        x1, x2, x3 = (Decimal(float(v)) for v in b)
        squares = ((1 + x1 + x2 + x3) / 4, (1 + x1 - x2 - x3) / 4, (1 - x1 + x2 - x3) / 4, (1 - x1 - x2 + x3) / 4)
        b0, b1, b2, b3 = (max(v, Decimal(0)).sqrt() for v in squares)
        return (2 * (b0 * b1 + b2 * b3), 2 * (b0 * b2 + b3 * b1), 2 * (b0 * b3 + b1 * b2))


def _row_errors(got, exact):
    """Largest absolute error of each row against the oracle."""
    return np.array([max(float(abs(Decimal(float(g)) - w)) for g, w in zip(row, want)) for row, want in zip(got, exact)])


def test_g_is_more_accurate_than_the_matmul_chain():
    # 20,000 attainable axes Lambda p, p uniform on the simplex; the near-face
    # rows, where the root amplifies the rounding of beta^2, set the maximum
    # error of every path alike, so the mean and the 99th percentile are gated
    rng = np.random.default_rng(2024)
    rows = np.einsum("qk,nk->nq", lambda_matrix()[1:], rng.dirichlet(np.ones(4), size=20_000))
    exact = [_decimal_g(b) for b in rows]
    err = _row_errors(g_map_many(rows), exact)
    chain = _row_errors(_matmul_g(rows), exact)
    assert err.mean() <= 1.1e-16 and np.percentile(err, 99) <= 3.2e-16
    assert err.mean() < chain.mean() and np.percentile(err, 99) < np.percentile(chain, 99)


# ---------------------------------------------------------------------------
# trade-off map


def test_g_is_involutive_on_the_good_region():
    points, _ = validation._first_accepted(validation._spawned_words(63, 0, 300), "good", np.empty((300, 1, 3)))
    for b in points.T:
        assert np.max(np.abs(g_map(g_map(b)) - b)) < 1e-10


def test_double_map_improves_outside_the_good_region():
    # with a negative coefficient product the double map strictly raises at
    # least one semi-axis and lands on a genuine fixed point
    rng = np.random.default_rng(64)
    checked = 0
    while checked < 200:
        b = _random_tetra(rng)
        gamma4 = float(np.prod(gamma_from_beta(beta_from_b(b))))
        if gamma4 > -1e-6:
            continue
        checked += 1
        bb = g_map(g_map(b))
        assert np.all(bb >= b - 1e-12)
        assert np.any(bb > b + 1e-9)
        assert np.max(np.abs(g_map(g_map(bb)) - bb)) < 1e-10


def test_single_axis_family():
    # machines beta = (sqrt(1-t), 0, 0, sqrt(t)) trade the transverse axes
    # of one copy against the longitudinal axis of the other
    for t in np.linspace(0.0, 0.5, 11):
        b = np.array([1.0 - 2.0 * t, 1.0 - 2.0 * t, 1.0])
        expected = np.array([0.0, 0.0, 2.0 * np.sqrt(t * (1.0 - t))])
        assert g_map(b) == pytest.approx(expected, abs=1e-12)


def test_full_transfer_swaps_the_copies():
    assert g_map([0.0, 0.0, 1.0]) == pytest.approx([0.0, 0.0, 1.0])


def test_isotropic_endpoints_and_crossings():
    assert isotropic_tradeoff(0.0) == pytest.approx(1.0)
    assert isotropic_tradeoff(1.0) == pytest.approx(0.0)
    assert isotropic_tradeoff(2.0 / 3.0) == pytest.approx(2.0 / 3.0)
    assert isotropic_tradeoff(0.5) == pytest.approx(0.8090169943749475)
    with pytest.raises(ValueError):
        isotropic_tradeoff(1.2)


def test_isotropic_matches_g_map():
    for r in np.linspace(0.0, 1.0, 21):
        s = isotropic_tradeoff(r)
        assert g_map([r, r, r]) == pytest.approx([s, s, s], abs=1e-12)


# the curve is flat near r = 0 (s = 1 - r^2 + ...), so the inverse branch
# has unbounded slope there; keep the property to the conditioned region
@settings(deadline=None, max_examples=200)
@given(st.floats(min_value=1e-3, max_value=1.0))
def test_isotropic_tradeoff_is_its_own_inverse(r):
    assert isotropic_tradeoff(isotropic_tradeoff(r)) == pytest.approx(r, abs=1e-10)


def test_isotropic_tradeoff_flattens_at_zero():
    # below float resolution of the flat endpoint the image rounds to 1
    assert isotropic_tradeoff(1e-9) == 1.0
    assert isotropic_tradeoff(isotropic_tradeoff(1e-9)) == 0.0


_GOOD_AXES = st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3).filter(
    lambda b: positive_optimal_condition(b)
)
_UNIT_BETA = (
    st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 4)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: v / np.linalg.norm(v))
)


@settings(deadline=None, max_examples=300)
@given(_GOOD_AXES)
def test_g_is_an_involution_on_the_good_region(b):
    err = np.max(np.abs(g_map(g_map(b)) - b))
    # on a face of the tetrahedron a coefficient vanishes and the square root
    # turns a rounding error of 1e-16 into one of 1e-8
    assert err <= 1e-7
    beta = beta_from_b(b)
    if min(np.min(beta), np.min(gamma_from_beta(beta))) >= 1e-3:
        assert err <= 1e-12


@settings(deadline=None, max_examples=300)
@given(_UNIT_BETA)
def test_h_is_the_same_on_partner_coefficients(beta):
    assert np.max(np.abs(h_vector(gamma_from_beta(beta)) - h_vector(beta))) <= 1e-12


@settings(deadline=None, max_examples=300)
@given(_UNIT_BETA)
def test_jacobian_factors_multiply_to_a_multiple_of_the_identity(beta):
    # dc = J db / (16 beta4) and db = K dc / (16 gamma4), so J K = 256 beta4 gamma4 I
    pair = jacobians(beta)
    want = 256.0 * pair.beta4 * pair.gamma4 * np.eye(3)
    assert np.max(np.abs(pair.j @ pair.k - want)) <= 1e-12


# ---------------------------------------------------------------------------
# difference weights and class P


def test_h_vector_closed_form():
    beta = np.array([0.8, 0.4, 0.3, np.sqrt(1 - 0.89)])
    h = h_vector(beta)
    expected = 2.0 * np.array(
        [
            beta[0] * beta[1] - beta[2] * beta[3],
            beta[0] * beta[2] - beta[3] * beta[1],
            beta[0] * beta[3] - beta[1] * beta[2],
        ]
    )
    assert h == pytest.approx(expected)


def test_h_agrees_between_partner_coefficients():
    rng = np.random.default_rng(65)
    for _ in range(100):
        beta = np.sqrt(rng.dirichlet(np.ones(4)))
        assert h_vector(beta) == pytest.approx(h_vector(gamma_from_beta(beta)))


def test_at_most_one_negative_weight():
    # whenever both partners are componentwise nonnegative
    rng = np.random.default_rng(66)
    checked = 0
    while checked < 2000:
        beta = np.sqrt(rng.dirichlet(np.ones(4)))
        if np.any(gamma_from_beta(beta) < 0.0):
            continue
        checked += 1
        assert int(np.sum(h_vector(beta) < 0.0)) <= 1


def test_class_p_examples():
    assert class_p_check([1.0, 1.0, 1.0, 1.0])
    assert class_p_check([1.0, 0.5, 0.5, 0.25])
    assert not class_p_check([1.0, 1.0, 1.0, 0.5])  # 0.5 = xi0 xi3 < xi1 xi2 = 1
    assert not class_p_check([1.0, 1.1, 0.2, 0.2])  # component above xi0
    assert not class_p_check([1.0, -0.1, 0.2, 0.2])
    with pytest.raises(ValueError):
        class_p_check([1.0, 0.5, 0.5])


@pytest.mark.parametrize("scale", [1e308, 1e-200, 2.0**-1074])
def test_class_p_answers_as_on_the_unscaled_vector(scale):
    # xi_0 xi_q and xi_q' xi_q'' overflow to inf or underflow to 0 at these scales,
    # where they compared equal; the class is closed under positive scaling
    for xi in ([1.0, 0.5, 1.0, 1.0], [1.0, 1.0, 1.0, 0.5], [1.0, 0.5, 0.5, 0.25], [1.0, 1.0, 1.0, 1.0]):
        assert class_p_check(np.multiply(xi, scale)) == class_p_check(xi)


def test_class_p_check_answers_when_its_scaled_tolerance_overflows():
    # tol / xi_0^2 overflows; the unscaled products and tol do not, and decide these rows
    assert class_p_check([1e-200, 0.05, 0.05, 0.05], tol=0.1)
    assert class_p_check([1e-20, 0.05, 0.05, 0.05], tol=0.1)
    assert class_p_check([0.0, 0.05, 0.05, 0.05], tol=0.1)
    assert not class_p_check([1e-200, 4.0, 4.0, 4.0], tol=4.0)  # 4e-200 < 16 - 4


_QUARTER_GRID = np.array(list(itertools.product(range(-1, 5), repeat=4))) / 4.0
_POWER_OF_TWO_GRID = np.array(list(itertools.product([0.0, 2.0**-1074, 2.0**-1022, 0.5, 1.0, 2.0**1023], repeat=4)))


def _random_rows(rng, n):
    ordered = rng.random((n, 4))
    ordered[:, 0] = ordered[:, 1:].max(axis=1) + 0.2 * rng.random(n)
    scaled = np.ldexp(ordered, rng.integers(-1074, 1024, (n, 1)))
    tiny_xi0 = 0.1 * rng.random((n, 4))  # tol / xi_0^2 overflows at tol 0.1
    tiny_xi0[:, 0] = np.ldexp(1.0, rng.integers(-1074, -20, n))
    return np.concatenate([rng.random((n, 4)), ordered, scaled, tiny_xi0])


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 0.1])
def test_class_p_mask_equals_the_one_row_calls(tol):
    rows = np.concatenate([_QUARTER_GRID[::3], _POWER_OF_TWO_GRID[::3], _random_rows(np.random.default_rng(72), 75)])
    rows[:3, 1] = [np.nan, np.inf, -np.inf]
    mask = class_p_mask(rows.reshape(2, -1, 4), tol=tol).reshape(-1)
    assert list(mask) == [class_p_check(xi, tol=tol) for xi in rows]
    eta = rows[::-1]
    rows[:3, 1] = 0.5  # same_order wants finite entries
    assert list(same_order(rows, eta, tol=tol)) == [same_order(xi, e, tol=tol) for xi, e in zip(rows, eta)]
    stacked = same_order(rows.reshape(2, -1, 4), eta[-1], tol=tol).reshape(-1)
    assert list(stacked) == [same_order(xi, eta[-1], tol=tol) for xi in rows]


def _exact_class_p(xi, tol):
    """Membership from the exact margins, or None when one within its float test's rounding bound of 0 could decide it.

    xi_q >= -tol is exact in floats.  xi_q <= xi_0 + tol rounds the sum, by at
    most 2^-53 |xi_0 + tol|; the bound is twice that.  A product test rounds two
    products and a difference, by at most 2^-52 (M^2 + tol) with M the largest
    of tol and the |xi_i|, and products that fall below the normal range once
    xi is scaled by a power of two near max(xi_0, tol) lose at most
    2^-1069 M^2 more; the bound is 8 times their sum.
    """
    margins = class_p_margins(xi, tol)
    if margins is None:
        return False
    x, t = [Fraction(float(v)) for v in xi], Fraction(tol)
    big = max(t, *map(abs, x)) ** 2
    bounds = [0, abs(x[0] + t) / 2**52] * 3 + [(big + t) / 2**49 + big / 2**1066] * 3
    decided = [m for m, bound in zip(margins, bounds) if bound == 0 or abs(m) > bound]
    if any(m < 0 for m in decided):
        return False
    return True if len(decided) == len(margins) else None


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 0.1])
def test_class_p_mask_agrees_with_the_exact_oracle(tol):
    rng = np.random.default_rng(73)
    rows = np.concatenate([_QUARTER_GRID, _POWER_OF_TWO_GRID, _random_rows(rng, 200)])
    exact = [_exact_class_p(xi, tol) for xi in rows]
    mask = class_p_mask(rows, tol=tol)
    decided = [i for i, e in enumerate(exact) if e is not None]
    assert [bool(mask[i]) for i in decided] == [exact[i] for i in decided]
    assert len(decided) > 0.85 * len(rows)  # the undecided rows are mostly exact ties on the grids
    assert 0 < sum(exact[i] for i in decided) < len(decided)


def _class_p_rows(rng, n):
    """n class-P rows, drawn in blocks of uniform rows whose xi_0 is raised above the other components."""
    xi = np.empty((0, 4))
    while len(xi) < n:
        draws = rng.random((4 * n, 4))
        draws[:, 0] = draws[:, 1:].max(axis=1) + rng.random(4 * n)
        xi = np.concatenate([xi, draws[class_p_mask(draws)]])
    return xi[:n]


def test_class_p_closure_operations():
    rng = np.random.default_rng(67)
    xi = _class_p_rows(rng, 500)
    k = 0.1 + 3.0 * rng.random((500, 1))
    a = 0.1 + 3.0 * rng.random((500, 1))
    images = np.stack([k * xi, xi**a, xi @ lambda_matrix().T])
    assert class_p_mask(images, tol=1e-12).all()
    assert same_order(xi, images).all()


def test_class_p_closure_under_compositions():
    rng = np.random.default_rng(71)
    lam_t = lambda_matrix().T
    n = 300
    xi = _class_p_rows(rng, n)
    image = xi.copy()
    steps = rng.integers(1, 5, n)
    for step in range(4):
        op = np.where(step < steps, rng.integers(3, size=n), -1)
        f = 0.1 + 3.0 * rng.random((n, 1))
        image[op == 0] *= f[op == 0]
        image[op == 1] **= f[op == 1]
        image[op == 2] = image[op == 2] @ lam_t
    # class P and the ordering are scale-free: the tolerances apply to images shrunk to xi_0 <= 1
    shrunk = image / np.maximum(1.0, image[:, :1])
    assert class_p_mask(shrunk, tol=1e-9).all()
    assert same_order(xi, shrunk, tol=1e-12).all()


def test_order_comparison():
    assert same_order([1, 3, 2, 1], [9, 6, 4, 1])
    assert not same_order([1, 3, 2, 1], [9, 4, 6, 1])
    assert same_order([1, 3, 2, 1], [9, 4, 4, 1], tol=0.0)
    # a tie on one side is compatible with either strict order
    assert same_order([1, 2, 2, 1], [9, 6, 4, 1])
    assert same_order([1, 2, 2, 1], [9, 4, 6, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_axes_are_rejected(bad):
    b = [0.5, bad, 0.5]
    with np.errstate(invalid="ignore"), pytest.raises(NotPossibleError):
        g_map(b)
    with np.errstate(invalid="ignore"), pytest.raises(NotPossibleError):
        g_map_many([[0.5, 0.5, 0.5], b])
    with np.errstate(invalid="ignore"), pytest.raises(NotPossibleError):
        beta_from_b([bad] * 3)
    assert not positive_optimal_condition(b)
    assert not positive_optimal_condition([bad] * 3)
    assert not class_p_check([1.0, *b])
    assert not class_p_check([bad] * 4)
    assert not class_p_check([bad, 0.5, 0.5, 0.25])
    pair = classify_pair(b, [0.5, 0.5, 0.5])
    assert not pair.possible and not pair.conjecturally_optimal


def test_nan_axes_are_named_in_the_error():
    with np.errstate(invalid="ignore"), pytest.raises(NotPossibleError, match="NaN component"):
        g_map([np.nan, 0.0, 0.0])


def test_positive_optimal_mask_agrees_with_the_exact_oracle():
    rng = np.random.default_rng(69)
    rows = 1.2 * rng.random((4000, 3)) - 0.1
    rows[:4] = [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [1.0, 1.0, 1.0], [0.9, 0.9, 0.5]]
    for tol in (0.0, 1e-9, 0.05):
        exact = [_exact_class_p([1.0, *b], tol) for b in rows]
        mask = positive_optimal_mask(rows, tol=tol)
        decided = [i for i, e in enumerate(exact) if e is not None]
        assert [bool(mask[i]) for i in decided] == [exact[i] for i in decided]
        assert len(decided) > 0.99 * len(rows)
    assert list(positive_optimal_mask(rows[:4])) == [False, False, True, False]
    assert positive_optimal_mask(rows.reshape(4, -1, 3)).shape == (4, len(rows) // 4)
    with pytest.raises(ValueError):
        positive_optimal_mask(np.zeros((5, 2)))


def _near_tie_rows(rng, n):
    """Rows b with one component within 3 ulps of the product of the other two, a product from normal to below 2^-1074."""
    b = rng.random((n, 3))
    b[:, 1:] = np.ldexp(b[:, 1:], rng.integers(-600, 1, (n, 2)))
    b[:, 0] = b[:, 1] * b[:, 2]
    b[:, 0] += rng.integers(-3, 4, n) * np.spacing(b[:, 0])
    return rng.permuted(b, axis=1)


# 0, subnormals, normals near 1 and 2 and huge values, both signs
_AXIS_GRID = np.array(
    list(
        itertools.product(
            [0.0, 2.0**-1074, 2.0**-1022, 2.0**-537, 0.25, 0.5, 1.0, 1.5, 2.0, 2.0**1023, -0.5, -(2.0**-1074)], repeat=3
        )
    )
)


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 0.1, 1.0, 2.0, 3.0])
def test_positive_optimal_mask_is_the_unscaled_box_and_product_test(tol):
    # a lifted row (1, b) has max(xi_0, tol / 2) in [1, 2) for tol < 4, where class_p_mask scales by 2^0; at
    # tol 2 a scale of 1/2 would round b_3 / 4 of (2, 1, -2^-1074) to -0 and pass the row
    rng = np.random.default_rng(75)
    rows = np.concatenate([_AXIS_GRID, _near_tie_rows(rng, 50_000), 1.2 * rng.random((20_000, 3)) - 0.1])
    rows[:3, 1] = [np.nan, np.inf, -np.inf]
    assert np.array_equal(positive_optimal_mask(rows, tol=tol), unscaled_positive_optimal(rows, tol))


def test_positive_optimal_condition_is_lifted_class_p():
    rng = np.random.default_rng(68)
    decided = 0
    for _ in range(500):
        b = rng.random(3)
        exact = _exact_class_p([1.0, *b], 0.0)
        if exact is not None:
            assert positive_optimal_condition(b) == exact
            decided += 1
    assert decided > 490
    assert not positive_optimal_condition([0.9, 0.9, 0.5])  # 0.5 < 0.81


# ---------------------------------------------------------------------------
# pair classification


def test_classify_golden_pair():
    r = 2.0 / 3.0
    pair = classify_pair([r, r, r], g_map([r, r, r]))
    assert pair.possible and pair.positive and pair.mutual
    assert pair.h_nonnegative and pair.gamma4_nonnegative
    assert pair.conjecturally_optimal
    assert pair.residuals["c_minus_g_b"] < 1e-12
    assert pair.residuals["b_minus_g_c"] < 1e-12
    blob = pair.to_json()
    assert blob["flags"]["conjecturally_optimal"] is True
    assert blob["beta"] == pytest.approx(list(beta_from_b([r, r, r])))


def test_classify_impossible_pair():
    pair = classify_pair([0.9, 0.9, 0.5], [0.1, 0.1, 0.1])
    assert not pair.possible
    assert not pair.conjecturally_optimal
    assert pair.beta is None
    assert "c_minus_g_b" not in pair.residuals


@pytest.mark.parametrize("tol", [0.0, 1e-12, DEFAULT_TOL])
def test_classify_pair_flags_face_points_whose_squares_round_below_zero(tol):
    # the tetrahedron test and beta_from_b read the same rows of Lambda (1, b), so on face points, where
    # a row may round below 0, they agree: a side either rejects is not possible, and nothing raises
    rng = np.random.default_rng(1)
    # b = Lambda beta^2 on a face: a Dirichlet beta^2 with a 0 put in at a random place
    squares = [np.insert(w, at, 0.0) for w, at in zip(rng.dirichlet(np.ones(3), 500), rng.integers(0, 4, 500))]
    for b in [*(np.array(squares) @ lambda_matrix().T)[:, 1:], _ROUNDED_OUT, _ROUNDED_IN]:
        attainable = tetrahedron_check(b, tol=tol)
        try:
            beta_from_b(b, tol=tol)
        except NotPossibleError:
            assert not attainable
        else:
            assert attainable
        as_b, as_c = classify_pair(b, [0.1, 0.1, 0.1], tol=tol), classify_pair([0.1, 0.1, 0.1], b, tol=tol)
        assert as_b.possible == as_c.possible == classify_pair(b, b, tol=tol).possible == attainable
        assert (as_b.beta is not None) == ("b_minus_g_c" in as_c.residuals) == attainable


def test_classify_non_mutual_pair():
    pair = classify_pair([0.9, 0.9, 0.9], [0.9, 0.9, 0.9])
    assert pair.possible and pair.positive
    assert not pair.mutual
    assert not pair.conjecturally_optimal


def test_classify_sign_mixed_pair():
    r = 2.0 / 3.0
    pair = classify_pair([r, -r, -r], [r, -r, -r])
    assert pair.possible
    assert not pair.positive
    assert not pair.conjecturally_optimal


def test_sign_variant_counts():
    r = 2.0 / 3.0
    interior = classify_pair([r, r, r], g_map([r, r, r]))
    assert len(sign_flip_variants(interior)) == 16

    corner = classify_pair([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    assert len(sign_flip_variants(corner)) == 4

    edge = classify_pair([0.4, 0.4, 1.0], g_map([0.4, 0.4, 1.0]))
    assert len(sign_flip_variants(edge)) == 8


def test_sign_variants_stay_attainable():
    r = 2.0 / 3.0
    pair = classify_pair([r, r, r], g_map([r, r, r]))
    for bv, cv in sign_flip_variants(pair):
        assert np.prod(bv) >= 0.0
        assert np.prod(cv) >= 0.0
        assert tetrahedron_check(bv)
        assert tetrahedron_check(cv)


def test_sign_patterns_match_the_two_branch_oracle():
    # byte for byte, so order and the +0.0 kept on zero components count too
    rng = np.random.default_rng(72)
    vectors = list(rng.random((2000, 3)))
    with_zeros = rng.random((2000, 3))
    with_zeros[rng.random((2000, 3)) < 0.5] = 0.0
    vectors += list(with_zeros) + [np.zeros(3), np.ones(3), np.array([0.0, 1.0, 0.0])]
    for v in vectors:
        got, want = _sign_patterns(v), sign_patterns(v)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_sign_variants_need_a_positive_optimal_pair():
    with pytest.raises(NotPositiveOptimalError):
        sign_flip_variants(classify_pair([0.9, 0.9, 0.9], [0.9, 0.9, 0.9]))


# ---------------------------------------------------------------------------
# Jacobians


def test_isotropic_jacobian_closed_form():
    beta = beta_from_b(np.full(3, 2.0 / 3.0))
    pair = jacobians(beta)
    assert pair.beta4 == pytest.approx(1.0 / 48.0)
    assert pair.gamma4 == pytest.approx(1.0 / 48.0)
    expected = np.full((3, 3), -2.0 / 9.0)
    np.fill_diagonal(expected, 1.0 / 9.0)
    assert pair.j == pytest.approx(expected)
    assert pair.k == pytest.approx(expected)
    assert pair.invertible


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(69)
    step = 1e-6
    checked = 0
    while checked < 50:
        b = _random_tetra(rng)
        beta = beta_from_b(b)
        if np.prod(beta) < 0.01:
            continue
        checked += 1
        pair = jacobians(beta)
        forward = pair.j / (16.0 * pair.beta4)
        fd = np.empty((3, 3))
        for col in range(3):
            db = np.zeros(3)
            db[col] = step
            fd[:, col] = (g_map(b + db) - g_map(b - db)) / (2.0 * step)
        assert np.max(np.abs(fd - forward)) < 1e-4 * max(1.0, np.max(np.abs(forward)))


def test_jacobian_factors_are_mutual_inverses():
    rng = np.random.default_rng(70)
    checked = 0
    while checked < 100:
        beta = np.sqrt(rng.dirichlet(np.ones(4)))
        pair = jacobians(beta)
        if abs(pair.beta4) < 1e-3 or abs(pair.gamma4) < 1e-3:
            continue
        checked += 1
        forward = pair.j / (16.0 * pair.beta4)
        backward = pair.k / (16.0 * pair.gamma4)
        assert forward @ backward == pytest.approx(np.eye(3), abs=1e-8)


def test_degenerate_jacobian_is_flagged():
    pair = jacobians(beta_from_b([1.0, 1.0, 1.0]))
    assert pair.beta4 == 0.0
    assert not pair.invertible
