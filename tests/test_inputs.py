"""Input checking shared by the public functions: shapes, finiteness, unit norms."""

import itertools

import numpy as np
import pytest

from blochcopy.channel import (
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
    isometry_residuals,
    map_bloch,
    output_map,
    realize_e_vectors,
    tetrahedron_check,
    tetrahedron_mask,
    tetrahedron_violations,
    transfer_from_gram,
)
from blochcopy.circuit import beta_from_error_rates, channel_tomography, circuit_a, circuit_b, prepare_ancilla
from blochcopy.errors import NotPossibleError
from blochcopy.optimizer import (
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
)
from blochcopy.quality import (
    distinguishability,
    min_error_rate,
    omega_e,
    quality_bloch,
    quality_c_from_circuit,
    quality_e,
    quality_e_diagonal,
    trace_norm,
)
from blochcopy.validation import (
    ScanConfig,
    concavity_check,
    mixed_isometry,
    monotonicity_scan,
    symmetry_check,
    time_reversed_gram,
)

_BETA = np.array([0.8, 0.1, 0.1, 0.5830951894845301])
_GRAM = np.diag(_BETA**2).astype(complex)
_V = isometry_from_beta(_BETA)
_Z = np.array([0.0, 0.0, 1.0])
_IDENTITY = AffineBlochMap.diagonal(np.ones(3))


def _spoil(x, bad):
    """Copy of x as an array with its first entry replaced by bad."""
    x = np.array(x, dtype=complex if np.iscomplexobj(x) else float)
    x.flat[0] = bad
    return x


# each case calls one public function with one entry of one argument set to `bad`
_CASES = {
    "trace_norm": lambda bad: trace_norm(_spoil(np.eye(2), bad)),
    "min_error_rate": lambda bad: min_error_rate(_spoil(np.eye(2) / 2, bad), np.eye(2) / 2),
    "realize_e_vectors": lambda bad: realize_e_vectors(_spoil(_GRAM, bad)),
    "same_order": lambda bad: same_order(_spoil([1.0, 3.0, 2.0, 1.0], bad), [9.0, 6.0, 4.0, 1.0]),
    "b_from_beta": lambda bad: b_from_beta(_spoil(_BETA, bad)),
    "gamma_from_beta": lambda bad: gamma_from_beta(_spoil(_BETA, bad)),
    "h_vector": lambda bad: h_vector(_spoil(_BETA, bad)),
    "jacobians": lambda bad: jacobians(_spoil(_BETA, bad)),
    "density_from_bloch": lambda bad: density_from_bloch(_spoil(_Z, bad)),
    "output_map": lambda bad: output_map(_spoil(_V, bad), "C"),
    "quality_bloch": lambda bad: quality_bloch(_IDENTITY, _spoil(_Z, bad)),
    "circuit_a": lambda bad: circuit_a(_spoil([1.0, 0.0], bad), _BETA),
    "circuit_b": lambda bad: circuit_b([1.0, 0.0], _spoil(_BETA, bad)),
    "check_physical": lambda bad: check_physical(_spoil(_GRAM, bad)),
    "bloch_vector": lambda bad: bloch_vector(_spoil(np.eye(2) / 2, bad)),
    "affine_map": lambda bad: AffineBlochMap(_spoil(np.zeros(3), bad), np.eye(3)),
    "map_bloch": lambda bad: map_bloch(_IDENTITY, _spoil(_Z, bad)),
    "transfer_from_gram": lambda bad: transfer_from_gram(_spoil(_GRAM, bad)),
    "b_from_e": lambda bad: b_from_e(_spoil(_GRAM, bad), check=False),
    "complex_matrix_to_json": lambda bad: complex_matrix_to_json(_spoil(_GRAM, bad)),
    "complex_matrix_from_json": lambda bad: complex_matrix_from_json(_spoil(np.zeros((4, 4, 2)), bad).tolist()),
    "isometry_residuals": lambda bad: isometry_residuals(_spoil(_GRAM, bad)),
    "isometry_from_beta": lambda bad: isometry_from_beta(_spoil(_BETA, bad)),
    "isometry_from_e_vectors": lambda bad: isometry_from_e_vectors(_spoil(np.eye(4), bad)),
    "extract_e_vectors": lambda bad: extract_e_vectors(_spoil(_V, bad)),
    "gram_matrix": lambda bad: gram_matrix(_spoil(np.eye(4), bad)),
    "omega_e": lambda bad: omega_e(_spoil(np.eye(4), bad), _Z),
    "quality_e": lambda bad: quality_e(_spoil(_GRAM, bad), _Z),
    "quality_e_mode": lambda bad: quality_e(_GRAM, _spoil(_Z, bad)),
    "quality_e_diagonal": lambda bad: quality_e_diagonal(_spoil(_BETA, bad), _Z),
    "distinguishability": lambda bad: distinguishability(_IDENTITY, _spoil(_Z, bad), -_Z),
    "prepare_ancilla": lambda bad: prepare_ancilla(_spoil(_BETA, bad)),
    "time_reversed_gram": lambda bad: time_reversed_gram(_spoil(_GRAM, bad)),
    "symmetry_check": lambda bad: symmetry_check(_spoil(_GRAM, bad), _Z),
    "symmetry_check_mode": lambda bad: symmetry_check(_GRAM, _spoil(_Z, bad)),
    "mixed_isometry": lambda bad: mixed_isometry(_V, _spoil(_V, bad), 0.5),
    "concavity_check": lambda bad: concavity_check(_V, _spoil(_V, bad), 0.5, _Z),
    "concavity_check_mode": lambda bad: concavity_check(_V, _V, 0.5, _spoil(_Z, bad)),
    "quality_c_from_circuit": lambda bad: quality_c_from_circuit(_spoil(_BETA, bad), _Z),
    "quality_c_from_circuit_mode": lambda bad: quality_c_from_circuit(_BETA, _spoil(_Z, bad)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", list(_CASES.values()), ids=list(_CASES))
def test_non_finite_entries_raise_value_error(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: output_map(np.zeros((7, 2))), r"v must have shape \(2d, 2\), got \(7, 2\)"),
        (lambda: trace_norm(np.zeros((2, 3))), r"h must have shape \(\.\.\., n, n\)"),
        (lambda: tetrahedron_mask(np.zeros((5, 4))), r"b_rows must have shape \(\.\.\., 3\)"),
        (lambda: quality_e(np.eye(3), _Z), r"e_gram must have shape \(\.\.\., 4, 4\)"),
        (lambda: isometry_residuals(np.eye(3)), r"e_gram must have shape \(\.\.\., 4, 4\)"),
        (lambda: mixed_isometry(_V, np.zeros((4, 3)), 0.5), r"v2 must have shape \(\.\.\., 2d, 2\)"),
        (lambda: b_from_beta([1.0, 0.0, 0.0]), r"beta must have shape \(4,\), got \(3,\)"),
        (lambda: complex_matrix_to_json(np.zeros(3)), r"m must have shape \(r, c\), got \(3,\)"),
        (lambda: complex_matrix_from_json([[1, 2]]), r"obj must be a list of rows of \[re, im\] number pairs"),
        (lambda: AffineBlochMap.diagonal([1, 2]), r"axes must have shape \(3,\), got \(2,\)"),
    ],
    ids=["isometry", "square", "rows", "gram", "residuals", "second-machine", "beta", "json-matrix", "json-pairs",
         "diagonal-axes"],
)
def test_wrong_shapes_name_the_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: quality_bloch(np.eye(4), _Z), "bmap"),
        (lambda: map_bloch(np.eye(3), _Z), "bmap"),
        (lambda: diagonalize(np.eye(3)), "bmap"),
        (lambda: distinguishability(_GRAM, _Z, -_Z, "B"), "rep"),
        (lambda: distinguishability(_GRAM, _Z, -_Z, "C"), "rep"),
    ],
    ids=["quality_bloch", "map_bloch", "diagonalize", "distinguishability-B", "distinguishability-C"],
)
def test_arrays_for_an_affine_map_raise_type_error_naming_it(call, name):
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == f"{name} must be an AffineBlochMap, got ndarray"


@pytest.mark.parametrize(
    "call",
    [
        lambda: output_map(1e200 * np.ones((4, 2))),
        lambda: output_map(1e200 * np.ones((8, 2)), "C"),
        lambda: b_from_e(np.full((4, 4), 1e308, dtype=complex), check=False),
    ],
    ids=["output_map", "output_map-C", "b_from_e"],
)
def test_maps_that_overflow_raise_value_error(call):
    with pytest.raises(ValueError, match="must have finite entries"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: channel_tomography(_BETA, 3), "output qubit must be 'B', 'C' or 'D'"),
        (lambda: output_map(_V, 3), "output qubit must be 'B', 'C' or 'D'"),
        (lambda: distinguishability(_IDENTITY, _Z, -_Z, channel=3), "channel must be 'B', 'C' or 'E'"),
    ],
    ids=["channel_tomography", "output_map", "distinguishability"],
)
def test_non_string_channel_names_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# each case calls one public function of semi-axes b; the sums and products of
# these axes overflow, which the suite's warning filter turns into an error
_HUGE_AXES = [list(b) for b in itertools.product([1e308, -1e308, 1e200, -1e200, 0.5], repeat=3)]
_OVERFLOW_CASES = {
    "tetrahedron_violations": tetrahedron_violations,
    "tetrahedron_check": tetrahedron_check,
    "positive_optimal_condition": positive_optimal_condition,
    "class_p_check": lambda b: class_p_check([b[0], *b]),
    "beta_from_b": beta_from_b,
    "g_map": g_map,
    "g_map_many": lambda b: g_map_many([[0.5, 0.5, 0.5], b]),
    "classify_pair": lambda b: classify_pair(b, b),
}


@pytest.mark.parametrize("call", list(_OVERFLOW_CASES.values()), ids=list(_OVERFLOW_CASES))
def test_huge_finite_axes_answer_or_raise_their_named_error(call):
    for b in _HUGE_AXES:
        try:
            call(b)
        except NotPossibleError as err:
            assert str(err).startswith("tetrahedron violated: b")


def test_huge_finite_axes_get_their_answers():
    huge = [1e308, 1e308, 1e308]
    assert tetrahedron_violations(huge) == ["b1+b2 > 1+b3", "b2+b3 > 1+b1", "b3+b1 > 1+b2"]
    assert not tetrahedron_check(huge) and not positive_optimal_condition(huge)
    assert class_p_check([1e308, *huge]) and not class_p_check([1.0, *huge])
    pair = classify_pair(huge, [0.5, 0.5, 0.5])
    assert not pair.possible and pair.residuals == {"b_minus_g_c": 1e308}


# each case calls one public function with one argument in [0, 1] set to `bad`
_UNIT_INTERVAL_CASES = {
    "r": lambda bad: isotropic_tradeoff(bad),
    "p1": lambda bad: mixed_isometry(_V, _V, bad),
    "d_xy": lambda bad: beta_from_error_rates(bad, 0.5),
    "d_uv": lambda bad: beta_from_error_rates(0.5, bad),
}


@pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan, np.inf], ids=["below", "above", "nan", "inf"])
@pytest.mark.parametrize("name", list(_UNIT_INTERVAL_CASES))
def test_values_outside_the_unit_interval_are_named(name, bad):
    with pytest.raises(ValueError) as err:
        _UNIT_INTERVAL_CASES[name](bad)
    assert str(err.value) == f"{name} must lie in [0, 1], got {bad}"


# each case calls one public function that takes a tolerance with tol set to `bad`
_TOL_CASES = {
    "tetrahedron_violations": lambda bad: tetrahedron_violations([0.5] * 3, tol=bad),
    "tetrahedron_mask": lambda bad: tetrahedron_mask([[0.5] * 3], tol=bad),
    "tetrahedron_check": lambda bad: tetrahedron_check([0.5] * 3, tol=bad),
    "positive_optimal_mask": lambda bad: positive_optimal_mask([[0.5] * 3], tol=bad),
    "positive_optimal_condition": lambda bad: positive_optimal_condition([0.5] * 3, tol=bad),
    "class_p_mask": lambda bad: class_p_mask([[1.0, 0.5, 0.5, 0.25]], tol=bad),
    "class_p_check": lambda bad: class_p_check([1.0, 0.5, 0.5, 0.25], tol=bad),
    "same_order": lambda bad: same_order([1.0, 3.0, 2.0, 1.0], [9.0, 4.0, 6.0, 1.0], tol=bad),
    "beta_from_b": lambda bad: beta_from_b([0.5] * 3, tol=bad),
    "g_map": lambda bad: g_map([0.5] * 3, tol=bad),
    "classify_pair": lambda bad: classify_pair([0.5] * 3, [0.5] * 3, tol=bad),
    "check_physical": lambda bad: check_physical(_GRAM, tol=bad),
}


@pytest.mark.parametrize("bad", [-1e-9, np.nan, np.inf, -np.inf], ids=["negative", "nan", "inf", "-inf"])
@pytest.mark.parametrize("call", list(_TOL_CASES.values()), ids=list(_TOL_CASES))
def test_bad_tolerances_are_named(call, bad):
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value) == f"tol must be a nonnegative finite number, got {bad}"


_MIXED = np.eye(2) / 2


@pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan, np.inf], ids=["below", "above", "nan", "inf"])
@pytest.mark.parametrize("name", ["p1", "p2"])
def test_min_error_rate_names_its_bad_prior(name, bad):
    priors = {"p1": 0.5, "p2": 0.5, name: bad}
    with pytest.raises(ValueError) as err:
        min_error_rate(_MIXED, _MIXED, **priors)
    assert str(err.value) == f"{name} must lie in [0, 1], got {bad}"


def test_min_error_rate_priors_must_sum_to_one():
    with pytest.raises(ValueError) as err:
        min_error_rate(_MIXED, _MIXED, 0.3, 0.3)
    assert str(err.value) == "priors p1 and p2 must sum to 1, got 0.3 and 0.3"


@pytest.mark.parametrize("name", ["x1", "x2"])
def test_distinguishability_names_the_vector_outside_the_unit_ball(name):
    vectors = {"x1": _Z, "x2": -_Z, name: 2.0 * _Z}
    with pytest.raises(ValueError) as err:
        distinguishability(_IDENTITY, **vectors)
    assert str(err.value) == f"{name} must lie inside the unit ball, got squared norm 4.0"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_inner", 2.5, "n_inner must be an integer, got 2.5"),
        ("max_keep", 1.5, "max_keep must be an integer, got 1.5"),
        ("n_outer", "3", "n_outer must be an integer, got '3'"),
        ("seed", -1, "seed must be at least 0, got -1"),
        ("n_outer", 0, "n_outer must be at least 1, got 0"),
        # spawn keys from 2**32 on take two words, which the scan's seeding does not port
        ("n_outer", 2**32 + 1, "n_outer must be at most 4294967296, got 4294967297"),
        ("max_keep", -2, "max_keep must be at least 0, got -2"),
    ],
    ids=["n_inner-float", "max_keep-float", "n_outer-str", "seed-negative", "n_outer-zero", "n_outer-above-2**32",
         "max_keep-negative"],
)
def test_scan_config_names_its_bad_field(field, value, message):
    with pytest.raises(ValueError) as err:
        ScanConfig(**{field: value})
    assert str(err.value) == message


def test_scan_config_takes_n_outer_up_to_two_to_the_32():
    assert ScanConfig(n_outer=2**32).n_outer == 2**32


def test_scan_config_takes_numpy_integers_as_ints():
    config = ScanConfig(n_outer=np.int64(2), n_inner=np.uint8(30), seed=np.int32(4), max_keep=np.int16(1))
    assert [type(getattr(config, f)) for f in ("n_outer", "n_inner", "seed", "max_keep")] == [int] * 4
    assert monotonicity_scan(config).to_json() == monotonicity_scan(ScanConfig(2, 30, 4, max_keep=1)).to_json()
