"""Input checking shared by the public functions: shapes, finiteness, unit norms."""

import numpy as np
import pytest

from blochcopy.channel import (
    AffineBlochMap,
    b_from_e,
    bloch_vector,
    check_physical,
    density_from_bloch,
    extract_e_vectors,
    gram_from_transfer,
    gram_matrix,
    isometry_from_beta,
    isometry_from_e_vectors,
    isometry_residuals,
    map_bloch,
    output_map,
    realize_e_vectors,
    tetrahedron_mask,
    transfer_from_gram,
)
from blochcopy.circuit import beta_from_error_rates, channel_tomography, circuit_a, circuit_b, prepare_ancilla
from blochcopy.optimizer import (
    b_from_beta,
    gamma_from_beta,
    h_vector,
    isotropic_tradeoff,
    jacobians,
    same_order,
)
from blochcopy.quality import (
    distinguishability,
    min_error_rate,
    omega_e,
    quality_bloch,
    quality_e,
    quality_e_diagonal,
    trace_norm,
)
from blochcopy.validation import ScanConfig, mixed_isometry, monotonicity_scan, symmetry_check, time_reversed_gram

_BETA = np.array([0.8, 0.1, 0.1, 0.5830951894845301])
_GRAM = np.diag(_BETA**2).astype(complex)
_V = isometry_from_beta(_BETA)
_Z = np.array([0.0, 0.0, 1.0])


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
    "quality_bloch": lambda bad: quality_bloch(AffineBlochMap.identity(), _spoil(_Z, bad)),
    "circuit_a": lambda bad: circuit_a(_spoil([1.0, 0.0], bad), _BETA),
    "circuit_b": lambda bad: circuit_b([1.0, 0.0], _spoil(_BETA, bad)),
    "check_physical": lambda bad: check_physical(_spoil(_GRAM, bad)),
    "bloch_vector": lambda bad: bloch_vector(_spoil(np.eye(2) / 2, bad)),
    "affine_map": lambda bad: AffineBlochMap(_spoil(np.zeros(3), bad), np.eye(3)),
    "map_bloch": lambda bad: map_bloch(AffineBlochMap.identity(), _spoil(_Z, bad)),
    "transfer_from_gram": lambda bad: transfer_from_gram(_spoil(_GRAM, bad)),
    "b_from_e": lambda bad: b_from_e(_spoil(_GRAM, bad), check=False),
    "isometry_residuals": lambda bad: isometry_residuals(_spoil(_GRAM, bad)),
    "gram_from_transfer": lambda bad: gram_from_transfer(_spoil(np.eye(4), bad)),
    "isometry_from_beta": lambda bad: isometry_from_beta(_spoil(_BETA, bad)),
    "isometry_from_e_vectors": lambda bad: isometry_from_e_vectors(_spoil(np.eye(4), bad)),
    "extract_e_vectors": lambda bad: extract_e_vectors(_spoil(_V, bad)),
    "gram_matrix": lambda bad: gram_matrix(_spoil(np.eye(4), bad)),
    "omega_e": lambda bad: omega_e(_spoil(np.eye(4), bad), _Z),
    "quality_e": lambda bad: quality_e(_spoil(_GRAM, bad), _Z),
    "quality_e_mode": lambda bad: quality_e(_GRAM, _spoil(_Z, bad)),
    "quality_e_diagonal": lambda bad: quality_e_diagonal(_spoil(_BETA, bad), _Z),
    "distinguishability": lambda bad: distinguishability(AffineBlochMap.identity(), _spoil(_Z, bad), -_Z),
    "prepare_ancilla": lambda bad: prepare_ancilla(_spoil(_BETA, bad)),
    "time_reversed_gram": lambda bad: time_reversed_gram(_spoil(_GRAM, bad)),
    "symmetry_check": lambda bad: symmetry_check(_spoil(_GRAM, bad), _Z),
    "mixed_isometry": lambda bad: mixed_isometry(_V, _spoil(_V, bad), 0.5),
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
    ],
    ids=["isometry", "square", "rows", "gram", "residuals", "second-machine", "beta"],
)
def test_wrong_shapes_name_the_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: channel_tomography(_BETA, 3), "output qubit must be 'B', 'C' or 'D'"),
        (lambda: output_map(_V, 3), "output qubit must be 'B', 'C' or 'D'"),
        (lambda: distinguishability(AffineBlochMap.identity(), _Z, -_Z, channel=3), "channel must be 'B', 'C' or 'E'"),
    ],
    ids=["channel_tomography", "output_map", "distinguishability"],
)
def test_non_string_channel_names_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_inner", 2.5, "n_inner must be an integer, got 2.5"),
        ("max_keep", 1.5, "max_keep must be an integer, got 1.5"),
        ("n_outer", "3", "n_outer must be an integer, got '3'"),
        ("seed", -1, "seed must be at least 0, got -1"),
        ("n_outer", 0, "n_outer must be at least 1, got 0"),
        ("max_keep", -2, "max_keep must be at least 0, got -2"),
    ],
    ids=["n_inner-float", "max_keep-float", "n_outer-str", "seed-negative", "n_outer-zero", "max_keep-negative"],
)
def test_scan_config_names_its_bad_field(field, value, message):
    with pytest.raises(ValueError) as err:
        ScanConfig(**{field: value})
    assert str(err.value) == message


def test_scan_config_takes_numpy_integers_as_ints():
    config = ScanConfig(n_outer=np.int64(2), n_inner=np.uint8(30), seed=np.int32(4), max_keep=np.int16(1))
    assert [type(getattr(config, f)) for f in ("n_outer", "n_inner", "seed", "max_keep")] == [int] * 4
    assert monotonicity_scan(config).to_json() == monotonicity_scan(ScanConfig(2, 30, 4, max_keep=1)).to_json()
