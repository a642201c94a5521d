"""Optimal two-copy qubit copying: geometry, circuits, qualities, trade-offs."""

from .channel import (
    AffineBlochMap,
    ConstraintReport,
    DiagonalForm,
    E_HAT,
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
from .circuit import (
    CIRCUIT_A,
    CIRCUIT_B,
    beta_from_error_rates,
    channel_tomography,
    circuit_a,
    circuit_b,
    circuit_unitary,
    prepare_ancilla,
)
from .errors import (
    NotHermitianError,
    NotIsometricError,
    NotNormalizedError,
    NotPhysicalError,
    NotPossibleError,
    NotPositiveOptimalError,
)
from .optimizer import (
    JacobianPair,
    OptimalPair,
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
from .pauli import SIGMA, l_table, lambda_matrix
from .quality import (
    distinguishability,
    min_error_rate,
    omega_e,
    quality_bloch,
    quality_c_from_circuit,
    quality_e,
    quality_e_diagonal,
    trace_norm,
)
from .validation import (
    ScanConfig,
    ScanReport,
    concavity_check,
    mixed_isometry,
    monotonicity_scan,
    random_physical_gram,
    symmetry_check,
    time_reversed_gram,
)

__version__ = "0.1.0"
