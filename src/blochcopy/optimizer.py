"""Optimal trade-off between the two copies of a centered machine.

A centered machine shrinks the Bloch sphere along the principal axes by
b (first copy) and c (second copy).  The two sets of semi-axes are linked
through the machine coefficients by the chain

    b  <->  beta^2  <-  beta  <->  gamma  ->  gamma^2  <->  c

where the squared vectors convert to axes through the sign matrix Lambda
and beta is always taken as the componentwise positive square root.
Composing the chain left to right gives the map g: for fixed b, g(b) is the
componentwise largest c any machine can reach.  A pair (b, c) with
nonnegative entries is (conjecturally) optimal exactly when c = g(b) and
b satisfies b_q >= b_q' b_q'' with 0 <= b_q <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channel import tetrahedron_check, tetrahedron_violations
from .errors import NotPossibleError, NotPositiveOptimalError
from .linalg import DEFAULT_TOL, _checked
from .pauli import CYCLIC, CYCLIC_AXES, lambda_matrix

__all__ = [
    "beta_from_b",
    "b_from_beta",
    "gamma_from_beta",
    "g_map",
    "g_map_many",
    "isotropic_tradeoff",
    "h_vector",
    "positive_optimal_condition",
    "positive_optimal_mask",
    "class_p_check",
    "same_order",
    "OptimalPair",
    "classify_pair",
    "sign_flip_variants",
    "JacobianPair",
    "jacobians",
]


def beta_from_b(b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Positive machine coefficients realizing centered semi-axes b.

    beta^2 = (1/4) Lambda (1, b); squared components in [-tol, 0) are
    clamped to zero, anything lower means b is unattainable.
    """
    b = _checked(b, "b", (3,), finite=False)
    beta_sq = 0.25 * (lambda_matrix() @ np.concatenate(([1.0], b)))
    if not np.all(beta_sq >= -tol):  # NaN and inf fail too
        names = tetrahedron_violations(b, tol=4.0 * tol)
        detail = "; ".join(names) if names else "axes outside the attainable tetrahedron"
        raise NotPossibleError(f"tetrahedron violated: {detail}")
    return np.sqrt(np.maximum(beta_sq, 0.0))


def b_from_beta(beta) -> np.ndarray:
    """Semi-axes of the first copy, b = (Lambda beta^2) without the leading 1."""
    beta = _checked(beta, "beta", (4,))
    return (lambda_matrix() @ (beta**2))[1:]


def gamma_from_beta(beta) -> np.ndarray:
    """Partner coefficients gamma = (1/2) Lambda beta; involutive."""
    return 0.5 * (lambda_matrix() @ _checked(beta, "beta", (4,)))


def g_map(b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Best semi-axes of the second copy given semi-axes b of the first.

    Runs the coefficient chain with the positive square root, so the result
    is always componentwise nonnegative.
    """
    beta = beta_from_b(b, tol=tol)
    gamma = 0.5 * (lambda_matrix() @ beta)  # gamma_from_beta, without checking beta again
    return (lambda_matrix() @ (gamma**2))[1:]


def _lambda_rows(terms, out, first: int = 0) -> None:
    """out[j - first] = sum_k Lambda[k, j] terms[k] for j = first..3.

    Lambda's entries are +-1 and its row 0 is all ones, so each sum is three
    adds or subtracts in the order k = 0..3: the only rounding, as in a BLAS
    product with the same operands.
    """
    lam = lambda_matrix()
    for row, j in zip(out, range(first, 4)):
        ops = [np.add if lam[k, j] > 0 else np.subtract for k in (1, 2, 3)]
        ops[0](terms[0], terms[1], out=row)
        ops[1](row, terms[2], out=row)
        ops[2](row, terms[3], out=row)


def _g_columns(cols: np.ndarray, tol: float = DEFAULT_TOL, work: np.ndarray | None = None) -> np.ndarray:
    """g over the columns of a (3, n) array of semi-axes, as a (3, n) view into work.

    work is a (2, 4, m) float buffer with m >= n (allocated when None) that
    holds beta and then gamma; the result is valid until work is reused.
    Each step scales, sums and rounds exactly as the matmul chain
    beta^2 = (1/4 (1, b)) Lambda, gamma = (1/2 beta) Lambda, c = gamma^2 Lambda
    does, so the bits equal those of that chain.
    """
    n = cols.shape[1]
    if work is None:
        work = np.empty((2, 4, n))
    beta, gamma = work[0, :, :n], work[1, :, :n]
    quarter_b = np.multiply(cols, 0.25, out=gamma[1:])
    _lambda_rows((0.25, *quarter_b), beta)
    if n and not beta.min() >= -tol:  # NaN fails too
        raise NotPossibleError("some rows lie outside the attainable tetrahedron")
    np.maximum(beta, 0.0, out=beta)
    np.sqrt(beta, out=beta)
    beta *= 0.5
    _lambda_rows(beta, gamma)
    np.square(gamma, out=gamma)
    _lambda_rows(gamma, beta[1:], first=1)
    return beta[1:]


def g_map_many(b_rows: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Vectorized g_map over the rows of an (n, 3) array."""
    b_rows = _checked(b_rows, "b_rows", (..., 3), finite=False).reshape(-1, 3)
    return _g_columns(b_rows.T, tol=tol).T


def isotropic_tradeoff(r: float) -> float:
    """Largest uniform shrink s of one copy when the other shrinks by r.

    s(r) = (1/2) (1 - r + sqrt((1 - r)(1 + 3 r))); the curve is its own
    inverse and crosses the diagonal at 2/3.
    """
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"shrink factor must lie in [0, 1], got {r}")
    return float(0.5 * (1.0 - r + np.sqrt((1.0 - r) * (1.0 + 3.0 * r))))


def h_vector(beta) -> np.ndarray:
    """Difference weights h_q = 2 (beta_0 beta_q - beta_q' beta_q'').

    The same expression evaluated on the partner gamma gives the same vector.
    """
    beta = _checked(beta, "beta", (4,))
    return 2.0 * np.array([beta[0] * beta[q] - beta[qp] * beta[qpp] for q, qp, qpp in CYCLIC])


def class_p_check(xi, tol: float = 0.0) -> bool:
    """Membership test for class P four-vectors.

    Requires 0 <= xi_q <= xi_0 and xi_0 xi_q >= xi_q' xi_q'' for each q.
    The class is closed under positive scaling, componentwise powers and
    the Lambda sign matrix.
    """
    xi = _checked(xi, "xi", (4,), finite=False)
    # every test is written so that a NaN component fails it; a finite xi_0
    # bounds the other components, so one comparison rules out infinities
    if not (xi[0] < np.inf and np.all(xi[1:] >= -tol) and np.all(xi[1:] <= xi[0] + tol)):
        return False
    for q, qp, qpp in CYCLIC:
        if not xi[0] * xi[q] >= xi[qp] * xi[qpp] - tol:
            return False
    return True


def positive_optimal_mask(b_rows, tol: float = 0.0) -> np.ndarray:
    """Row-wise positive_optimal_condition over an (..., 3) array of semi-axes.

    Rows with a NaN or infinite component fail.
    """
    b = _checked(b_rows, "b_rows", (..., 3), finite=False)
    # column by column: reductions over a length-3 axis are slow in numpy
    inside = (b >= -tol) & (b <= 1.0 + tol)
    ok = inside[..., 0] & inside[..., 1] & inside[..., 2]
    for q, qp, qpp in CYCLIC_AXES:
        ok &= b[..., q] >= b[..., qp] * b[..., qpp] - tol
    return ok


def positive_optimal_condition(b, tol: float = 0.0) -> bool:
    """True when b can be the nonnegative member of an optimal pair.

    The condition is 0 <= b_q <= 1 together with b_q >= b_q' b_q'', which
    is class membership of the lifted vector (1, b).
    """
    return bool(positive_optimal_mask(_checked(b, "b", (3,), finite=False), tol=tol))


def same_order(xi, eta, tol: float = 1e-12) -> bool:
    """True when components 1..3 of two four-vectors share their ordering.

    The orderings clash only when some pair p, q is strictly ordered one way
    in xi and strictly the other way in eta, each by more than tol.  A
    difference within tol is a tie, and a tie on one side agrees with any
    order on the other: ties need not match ties.
    """
    xi = _checked(xi, "xi", (4,))
    eta = _checked(eta, "eta", (4,))
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            dx = xi[p] - xi[q]
            de = eta[p] - eta[q]
            if dx > tol and de < -tol:
                return False
            if dx < -tol and de > tol:
                return False
    return True


@dataclass(frozen=True, eq=False)
class OptimalPair:
    """Classification record for a candidate pair of copy semi-axes."""

    b: np.ndarray
    c: np.ndarray
    beta: np.ndarray | None
    gamma: np.ndarray | None
    h: np.ndarray | None
    possible: bool
    positive: bool
    mutual: bool
    h_nonnegative: bool
    gamma4_nonnegative: bool
    conjecturally_optimal: bool
    residuals: dict

    def to_json(self) -> dict:
        def _vec(v):
            return None if v is None else [float(x) for x in v]

        return {
            "b": _vec(self.b),
            "c": _vec(self.c),
            "beta": _vec(self.beta),
            "gamma": _vec(self.gamma),
            "h": _vec(self.h),
            "flags": {
                "possible": self.possible,
                "positive": self.positive,
                "mutual": self.mutual,
                "h_nonnegative": self.h_nonnegative,
                "gamma4_nonnegative": self.gamma4_nonnegative,
                "conjecturally_optimal": self.conjecturally_optimal,
            },
            "residuals": {k: float(v) for k, v in self.residuals.items()},
        }


def classify_pair(b, c, tol: float = DEFAULT_TOL) -> OptimalPair:
    """Classify a candidate pair (b, c) of copy semi-axes.

    Never raises: impossible or sign-mixed pairs simply come back with the
    corresponding flags unset.  The optimality flag is conjectural in the
    same sense as the mutuality criterion it implements.
    """
    b = _checked(b, "b", (3,), finite=False)
    c = _checked(c, "c", (3,), finite=False)

    possible_b = tetrahedron_check(b, tol=tol)
    possible_c = tetrahedron_check(c, tol=tol)
    possible = possible_b and possible_c
    positive = bool(np.all(b >= -tol) and np.all(c >= -tol))

    beta = gamma = h = None
    h_nonneg = gamma4_nonneg = False
    mutual = False
    residuals: dict[str, float] = {}
    if possible_b:
        beta = beta_from_b(b, tol=tol)
        gamma = gamma_from_beta(beta)
        h = h_vector(beta)
        h_nonneg = bool(np.all(h >= -tol))
        gamma4 = float(np.prod(gamma))
        gamma4_nonneg = gamma4 >= -tol
        residuals["gamma4"] = gamma4
        residuals["c_minus_g_b"] = float(np.max(np.abs(g_map(b, tol=tol) - c)))
    if possible_c:
        residuals["b_minus_g_c"] = float(np.max(np.abs(g_map(c, tol=tol) - b)))
    if possible:
        mutual = residuals["c_minus_g_b"] <= tol and residuals["b_minus_g_c"] <= tol

    optimal = positive and mutual and positive_optimal_condition(b, tol=tol)
    return OptimalPair(
        b=b,
        c=c,
        beta=beta,
        gamma=gamma,
        h=h,
        possible=possible,
        positive=positive,
        mutual=mutual,
        h_nonnegative=h_nonneg,
        gamma4_nonnegative=gamma4_nonneg,
        conjecturally_optimal=optimal,
        residuals=residuals,
    )


def _sign_patterns(v: np.ndarray) -> list[np.ndarray]:
    """Distinct sign variants of one side of a positive optimal pair.

    With all components nonzero only an even number of flips is allowed;
    a zero component absorbs one flip, so any pattern on the nonzero
    components becomes reachable.
    """
    nonzero = [i for i in range(3) if v[i] != 0.0]
    if len(nonzero) == 3:
        sign_sets = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    else:
        sign_sets = []
        for signs in product((1, -1), repeat=len(nonzero)):
            full = [1, 1, 1]
            for i, s in zip(nonzero, signs):
                full[i] = s
            sign_sets.append(tuple(full))
    seen = set()
    out = []
    for signs in sign_sets:
        variant = v * np.asarray(signs, dtype=float)
        key = tuple(variant)
        if key not in seen:
            seen.add(key)
            out.append(variant)
    return out


def sign_flip_variants(pair: OptimalPair) -> list[tuple[np.ndarray, np.ndarray]]:
    """All distinct sign-flipped versions of a positive optimal pair.

    Every emitted side has a nonnegative component product, so each variant
    is again realizable by a machine.
    """
    if not (pair.positive and pair.conjecturally_optimal):
        raise NotPositiveOptimalError("sign variants require a positive optimal pair")
    return [
        (bv, cv)
        for bv in _sign_patterns(pair.b)
        for cv in _sign_patterns(pair.c)
    ]


@dataclass(frozen=True, eq=False)
class JacobianPair:
    """Jacobian data of the trade-off map at one machine.

    dc = J db / (16 beta4) and db = K dc / (16 gamma4); the two normalized
    matrices are mutual inverses when neither product vanishes.
    """

    j: np.ndarray
    k: np.ndarray
    beta4: float
    gamma4: float

    @property
    def invertible(self) -> bool:
        return self.beta4 != 0.0 and self.gamma4 != 0.0


def jacobians(beta) -> JacobianPair:
    """Forward and inverse Jacobian factors of the trade-off map at beta."""
    beta = _checked(beta, "beta", (4,))
    gamma = gamma_from_beta(beta)
    h = h_vector(beta)
    b = b_from_beta(beta)
    c = b_from_beta(gamma)
    j = np.empty((3, 3))
    k = np.empty((3, 3))
    for q, qp, qpp in CYCLIC_AXES:
        j[q, q] = h[qp] * h[qpp]
        j[q, qp] = -h[qp] * c[qpp]
        j[qp, q] = -h[q] * c[qpp]
        k[q, q] = h[qp] * h[qpp]
        k[q, qp] = -h[qp] * b[qpp]
        k[qp, q] = -h[q] * b[qpp]
    return JacobianPair(j=j, k=k, beta4=float(np.prod(beta)), gamma4=float(np.prod(gamma)))
