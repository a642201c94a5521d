"""Optimal trade-off between the two copies of a centered machine.

A centered machine shrinks the Bloch sphere along the principal axes by
b (first copy) and c (second copy).  The two sets of semi-axes are linked
through the machine coefficients: beta^2 = (1/4) Lambda (1, b), with the
sign matrix Lambda, and beta is always taken as the componentwise positive
square root.  So b is attainable exactly when every row of Lambda (1, b) is
nonnegative, inside the tetrahedron with vertices (1, 1, 1) and the
permutations of (1, -1, -1); the tetrahedron test and g read those rows from
one kernel.  The trade-off map g is then the closed form

    c_q = g(b)_q = 2 (beta_0 beta_q + beta_q' beta_q'')

over the cyclic triples (q, q', q''): for fixed b, g(b) is the
componentwise largest c any machine can reach.  One elementwise kernel
computes it for one b and for many, with the same bits.  A pair (b, c)
with nonnegative entries is (conjecturally) optimal exactly when c = g(b)
and b satisfies b_q >= b_q' b_q'' with 0 <= b_q <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .errors import NotPossibleError, NotPositiveOptimalError
from .linalg import DEFAULT_TOL, _checked, _in_unit_interval, _tolerance
from .pauli import _TRIPLES, CYCLIC, CYCLIC_AXES, LAMBDA

__all__ = [
    "tetrahedron_check",
    "tetrahedron_mask",
    "tetrahedron_violations",
    "beta_from_b",
    "b_from_beta",
    "gamma_from_beta",
    "g_map",
    "g_map_many",
    "isotropic_tradeoff",
    "h_vector",
    "positive_optimal_condition",
    "positive_optimal_mask",
    "class_p_mask",
    "class_p_check",
    "same_order",
    "OptimalPair",
    "classify_pair",
    "sign_flip_variants",
    "JacobianPair",
    "jacobians",
]


# b is attainable when every row of Lambda (1, b), 4 beta^2, is >= 0: the tetrahedron test and g's gate
# both read the rows here.  The ufuncs that add b_1, b_2, b_3 into row j (Lambda's entries are +-1):
_LAMBDA_OPS = [[np.add if LAMBDA[k, j] > 0 else np.subtract for k in (1, 2, 3)] for j in range(4)]


def _lambda_row(j: int, b, out: np.ndarray) -> np.ndarray:
    """Row j of Lambda (1, b) into out, summed ((1 +- b_1) +- b_2) +- b_3; b holds one component per row."""
    op1, op2, op3 = _LAMBDA_OPS[j]
    op1(1.0, b[0], out=out)
    op2(out, b[1], out=out)
    return op3(out, b[2], out=out)


def _lambda_rows(b, out: np.ndarray) -> np.ndarray:
    """The four rows of Lambda (1, b) into out[0..3], each as _lambda_row sums it."""
    for j in range(4):
        _lambda_row(j, b, out[j, ...])  # a view, also when out is one-dimensional
    return out


# the slack of the tetrahedron's inequalities, for rounding at its faces
_TETRAHEDRON_TOL = 1e-12


# here and below: a row may overflow to inf, or be inf - inf for an infinite axis, which the tests then judge
@np.errstate(over="ignore", invalid="ignore")
def tetrahedron_violations(b, tol: float = _TETRAHEDRON_TOL) -> list[str]:
    """Names of the attainability inequalities violated by semi-axes b."""
    b, tol = _checked(b, "b", (3,), finite=False), _tolerance(tol)
    rows = _lambda_rows(b, np.empty(4))
    # row 0 is the sum's face, row q'' that of b_q + b_q' <= 1 + b_q''; a NaN row breaks none of them
    bad = ["b1+b2+b3 < -1"] if rows[0] < -tol else []
    bad += [f"b{q}+b{qp} > 1+b{qpp}" for q, qp, qpp in CYCLIC if rows[qpp] < -tol]
    if np.any(np.isinf(b)):
        bad.append("infinite component")
    if np.any(np.isnan(b)):
        bad.append("NaN component")
    return bad


def _edge_conditions(b: np.ndarray, ok: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """AND the faces b_q + b_q' <= 1 + b_q'' (rows 1..3 of Lambda (1, b) >= -tol) into ok, over (3, ...) b."""
    row = np.empty(b.shape[1:])
    for j in (1, 2, 3):
        ok &= _lambda_row(j, b, row) >= -tol
    return ok


@np.errstate(over="ignore", invalid="ignore")
def tetrahedron_mask(b_rows, tol: float = _TETRAHEDRON_TOL) -> np.ndarray:
    """Row-wise tetrahedron test over an (..., 3) array of semi-axes: every row of Lambda (1, b) >= -tol.

    The vertices are (1,1,1) and the three permutations of (1,-1,-1).
    Rows with a NaN or infinite component fail, as some row is then -inf or
    NaN: +inf enters a row with a minus sign, -inf row 0 with a plus.
    """
    b, tol = _checked(b_rows, "b_rows", (..., 3), finite=False), _tolerance(tol)
    b = b.transpose(-1, *range(b.ndim - 1))
    return _edge_conditions(b, _lambda_row(0, b, np.empty(b.shape[1:])) >= -tol, tol=tol)


def tetrahedron_check(b, tol: float = _TETRAHEDRON_TOL) -> bool:
    """True when b lies in the tetrahedron of attainable centered semi-axes."""
    return bool(tetrahedron_mask(_checked(b, "b", (3,), finite=False), tol=tol))


def _positive_beta(b: np.ndarray, tol: float = DEFAULT_TOL, out: np.ndarray | None = None) -> np.ndarray:
    """Positive coefficients of a (3, ...) array of semi-axes, as a (4, ...) array (into out if given).

    beta^2 = (1/4) Lambda (1, b); a square below -tol (or NaN) raises
    NotPossibleError naming the inequalities that the first such b violates,
    the others are clamped to zero before the root.
    """
    beta = _lambda_rows(b, np.empty((4, *b.shape[1:])) if out is None else out)
    # compare the rows, 4 beta^2, as the tetrahedron test does: a quarter of a negative subnormal rounds to -0
    low, row_tol = (beta.min() if beta.size else 0.0), 4.0 * tol
    if not low >= -row_tol:  # NaN fails too
        first = np.argmin(np.all(beta >= -row_tol, axis=0).reshape(-1))
        names = tetrahedron_violations(b.reshape(3, -1)[:, first], tol=row_tol)
        raise NotPossibleError(f"tetrahedron violated: {'; '.join(names)}")
    if low < 0.0:  # rows >= 0 need no clamp: each starts at 1.0, so none is -0.0
        np.maximum(beta, 0.0, out=beta)
    beta *= 0.25
    return np.sqrt(beta, out=beta)


def _pair_products(beta: np.ndarray):
    """p_q = beta_0 beta_q and s_q = beta_q' beta_q'' for q = 1, 2, 3, over a (4, ...) beta."""
    q, qp, qpp = _TRIPLES
    return beta[0] * beta[q], beta[qp] * beta[qpp]


def _g_from_beta(beta: np.ndarray, i: int | slice = slice(None), out=None, s=None) -> np.ndarray:
    """Second-copy semi-axes c_q = 2 (beta_0 beta_q + beta_q' beta_q'') over a (4, ...) beta.

    i picks one component or all three; c goes to out, beta_q' beta_q'' to s (allocated when None).
    """
    q, qp, qpp = _TRIPLES[:, i]
    s = np.multiply(beta[qp], beta[qpp], out=s)
    c = np.multiply(beta[0], beta[q], out=out)
    c += s
    c *= 2.0
    return c


def _g_columns(cols: np.ndarray) -> np.ndarray:
    """g over the columns of a (3, n) array of semi-axes, as a (3, n) array."""
    beta, c = _positive_beta(cols), np.empty(cols.shape)
    for i in range(3):  # one component at a time: beta's rows are views, not copies
        _g_from_beta(beta, i, out=c[i])
    return c


# here and below: a huge finite axis may overflow to inf in a sum or product, which the tests then judge
@np.errstate(over="ignore")
def beta_from_b(b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Positive machine coefficients realizing centered semi-axes b.

    beta^2 = (1/4) Lambda (1, b); squared components in [-tol, 0) are
    clamped to zero, anything lower means b is unattainable.
    """
    return _positive_beta(_checked(b, "b", (3,), finite=False), tol=_tolerance(tol))


def b_from_beta(beta) -> np.ndarray:
    """Semi-axes of the first copy, b = (Lambda beta^2) without the leading 1."""
    beta = _checked(beta, "beta", (4,))
    return (LAMBDA @ (beta**2))[1:]


def gamma_from_beta(beta) -> np.ndarray:
    """Partner coefficients gamma = (1/2) Lambda beta; involutive."""
    return 0.5 * (LAMBDA @ _checked(beta, "beta", (4,)))


def g_map(b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Best semi-axes of the second copy given semi-axes b of the first.

    The closed form of the positive coefficients, so the result is always
    componentwise nonnegative.
    """
    return _g_from_beta(beta_from_b(b, tol=tol))


@np.errstate(over="ignore")
def g_map_many(b_rows: np.ndarray) -> np.ndarray:
    """Vectorized g_map over the rows of an (n, 3) array, bit for bit equal to it and raising its error."""
    b_rows = _checked(b_rows, "b_rows", (..., 3), finite=False).reshape(-1, 3)
    return _g_columns(b_rows.T).T


def isotropic_tradeoff(r: float) -> float:
    """Largest uniform shrink s of one copy when the other shrinks by r.

    s(r) = (1/2) (1 - r + sqrt((1 - r)(1 + 3 r))); the curve is its own
    inverse and crosses the diagonal at 2/3.
    """
    r = _in_unit_interval(r, "r")
    return float(0.5 * (1.0 - r + np.sqrt((1.0 - r) * (1.0 + 3.0 * r))))


def h_vector(beta) -> np.ndarray:
    """Difference weights h_q = 2 (beta_0 beta_q - beta_q' beta_q'').

    The same expression evaluated on the partner gamma gives the same vector.
    """
    p, s = _pair_products(_checked(beta, "beta", (4,)))
    return 2.0 * (p - s)


@np.errstate(over="ignore", invalid="ignore")  # rows outside the box may hold NaN or inf, which fail it
def class_p_mask(xi_rows, tol: float = 0.0) -> np.ndarray:
    """Row-wise class_p_check over an (..., 4) array of four-vectors; rows with a NaN or infinite component fail."""
    x, tol = _checked(xi_rows, "xi_rows", (..., 4), finite=False).T, _tolerance(tol)  # x[i]: xi_i of every row
    # a NaN fails every test; a finite xi_0 bounds the other components, so one comparison rules out infinities
    ok = (x[0] < np.inf) & ((x[1:] >= -tol) & (x[1:] <= x[0] + tol)).all(0)
    # the products compare on xi / 2^e, 2^e <= max(xi_0, tol / 2) < 2^(e+1), where a row inside the box has
    # products below 36; a power of two scales exactly, so a test that did not underflow answers as it did on
    # xi, and a lifted row (1, b) with tol < 4 compares unscaled
    e = np.frexp(np.maximum(x[0], 0.5 * tol))[1] - 1
    p, s = _pair_products(np.ldexp(x, -e))
    return (ok & (p >= s - np.ldexp(tol, -2 * e)).all(0)).T


def class_p_check(xi, tol: float = 0.0) -> bool:
    """Membership test for class P four-vectors.

    Requires 0 <= xi_q <= xi_0 and xi_0 xi_q >= xi_q' xi_q'' for each q.
    The class is closed under positive scaling, componentwise powers and
    the Lambda sign matrix.
    """
    return bool(class_p_mask(_checked(xi, "xi", (4,), finite=False), tol=tol))


def _product_conditions(b: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """AND b_q >= b_q' b_q'', for each cyclic triple, into the mask ok; b holds one component per row."""
    for q, qp, qpp in CYCLIC_AXES:
        ok &= b[q] >= b[qp] * b[qpp]
    return ok


def positive_optimal_mask(b_rows, tol: float = 0.0) -> np.ndarray:
    """Row-wise positive_optimal_condition over an (..., 3) array of semi-axes: class_p_mask of the rows (1, b).

    Rows with a NaN or infinite component fail.
    """
    b = _checked(b_rows, "b_rows", (..., 3), finite=False)
    return class_p_mask(np.concatenate([np.ones((*b.shape[:-1], 1)), b], axis=-1), tol=tol)


def positive_optimal_condition(b, tol: float = 0.0) -> bool:
    """True when b can be the nonnegative member of an optimal pair.

    The condition is 0 <= b_q <= 1 together with b_q >= b_q' b_q'', which
    is class membership of the lifted vector (1, b).
    """
    return bool(positive_optimal_mask(_checked(b, "b", (3,), finite=False), tol=tol))


def same_order(xi, eta, tol: float = 1e-12) -> bool | np.ndarray:
    """True when components 1..3 of two four-vectors share their ordering.

    The orderings clash only when some pair p, q is strictly ordered one way
    in xi and strictly the other way in eta, each by more than tol.  A
    difference within tol is a tie, and a tie on one side agrees with any
    order on the other: ties need not match ties.  (..., 4) stacks
    broadcast against each other and give a bool array.
    """
    xi, eta, tol = _checked(xi, "xi", (..., 4))[..., 1:], _checked(eta, "eta", (..., 4))[..., 1:], _tolerance(tol)
    # over all pairs p, q, so the clash the other way round is the pair q, p
    clash = (xi[..., :, None] - xi[..., None, :] > tol) & (eta[..., :, None] - eta[..., None, :] < -tol)
    same = ~np.any(clash, axis=(-2, -1))
    return bool(same) if same.ndim == 0 else same


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
        # the flags are the fields declared bool (annotations are strings here); the rest but residuals are vectors
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "residuals"}
        flags = {f.name: values.pop(f.name) for f in fields(self) if f.type == "bool"}
        vectors = {name: None if v is None else v.tolist() for name, v in values.items()}
        return {**vectors, "flags": flags, "residuals": {k: float(v) for k, v in self.residuals.items()}}


def classify_pair(b, c, tol: float = DEFAULT_TOL) -> OptimalPair:
    """Classify a candidate pair (b, c) of copy semi-axes.

    Raises ValueError only on a wrong shape or a bad tol: impossible,
    sign-mixed or non-finite pairs come back with the corresponding flags
    unset.  The optimality flag is conjectural in the same sense as the
    mutuality criterion it implements.
    """
    b, c, tol = _checked(b, "b", (3,), finite=False), _checked(c, "c", (3,), finite=False), _tolerance(tol)

    # tetrahedron_check(v, tol) bounds the rows of Lambda (1, v) by tol, 4 times stricter than g's gate
    beta = beta_from_b(b, tol=tol) if tetrahedron_check(b, tol=tol) else None
    g_c = g_map(c, tol=tol) if tetrahedron_check(c, tol=tol) else None
    possible = beta is not None and g_c is not None
    positive = bool(np.all(b >= -tol) and np.all(c >= -tol))

    gamma = h = None
    h_nonneg = gamma4_nonneg = False
    mutual = False
    residuals: dict[str, float] = {}
    if beta is not None:
        gamma = gamma_from_beta(beta)
        h = h_vector(beta)
        h_nonneg = bool(np.all(h >= -tol))
        gamma4 = float(np.prod(gamma))
        gamma4_nonneg = gamma4 >= -tol
        residuals["gamma4"] = gamma4
        residuals["c_minus_g_b"] = float(np.max(np.abs(_g_from_beta(beta) - c)))
    if g_c is not None:
        residuals["b_minus_g_c"] = float(np.max(np.abs(g_c - b)))
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

    The variants with a nonnegative component product: with no zero
    component an even number of flips, else any flips of the nonzero ones.
    """
    seen = set()
    out = []
    for signs in product((1.0, -1.0), repeat=3):
        variant = v * np.array(signs)
        key = tuple(variant)
        if np.prod(variant) >= 0 and key not in seen:
            seen.add(key)
            out.append(variant)
    return out


def sign_flip_variants(pair: OptimalPair) -> list[tuple[np.ndarray, np.ndarray]]:
    """All distinct sign-flipped versions of a positive optimal pair.

    Every emitted side has a nonnegative component product, so each variant
    is again realizable by a machine.  Anything but an OptimalPair raises
    TypeError naming pair.
    """
    if not isinstance(pair, OptimalPair):
        raise TypeError(f"pair must be an OptimalPair, got {type(pair).__name__}")
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
    c = _g_from_beta(beta)
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
