"""Randomized checks of the structural claims about copying machines.

Three families of checks live here:

* monotonicity scans: inside the region b_q >= b_q' b_q'' (components in
  [0, 1]) enlarging every semi-axis of one copy must shrink some semi-axis
  of the other; outside that region counterexamples exist and the scan
  finds them,
* the time-reversal symmetry E -> S conj(E) S, which negates the
  displacement of the output ellipsoid, keeps its linear part and leaves
  the eavesdropper quality unchanged,
* concavity of the eavesdropper quality under mixing of machines, checked
  by embedding two isometries block-diagonally into a doubled E space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    DEFAULT_TOL,
    b_from_e,
    check_physical,
    extract_e_vectors,
    gram_matrix,
    tetrahedron_check,
)
from .errors import NotPhysicalError
from .linalg import random_isometry
from .optimizer import g_map, g_map_many, positive_optimal_condition
from .pauli import CYCLIC_AXES, lambda_matrix
from .quality import quality_e

__all__ = [
    "random_physical_gram",
    "sample_good_region",
    "sample_outside_region",
    "ScanConfig",
    "ScanReport",
    "monotonicity_scan",
    "time_reversed_gram",
    "symmetry_check",
    "mixed_isometry",
    "concavity_check",
]


def random_physical_gram(rng: np.random.Generator) -> np.ndarray:
    """Gram matrix of a Haar-random copying machine."""
    return gram_matrix(extract_e_vectors(random_isometry(8, 2, rng)))


def sample_good_region(rng: np.random.Generator) -> np.ndarray:
    """Semi-axes b with b_q >= b_q' b_q'' and components in [0, 1].

    Squared machine coefficients are drawn uniformly from the probability
    simplex and rejected until the induced first-copy axes satisfy the
    region inequalities.
    """
    lam = lambda_matrix()[1:]
    while True:
        beta_sq = rng.dirichlet(np.ones(4))
        b = lam @ beta_sq
        if positive_optimal_condition(b):
            return b


def sample_outside_region(rng: np.random.Generator) -> np.ndarray:
    """Attainable semi-axes in [0, 1]^3 failing some b_q >= b_q' b_q''."""
    while True:
        b = rng.random(3)
        if tetrahedron_check(b) and not positive_optimal_condition(b):
            return b


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of a monotonicity scan.

    n_outer base points are drawn from the requested region; for each one
    n_inner candidates dominating it componentwise are tested.  max_keep
    caps the number of stored counterexample records, the count in the
    report is always exact.
    """

    n_outer: int = 100
    n_inner: int = 1000
    seed: int = 0
    region: str = "good"
    max_keep: int = 256

    def __post_init__(self):
        if self.n_outer < 1 or self.n_inner < 1:
            raise ValueError("scan sizes must be at least 1")
        if self.region not in ("good", "outside"):
            raise ValueError("region must be 'good' or 'outside'")
        if self.max_keep < 0:
            raise ValueError("max_keep must be nonnegative")


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a monotonicity scan."""

    region: str
    seed: int
    n_outer: int
    n_inner: int
    checked: int
    n_violations: int
    violations: list = field(default_factory=list)
    elapsed: float = 0.0

    def to_json(self, include_elapsed: bool = False) -> dict:
        out = {
            "region": self.region,
            "seed": self.seed,
            "n_outer": self.n_outer,
            "n_inner": self.n_inner,
            "checked": self.checked,
            "n_violations": self.n_violations,
            "violations": self.violations,
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out

    def to_csv(self) -> str:
        """Counterexample records, one row per violation."""
        cols = ["b1", "b2", "b3", "cand1", "cand2", "cand3"]
        cols += ["gb1", "gb2", "gb3", "gcand1", "gcand2", "gcand3"]
        lines = [",".join(cols)]
        for rec in self.violations:
            row = rec["b"] + rec["candidate"] + rec["g_b"] + rec["g_candidate"]
            lines.append(",".join(repr(float(x)) for x in row))
        return "\n".join(lines) + "\n"


def _region_mask(cand: np.ndarray, region: str) -> np.ndarray:
    if region == "good":
        ok = np.ones(len(cand), dtype=bool)
        for q, qp, qpp in CYCLIC_AXES:
            ok &= cand[:, q] >= cand[:, qp] * cand[:, qpp]
        return ok
    # outside region: candidates only need to stay attainable
    ok = np.ones(len(cand), dtype=bool)
    for q, qp, qpp in CYCLIC_AXES:
        ok &= cand[:, q] + cand[:, qp] <= 1.0 + cand[:, qpp]
    return ok


def monotonicity_scan(config: ScanConfig) -> ScanReport:
    """Search for componentwise improvements of both copies at once.

    A violation is a pair b < b' (strictly, in every component) with
    g(b') >= g(b) in every component.  Inside the good region none should
    ever be found; outside they are common.  Each outer point gets its own
    child seed, so reports with equal config are identical.
    """
    start = time.perf_counter()
    sampler = sample_good_region if config.region == "good" else sample_outside_region
    children = np.random.SeedSequence(config.seed).spawn(config.n_outer)

    checked = 0
    n_violations = 0
    kept: list[dict] = []
    for child in children:
        rng = np.random.default_rng(child)
        b = sampler(rng)
        g_b = g_map(b)
        t = rng.random((config.n_inner, 3))
        cand = b + t * (1.0 - b)
        # cand >= b holds by construction; dominance needs one strict component
        mask = np.any(cand > b, axis=1) & _region_mask(cand, config.region)
        cand = cand[mask]
        if not len(cand):
            continue
        checked += len(cand)
        g_cand = g_map_many(cand)
        bad = np.all(g_cand >= g_b, axis=1)
        n_violations += int(bad.sum())
        for i in np.flatnonzero(bad):
            if len(kept) >= config.max_keep:
                break
            kept.append(
                {
                    "b": [float(x) for x in b],
                    "candidate": [float(x) for x in cand[i]],
                    "g_b": [float(x) for x in g_b],
                    "g_candidate": [float(x) for x in g_cand[i]],
                }
            )
    return ScanReport(
        region=config.region,
        seed=config.seed,
        n_outer=config.n_outer,
        n_inner=config.n_inner,
        checked=checked,
        n_violations=n_violations,
        violations=kept,
        elapsed=time.perf_counter() - start,
    )


def time_reversed_gram(e_gram: np.ndarray) -> np.ndarray:
    """Conjugate the Gram matrix and flip the sign of its 0q entries.

    Implemented elementwise so the surviving entries keep their exact
    floating point values.
    """
    e_gram = np.asarray(e_gram, dtype=complex)
    if e_gram.shape != (4, 4):
        raise ValueError("Gram matrix must be 4 x 4")
    signs = np.array([1.0, -1.0, -1.0, -1.0])
    return e_gram.conj() * np.outer(signs, signs)


def symmetry_check(e_gram: np.ndarray, mode, tol: float = 1e-10) -> tuple[float, float]:
    """Verify the time-reversal symmetry on one machine Gram matrix.

    Checks that the reversed machine has the exact same linear part, the
    exact negated displacement, and equal eavesdropper quality along the
    given mode direction.  Returns the two quality values.
    """
    e_gram = np.asarray(e_gram, dtype=complex)
    report = check_physical(e_gram, tol=max(tol, DEFAULT_TOL))
    if not report.passed:
        raise NotPhysicalError("Gram matrix fails the physicality checks")
    e_rev = time_reversed_gram(e_gram)

    bmap = b_from_e(e_gram, check=False)
    bmap_rev = b_from_e(e_rev, check=False)
    if not np.array_equal(bmap_rev.linear, bmap.linear):
        raise ValueError("reversed machine changed the linear part")
    if not np.array_equal(bmap_rev.delta, -bmap.delta):
        raise ValueError("reversed machine did not negate the displacement")

    q = quality_e(e_gram, mode)
    q_rev = quality_e(e_rev, mode)
    if abs(q - q_rev) > tol:
        raise ValueError(
            f"eavesdropper quality changed under reversal: {q!r} vs {q_rev!r}"
        )
    return q, q_rev


def mixed_isometry(v1: np.ndarray, v2: np.ndarray, p1: float) -> np.ndarray:
    """Probabilistic mixture of two machines as one isometry.

    The E spaces are stacked as orthogonal blocks, so the mixture's Gram
    matrix is exactly p1 E1 + (1 - p1) E2.  Row order keeps the B bit most
    significant.
    """
    v1 = np.asarray(v1, dtype=complex)
    v2 = np.asarray(v2, dtype=complex)
    if not 0.0 <= p1 <= 1.0:
        raise ValueError("mixing probability must lie in [0, 1]")
    for v in (v1, v2):
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] % 2:
            raise ValueError("machines must be (2 d) x 2 matrices")
    d1 = v1.shape[0] // 2
    d2 = v2.shape[0] // 2
    d = d1 + d2
    w = np.zeros((2 * d, 2), dtype=complex)
    for b in (0, 1):
        w[b * d : b * d + d1] = np.sqrt(p1) * v1[b * d1 : (b + 1) * d1]
        w[b * d + d1 : (b + 1) * d] = np.sqrt(1.0 - p1) * v2[b * d2 : (b + 1) * d2]
    return w


def concavity_check(v1: np.ndarray, v2: np.ndarray, p1: float, mode) -> tuple[float, float]:
    """Eavesdropper quality of a mixture vs the mixture of qualities.

    Returns (mixed, averaged); concavity is mixed >= averaged.
    """
    w = mixed_isometry(v1, v2, p1)
    mixed = quality_e(gram_matrix(extract_e_vectors(w)), mode)
    q1 = quality_e(gram_matrix(extract_e_vectors(v1)), mode)
    q2 = quality_e(gram_matrix(extract_e_vectors(v2)), mode)
    return mixed, p1 * q1 + (1.0 - p1) * q2
