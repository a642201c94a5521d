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

import operator
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channel import b_from_e, extract_e_vectors, gram_matrix, tetrahedron_mask
from .linalg import _checked, _in_unit_interval, random_isometry
from .optimizer import _g_columns, positive_optimal_mask
from .pauli import lambda_matrix
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


# Largest quality change that symmetry_check lets time reversal make.
_SYMMETRY_TOL = 1e-10
# Candidates drawn per block by the rejection samplers.
_LOOKAHEAD = 64
# Candidate rows a scan tests per pass of the row kernels: small enough that
# a tile's buffers stay in a core's L2 cache.  A tile holds several whole
# outer points, or one segment of a point with more rows than this.
_TILE_ROWS = 2**14

_LAM_AXES = lambda_matrix()[1:]
_ONES4 = np.ones(4)


def _first_accepted(rng: np.random.Generator, draw, accept) -> np.ndarray:
    """First row of draw(rng, k) that passes accept, found by block look-ahead.

    A block of k draws consumes the stream exactly like k single draws, so
    after a hit at row j the generator is rewound and moved on by j + 1
    draws: it ends where a one-draw-at-a-time rejection loop leaves it.
    """
    while True:
        state = rng.bit_generator.state
        rows = draw(rng, _LOOKAHEAD)
        hits = accept(rows)
        j = hits.argmax()  # the first hit, if there is one
        if hits[j]:
            rng.bit_generator.state = state
            draw(rng, j + 1)
            return rows[j]


def _draw_good(rng: np.random.Generator, k: int) -> np.ndarray:
    # einsum gives each row the bits of the single-draw lam @ beta_sq;
    # beta_sq @ lam.T does not
    return np.einsum("qk,nk->nq", _LAM_AXES, rng.dirichlet(_ONES4, size=k))


def _draw_outside(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.random((k, 3))


def _outside_region(rows: np.ndarray) -> np.ndarray:
    return tetrahedron_mask(rows) & ~positive_optimal_mask(rows)


def sample_good_region(rng: np.random.Generator) -> np.ndarray:
    """Semi-axes b with b_q >= b_q' b_q'' and components in [0, 1].

    Squared machine coefficients are drawn uniformly from the probability
    simplex and rejected until the induced first-copy axes satisfy the
    region inequalities.
    """
    return _first_accepted(rng, _draw_good, positive_optimal_mask)


def sample_outside_region(rng: np.random.Generator) -> np.ndarray:
    """Attainable semi-axes in [0, 1]^3 failing some b_q >= b_q' b_q''."""
    return _first_accepted(rng, _draw_outside, _outside_region)


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
        # each integer field with its least value; numpy integers become ints
        for name, least in (("n_outer", 1), ("n_inner", 1), ("seed", 0), ("max_keep", 0)):
            value = getattr(self, name)
            try:
                number = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if number < least:
                raise ValueError(f"{name} must be at least {least}, got {number}")
            object.__setattr__(self, name, number)
        if self.region not in ("good", "outside"):
            raise ValueError("region must be 'good' or 'outside'")


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

    def to_json(self) -> dict:
        """Every field but elapsed, which stays out so equal configs give equal payloads."""
        return {
            "region": self.region,
            "seed": self.seed,
            "n_outer": self.n_outer,
            "n_inner": self.n_inner,
            "checked": self.checked,
            "n_violations": self.n_violations,
            "violations": self.violations,
        }

    def to_csv(self) -> str:
        """Counterexample records, one row per violation."""
        cols = ["b1", "b2", "b3", "cand1", "cand2", "cand3"]
        cols += ["gb1", "gb2", "gb3", "gcand1", "gcand2", "gcand3"]
        lines = [",".join(cols)]
        for rec in self.violations:
            row = rec["b"] + rec["candidate"] + rec["g_b"] + rec["g_candidate"]
            lines.append(",".join(repr(float(x)) for x in row))
        return "\n".join(lines) + "\n"


def monotonicity_scan(config: ScanConfig) -> ScanReport:
    """Search for componentwise improvements of both copies at once.

    A violation is a pair b < b' (strictly, in every component) with
    g(b') >= g(b) in every component.  Inside the good region none should
    ever be found; outside they are common.  Each outer point draws its base
    point and its candidates from its own child seed, so reports with equal
    config are identical however the points are batched.  Candidates are
    tested in tiles of up to _TILE_ROWS rows, stored column by column in
    buffers reused from tile to tile.
    """
    start = time.perf_counter()
    if config.region == "good":
        sampler, in_region = sample_good_region, positive_optimal_mask
    else:
        # outside the good region candidates only need to stay attainable
        sampler, in_region = sample_outside_region, partial(tetrahedron_mask, tol=0.0)
    n_inner = config.n_inner
    children = np.random.SeedSequence(config.seed).spawn(config.n_outer)
    per_tile = max(1, _TILE_ROWS // n_inner)
    seg = min(n_inner, _TILE_ROWS)
    size = min(per_tile, config.n_outer) * seg
    draws, cols, picked = np.empty(3 * size), np.empty(3 * size), np.empty(3 * size)
    work = np.empty((2, 4, size))

    checked = 0
    n_violations = 0
    kept: list[dict] = []
    for lo in range(0, config.n_outer, per_tile):
        points = children[lo : lo + per_tile]
        m = len(points)
        rngs = [np.random.default_rng(child) for child in points]
        b = np.array([sampler(rng) for rng in rngs])
        g_b = _g_columns(b.T)
        lower, scale = b.T[:, :, None], (1.0 - b).T[:, :, None]
        # a point with more than seg rows draws them segment by segment,
        # which consumes its stream exactly like one draw of all of them
        for r0 in range(0, n_inner, seg):
            rows = min(seg, n_inner - r0)
            n = m * rows
            tile = draws[: 3 * n].reshape(m, rows, 3)
            for k, rng in enumerate(rngs):
                rng.random(out=tile[k])
            cand = cols[: 3 * n].reshape(3, m, rows)
            np.multiply(tile.transpose(2, 0, 1), scale, out=cand)
            cand += lower
            # cand >= b holds by construction; dominance needs one strict component
            mask = (cand > lower).any(axis=0)
            mask &= in_region(np.moveaxis(cand, 0, -1))
            idx = np.flatnonzero(mask)
            checked += len(idx)
            sel = np.take(cand.reshape(3, n), idx, axis=1, out=picked[: 3 * len(idx)].reshape(3, -1))
            g_cand = _g_columns(sel, work=work)
            owner = idx // rows
            dominated = g_cand[0] >= g_b[0, owner]
            for q in (1, 2):
                dominated &= g_cand[q] >= g_b[q, owner]
            bad = np.flatnonzero(dominated)
            n_violations += len(bad)
            for i in bad[: config.max_keep - len(kept)]:
                k = owner[i]
                kept.append(
                    {
                        "b": b[k].tolist(),
                        "candidate": sel[:, i].tolist(),
                        "g_b": g_b[:, k].tolist(),
                        "g_candidate": g_cand[:, i].tolist(),
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
    e_gram = _checked(e_gram, "e_gram", (4, 4), complex)
    signs = np.array([1.0, -1.0, -1.0, -1.0])
    return e_gram.conj() * np.outer(signs, signs)


def symmetry_check(e_gram: np.ndarray, mode) -> tuple[float, float]:
    """Verify the time-reversal symmetry on one machine Gram matrix.

    Checks that the reversed machine has the exact same linear part, the
    exact negated displacement, and eavesdropper qualities along the given
    mode direction within _SYMMETRY_TOL, and returns the two.  A Gram matrix
    that fails the physicality checks raises NotPhysicalError (its reversal
    is physical exactly when it is).
    """
    e_rev = time_reversed_gram(e_gram)
    q, q_rev = quality_e(np.stack([e_gram, e_rev]), mode).tolist()

    bmap = b_from_e(e_gram, check=False)
    bmap_rev = b_from_e(e_rev, check=False)
    if not np.array_equal(bmap_rev.linear, bmap.linear):
        raise ValueError("reversed machine changed the linear part")
    if not np.array_equal(bmap_rev.delta, -bmap.delta):
        raise ValueError("reversed machine did not negate the displacement")
    if abs(q - q_rev) > _SYMMETRY_TOL:
        raise ValueError(
            f"eavesdropper quality changed under reversal: {q!r} vs {q_rev!r}"
        )
    return q, q_rev


def mixed_isometry(v1: np.ndarray, v2: np.ndarray, p1: float) -> np.ndarray:
    """Probabilistic mixture of two machines as one isometry.

    The E spaces are stacked as orthogonal blocks, so the mixture's Gram
    matrix is exactly p1 E1 + (1 - p1) E2.  Row order keeps the B bit most
    significant.  Stacks of machines with equal leading shapes mix pairwise.
    """
    v1 = _checked(v1, "v1", (..., "2d", 2), complex)
    v2 = _checked(v2, "v2", (..., "2d", 2), complex)
    lead = v1.shape[:-2]
    if v2.shape[:-2] != lead:
        raise ValueError(f"v1 and v2 must have equal leading shapes, got {lead} and {v2.shape[:-2]}")
    p1 = _in_unit_interval(p1, "p1")
    w1 = np.sqrt(p1) * v1.reshape(*lead, 2, v1.shape[-2] // 2, 2)
    w2 = np.sqrt(1.0 - p1) * v2.reshape(*lead, 2, v2.shape[-2] // 2, 2)
    return np.concatenate([w1, w2], axis=-2).reshape(*lead, v1.shape[-2] + v2.shape[-2], 2)


def concavity_check(v1: np.ndarray, v2: np.ndarray, p1: float, mode) -> tuple:
    """Eavesdropper quality of a mixture vs the mixture of qualities.

    Returns (mixed, averaged), arrays for stacks of machine pairs; concavity is mixed >= averaged.
    """
    w = mixed_isometry(v1, v2, p1)
    q = quality_e(np.stack([gram_matrix(extract_e_vectors(v)) for v in (w, v1, v2)]), mode)
    mixed, averaged = q[0], p1 * q[1] + (1.0 - p1) * q[2]
    return (float(mixed), float(averaged)) if q.ndim == 1 else (mixed, averaged)
