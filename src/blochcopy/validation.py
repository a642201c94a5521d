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
import threading
import time
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .channel import _edge_conditions, extract_e_vectors, gram_matrix, transfer_from_gram
from .linalg import _checked, _in_unit_interval, random_isometry
from .optimizer import _g_columns, _g_from_beta, _positive_beta, _product_conditions
from .quality import quality_e

__all__ = [
    "random_physical_gram",
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

# numpy's SeedSequence hash constants, with its pool size 4 and shift 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# the hash constant at a spawn key's 4 hashes and after each, when the key
# follows the pool's own 16 hashes (seeds of up to 4 words)
_KEY_HASH = np.array([_INIT_A * pow(_MULT_A, 16 + i, 2**32) % 2**32 for i in range(5)], dtype=np.uint32)
# generate_state's hash constant at its 8 words, pool words 0-3 twice, and after each
_STATE_HASH = np.array([_INIT_B * pow(_MULT_B, i, 2**32) % 2**32 for i in range(9)], dtype=np.uint32)
_STATE_XOR, _STATE_MUL = _STATE_HASH[:8].reshape(2, 4), _STATE_HASH[1:].reshape(2, 4)
# most outer points of a scan: spawn keys below it are one uint32 word each
_MAX_OUTER = 2**32


@cache
def _preset_seed():
    """A seed sequence class whose generate_state returns words given up front.

    Made on first use: importing numpy.random costs ~15 ms, which only a
    scan needs to pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PresetWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return PresetWords


def _spawned_words(seed: int, lo: int, n: int) -> np.ndarray:
    """PCG64 seed words of SeedSequence(seed).spawn(lo + n)[lo:], as an (n, 4) uint64 array.

    A port of SeedSequence's child mixing.  A child's entropy is the
    parent's run words, zero-padded to the pool size 4, then its spawn key,
    so its pool is the parent's pool with the key hashed into each word.
    PCG64 is then seeded from generate_state(4, uint64): 8 hashes of that
    pool, read as little-endian pairs.  The children are hashed together,
    in uint32 arrays whose products wrap like numpy's uint32_t arithmetic.
    Keys must be below _MAX_OUTER, where spawn would use two words.
    """
    # each run word past the pool's 4 takes 4 more hashes before the key's
    past_pool = max(0, -(-seed.bit_length() // 32) - 4)
    key_hash = _KEY_HASH * np.uint32(pow(_MULT_A, 4 * past_pool, 2**32))
    keys = np.arange(lo, lo + n, dtype=np.uint32)[:, None]
    hashed = (keys ^ key_hash[:4]) * key_hash[1:]
    hashed ^= hashed >> 16
    hashed *= _MIX_R
    child = np.random.SeedSequence(seed).pool * _MIX_L - hashed
    child ^= child >> 16
    words = (child[:, None, :] ^ _STATE_XOR) * _STATE_MUL
    words ^= words >> 16
    return words.reshape(n, 8).view("<u8").astype(np.uint64, copy=False)


def _generator(words: np.ndarray) -> np.random.Generator:
    """A new default_rng of the child whose PCG64 seed words these are, at the start of its stream."""
    return np.random.Generator(np.random.PCG64(_preset_seed()(words)))


def _simplex_columns(e: np.ndarray, b: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Semi-axes lam @ p, into the (3, n) b, of the Dirichlet(1, 1, 1, 1) draws p made from 4 columns e of exponentials.

    e times the reciprocal of its left-to-right sum (in place; tmp holds n floats) has dirichlet's bits, e over
    its sum does not.  b_q = (p0 +- p2) + (+-p1 +- p3) has the bits of the single-draw lam @ p.
    """
    np.add(e[0], e[1], out=tmp)
    tmp += e[2]
    tmp += e[3]
    e *= np.divide(1.0, tmp, out=tmp)
    p0, p1, p2, p3 = e
    np.subtract(p1, p3, out=tmp)
    np.subtract(p0, p2, out=b[0])
    np.subtract(b[0], tmp, out=b[2])  # b3 = (p0 - p2) - (p1 - p3)
    b[0] += tmp  # b1 = (p0 - p2) + (p1 - p3)
    np.add(p1, p3, out=tmp)
    np.add(p0, p2, out=b[1])
    b[1] -= tmp  # b2 = (p0 + p2) - (p1 + p3)
    return b


def _in_sample_region(b: np.ndarray, good: bool) -> np.ndarray:
    """The samplers' accept mask over (3, n) columns: the box and products (good), or the edges and not the products.

    An outside draw is uniform, so finite and in the box: of the public masks' tests only these two can fail.
    """
    if good:
        return _product_conditions(b, np.all((b >= 0.0) & (b <= 1.0), axis=0))
    return _edge_conditions(b, ~_product_conditions(b, np.ones(b.shape[1], dtype=bool)), tol=1e-12)


def _first_accepted(words: np.ndarray, region: str) -> tuple:
    """First draw in the 'good' or 'outside' region of each stream, as (3, n) columns, and the generators.

    words holds the streams' PCG64 seed words, one row each.  A round draws the next _LOOKAHEAD raw rows
    of up to _TILE_ROWS // _LOOKAHEAD pending streams into the tile buffers and tests them at once.  A
    block of k rows consumes a stream like k single draws, so a stream whose first hit is row j of round r
    is rebuilt from its words and draws r * _LOOKAHEAD + j + 1 rows in one call: it ends where its
    one-draw rejection loop leaves it, and no generator state is read or written.
    """
    good = region == "good"
    # raw rows: 4 exponentials made into a Dirichlet draw, or 3 uniforms that are the semi-axes
    draw, width = ("standard_exponential", 4) if good else ("random", 3)
    flat, work = _tile_buffers()
    out, rngs = np.empty((3, len(words))), []
    per_round = max(1, _TILE_ROWS // _LOOKAHEAD)
    for lo in range(0, len(words), per_round):
        # look-ahead generators, each replaced by a rebuilt one at its stream's hit
        rngs += [_generator(row) for row in words[lo : lo + per_round]]
        pending, drawn = np.arange(lo, len(rngs)), 0
        while len(pending):
            n = len(pending) * _LOOKAHEAD
            # flat's first two rows are contiguous: room for _TILE_ROWS rows of 4
            blocks = flat[:2].reshape(-1)[: width * n].reshape(len(pending), _LOOKAHEAD, width)
            for block, i in zip(blocks, pending):
                getattr(rngs[i], draw)(out=block)
            cols = blocks.reshape(n, width).T
            if good:
                cols = _simplex_columns(cols, flat[2, : 3 * n].reshape(3, n), work[0, 0, :n])
            hits = _in_sample_region(cols, good).reshape(len(pending), _LOOKAHEAD)
            drawn += _LOOKAHEAD
            first = hits.argmax(axis=1)  # the first hit, if there is one
            found = hits[np.arange(len(pending)), first]
            for k in np.flatnonzero(found):
                rng = rngs[pending[k]] = _generator(words[pending[k]])
                getattr(rng, draw)((drawn - _LOOKAHEAD + int(first[k]) + 1, width))
            out[:, pending[found]] = cols.reshape(3, len(pending), _LOOKAHEAD)[:, found, first[found]]
            pending = pending[~found]
    return out, rngs


_workspace = threading.local()


def _tile_buffers() -> tuple:
    """This thread's tile buffers: flat, whose rows draws, cols and picked hold 3 * _TILE_ROWS floats, and work.

    Allocated on the thread's first scan and kept for its life, so a scan does not fault ~2.2 MB of pages
    back in on every call; pages that a small scan never touches are never made resident.  A thread-local,
    so two threads scanning at once never share a buffer.
    """
    try:
        return _workspace.buffers
    except AttributeError:
        _workspace.buffers = (np.empty((3, 3 * _TILE_ROWS)), np.empty((2, 4, _TILE_ROWS)))
        return _workspace.buffers


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of a monotonicity scan.

    n_outer base points are drawn from the requested region; for each one
    n_inner candidates dominating it componentwise are tested.  max_keep
    caps the number of stored counterexample records, the count in the
    report is always exact.  n_outer is at most 2**32, the outer points
    whose seeds the scan derives.
    """

    n_outer: int = 100
    n_inner: int = 1000
    seed: int = 0
    region: str = "good"
    max_keep: int = 256

    def __post_init__(self):
        # each integer field with its least value; numpy integers become ints, bools fail
        for name, least in (("n_outer", 1), ("n_inner", 1), ("seed", 0), ("max_keep", 0)):
            value = getattr(self, name)
            try:
                number = operator.index(value if not isinstance(value, bool) else None)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if number < least:
                raise ValueError(f"{name} must be at least {least}, got {number}")
            object.__setattr__(self, name, number)
        if self.n_outer > _MAX_OUTER:
            raise ValueError(f"n_outer must be at most {_MAX_OUTER}, got {self.n_outer}")
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
    tested in tiles of up to _TILE_ROWS rows, stored column by column in the
    thread's buffers, reused from tile to tile and from scan to scan.  A tile's
    base points come as columns from one _first_accepted call on its seed words,
    whose generators, rebuilt just past each hit, then draw the candidates.

    A candidate b + u (1 - b) stays in the box [0, 1]^3, so it is tested only on
    the products (good region) or the tetrahedron edges at tol 0.  g then runs
    one component at a time over the candidates still at least their g_b.
    """
    start = time.perf_counter()
    # outside the good region candidates only need to stay attainable
    in_region = _product_conditions if config.region == "good" else _edge_conditions
    n_inner = config.n_inner
    per_tile = max(1, _TILE_ROWS // n_inner)
    seg = min(n_inner, _TILE_ROWS)
    # a tile holds min(per_tile, n_outer) * seg <= _TILE_ROWS rows
    (draws, cols, picked), work = _tile_buffers()

    checked = 0
    n_violations = 0
    kept: list[dict] = []
    for lo in range(0, config.n_outer, per_tile):
        m = min(per_tile, config.n_outer - lo)
        b, rngs = _first_accepted(_spawned_words(config.seed, lo, m), config.region)
        g_b = _g_columns(b)
        lower, scale = b[:, :, None], (1.0 - b)[:, :, None]
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
            mask = (cand[0] > lower[0]) | (cand[1] > lower[1]) | (cand[2] > lower[2])
            idx = np.flatnonzero(in_region(cand, mask))
            checked += len(idx)
            sel = np.take(cand.reshape(3, n), idx, axis=1, out=picked[: 3 * len(idx)].reshape(3, -1))
            beta = _positive_beta(sel, out=work[0, :, : len(idx)])
            live = np.arange(len(idx))  # positions in sel of the candidates still at least g_b
            for q in range(3):
                c = _g_from_beta(beta, q, out=work[1, 0, : len(live)], s=work[1, 1, : len(live)])
                # each candidate's point's g_b: the only one when the tile holds one point
                ref = g_b[q] if m == 1 else g_b[q, idx[live] // rows]
                hold = np.flatnonzero(c >= ref)
                live, beta = live[hold], beta[:, hold]
                if not len(live):
                    break
            n_violations += len(live)
            keep = live[: config.max_keep - len(kept)]
            for i, g in zip(keep, _g_columns(sel[:, keep]).T if len(keep) else ()):
                k = idx[i] // rows
                kept.append(
                    {
                        "b": b[:, k].tolist(),
                        "candidate": sel[:, i].tolist(),
                        "g_b": g_b[:, k].tolist(),
                        "g_candidate": g.tolist(),
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
    pair = np.stack([e_gram, time_reversed_gram(e_gram)])
    q, q_rev = quality_e(pair, mode).tolist()
    # row 0 of a transfer matrix holds the displacement, the rest the linear part
    t, t_rev = transfer_from_gram(pair)
    if not np.array_equal(t_rev[1:, 1:], t[1:, 1:]):
        raise ValueError("reversed machine changed the linear part")
    if not np.array_equal(t_rev[0, 1:], -t[0, 1:]):
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
