"""Monotonicity scans, time reversal, and mixing concavity."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import blochcopy
from blochcopy import channel, validation
from blochcopy.channel import (
    b_from_e,
    check_physical,
    extract_e_vectors,
    gram_matrix,
    tetrahedron_check,
)
from blochcopy.errors import NotPhysicalError
from blochcopy.linalg import random_isometry
from blochcopy.optimizer import positive_optimal_condition
from blochcopy.pauli import CYCLIC_AXES, lambda_matrix
from blochcopy.quality import quality_e
from blochcopy.validation import (
    ScanConfig,
    ScanReport,
    _MAX_OUTER,
    _TILE_ROWS,
    concavity_check,
    mixed_isometry,
    monotonicity_scan,
    random_physical_gram,
    symmetry_check,
    time_reversed_gram,
)


def _random_mode(rng):
    m = rng.standard_normal(3)
    return m / np.linalg.norm(m)


# ---------------------------------------------------------------------------
# oracles: one draw and one outer point at a time, scalar region tests


def _oracle_in_good_region(b):
    if not all(0.0 <= x <= 1.0 for x in b):
        return False
    return all(b[q] >= b[qp] * b[qpp] for q, qp, qpp in CYCLIC_AXES)


def _oracle_attainable(b):
    if not b.sum() >= -1.0 - 1e-12:
        return False
    return all(b[q] + b[qp] <= 1.0 + b[qpp] + 1e-12 for q, qp, qpp in CYCLIC_AXES)


def _oracle_sample_good(rng):
    lam = lambda_matrix()[1:]
    while True:
        b = lam @ rng.dirichlet(np.ones(4))
        if _oracle_in_good_region(b):
            return b


def _oracle_sample_outside(rng):
    while True:
        b = rng.random(3)
        if _oracle_attainable(b) and not _oracle_in_good_region(b):
            return b


def _oracle_region_mask(cand, region):
    ok = np.ones(len(cand), dtype=bool)
    for q, qp, qpp in CYCLIC_AXES:
        if region == "good":
            ok &= cand[:, q] >= cand[:, qp] * cand[:, qpp]
        else:
            ok &= cand[:, q] + cand[:, qp] <= 1.0 + cand[:, qpp]
    return ok


def _oracle_g_map_many(b_rows):
    # g in closed form, component by component: beta_j^2 = 1/4 (1 +- b1 +- b2 +- b3)
    # summed left to right, c_q = 2 (beta_0 beta_q + beta_q' beta_q'')
    b1, b2, b3 = np.asarray(b_rows, dtype=float).reshape(-1, 3).T
    beta0 = np.sqrt(np.maximum(0.25 * (((1.0 + b1) + b2) + b3), 0.0))
    beta1 = np.sqrt(np.maximum(0.25 * (((1.0 + b1) - b2) - b3), 0.0))
    beta2 = np.sqrt(np.maximum(0.25 * (((1.0 - b1) + b2) - b3), 0.0))
    beta3 = np.sqrt(np.maximum(0.25 * (((1.0 - b1) - b2) + b3), 0.0))
    c1 = 2.0 * (beta0 * beta1 + beta2 * beta3)
    c2 = 2.0 * (beta0 * beta2 + beta3 * beta1)
    c3 = 2.0 * (beta0 * beta3 + beta1 * beta2)
    return np.stack([c1, c2, c3], axis=1)


def _oracle_scan(config):
    sampler = _oracle_sample_good if config.region == "good" else _oracle_sample_outside
    checked = 0
    n_violations = 0
    kept = []
    for child in np.random.SeedSequence(config.seed).spawn(config.n_outer):
        rng = np.random.default_rng(child)
        b = sampler(rng)
        g_b = _oracle_g_map_many(b)[0]
        cand = b + rng.random((config.n_inner, 3)) * (1.0 - b)
        cand = cand[np.any(cand > b, axis=1) & _oracle_region_mask(cand, config.region)]
        if not len(cand):
            continue
        checked += len(cand)
        g_cand = _oracle_g_map_many(cand)
        bad = np.flatnonzero(np.all(g_cand >= g_b, axis=1))
        n_violations += len(bad)
        for i in bad[: max(0, config.max_keep - len(kept))]:
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
    )


# ---------------------------------------------------------------------------
# samplers


def _oracle_streams(seed, n, lo=0):
    """default_rng of children lo .. lo + n - 1 of seed, each from its own SeedSequence."""
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))) for k in range(lo, lo + n)]


def _sample(seed, n, region):
    """First hits, as rows, and generators of children 0 .. n - 1 of seed."""
    points, rngs = validation._first_accepted(validation._spawned_words(seed, 0, n), region)
    return points.T, rngs


def test_good_region_sampler():
    for b in _sample(80, 200, "good")[0]:
        assert positive_optimal_condition(b)
        assert np.all(b >= 0.0) and np.all(b <= 1.0)
        assert tetrahedron_check(b)


def test_outside_region_sampler():
    for b in _sample(81, 200, "outside")[0]:
        assert tetrahedron_check(b)
        assert not positive_optimal_condition(b)


@pytest.mark.parametrize(
    "region, oracle", [("good", _oracle_sample_good), ("outside", _oracle_sample_outside)], ids=["good", "outside"]
)
def test_samplers_match_the_one_draw_oracle(region, oracle):
    # equal points, and each generator is left where one-at-a-time draws leave it
    for seed in range(300):
        got, rngs = _sample(seed, 3, region)
        refs = _oracle_streams(seed, 3)
        assert np.array_equal(got, np.array([oracle(ref) for ref in refs]))
        assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]


def _mask_rows_per_call(monkeypatch):
    """Wrap the samplers' column accept mask.

    The returned list gets the row count of each call.  Only the samplers
    call this mask, so every count is a sampler round: a whole number of
    look-ahead blocks.
    """
    mask, seen = validation._in_sample_region, []

    def counted(cols, *args, **kwargs):
        seen.append(cols.shape[1])
        return mask(cols, *args, **kwargs)

    monkeypatch.setattr(validation, "_in_sample_region", counted)
    return seen


@pytest.mark.parametrize("lookahead", [1, 2])
def test_short_lookahead_blocks_still_match_the_one_draw_oracles(monkeypatch, lookahead):
    # most points miss their first block or two, so they need several rounds
    monkeypatch.setattr(validation, "_LOOKAHEAD", lookahead)
    seen = _mask_rows_per_call(monkeypatch)
    for region, oracle in (("good", _oracle_sample_good), ("outside", _oracle_sample_outside)):
        refs = _oracle_streams(11, 300)
        seen.clear()
        got, rngs = _sample(11, 300, region)
        assert len(seen) > 1
        assert np.array_equal(got, np.array([oracle(ref) for ref in refs]))
        assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]
    for region, oracle in (("good", _oracle_sample_good), ("outside", _oracle_sample_outside)):
        for seed in range(20):
            (got,), (rng,) = _sample(seed, 1, region)
            (ref,) = _oracle_streams(seed, 1)
            assert np.array_equal(got, oracle(ref))
            assert rng.random() == ref.random()
    for region in ("good", "outside"):
        config = ScanConfig(n_outer=300, n_inner=20, seed=12, region=region, max_keep=10**6)
        assert json.dumps(monotonicity_scan(config).to_json()) == json.dumps(_oracle_scan(config).to_json())


def test_generators_that_miss_their_first_block_take_more_rounds(monkeypatch):
    # 2000 points of seed 0: a few good-region points miss their first block,
    # so the sampler makes more accept calls than it has rounds of fresh points
    seen = _mask_rows_per_call(monkeypatch)
    got, rngs = _sample(0, 2000, "good")
    per_round = _TILE_ROWS // validation._LOOKAHEAD
    assert len(seen) > -(-len(got) // per_round)
    refs = _oracle_streams(0, 2000)
    assert np.array_equal(got, np.array([_oracle_sample_good(ref) for ref in refs]))
    assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]


@pytest.mark.parametrize("region", ["good", "outside"])
def test_sampler_rounds_stay_within_a_tile(monkeypatch, region):
    # n_inner=1 puts _TILE_ROWS points in one tile; their look-ahead blocks
    # would stack to 64 times that many rows without the cap on a round
    seen = _mask_rows_per_call(monkeypatch)
    report = monotonicity_scan(ScanConfig(n_outer=20_000, n_inner=1, seed=3, region=region))
    assert report.checked > 0
    assert max(seen) == _TILE_ROWS
    assert all(rows % validation._LOOKAHEAD == 0 for rows in seen)


class _NoStateBitGenerator:
    """A bit generator whose state can be neither read nor written, and that has no advance."""

    @property
    def state(self):
        raise AssertionError("the sampler read a generator's state")

    @state.setter
    def state(self, value):
        raise AssertionError("the sampler wrote a generator's state")


class _NoStateGenerator:
    """A generator that draws like rng, behind a _NoStateBitGenerator."""

    bit_generator = _NoStateBitGenerator()

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize(
    "region, oracle", [("good", _oracle_sample_good), ("outside", _oracle_sample_outside)], ids=["good", "outside"]
)
def test_samplers_rewind_without_touching_generator_state(monkeypatch, region, oracle):
    # a hit is rewound by a new generator from the point's words, never by its state
    generator = validation._generator
    monkeypatch.setattr(validation, "_generator", lambda words: _NoStateGenerator(generator(words)))
    got, rngs = _sample(13, 200, region)
    refs = _oracle_streams(13, 200)
    assert all(isinstance(rng, _NoStateGenerator) for rng in rngs)
    assert np.array_equal(got, np.array([oracle(ref) for ref in refs]))
    assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]


# 2**130 + 5 has five run words, one more than the pool
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 5])
def test_spawned_generators_match_spawn_and_default_rng(seed):
    for lo, n in ((0, 300), (256, 44)):
        children = np.random.SeedSequence(seed).spawn(lo + n)[lo:]
        words = validation._spawned_words(seed, lo, n)
        assert words.dtype == np.uint64 and words.shape == (n, 4)
        assert np.array_equal(words, np.array([child.generate_state(4, np.uint64) for child in children]))
        want = [np.random.default_rng(child).bit_generator.state for child in children]
        assert [validation._generator(row).bit_generator.state for row in words] == want
    # the last point a scan may have; spawn would make 2**32 children to reach it
    (words,) = validation._spawned_words(seed, _MAX_OUTER - 1, 1)
    got = validation._generator(words)
    (want,) = _oracle_streams(seed, 1, lo=_MAX_OUTER - 1)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(4), want.random(4))


def test_normalised_exponentials_are_dirichlet_draws():
    # rows times the reciprocal of their left-to-right sum; dividing by the sum differs
    lam = lambda_matrix()[1:]
    for seed in range(300):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        exp = rng.standard_exponential((64, 4))
        want = ref.dirichlet(np.ones(4), 64)
        rows = exp * (1.0 / (((exp[:, 0] + exp[:, 1]) + exp[:, 2]) + exp[:, 3]))[:, None]
        assert np.array_equal(rows, want)
        # the column sums have the bits of the single-draw semi-axes
        cols = validation._simplex_columns(exp.T.copy(), np.empty((3, 64)), np.empty(64))
        assert np.array_equal(cols.T, np.array([lam @ row for row in want]))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_importing_the_package_leaves_numpy_random_unloaded():
    # numpy.random takes ~15 ms to import; only a scan loads it
    src = os.path.dirname(os.path.dirname(blochcopy.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, blochcopy; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_random_gram_is_physical():
    rng = np.random.default_rng(82)
    for _ in range(20):
        e = random_physical_gram(rng)
        assert e.shape == (4, 4)
        assert check_physical(e).passed


# ---------------------------------------------------------------------------
# monotonicity scan


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(n_outer=0)
    with pytest.raises(ValueError):
        ScanConfig(n_inner=0)
    with pytest.raises(ValueError):
        ScanConfig(region="inside")
    with pytest.raises(ValueError):
        ScanConfig(max_keep=-1)


@pytest.mark.parametrize("name", ["n_outer", "n_inner", "seed", "max_keep"])
@pytest.mark.parametrize("value", [True, False, np.True_], ids=["True", "False", "np.True_"])
def test_scan_config_rejects_bools(name, value):
    # operator.index reads True as 1, which would make a 1 x 1 scan
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        ScanConfig(**{name: value})
    assert getattr(ScanConfig(**{name: np.int64(3)}), name) == 3


def test_scan_is_deterministic():
    config = ScanConfig(n_outer=10, n_inner=50, seed=3, region="outside")
    first = monotonicity_scan(config)
    second = monotonicity_scan(config)
    assert json.dumps(first.to_json()) == json.dumps(second.to_json())
    # elapsed differs between runs and stays out of the payload
    assert "elapsed" not in first.to_json()


@pytest.mark.parametrize(
    "config",
    [
        ScanConfig(n_outer=40, n_inner=1, seed=4, region="good"),
        ScanConfig(n_outer=40, n_inner=1, seed=4, region="outside"),
        # each point's rows split into several tiles
        ScanConfig(n_outer=5, n_inner=50_000, seed=2, region="good"),
        ScanConfig(n_outer=5, n_inner=50_000, seed=2, region="outside", max_keep=10**6),
        ScanConfig(n_outer=30, n_inner=200, seed=5, region="outside", max_keep=0),
        ScanConfig(n_outer=30, n_inner=200, seed=5, region="outside", max_keep=7),
        # thousands of violations, every record kept
        ScanConfig(n_outer=2000, n_inner=1000, seed=0, region="outside", max_keep=10**6),
        # ragged last segment of a point: one row, and T - 5 rows
        ScanConfig(n_outer=2, n_inner=_TILE_ROWS + 1, seed=6, region="good"),
        ScanConfig(n_outer=2, n_inner=3 * _TILE_ROWS - 5, seed=6, region="outside", max_keep=10**6),
        # several points per tile and a ragged last tile
        ScanConfig(n_outer=1000, n_inner=50, seed=7, region="good"),
        # violations in every one of several tiles, each tile holding many points
        ScanConfig(n_outer=1000, n_inner=50, seed=7, region="outside", max_keep=10**6),
        # max_keep reached inside a later tile (63 violations in all)
        ScanConfig(n_outer=1000, n_inner=50, seed=7, region="outside", max_keep=40),
    ],
    ids=["inner1-good", "inner1-outside", "chunks-good", "chunks-outside",
         "keep0", "keep7", "outside-2000x1000", "segments-T+1", "segments-3T-5",
         "tiles-1000x50-good", "tiles-1000x50-outside", "tiles-1000x50-keep40"],
)
def test_scan_report_is_byte_equal_to_the_per_point_oracle(config):
    got = monotonicity_scan(config).to_json()
    want = _oracle_scan(config).to_json()
    # counts, then record by record: pytest's diff of two long documents is slow
    assert {k: v for k, v in got.items() if k != "violations"} == {
        k: v for k, v in want.items() if k != "violations"
    }
    for i, (rec, ref) in enumerate(zip(got["violations"], want["violations"])):
        assert json.dumps(rec) == json.dumps(ref), f"record {i}"
    assert json.dumps(got) == json.dumps(want)


def _adversarial_tile():
    """Candidate columns b + u (1 - b) of one tile, shaped (3, points, rows) as a scan holds them.

    The bases have components 0 and 1, lie on the faces b_q = b_q' b_q''
    or next to the box's edges, or come from both samplers; the rows of u
    take 0, 2**-53, 1/2 and 1 - 2**-53 in every combination, then uniform draws.
    """
    rng = np.random.default_rng(14)
    tiny, top = 1e-300, 1.0 - 2.0**-53
    corners = [[float(x) for x in f"{k:03b}"] for k in range(8)]
    pairs = rng.random((6, 2))
    faces = [np.roll([x * y, x, y], k) for k, (x, y) in enumerate(pairs)]
    edges = [[tiny, tiny, tiny], [tiny, 0.5, 2 * tiny], [top, top, top], [top, tiny, 0.0], [0.5, 0.25, 0.5]]
    drawn = [b for region in ("good", "outside") for b in _sample(14, 4, region)[0]]
    b = np.array(corners + faces + edges + drawn)
    special = np.array([0.0, 2.0**-53, 0.5, top])
    u = np.concatenate([np.stack(np.meshgrid(special, special, special), axis=-1).reshape(-1, 3), rng.random((500, 3))])
    assert np.all((u >= 0.0) & (u < 1.0))
    return u.T[:, None, :] * (1.0 - b).T[:, :, None] + b.T[:, :, None]


def test_region_helpers_match_the_public_masks_on_candidate_tiles():
    # a candidate lies in the box, so it is finite with a sum above -1, and
    # only the product (good region) or edge (outside) inequalities can fail
    from blochcopy.channel import _edge_conditions, tetrahedron_mask
    from blochcopy.optimizer import _product_conditions, positive_optimal_mask

    cand = _adversarial_tile()
    assert np.all((cand >= 0.0) & (cand <= 1.0))
    rows = np.moveaxis(cand, 0, -1)
    for helper, mask in ((_product_conditions, positive_optimal_mask(rows)), (_edge_conditions, tetrahedron_mask(rows, tol=0.0))):
        assert 0 < mask.sum() < mask.size
        ok = np.ones(mask.shape, dtype=bool)
        assert helper(cand, ok) is ok  # the scan's mask is updated in place
        assert np.array_equal(ok, mask)


def test_a_warm_scan_reuses_its_tile_buffers():
    # a fresh ~2.2 MB of tile buffers per call would peak well above 1 MiB
    config = ScanConfig(n_outer=1, n_inner=100_000, seed=3)
    monotonicity_scan(config)
    tracemalloc.start()
    try:
        monotonicity_scan(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


@pytest.mark.parametrize("region", ["good", "outside"])
def test_a_warm_wide_scan_draws_its_base_points_into_the_tile_buffers(region):
    # the generators and the accept masks of 100 points peak near 250 KiB; a
    # fresh block of their look-ahead draws on every round (150-200 KiB), or a
    # concatenation of per-point blocks, would peak above 380 KiB
    config = ScanConfig(n_outer=100, n_inner=64, seed=3, region=region)
    monotonicity_scan(config)
    tracemalloc.start()
    try:
        monotonicity_scan(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 320 * 2**10


def test_reused_buffers_leave_nothing_from_the_previous_scan():
    # a deep scan fills every row of the buffers, a wide one few rows per point
    deep = ScanConfig(n_outer=1, n_inner=100_000, seed=3)
    wide = ScanConfig(n_outer=1000, n_inner=50, seed=8, region="outside", max_keep=10**6)
    for config in (deep, wide, deep):
        assert json.dumps(monotonicity_scan(config).to_json()) == json.dumps(_oracle_scan(config).to_json())


def test_threads_scanning_at_once_do_not_share_buffers():
    configs = [
        ScanConfig(n_outer=1, n_inner=100_000, seed=3),
        ScanConfig(n_outer=500, n_inner=50, seed=8, region="outside", max_keep=10**6),
        ScanConfig(n_outer=3, n_inner=_TILE_ROWS + 7, seed=9, region="outside", max_keep=10**6),
        ScanConfig(n_outer=400, n_inner=64, seed=10),
    ]
    want = [json.dumps(monotonicity_scan(config).to_json()) for config in configs]
    start = threading.Barrier(2, timeout=60)
    got, buffers = [[], []], [None, None]

    def scan_all(t, order):
        buffers[t] = validation._tile_buffers()
        start.wait()
        for _ in range(2):
            for i in order:
                got[t].append((i, json.dumps(monotonicity_scan(configs[i]).to_json())))

    threads = [threading.Thread(target=scan_all, args=(t, order)) for t, order in enumerate([[0, 1, 2, 3], [3, 2, 1, 0]])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not any(np.shares_memory(a, b) for a in buffers[0] for b in buffers[1])
    for out in got:
        assert len(out) == 2 * len(configs)
        assert all(report == want[i] for i, report in out)


def test_outside_violations_span_several_tiles():
    # the tiles-1000x50-outside case above keeps records from every tile
    config = ScanConfig(n_outer=1000, n_inner=50, seed=7, region="outside", max_keep=10**6)
    children = np.random.SeedSequence(config.seed).spawn(config.n_outer)
    point = {
        tuple(_oracle_sample_outside(np.random.default_rng(child))): k
        for k, child in enumerate(children)
    }
    per_tile = _TILE_ROWS // config.n_inner
    tiles = {point[tuple(rec["b"])] // per_tile for rec in monotonicity_scan(config).violations}
    assert tiles == set(range(-(-config.n_outer // per_tile)))


def _components_per_tile(monkeypatch):
    """Wrap the scan's g component kernel.

    The returned list gets one entry per tile: the candidate count handed
    to each component in turn, so its length is the number of components
    the tile computed before no candidate was left.
    """
    component, tiles = validation._g_from_beta, []

    def counted(beta, i, *args, **kwargs):
        if i == 0:
            tiles.append([])
        tiles[-1].append(beta.shape[1])
        return component(beta, i, *args, **kwargs)

    monkeypatch.setattr(validation, "_g_from_beta", counted)
    return tiles


@pytest.mark.parametrize(
    "config, components",
    [
        # one point per tile: no candidate reaches its point's g_b1, or none g_b2
        (ScanConfig(n_outer=1, n_inner=1000, seed=0), {1}),
        (ScanConfig(n_outer=1, n_inner=1000, seed=2), {2}),
        # many points per tile, 10 tiles, each stopping after g_2
        (ScanConfig(n_outer=3000, n_inner=50, seed=0), {2}),
        # segments of one point: outside violations in several tiles, and
        # tiles that stop after each component; max_keep reached inside a tile
        (ScanConfig(n_outer=5, n_inner=50_000, seed=2, region="outside", max_keep=3), {1, 2, 3}),
        # violations in every one of four many-point tiles (cumulative counts
        # 20, 39, 60, 63 with no max_keep), so max_keep=50 is reached inside the third
        (ScanConfig(n_outer=1000, n_inner=50, seed=7, region="outside", max_keep=50), {3}),
    ],
    ids=["one-point-stop1", "one-point-stop2", "many-points-stop2", "segments-outside-keep3", "tiles-outside-keep50"],
)
def test_component_early_exit_matches_the_per_point_oracle(monkeypatch, config, components):
    tiles = _components_per_tile(monkeypatch)
    got = monotonicity_scan(config)
    assert {len(counts) for counts in tiles} == components
    assert all(counts[0] > 0 for counts in tiles)
    assert sum(counts[0] for counts in tiles) == got.checked
    want = _oracle_scan(config)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    if config.region == "outside":
        assert len(tiles) > 1 and 0 < config.max_keep < got.n_violations


@pytest.mark.parametrize("region", ["good", "outside"])
def test_candidates_without_a_strict_component_are_not_checked(monkeypatch, region):
    # every candidate of (1, 1, 1) is (1, 1, 1), which both region tests pass
    # and whose g equals g_b: only the strict test keeps them out
    points = np.array([[1.0, 1.0, 1.0], [0.5, 0.5, 0.3]])
    assert positive_optimal_condition(points[0]) and tetrahedron_check(points[0], tol=0.0)
    monkeypatch.setattr(
        validation,
        "_first_accepted",
        lambda words, region: (points[: len(words)].T, [validation._generator(row) for row in words]),
    )
    given = iter(points)
    monkeypatch.setattr(sys.modules[__name__], f"_oracle_sample_{region}", lambda rng: next(given))
    config = ScanConfig(n_outer=2, n_inner=500, seed=4, region=region, max_keep=10**6)
    got = monotonicity_scan(config)
    assert 0 < got.checked < config.n_inner
    assert json.dumps(got.to_json()) == json.dumps(_oracle_scan(config).to_json())


def test_scan_finds_nothing_in_the_good_region():
    report = monotonicity_scan(ScanConfig(n_outer=30, n_inner=300, seed=1))
    assert report.region == "good"
    assert report.checked > 0
    assert report.n_violations == 0
    assert report.violations == []


def test_scan_finds_violations_outside():
    report = monotonicity_scan(
        ScanConfig(n_outer=100, n_inner=1000, seed=1, region="outside")
    )
    assert report.n_violations >= 1
    assert len(report.violations) == min(report.n_violations, 256)
    rec = report.violations[0]
    # the record really is a counterexample
    assert np.all(np.array(rec["candidate"]) >= np.array(rec["b"]))
    assert np.any(np.array(rec["candidate"]) > np.array(rec["b"]))
    assert np.all(np.array(rec["g_candidate"]) >= np.array(rec["g_b"]))


def test_scan_honors_max_keep():
    report = monotonicity_scan(
        ScanConfig(n_outer=100, n_inner=1000, seed=1, region="outside", max_keep=5)
    )
    assert report.n_violations > 5
    assert len(report.violations) == 5


def test_scan_csv_layout():
    report = monotonicity_scan(
        ScanConfig(n_outer=50, n_inner=200, seed=2, region="outside", max_keep=4)
    )
    lines = report.to_csv().strip().split("\n")
    assert lines[0].startswith("b1,b2,b3,cand1")
    assert len(lines) == 1 + len(report.violations)
    assert all(len(line.split(",")) == 12 for line in lines[1:])


def test_empty_report_csv_is_header_only():
    report = ScanReport(
        region="good", seed=0, n_outer=1, n_inner=1, checked=0, n_violations=0
    )
    assert report.to_csv() == (
        "b1,b2,b3,cand1,cand2,cand3,gb1,gb2,gb3,gcand1,gcand2,gcand3\n"
    )


# ---------------------------------------------------------------------------
# time reversal


def test_time_reversal_is_elementwise_exact():
    rng = np.random.default_rng(83)
    e = random_physical_gram(rng)
    rev = time_reversed_gram(e)
    signs = np.array([1.0, -1.0, -1.0, -1.0])
    for j in range(4):
        for k in range(4):
            assert rev[j, k] == signs[j] * signs[k] * np.conj(e[j, k])
    assert np.array_equal(time_reversed_gram(rev), e)


def test_time_reversal_preserves_physicality():
    rng = np.random.default_rng(84)
    for _ in range(20):
        assert check_physical(time_reversed_gram(random_physical_gram(rng))).passed


def test_time_reversal_shape_guard():
    with pytest.raises(ValueError):
        time_reversed_gram(np.eye(3))


def test_symmetry_check_on_random_machines():
    rng = np.random.default_rng(85)
    for _ in range(50):
        e = random_physical_gram(rng)
        q, q_rev = symmetry_check(e, _random_mode(rng))
        assert q == pytest.approx(q_rev, abs=1e-10)
        assert 0.0 <= q <= 1.0 + 1e-9


def test_symmetry_check_negates_the_displacement():
    rng = np.random.default_rng(86)
    e = random_physical_gram(rng)
    bmap = b_from_e(e, check=False)
    assert np.any(bmap.delta != 0.0)  # generic machines are not centered
    bmap_rev = b_from_e(time_reversed_gram(e), check=False)
    assert np.array_equal(bmap_rev.delta, -bmap.delta)
    assert np.array_equal(bmap_rev.linear, bmap.linear)


def test_symmetry_check_makes_one_transfer_call_on_the_pair(monkeypatch):
    calls = {"validation": [], "channel": []}
    for module, key in ((validation, "validation"), (channel, "channel")):
        real = module.transfer_from_gram
        monkeypatch.setattr(module, "transfer_from_gram", lambda e, real=real, key=key: calls[key].append(e.shape) or real(e))
    e = random_physical_gram(np.random.default_rng(87))
    symmetry_check(e, [0.0, 0.6, 0.8])
    # a b_from_e call anywhere would show as a channel.transfer_from_gram call
    assert calls == {"validation": [(2, 4, 4)], "channel": []}


def test_symmetry_check_rejects_unphysical_input():
    with pytest.raises(NotPhysicalError):
        symmetry_check(np.diag([0.5, 0.5, 0.2, -0.2]).astype(complex), [0, 0, 1])


def test_grams_that_fail_check_physical_raise_not_physical_error():
    rng = np.random.default_rng(87)
    failed = 0
    for trial in range(400):
        e = random_physical_gram(rng)
        eps = 10.0 ** rng.uniform(-11.0, -2.0)
        kind = trial % 4
        if kind == 0:  # breaks Hermiticity
            e[0, 1 + trial % 3] += eps
        elif kind == 1:  # breaks the trace condition
            e = e * (1.0 + eps)
        elif kind == 2:  # breaks Re E_0q = Im E_q'q''
            e[0, 1] += eps
            e[1, 0] += eps
        else:  # a negative eigenvalue; both isometry conditions still hold
            e = np.diag(np.append(rng.dirichlet(np.ones(3)) * (1.0 + eps), -eps)).astype(complex)
        mode = _random_mode(rng)
        if check_physical(e).passed:
            quality_e(e, mode)
            continue
        failed += 1
        with pytest.raises(NotPhysicalError):
            quality_e(e, mode)
        with pytest.raises(NotPhysicalError):
            symmetry_check(e, mode)
    assert failed > 200


# ---------------------------------------------------------------------------
# mixing


def test_mixed_isometry_is_an_isometry():
    rng = np.random.default_rng(87)
    v1 = random_isometry(8, 2, rng)
    v2 = random_isometry(8, 2, rng)
    w = mixed_isometry(v1, v2, 0.25)
    assert w.shape == (16, 2)
    assert np.max(np.abs(w.conj().T @ w - np.eye(2))) < 1e-12


def test_mixed_gram_is_the_convex_combination():
    rng = np.random.default_rng(88)
    for p1 in (0.0, 0.3, 1.0):
        v1 = random_isometry(8, 2, rng)
        v2 = random_isometry(8, 2, rng)
        got = gram_matrix(extract_e_vectors(mixed_isometry(v1, v2, p1)))
        e1 = gram_matrix(extract_e_vectors(v1))
        e2 = gram_matrix(extract_e_vectors(v2))
        assert np.max(np.abs(got - (p1 * e1 + (1.0 - p1) * e2))) < 1e-14


def test_mixed_isometry_validation():
    rng = np.random.default_rng(89)
    v = random_isometry(8, 2, rng)
    with pytest.raises(ValueError):
        mixed_isometry(v, v, 1.5)
    with pytest.raises(ValueError):
        mixed_isometry(v[:7], v, 0.5)
    with pytest.raises(ValueError):
        mixed_isometry(v, random_isometry(8, 3, rng), 0.5)


def test_mixing_never_reduces_the_eavesdropper_quality():
    rng = np.random.default_rng(90)
    for _ in range(100):
        v1 = random_isometry(8, 2, rng)
        v2 = random_isometry(8, 2, rng)
        mixed, averaged = concavity_check(v1, v2, rng.random(), _random_mode(rng))
        assert mixed >= averaged - 1e-10


def test_stacked_pairs_give_the_bits_of_one_check_per_pair():
    rng = np.random.default_rng(92)
    v = np.array([random_isometry(8, 2, rng) for _ in range(600)]).reshape(2, 300, 8, 2)
    mode = _random_mode(rng)
    w = mixed_isometry(v[0], v[1], 0.3)
    assert w.tobytes() == np.array([mixed_isometry(a, b, 0.3) for a, b in zip(*v)]).tobytes()
    single = [concavity_check(a, b, 0.3, mode) for a, b in zip(*v)]
    assert all(type(x) is float for pair in single for x in pair)
    mixed, averaged = concavity_check(v[0], v[1], 0.3, mode)
    assert np.stack([mixed, averaged], axis=1).tobytes() == np.array(single).tobytes()


def test_stacked_machines_need_equal_leading_shapes():
    rng = np.random.default_rng(93)
    v = np.array([random_isometry(8, 2, rng) for _ in range(3)])
    with pytest.raises(ValueError, match=r"v1 and v2 must have equal leading shapes, got \(3,\) and \(2,\)"):
        mixed_isometry(v, v[:2], 0.5)
    with pytest.raises(ValueError, match="equal leading shapes"):
        concavity_check(v[0], v, 0.5, [0, 0, 1])


def test_symmetry_check_returns_floats():
    e = random_physical_gram(np.random.default_rng(94))
    assert all(type(q) is float for q in symmetry_check(e, [0, 0, 1]))


def test_mixing_a_machine_with_itself_changes_nothing():
    rng = np.random.default_rng(91)
    v = random_isometry(8, 2, rng)
    mixed, averaged = concavity_check(v, v, 0.37, _random_mode(rng))
    assert mixed == pytest.approx(averaged, abs=1e-12)
