"""Monotonicity scans, time reversal, and mixing concavity."""

import json

import numpy as np
import pytest

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
    _TILE_ROWS,
    concavity_check,
    mixed_isometry,
    monotonicity_scan,
    random_physical_gram,
    sample_good_region,
    sample_outside_region,
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


def test_good_region_sampler():
    rng = np.random.default_rng(80)
    for _ in range(200):
        b = sample_good_region(rng)
        assert positive_optimal_condition(b)
        assert np.all(b >= 0.0) and np.all(b <= 1.0)
        assert tetrahedron_check(b)


def test_outside_region_sampler():
    rng = np.random.default_rng(81)
    for _ in range(200):
        b = sample_outside_region(rng)
        assert tetrahedron_check(b)
        assert not positive_optimal_condition(b)


@pytest.mark.parametrize(
    "sampler, oracle",
    [(sample_good_region, _oracle_sample_good), (sample_outside_region, _oracle_sample_outside)],
)
def test_samplers_match_the_one_draw_oracle(sampler, oracle):
    # equal points, and the generator is left where one-at-a-time draws leave it
    for seed in range(300):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert np.array_equal(sampler(rng), oracle(ref))
        assert rng.random() == ref.random()


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
