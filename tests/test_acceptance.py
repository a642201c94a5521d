"""Acceptance gate: the twelve headline checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every check uses a fixed seed so reruns are bit-for-bit identical.
"""

import time

import numpy as np

from blochcopy.channel import (
    E_HAT,
    b_from_e,
    check_physical,
    extract_e_vectors,
    gram_matrix,
    isometry_from_beta,
)
from blochcopy.circuit import CIRCUIT_A, CIRCUIT_B, circuit_a, circuit_b, circuit_unitary
from blochcopy.linalg import dagger, random_isometry
from blochcopy.optimizer import (
    b_from_beta,
    beta_from_b,
    class_p_check,
    class_p_mask,
    g_map,
    gamma_from_beta,
    isotropic_tradeoff,
    jacobians,
    same_order,
)
from blochcopy.pauli import lambda_matrix, l_table
from blochcopy.quality import quality_c_from_circuit, quality_e, trace_norm
from blochcopy.validation import (
    ScanConfig,
    concavity_check,
    monotonicity_scan,
    random_physical_gram,
    symmetry_check,
)
from oracles import partial_trace, random_unitary


def _report(num: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] check {num:02d}: {label}")
    assert ok, f"check {num:02d} failed: {label}"


def _sample_beta(rng) -> np.ndarray:
    return np.sqrt(rng.dirichlet(np.ones(4)))


def _sample_class_p_beta(rng) -> np.ndarray:
    while True:
        beta = _sample_beta(rng)
        if class_p_check(beta):
            return beta


def _sample_mode(rng) -> np.ndarray:
    m = rng.standard_normal(3)
    return m / np.linalg.norm(m)


def test_check_01_isotropic_fixed_point():
    b = np.full(3, 2.0 / 3.0)
    ok = bool(np.max(np.abs(g_map(b) - b)) < 1e-12)
    _report(1, "the uniform 2/3 shrink trades off against itself", ok)


def test_check_02_isotropic_curve_and_involution():
    ok = True
    for i in range(101):
        r = i / 100.0
        c = g_map([r, r, r])
        s = isotropic_tradeoff(r)
        ok &= bool(np.max(np.abs(c - c[0])) < 1e-12)  # image stays isotropic
        ok &= bool(np.max(np.abs(c - s)) < 1e-12)
        ok &= abs(isotropic_tradeoff(s) - r) < 1e-10
    _report(2, "uniform trade-off matches the closed form and inverts itself", ok)


def test_check_03_trade_off_endpoints():
    ok = bool(np.max(np.abs(g_map([1.0, 1.0, 1.0]) - 0.0)) < 1e-12)
    ok &= bool(np.max(np.abs(g_map([0.0, 0.0, 1.0]) - [0.0, 0.0, 1.0])) < 1e-12)
    _report(3, "perfect first copy leaves nothing, full transfer swaps copies", ok)


def test_check_04_tomography_matches_eigensolve():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        beta = _sample_class_p_beta(rng)
        e_gram = np.diag(beta**2).astype(complex)
        for _ in range(20):
            m = _sample_mode(rng)
            q_c = quality_c_from_circuit(beta, m)
            q_e = quality_e(e_gram, m)
            worst = max(worst, abs(q_c - q_e))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _report(4, f"second-copy tomography equals the eavesdropper eigensolve (worst {worst:.2e}, {elapsed:.1f}s)", ok)


def test_check_05_circuit_variants_and_isometry():
    u_a = circuit_unitary(CIRCUIT_A)
    u_b = circuit_unitary(CIRCUIT_B)
    ok = bool(np.max(np.abs(u_a - u_b)) < 1e-12)
    eye = np.eye(8)
    ok &= bool(np.max(np.abs(dagger(u_a) @ u_a - eye)) < 1e-12)
    ok &= bool(np.max(np.abs(dagger(u_b) @ u_b - eye)) < 1e-12)

    rng = np.random.default_rng(105)
    basis = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    worst = 0.0
    for _ in range(100):
        beta = _sample_beta(rng)
        v = isometry_from_beta(beta)
        for run in (circuit_a, circuit_b):
            got = np.column_stack([run(psi, beta) for psi in basis])
            worst = max(worst, float(np.max(np.abs(got - v))))
    ok &= worst < 1e-10
    _report(5, f"both gate orderings realize the explicit machine (worst {worst:.2e})", ok)


def test_check_06_mixing_concavity():
    rng = np.random.default_rng(106)
    violations = 0
    for _ in range(1000):
        v1 = random_isometry(8, 2, rng)
        v2 = random_isometry(8, 2, rng)
        mixed, averaged = concavity_check(v1, v2, rng.random(), _sample_mode(rng))
        if mixed < averaged - 1e-10:
            violations += 1
    equal_break = 0
    for _ in range(100):
        v = random_isometry(8, 2, rng)
        mixed, averaged = concavity_check(v, v, rng.random(), _sample_mode(rng))
        if abs(mixed - averaged) > 1e-10:
            equal_break += 1
    ok = violations == 0 and equal_break == 0
    _report(6, f"mixing machines never hurts the eavesdropper ({violations} violations)", ok)


def test_check_07_time_reversal_symmetry():
    rng = np.random.default_rng(107)
    checked = 0
    failures = 0
    worst = 0.0
    while checked < 200:
        e = random_physical_gram(rng)
        if np.all(b_from_e(e, check=False).delta == 0.0):
            continue  # want genuinely displaced machines
        checked += 1
        try:
            q, q_rev = symmetry_check(e, _sample_mode(rng))  # raises on a broken sign rule
        except ValueError:
            failures += 1
            continue
        worst = max(worst, abs(q - q_rev))
    ok = failures == 0 and worst < 1e-10
    _report(7, f"time reversal flips the displacement and keeps the quality (worst {worst:.2e})", ok)


def test_check_08_monotonicity_scan():
    good = monotonicity_scan(ScanConfig(n_outer=100, n_inner=1000, seed=1, region="good"))
    outside = monotonicity_scan(ScanConfig(n_outer=100, n_inner=1000, seed=1, region="outside"))
    ok = good.n_violations == 0 and outside.n_violations >= 1
    _report(
        8,
        "no joint improvement inside the optimal region, "
        f"{outside.n_violations} counterexamples outside",
        ok,
    )


def test_check_09_jacobian_finite_differences():
    rng = np.random.default_rng(109)
    step = 1e-6
    worst_fd = 0.0
    worst_inv = 0.0
    checked = 0
    while checked < 100:
        beta = _sample_beta(rng)
        if np.prod(beta) <= 0.01:
            continue
        checked += 1
        b = b_from_beta(beta)
        pair = jacobians(beta)
        analytic = pair.j / (16.0 * pair.beta4)
        fd = np.empty((3, 3))
        for col in range(3):
            db = np.zeros(3)
            db[col] = step
            fd[:, col] = (g_map(b + db) - g_map(b - db)) / (2.0 * step)
        scale = max(1.0, float(np.max(np.abs(analytic))))
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - analytic))) / scale)
        inverse = pair.k / (16.0 * pair.gamma4)
        worst_inv = max(worst_inv, float(np.max(np.abs(analytic @ inverse - np.eye(3)))))
    ok = worst_fd < 1e-4 and worst_inv < 1e-8
    _report(9, f"trade-off Jacobian (fd {worst_fd:.2e}, inverse {worst_inv:.2e})", ok)


def test_check_10_trace_norm_inequalities():
    rng = np.random.default_rng(110)
    violations = 0

    # the norm of a difference of positive operators vs the traces
    for _ in range(1000):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        pos1 = a @ dagger(a)
        pos2 = c @ dagger(c)
        if trace_norm(pos1 - pos2) > float(np.trace(pos1).real + np.trace(pos2).real) + 1e-10:
            violations += 1

    # pinching by any projector partition cannot raise the norm
    for _ in range(1000):
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = 0.5 * (h + dagger(h))
        u = random_unitary(6, rng)
        cuts = sorted(rng.choice(np.arange(1, 6), size=rng.integers(0, 5), replace=False))
        pinched = 0.0
        for lo, hi in zip([0, *cuts], [*cuts, 6]):
            block = u[:, lo:hi]
            pinched += trace_norm(dagger(block) @ h @ block) if hi > lo else 0.0
        if pinched > trace_norm(h) + 1e-10:
            violations += 1

    # discarding a subsystem cannot raise the norm
    for _ in range(1000):
        h = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        h = 0.5 * (h + dagger(h))
        reduced = partial_trace(h, (3, 4), 0)
        if trace_norm(reduced) > trace_norm(h) + 1e-10:
            violations += 1

    _report(10, f"trace-norm contraction inequalities ({violations} violations)", violations == 0)


def test_check_11_class_closure_and_weight_signs():
    rng = np.random.default_rng(111)
    start = time.perf_counter()
    lam = lambda_matrix()

    # closure of the axis-ordering class under the three basic operations
    n = 10**4
    xi = np.empty((0, 4))
    while len(xi) < n:
        draws = rng.random((4 * n, 4))
        xi = np.concatenate([xi, draws[class_p_mask(draws)]])
    xi = xi[:n]
    k = 0.1 + 4.0 * rng.random((n, 1))
    a = 0.1 + 4.0 * rng.random((n, 1))
    images = np.stack([k * xi, xi**a, xi @ lam.T])
    bad = int(np.sum(~(class_p_mask(images, tol=1e-12) & same_order(xi, images))))

    # sign pattern of the difference weights for nonnegative partner pairs
    kept = 0
    too_many = 0
    while kept < 10**5:
        beta = np.abs(rng.standard_normal((20000, 4)))
        beta /= np.linalg.norm(beta, axis=1, keepdims=True)
        gamma = 0.5 * beta @ lam
        rows = beta[np.all(gamma >= 0.0, axis=1)]
        if not len(rows):
            continue
        rows = rows[: 10**5 - kept]
        kept += len(rows)
        h = 2.0 * np.stack(
            [
                rows[:, 0] * rows[:, 1] - rows[:, 2] * rows[:, 3],
                rows[:, 0] * rows[:, 2] - rows[:, 3] * rows[:, 1],
                rows[:, 0] * rows[:, 3] - rows[:, 1] * rows[:, 2],
            ],
            axis=1,
        )
        too_many += int(np.sum(np.sum(h < 0.0, axis=1) > 1))
    elapsed = time.perf_counter() - start
    ok = bad == 0 and too_many == 0 and elapsed < 10.0
    _report(11, f"class closure and at-most-one negative weight ({elapsed:.1f}s)", ok)


def test_check_12_pair_product_table():
    eps = {
        (1, 2, 3): 1.0, (2, 3, 1): 1.0, (3, 1, 2): 1.0,
        (1, 3, 2): -1.0, (3, 2, 1): -1.0, (2, 1, 3): -1.0,
    }

    def mul(a, b):
        # single-label product: sigma_a sigma_b = phase * sigma_idx
        if a == 0:
            return 1.0 + 0.0j, b
        if b == 0:
            return 1.0 + 0.0j, a
        if a == b:
            return 1.0 + 0.0j, 0
        c = ({1, 2, 3} - {a, b}).pop()
        return 1j * eps[(a, b, c)], c

    table = l_table()
    ok = table.shape == (4, 4, 4, 4)
    for j in range(4):
        for k in range(4):
            for l in range(4):
                for m in range(4):
                    p1, i1 = mul(j, l)
                    p2, i2 = mul(i1, k)
                    p3, i3 = mul(i2, m)
                    # half-trace of the four-factor product: unimodular or zero
                    expected = p1 * p2 * p3 if i3 == 0 else 0.0
                    ok &= table[j, k, l, m] == expected

    contraction = np.einsum("jklm,lmrs->jkrs", table, table)
    expected = 4.0 * np.einsum("jr,ks->jkrs", np.eye(4), np.eye(4))
    ok &= bool(np.array_equal(contraction, expected))
    _report(12, "pair-product table entries and half-table self-inverse", bool(ok))
