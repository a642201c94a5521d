"""One benchmark workload, run in a fresh process by ``run.py``.

    python benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process imports ``blochcopy`` from ``src`` (``run.py`` puts it on
PYTHONPATH and pins BLAS to one thread), builds the workload's inputs from
the seed, warms every function the workload calls, times operations for the
given number of seconds, checks every output and prints one JSON object as
its last line.  With ``--setup-only`` it stops after the warm-up.  During
the timed run the worker starts itself with ``--setup-only`` at
SETUP_SAMPLES evenly spaced moments and reports those wall times as set-up
samples; op timings exclude them.

Workloads (the "why" of each is in README.md next to this file):

* scan_deep  - good-region monotonicity scans of 1 outer point x 100 000
  candidates, the per-point shape of ``scan --full``;
* scan_wide  - pairs of scans of 100 outer points x 64 candidates, one in the
  good region and one outside it;
* machines   - rounds of one concavity check, one time-reversal check and one
  tomography-vs-eigensolve comparison on pre-generated random machines;
* cli        - one client in a closed loop running a fixed mix of
  ``python -m blochcopy.cli`` calls.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

import numpy as np

import blochcopy
from blochcopy import channel, cli, linalg, optimizer, quality, validation

from tracer import Tracer

ROOT = os.getcwd()
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# every timed run has at least this many ops, so ten or more lie beyond p90
MIN_OPS = 110
# fresh set-ups timed per run, spread evenly over the timed run
SETUP_SAMPLES = 20
# in the traced run, top-level spans must cover at least this share of the op time
MIN_SPAN_COVER = 0.9
# scans are recomputed with the reference implementation on every SPOT_EVERY-th op
SPOT_EVERY = 10
# acceptance tolerances of checks 04, 06 and 07
MACHINE_TOL = 1e-10
# CLI stdout must agree with the in-process call within this
CLI_TOL = 1e-12

LAM = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float
)


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# independent reference for the monotonicity scan


def ref_g(rows: np.ndarray) -> np.ndarray:
    """Closed form c_q = 2 (beta_0 beta_q + beta_q' beta_q'') with beta = sqrt(Lambda (1, b) / 4)."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 3)
    lifted = np.column_stack([np.ones(len(rows)), rows])
    beta = np.sqrt(np.maximum(0.25 * lifted @ LAM, 0.0))
    return 2.0 * (beta[:, :1] * beta[:, 1:] + beta[:, [2, 3, 1]] * beta[:, [3, 1, 2]])


def _in_good_region(b: np.ndarray) -> bool:
    return bool(
        np.all(b >= 0.0) and np.all(b <= 1.0)
        and b[0] >= b[1] * b[2] and b[1] >= b[2] * b[0] and b[2] >= b[0] * b[1]
    )


def _attainable(b: np.ndarray, tol: float = 1e-12) -> bool:
    if b.sum() < -1.0 - tol:
        return False
    return all(b[q] + b[qp] <= 1.0 + b[qpp] + tol for q, qp, qpp in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))


def _ref_sample(rng: np.random.Generator, region: str) -> np.ndarray:
    if region == "good":
        while True:
            b = LAM[1:] @ rng.dirichlet(np.ones(4))
            if _in_good_region(b):
                return b
    while True:
        b = rng.random(3)
        if _attainable(b) and not _in_good_region(b):
            return b


def reference_scan(cfg) -> dict:
    """Recompute a scan from its documented contract: one SeedSequence child per outer point."""
    checked = 0
    n_violations = 0
    kept = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_outer):
        rng = np.random.default_rng(child)
        b = _ref_sample(rng, cfg.region)
        g_b = ref_g(b)[0]
        cand = b + rng.random((cfg.n_inner, 3)) * (1.0 - b)
        c1, c2, c3 = cand[:, 0], cand[:, 1], cand[:, 2]
        if cfg.region == "good":
            region = (c1 >= c2 * c3) & (c2 >= c3 * c1) & (c3 >= c1 * c2)
        else:
            region = (c1 + c2 <= 1.0 + c3) & (c2 + c3 <= 1.0 + c1) & (c3 + c1 <= 1.0 + c2)
        cand = cand[np.any(cand > b, axis=1) & region]
        checked += len(cand)
        g_cand = ref_g(cand)
        bad = np.flatnonzero(np.all(g_cand >= g_b, axis=1))
        n_violations += len(bad)
        for i in bad[: max(0, cfg.max_keep - len(kept))]:
            kept.append((b, cand[i], g_b, g_cand[i]))
    return {"checked": checked, "n_violations": n_violations, "kept": kept}


def check_scan_report(cfg, report) -> None:
    """Cheap checks on every scan report."""
    require(report.checked <= cfg.n_outer * cfg.n_inner, "scan checked more candidates than drawn")
    require(report.checked > 0, "scan checked no candidates")
    require(len(report.violations) == min(report.n_violations, cfg.max_keep), "scan kept a wrong number of records")
    if cfg.region == "good":
        require(report.n_violations == 0, f"{report.n_violations} violations in the good region")
    for rec in report.violations:
        b, cand = np.array(rec["b"]), np.array(rec["candidate"])
        g_b, g_cand = np.array(rec["g_b"]), np.array(rec["g_candidate"])
        require(bool(np.all(cand >= b) and np.any(cand > b)), "violation record does not dominate")
        require(bool(np.all(g_cand >= g_b)), "violation record is not a violation")
        require(np.allclose(g_b, ref_g(b)[0], rtol=0, atol=1e-12), "g(b) disagrees with the closed form")
        require(np.allclose(g_cand, ref_g(cand)[0], rtol=0, atol=1e-12), "g(candidate) disagrees with the closed form")


def spot_check_scan(cfg, report) -> None:
    """Full comparison with the reference scan: counts exact, floats within 1e-12."""
    ref = reference_scan(cfg)
    require(report.checked == ref["checked"], f"checked {report.checked} != reference {ref['checked']}")
    require(report.n_violations == ref["n_violations"], f"n_violations {report.n_violations} != reference {ref['n_violations']}")
    for rec, (b, cand, g_b, g_cand) in zip(report.violations, ref["kept"]):
        got = np.concatenate([rec["b"], rec["candidate"], rec["g_b"], rec["g_candidate"]])
        want = np.concatenate([b, cand, g_b, g_cand])
        require(np.allclose(got, want, rtol=0, atol=1e-12), "violation record differs from the reference")


# ---------------------------------------------------------------------------
# workloads
#
# op(i) returns (parts, items, result): seconds spent in each timed part,
# work items done in each part, and whatever check(i, result) needs.  Only
# library calls sit inside the timed parts.


class Workload:
    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, warm_only: bool) -> None:
        """Build the inputs from the seed; warm_only builds just enough to warm up."""

    def warm(self) -> None:
        """Call every function the workload uses once."""
        self.check(0, self.op(0)[2])

    def spot_check(self, i, result) -> None:
        """Heavier check, run on every SPOT_EVERY-th op after the timed loop."""

    def counts(self, result) -> dict:
        """Counters summed over ops, for the traced run's ratios."""
        return {}


class Scans(Workload):
    """An op's result is a tuple of (ScanConfig, ScanReport) pairs."""

    def check(self, i, result) -> None:
        for cfg, report in result:
            check_scan_report(cfg, report)

    def spot_check(self, i, result) -> None:
        for cfg, report in result:
            spot_check_scan(cfg, report)

    def counts(self, result) -> dict:
        return {
            "checked": sum(report.checked for _, report in result),
            "candidates": sum(cfg.n_outer * cfg.n_inner for cfg, _ in result),
        }


class ScanDeep(Scans):
    def op(self, i: int):
        cfg = validation.ScanConfig(n_outer=1, n_inner=100_000, seed=self.seed * 1_000_000 + i, region="good")
        t0 = time.perf_counter()
        report = validation.monotonicity_scan(cfg)
        t1 = time.perf_counter()
        return {"cands": t1 - t0}, {"cands": report.checked}, ((cfg, report),)


class ScanWide(Scans):
    n_outer = 100

    def op(self, i: int):
        good, outside = (
            validation.ScanConfig(n_outer=self.n_outer, n_inner=64, seed=self.seed * 1_000_000 + 2 * i + k, region=region)
            for k, region in enumerate(("good", "outside"))
        )
        t0 = time.perf_counter()
        rep_good = validation.monotonicity_scan(good)
        t1 = time.perf_counter()
        rep_out = validation.monotonicity_scan(outside)
        t2 = time.perf_counter()
        parts = {"good_points": t1 - t0, "outside_points": t2 - t1}
        items = {"good_points": self.n_outer, "outside_points": self.n_outer}
        return parts, items, ((good, rep_good), (outside, rep_out))


def _unit(rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal(3)
    return m / np.linalg.norm(m)


class Machines(Workload):
    """Inputs come from the seed before any timing and are cycled through."""

    pool = 500

    def prepare(self, warm_only: bool) -> None:
        rng = np.random.default_rng([self.seed, 3])
        n = 1 if warm_only else self.pool
        self.concavity = [
            (linalg.random_isometry(8, 2, rng), linalg.random_isometry(8, 2, rng), float(rng.random()), _unit(rng))
            for _ in range(n)
        ]
        self.symmetry = []
        while len(self.symmetry) < n:
            e = validation.random_physical_gram(rng)
            if np.any(channel.b_from_e(e, check=False).delta != 0.0):  # displaced machines only
                self.symmetry.append((e, _unit(rng)))
        self.tomography = []
        while len(self.tomography) < n:
            beta = np.sqrt(rng.dirichlet(np.ones(4)))
            if optimizer.class_p_check(beta):
                self.tomography.append((beta, np.diag(beta**2).astype(complex), _unit(rng)))

    def op(self, i: int):
        j = i % len(self.concavity)
        v1, v2, p1, m1 = self.concavity[j]
        e, m2 = self.symmetry[j]
        beta, e_diag, m3 = self.tomography[j]
        t0 = time.perf_counter()
        mixed, averaged = validation.concavity_check(v1, v2, p1, m1)
        t1 = time.perf_counter()
        q, q_rev = validation.symmetry_check(e, m2)
        t2 = time.perf_counter()
        q_c = quality.quality_c_from_circuit(beta, m3)
        q_e = quality.quality_e(e_diag, m3)
        t3 = time.perf_counter()
        parts = {"concavity": t1 - t0, "symmetry": t2 - t1, "tomography": t3 - t2}
        return parts, {"concavity": 1, "symmetry": 1, "tomography": 1}, (mixed, averaged, q, q_rev, q_c, q_e)

    def check(self, i, result) -> None:
        mixed, averaged, q, q_rev, q_c, q_e = result
        require(mixed - averaged >= -MACHINE_TOL, f"concavity margin {mixed - averaged!r}")
        require(abs(q - q_rev) <= MACHINE_TOL, f"time reversal changed the quality by {abs(q - q_rev)!r}")
        require(abs(q_c - q_e) <= MACHINE_TOL, f"tomography differs from the eigensolve by {abs(q_c - q_e)!r}")


def _args(values) -> list[str]:
    return [repr(float(x)) for x in values]


def _csv(values) -> str:
    return ",".join(_args(values))


def parse_output(text: str):
    """JSON if the output is JSON, else CSV rows with numbers parsed."""
    text = text.strip()
    if text[:1] in "{[":
        return json.loads(text)

    def cell(x):
        try:
            return float(x)
        except ValueError:
            return x

    return [[cell(x) for x in line.split(",")] for line in text.splitlines()]


def agree(got, want, tol: float = CLI_TOL) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(agree(got[k], want[k], tol) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(agree(g, w, tol) for g, w in zip(got, want))
    if isinstance(want, (bool, str)) or want is None:
        return got == want
    return isinstance(got, (int, float)) and abs(got - want) <= tol * max(1.0, abs(want))


def run_main_inprocess(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code
    return code, out.getvalue() if code == 0 else err.getvalue()


class Cli(Workload):
    """A fixed mix of two calls per subcommand, cycled in order.

    prepare() runs every call in-process once to get the reference outputs,
    which also warms every function the workload uses.
    """

    inprocess = False
    child_rss_kb = 0

    def prepare(self, warm_only: bool) -> None:
        rng = np.random.default_rng([self.seed, 5])
        os.makedirs(OUT_DIR, exist_ok=True)
        argvs = []
        for k in range(2):
            b = _ref_sample(rng, "good")
            beta = np.sqrt(rng.dirichlet(np.ones(4)))
            path = os.path.join(OUT_DIR, f"cli-gram-{self.seed}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"e_gram": channel.complex_matrix_to_json(validation.random_physical_gram(rng))}, fh)
            # the Jacobian check needs every beta_l clearly nonzero
            while True:
                b_jac = _ref_sample(rng, "good")
                if np.min(0.25 * LAM @ np.concatenate(([1.0], b_jac))) > 0.01:
                    break
            argvs += [
                ["gmap", *_args(b)],
                ["quality", "--beta", _csv(beta), "--mode=" + _csv(_unit(rng))],
                ["classify", *_args(b), *_args(ref_g(b)[0])],
                ["fig1", "--count", str(int(rng.integers(51, 202)))] + (["--format", "json"] if k else []),
                ["circuit", "--beta", _csv(beta), "--input=" + ("+x", "-y")[k], "--variant", "ab"[k]],
                ["tomography", "--beta", _csv(beta), "--channel", ("B", "C")[k]],
                ["jacobian-check", *_args(b_jac)],
                ["check-e", path],
                ["concavity", "--trials", "10", "--seed", str(int(rng.integers(2**31)))],
                ["scan", "--n-outer", "20", "--n-inner", "500", "--seed", str(int(rng.integers(2**31))),
                 "--region", ("good", "outside")[k]],
            ]
        self.argvs = argvs
        self.expected = []
        for argv in argvs:
            code, text = run_main_inprocess(argv)
            require(code == 0, f"in-process {argv} exited {code}: {text}")
            self.expected.append(parse_output(text))
        # library cross-checks of the reference outputs
        for argv, want in zip(argvs, self.expected):
            if argv[0] == "gmap":
                require(agree(want["c"], list(ref_g(np.array(want["b"]))[0])), "gmap disagrees with the closed form")
            if argv[0] == "scan":
                cfg = validation.ScanConfig(n_outer=20, n_inner=500, seed=int(argv[6]), region=argv[8])
                spot_check_scan(cfg, validation.ScanReport(**want))

    def op(self, i: int):
        argv = self.argvs[i % len(self.argvs)]
        if self.inprocess:
            t0 = time.perf_counter()
            code, text = run_main_inprocess(argv)
            t1 = time.perf_counter()
        else:
            t0 = time.perf_counter()
            # the CLI inherits PYTHONPATH and the one-thread BLAS setting from run.py;
            # wait4 reaps it and gives its own peak RSS
            proc = subprocess.Popen(
                [sys.executable, "-m", "blochcopy.cli", *argv],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )
            text = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return {argv[0]: t1 - t0}, {argv[0]: 1}, (i, code, text)

    def check(self, i, result) -> None:
        i, code, text = result
        name = self.argvs[i % len(self.argvs)][0]
        require(code == 0, f"{name} exited {code}")
        require(agree(parse_output(text), self.expected[i % len(self.argvs)]), f"{name} stdout disagrees with the in-process call")

    def warm(self) -> None:
        pass

    def counts(self, result) -> dict:
        i, _, text = result
        argv = self.argvs[i % len(self.argvs)]
        if argv[0] != "scan":
            return {}
        return {"checked": json.loads(text)["checked"], "candidates": int(argv[2]) * int(argv[4])}


WORKLOADS = {"scan_deep": ScanDeep, "scan_wide": ScanWide, "machines": Machines, "cli": Cli}


# ---------------------------------------------------------------------------
# measurement


class Samples:
    """Per-op times in flat float arrays, so that keeping them barely moves peak RSS, and work item totals."""

    def __init__(self):
        self.latency = array("d")
        self.items = 0
        self.part_time: dict[str, array] = {}
        self.part_items: dict[str, int] = {}

    def add(self, parts: dict, items: dict) -> None:
        self.latency.append(sum(parts.values()))
        self.items += sum(items.values())
        for key, seconds in parts.items():
            self.part_time.setdefault(key, array("d")).append(seconds)
            self.part_items[key] = self.part_items.get(key, 0) + items[key]

    def __len__(self) -> int:
        return len(self.latency)


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh ``--setup-only`` worker, from process start to exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return elapsed


def run_ops(wl, seconds: float, min_ops: int, n_ops: int | None = None, spot: bool = False,
            setups: tuple[str, int] | None = None) -> dict:
    """Run ops 0, 1, ... for the given time (at least min_ops), or exactly n_ops.

    With setups = (workload, seed), SETUP_SAMPLES fresh set-ups are timed
    between ops at evenly spaced moments of the run.  Peak RSS is read when
    the ops end, before the spot checks run the reference implementation.
    """
    samples, errors, spots, setup_s = Samples(), [], [], []
    counts: dict[str, int] = {}
    failed = 0
    start = time.perf_counter()
    end = start + seconds
    setup_due = [start + (k + 0.5) * seconds / SETUP_SAMPLES for k in range(SETUP_SAMPLES)] if setups else []
    i = 0
    while (i < n_ops) if n_ops is not None else (i < min_ops or time.perf_counter() < end):
        if setup_due and time.perf_counter() >= setup_due[0]:
            setup_due.pop(0)
            setup_s.append(time_setup(*setups))
        try:
            parts, items, result = wl.op(i)
            wl.check(i, result)
            samples.add(parts, items)
            for key, value in wl.counts(result).items():
                counts[key] = counts.get(key, 0) + value
            if spot and i % SPOT_EVERY == 0:
                spots.append((i, result))
        except Exception as exc:  # a failed op is counted, and the run goes on
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        i += 1
    wall = time.perf_counter() - start
    rss_mb = peak_rss_mb(wl)
    for _ in setup_due:  # ops ran past the last due moments
        setup_s.append(time_setup(*setups))
    for j, result in spots:
        try:
            wl.spot_check(j, result)
        except Exception as exc:
            failed += 1
            if len(errors) < 5:
                errors.append(f"spot check of op {j}: {type(exc).__name__}: {exc}")
    return {"samples": samples, "attempted": i, "failed": failed, "errors": errors, "wall": wall,
            "spot_checks": len(spots), "counts": counts, "setup_s": setup_s, "peak_rss_mb": rss_mb}


def quantile(values, q: int) -> float:
    """The q-th percentile, q in 1..99, as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(samples: Samples) -> dict:
    """Per-op statistics of a run.

    Throughput is work items done divided by the summed time of the ops
    (or of one timed part of them), so set-up samples, checks and the
    harness's own bookkeeping between ops are not counted.
    """
    out = {
        "ops": len(samples),
        "throughput_per_s": samples.items / math.fsum(samples.latency),
        "latency_p50_ms": 1e3 * statistics.median(samples.latency),
        "latency_p90_ms": 1e3 * quantile(samples.latency, 90),
    }
    for key, times in sorted(samples.part_time.items()):
        out[f"{key}_per_s"] = samples.part_items[key] / math.fsum(times)
        out[f"{key}_p50_ms"] = 1e3 * statistics.median(times)
        out[f"{key}_n"] = len(times)
    return out


def calibrate() -> float:
    """A fixed Python plus numpy loop; its time is a host-speed diagnostic only."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(1_000_000):
        acc += k * k % 7
    a = np.arange(40_000, dtype=float).reshape(200, 200) / 40_000
    for _ in range(100):
        a = np.tanh(a @ a.T / 200.0)
    return time.perf_counter() - t0


def blas_info() -> dict:
    info: dict = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                info["threads"] = int(getattr(lib, sym)())
                info["library"] = os.path.basename(path)
                return info
    return info


def peak_rss_mb(wl) -> float:
    """Peak RSS of this process, or of its largest CLI call for the cli workload."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, getattr(wl, "child_rss_kb", 0)) / 1024.0


# per-layer functions reported by the traced run, as <module>.<function>
TRACED = [
    "optimizer.g_map_many", "optimizer.g_map", "optimizer.positive_optimal_condition",
    "validation.monotonicity_scan", "validation.sample_good_region", "validation.sample_outside_region",
    "validation.concavity_check", "validation.symmetry_check", "validation.mixed_isometry",
    "channel.check_physical", "channel.realize_e_vectors", "channel.b_from_e", "channel.transfer_from_gram",
    "channel.extract_e_vectors", "channel.gram_matrix", "channel.tetrahedron_check",
    "quality.quality_e", "quality.quality_e_from_vectors", "quality.trace_norm", "quality.omega_e",
    "quality.quality_c_from_circuit",
    "circuit.channel_tomography", "circuit.circuit_a", "circuit.apply_gate", "circuit.reduced_state",
    "linalg.partial_trace", "linalg.random_isometry", "linalg.hermiticity_error",
    "cli.main",
]
TRACED_OPS = {"scan_deep": 150, "scan_wide": 60, "machines": 2000, "cli": 400}
CLI_COMMANDS = ["gmap", "quality", "classify", "fig1", "circuit", "tomography", "jacobian-check", "check-e",
                "concavity", "scan"]


def layer_metrics(tracer: Tracer, counts: dict) -> dict:
    totals = tracer.totals()
    out = {}
    for name in TRACED:
        entry = totals.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
    out["optimizer.g_map_many.rows"] = tracer.counted
    for sampler, test in (("sample_good_region", "optimizer.positive_optimal_condition"),
                          ("sample_outside_region", "channel.tetrahedron_check")):
        name = f"validation.{sampler}"
        draws = tracer.child_calls(name, test)
        out[f"{name}.draws"] = draws
        out[f"{name}.accept_ratio"] = totals.get(name, {"calls": 0})["calls"] / draws if draws else 0.0
    kept, drawn = counts.get("checked", 0), counts.get("candidates", 0)
    out["validation.monotonicity_scan.candidates"] = drawn
    out["validation.monotonicity_scan.keep_ratio"] = kept / drawn if drawn else 0.0
    return out


def _g_map_many_rows(args, kwargs) -> int:
    rows = args[0] if args else kwargs["b_rows"]
    return int(np.asarray(rows).size // 3)


def set_up(wl, warm_only: bool) -> list[str]:
    """Build the inputs and warm up; a failed check here is reported like a failed op."""
    try:
        wl.prepare(warm_only)
        wl.warm()
    except CheckFailed as exc:
        return [f"set-up: {exc}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        set_up(wl, warm_only=True)
        return 0

    calibration_s = calibrate()
    setup_errors = set_up(wl, warm_only=False)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_s": calibration_s,
        "numpy": np.__version__,
        "blochcopy": blochcopy.__version__,
        "blas": blas_info(),
    }

    if not args.trace:
        run = run_ops(wl, args.seconds, MIN_OPS, spot=True, setups=(args.workload, args.seed))
        record.update(attempted=run["attempted"] + len(setup_errors), failed=run["failed"] + len(setup_errors),
                      errors=(setup_errors + run["errors"])[:5], spot_checks=run["spot_checks"],
                      wall_s=run["wall"], peak_rss_mb=run["peak_rss_mb"], setup_samples_s=run["setup_s"])
        if len(run["samples"]):
            record["summary"] = summarize(run["samples"])
        print(json.dumps(record))
        return 0

    layers = {}
    attempted = failed = len(setup_errors)
    errors = setup_errors
    if isinstance(wl, Cli):
        # untraced subprocess calls give the per-subcommand latencies
        sub = run_ops(wl, args.seconds / 2, len(wl.argvs))
        attempted += sub["attempted"]
        failed += sub["failed"]
        errors += sub["errors"]
        summary = summarize(sub["samples"]) if len(sub["samples"]) else {}
        for name in CLI_COMMANDS:
            layers[f"cli.{name}.p50_ms"] = summary.get(f"{name}_p50_ms", 0.0)
        wl.inprocess = True
    else:
        for name in CLI_COMMANDS:
            layers[f"cli.{name}.p50_ms"] = 0.0
    # a fixed op count, so that calls, rows and draws are exact and comparable between commits
    n_ops = TRACED_OPS[args.workload]
    plain = run_ops(wl, 0, 0, n_ops=n_ops)
    tracer = Tracer("blochcopy", counted=("optimizer.g_map_many", _g_map_many_rows))
    with tracer:
        traced = run_ops(wl, 0, 0, n_ops=n_ops)
    layers.update(layer_metrics(tracer, traced["counts"]))
    # self times partition the top-level spans, which lie inside the timed
    # parts of the ops, so self_sum <= top_level <= op_time holds by
    # construction; the cover share can fail, when an op calls package code
    # that the tracer did not wrap
    self_sum = math.fsum(tracer.span_self)
    top_level = tracer.top_level_s()
    op_time = math.fsum(traced["samples"].latency)
    layers["trace.ops"] = traced["attempted"]
    layers["trace.untraced_wall_s"] = plain["wall"]
    layers["trace.traced_wall_s"] = traced["wall"]
    layers["trace.overhead_s"] = traced["wall"] - plain["wall"]
    layers["trace.self_sum_s"] = self_sum
    layers["trace.op_time_s"] = op_time
    layers["trace.span_cover_ratio"] = top_level / op_time if op_time else 0.0
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv"))
    for run in (plain, traced):
        attempted += run["attempted"]
        failed += run["failed"]
        errors += run["errors"]
    if self_sum > traced["wall"]:
        failed += 1
        errors.append(f"summed self time {self_sum!r} exceeds the traced wall time {traced['wall']!r}")
    if top_level < MIN_SPAN_COVER * op_time:
        failed += 1
        errors.append(f"top-level spans cover {top_level!r} s of {op_time!r} s of op time")
    record.update(attempted=attempted, failed=failed, errors=errors[:5], layers=layers)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
