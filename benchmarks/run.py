"""Benchmark of the blochcopy library and CLI.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload scan_deep --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload runs in fresh single-threaded processes (``worker.py``) that
import ``blochcopy`` from ``src``.  Set-up is timed by the worker, which
starts itself with ``--setup-only`` at evenly spaced moments of the timed
run.  With ``--trace 0`` the run prints every
end-to-end metric; with ``--trace 1`` it prints the per-layer metrics from
span recorders wrapped around the package's public functions, import times
from ``-X importtime`` and the CLI start-up floor.  Human-readable lines come
first; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

A full record of each run, with the environment, goes to
``benchmarks/out/run-<workload>-<seed>-trace<k>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("scan_deep", "scan_wide", "machines", "cli")
IMPORT_REPEATS = 5
INTERPRETER_REPEATS = 10
# the children of one workload share this many seconds, so a hung child cannot push a run past 180 s
WORKLOAD_BUDGET_S = 170

# the gated end-to-end metric besides setup_s and peak_rss_mb, and the ungated
# ones printed beside it; all come from the worker summary.  Throughput is not
# gated: on scan_wide the host's fast phases move the mean op time far more
# between runs than the 90th percentile (see README.md)
GATED = {"latency_p90_ms": "ms"}
UNGATED = {"throughput_per_s": "1/s", "latency_p50_ms": "ms"}
# what one op and one throughput item are, per workload
UNITS_OF_WORK = {
    "scan_deep": ("one good-region scan of 1 x 100000 candidates", "checked candidates"),
    "scan_wide": ("one good plus one outside scan of 100 x 64", "outer points, both regions"),
    "machines": ("one concavity, one symmetry and one tomography check", "machine checks"),
    "cli": ("one python -m blochcopy.cli call", "CLI calls"),
}
# workload-specific names printed in the summary lines, taken from the worker summary
NAMED = {
    "scan_deep": [("cands_per_s", "cands_per_s", "1/s", "cands_n")],
    "scan_wide": [
        ("good_points_per_s", "good_points_per_s", "1/s", "good_points_n"),
        ("outside_points_per_s", "outside_points_per_s", "1/s", "outside_points_n"),
    ],
    "machines": [
        ("concavity_per_s", "concavity_per_s", "1/s", "concavity_n"),
        ("symmetry_per_s", "symmetry_per_s", "1/s", "symmetry_n"),
        ("tomography_per_s", "tomography_per_s", "1/s", "tomography_n"),
    ],
    "cli": [
        ("cli_p50_ms", "latency_p50_ms", "ms", "ops"),
        ("cli_p90_ms", "latency_p90_ms", "ms", "ops"),
    ],
}
MODULES = ("blochcopy", "errors", "pauli", "linalg", "channel", "circuit", "optimizer", "quality", "validation", "cli")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], root: str, env: dict, deadline: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)


def worker_cmd(workload: str, seed: int, seconds: int, trace: int) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]


def import_times(root: str, env: dict, deadline: float) -> dict:
    """Median per-module import time from -X importtime: numpy whole, blochcopy modules own."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import blochcopy.cli"], root, env, deadline)
        if proc.returncode:
            raise RuntimeError(f"import of blochcopy.cli failed:\n{proc.stderr}")
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if not own.isdigit():
                continue
            if name == "numpy":
                samples.setdefault("numpy", []).append(int(cumulative) * 1e-6)
            elif name == "blochcopy" or name.startswith("blochcopy."):
                samples.setdefault(name.rsplit(".", 1)[-1], []).append(int(own) * 1e-6)
    return {f"{m}.import_s": statistics.median(samples.get(m, [0.0])) for m in ("numpy",) + MODULES}


def interpreter_ms(root: str, env: dict, deadline: float) -> float:
    """Median wall time of a bare ``python -c pass``, the floor under every CLI call."""
    times = []
    for _ in range(INTERPRETER_REPEATS):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], root, env, deadline)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def layer_units(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: int, trace: int, root: str, env: dict) -> dict:
    """Run one workload and return its record, with metrics and checks."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    proc = run_child(worker_cmd(workload, seed, seconds, trace), root, env, deadline)
    if proc.returncode:
        raise RuntimeError(f"workload {workload} failed:\n{proc.stderr}")
    record.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    metrics: dict = {}
    if trace:
        layers = dict(record.pop("layers"))
        layers.update(import_times(root, env, deadline))
        layers["cli.interpreter_ms"] = interpreter_ms(root, env, deadline)
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": layer_units(name)}
    else:
        summary = record.get("summary", {})
        setups = record["setup_samples_s"]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s", "n": len(setups)}
        metrics["peak_rss_mb"] = {"value": record["peak_rss_mb"], "unit": "MB", "n": 1}
        for name, unit in GATED.items():
            metrics[name] = {"value": summary.get(name, 0.0), "unit": unit, "n": summary.get("ops", 0)}
        record["named"] = {
            name: {"value": summary.get(name, 0.0), "unit": unit, "n": summary.get("ops", 0)}
            for name, unit in UNGATED.items()
        }
        record["named"].update(
            (name, {"value": summary.get(key, 0.0), "unit": unit, "n": summary.get(count, 0)})
            for name, key, unit, count in NAMED[workload]
        )
    record["metrics"] = metrics
    return record


def print_record(record: dict) -> None:
    workload = record["workload"]
    print(f"workload {workload}  seed {record['seed']}  seconds {record['seconds']}  trace {record['trace']}")
    if not record["trace"]:
        op, item = UNITS_OF_WORK[workload]
        print(f"  op: {op}; throughput counts {item}")
    width = max(len(n) for n in list(record["metrics"]) + list(record.get("named", {}))) + 2
    for name, m in record["metrics"].items():
        count = f"  (n={m['n']})" if "n" in m else ""
        print(f"  {name:<{width}}{m['value']:.6g} {m['unit']}{count}")
    for name, m in record.get("named", {}).items():
        print(f"  {name:<{width}}{m['value']:.6g} {m['unit']}  (n={m['n']}, not gated)")
    attempted, failed = record["attempted"], record["failed"]
    rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':<{width}}{rate:.6g}  (failed {failed} of {attempted} ops)")
    for err in record.get("errors", []):
        print(f"  error: {err}")
    print(f"  calibration_s {record['calibration_s']:.4f} (diagnostic only, adjusts nothing)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="blochcopy benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("seed must be nonnegative and seconds at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "blochcopy", "__init__.py")):
        print("error: run from the root of a blochcopy checkout (src/blochcopy not found)", file=sys.stderr)
        return 2
    env = child_env(root)
    os.makedirs(OUT_DIR, exist_ok=True)
    environment = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "executable": sys.executable,
        "git_commit": git_commit(root),
        "blas_threads_pinned": env["OPENBLAS_NUM_THREADS"],
        "seed": args.seed,
    }
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        try:
            record = run_workload(workload, args.seed, args.seconds, args.trace, root, env)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        record["environment"] = {**environment, "numpy": record.pop("numpy"), "blas": record.pop("blas")}
        path = os.path.join(OUT_DIR, f"run-{workload}-{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print_record(record)
        print(f"  environment {json.dumps(record['environment'])}")
        records.append(record)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in records[0]["metrics"].items()}
    else:
        metrics = {
            f"{r['workload']}.{k}": {"value": v["value"], "unit": v["unit"]}
            for r in records for k, v in list(r["metrics"].items()) + list(r.get("named", {}).items())
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
