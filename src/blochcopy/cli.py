"""Command line interface.

Every subcommand prints a JSON document to stdout by default; the ones
with naturally tabular output also accept --format csv.  Timing goes to
stderr so identical inputs give byte-identical stdout.  Exit codes: 0 on
success, 1 when a constraint is violated or a check fails, 2 on usage
errors.

Options may also come from a config file of key=value lines (see
--config); values given on the command line always win.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .channel import _RT2, AffineBlochMap, check_physical, complex_matrix_from_json
from .circuit import channel_tomography, circuit_a, circuit_b
from .linalg import DEFAULT_TOL, _checked, random_isometry
from .optimizer import (
    b_from_beta,
    beta_from_b,
    classify_pair,
    g_map,
    gamma_from_beta,
    isotropic_tradeoff,
    jacobians,
)
from .quality import quality_bloch, quality_e_diagonal
from .validation import ScanConfig, concavity_check, monotonicity_scan

__all__ = ["main"]


class _UsageError(ValueError):
    """Bad input found after argument parsing; exits 2 like a parser error."""


# ---------------------------------------------------------------------------
# option parsing helpers


def _load_config(path: str) -> dict:
    """Read key=value lines; blank lines and # comments are skipped."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _resolve(args, config: dict, name: str, cast, default):
    """Command line value if given, else config file value, else default."""
    value = getattr(args, name)
    if value is not None:
        return value
    if name in config:
        return cast(config[name])
    return default


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError("format must be 'json' or 'csv'")
    return text


def _parse_mode(text: str) -> np.ndarray:
    named = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    if text in named:
        return np.array(named[text])
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("mode must be x, y, z or three comma-separated numbers")
    m = _checked([float(p) for p in parts], "mode", (3,))
    norm = float(np.linalg.norm(m))
    if norm == 0.0:
        raise ValueError("mode direction must be nonzero")
    return m / norm


def _parse_beta(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("beta must be four comma-separated numbers")
    return _checked([float(p) for p in parts], "beta", (4,), unit_tol=DEFAULT_TOL)


def _int_from(lowest: int, expected: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lowest - 1
        if value < lowest:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_positive_int = _int_from(1, "a positive integer")
_nonnegative_int = _int_from(0, "a nonnegative integer")
_count = _int_from(2, "an integer of at least 2")


def _float_where(test, expected: str):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and test(value)):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_finite_float = _float_where(lambda x: True, "a finite number")
_positive_float = _float_where(lambda x: x > 0.0, "a positive finite number")
_tolerance = _float_where(lambda x: x >= 0.0, "a nonnegative finite number")
_probability = _float_where(lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]")


# (+axis, -axis) eigenstates of each Pauli operator
_AXIS_KETS = {
    "x": (np.array([1, 1]) * _RT2, np.array([1, -1]) * _RT2),
    "y": (np.array([1, 1j]) * _RT2, np.array([1, -1j]) * _RT2),
    "z": (np.array([1, 0]), np.array([0, 1])),
}


def _parse_state(text: str) -> np.ndarray:
    """One qubit state: '+x'..'-z' or four numbers re0,im0,re1,im1."""
    if len(text) == 2 and text[0] in "+-" and text[1] in _AXIS_KETS:
        plus, minus = _AXIS_KETS[text[1]]
        return np.asarray(plus if text[0] == "+" else minus, dtype=complex)
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("state must be +x..-z or four comma-separated numbers")
    vals = _checked([float(p) for p in parts], "state", (4,))
    psi = np.array([vals[0] + 1j * vals[1], vals[2] + 1j * vals[3]])
    norm = float(np.sqrt(np.vdot(psi, psi).real))
    if norm == 0.0:
        raise ValueError("state must be nonzero")
    return psi / norm


def _complex_pairs(vec: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _emit_csv(header: list, rows) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(repr(float(x)) for x in row))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gmap(args, config) -> int:
    tol = _resolve(args, config, "tol", float, DEFAULT_TOL)
    fmt = _resolve(args, config, "format", _parse_format, "json")
    b = np.asarray(args.b, dtype=float)
    c = g_map(b, tol=tol)
    if fmt == "csv":
        _emit_csv(["c1", "c2", "c3"], [c])
    else:
        _emit_json({"b": [float(x) for x in b], "c": [float(x) for x in c]})
    return 0


def _cmd_quality(args, config) -> int:
    beta = _resolve(args, config, "beta", _parse_beta, None)
    if beta is None:
        raise ValueError("beta is required (flag --beta or config key beta)")
    mode = _resolve(args, config, "mode", _parse_mode, np.array([0.0, 0.0, 1.0]))
    fmt = _resolve(args, config, "format", _parse_format, "json")
    q_b = quality_bloch(AffineBlochMap.diagonal(b_from_beta(beta)), mode)
    q_c = quality_bloch(AffineBlochMap.diagonal(b_from_beta(gamma_from_beta(beta))), mode)
    q_e = quality_e_diagonal(beta, mode)
    if fmt == "csv":
        _emit_csv(["q_b", "q_c", "q_e"], [[q_b, q_c, q_e]])
    else:
        _emit_json(
            {
                "beta": [float(x) for x in beta],
                "mode": [float(x) for x in mode],
                "q_b": q_b,
                "q_c": q_c,
                "q_e": q_e,
            }
        )
    return 0


def _cmd_classify(args, config) -> int:
    tol = _resolve(args, config, "tol", float, DEFAULT_TOL)
    fmt = _resolve(args, config, "format", _parse_format, "json")
    pair = classify_pair(args.b, args.c, tol=tol)
    if fmt == "csv":
        flags = pair.to_json()["flags"]
        print(",".join(flags))
        print(",".join("true" if flags[k] else "false" for k in flags))
    else:
        _emit_json(pair.to_json())
    return 0


def _cmd_fig1(args, config) -> int:
    count = _resolve(args, config, "count", int, 101)
    fmt = _resolve(args, config, "format", _parse_format, "csv")
    if count < 2:
        raise ValueError("count must be at least 2")
    rs = [i / (count - 1) for i in range(count)]
    points = [(r, isotropic_tradeoff(r)) for r in rs]
    if fmt == "csv":
        _emit_csv(["r", "s"], points)
    else:
        _emit_json({"count": count, "points": [[r, s] for r, s in points]})
    return 0


def _cmd_circuit(args, config) -> int:
    beta = _resolve(args, config, "beta", _parse_beta, None)
    if beta is None:
        raise ValueError("beta is required (flag --beta or config key beta)")
    variant = _resolve(args, config, "variant", str, "a")
    state = _resolve(args, config, "input", _parse_state, None)
    if state is None:
        state = _parse_state("+z")
    fmt = _resolve(args, config, "format", _parse_format, "json")
    if variant == "a":
        out = circuit_a(state, beta)
    elif variant == "b":
        out = circuit_b(state, beta)
    else:
        raise ValueError("variant must be 'a' or 'b'")
    if fmt == "csv":
        print("index,re,im")
        for i, z in enumerate(out):
            print(f"{i},{float(z.real)!r},{float(z.imag)!r}")
    else:
        _emit_json(
            {
                "variant": variant,
                "beta": [float(x) for x in beta],
                "input_state": _complex_pairs(state),
                "output_state": _complex_pairs(out),
            }
        )
    return 0


def _cmd_tomography(args, config) -> int:
    beta = _resolve(args, config, "beta", _parse_beta, None)
    if beta is None:
        raise ValueError("beta is required (flag --beta or config key beta)")
    channel = _resolve(args, config, "channel", str, "B")
    fmt = _resolve(args, config, "format", _parse_format, "json")
    bmap = channel_tomography(beta, channel)
    if fmt == "csv":
        header = ["d1", "d2", "d3"]
        header += [f"l{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
        row = list(bmap.delta) + [x for r in bmap.linear for x in r]
        _emit_csv(header, [row])
    else:
        _emit_json({"channel": channel.upper(), "beta": [float(x) for x in beta], **bmap.to_json()})
    return 0


def _cmd_scan(args, config) -> int:
    full = _resolve(args, config, "full", _parse_bool, False)
    region = _resolve(args, config, "region", str, "good")
    seed = _resolve(args, config, "seed", int, 0)
    max_keep = _resolve(args, config, "max_keep", int, 256)
    fmt = _resolve(args, config, "format", _parse_format, "json")
    # the --full preset overrides config sizes; explicit flags still win
    if args.n_outer is not None:
        n_outer = args.n_outer
    else:
        n_outer = 4000 if full else int(config.get("n_outer", 100))
    if args.n_inner is not None:
        n_inner = args.n_inner
    else:
        n_inner = 100000 if full else int(config.get("n_inner", 1000))

    report = monotonicity_scan(
        ScanConfig(n_outer=n_outer, n_inner=n_inner, seed=seed, region=region, max_keep=max_keep)
    )
    if fmt == "csv":
        sys.stdout.write(report.to_csv())
    else:
        _emit_json(report.to_json())
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    if region == "good" and report.n_violations:
        print(f"error: {report.n_violations} trade-off violations in the good region", file=sys.stderr)
        return 1
    return 0


def _cmd_concavity(args, config) -> int:
    seed = _resolve(args, config, "seed", int, 0)
    trials = _resolve(args, config, "trials", int, 100)
    p1 = _resolve(args, config, "p1", float, 0.5)
    mode = _resolve(args, config, "mode", _parse_mode, np.array([0.0, 0.0, 1.0]))
    tol = _resolve(args, config, "tol", float, DEFAULT_TOL)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError("p1 must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    min_margin = np.inf
    bad = 0
    for _ in range(trials):
        v1 = random_isometry(8, 2, rng)
        v2 = random_isometry(8, 2, rng)
        mixed, averaged = concavity_check(v1, v2, p1, mode)
        margin = mixed - averaged
        min_margin = min(min_margin, margin)
        if margin < -tol:
            bad += 1
    _emit_json(
        {
            "trials": trials,
            "seed": seed,
            "p1": p1,
            "mode": [float(x) for x in mode],
            "min_margin": float(min_margin),
            "violations": bad,
        }
    )
    return 1 if bad else 0


def _cmd_jacobian_check(args, config) -> int:
    step = _resolve(args, config, "step", float, 1e-6)
    tol = _resolve(args, config, "tol", float, 1e-4)
    if not 0.0 < step < math.inf:
        raise ValueError("step must be a positive finite number")
    b = np.asarray(args.b, dtype=float)
    pair = jacobians(beta_from_b(b))
    if not pair.invertible:
        raise ValueError("Jacobian is singular at this point (a coefficient vanishes)")
    analytic = pair.j / (16.0 * pair.beta4)
    fd = np.zeros((3, 3))
    for q in range(3):
        shift = np.zeros(3)
        shift[q] = step
        fd[:, q] = (g_map(b + shift) - g_map(b - shift)) / (2.0 * step)
    fd_error = float(np.max(np.abs(fd - analytic)) / max(1.0, np.max(np.abs(analytic))))
    inverse = pair.k / (16.0 * pair.gamma4)
    residual = float(np.max(np.abs(analytic @ inverse - np.eye(3))))
    passed = fd_error <= tol and residual <= 1e-8
    _emit_json(
        {
            "b": [float(x) for x in b],
            "step": step,
            "fd_error": fd_error,
            "inverse_residual": residual,
            "passed": passed,
        }
    )
    return 0 if passed else 1


def _cmd_check_e(args, config) -> int:
    tol = _resolve(args, config, "tol", float, DEFAULT_TOL)
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
        if isinstance(payload, dict):
            payload = payload.get("e_gram", payload)
        e_gram = _checked(complex_matrix_from_json(payload), "Gram matrix", (4, 4), complex)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"{args.file}: malformed Gram matrix payload ({exc})") from None
    report = check_physical(e_gram, tol=tol)
    _emit_json(report.to_json())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub, fmt: bool = True):
    sub.add_argument("--config", help="file of key=value option defaults")
    if fmt:
        sub.add_argument("--format", choices=("json", "csv"), default=None)
    return sub


class _Parser(argparse.ArgumentParser):
    """Takes any number with a leading minus sign, -1e-3 included, for a positional.

    argparse's own negative-number pattern has no exponent, so it reads
    -1e-3 as an unknown option.  Subparsers are built with the same class.
    """

    _NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def _parse_optional(self, arg_string):
        if self._NUMBER.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blochcopy",
        description="Optimal qubit copying machines: trade-off maps, circuits and scans.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _add_common(subs.add_parser("gmap", help="best second-copy axes for given first-copy axes"))
    p.add_argument("b", nargs=3, type=_finite_float, metavar="B")
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=_cmd_gmap)

    p = _add_common(subs.add_parser("quality", help="copy and eavesdropper qualities of a machine"))
    p.add_argument("--beta", type=_parse_beta, default=None, help="four comma-separated coefficients")
    p.add_argument("--mode", type=_parse_mode, default=None, help="x, y, z or three numbers")
    p.set_defaults(func=_cmd_quality)

    p = _add_common(subs.add_parser("classify", help="classify a candidate pair of copy axes"))
    p.add_argument("b", nargs=3, type=_finite_float, metavar="B")
    p.add_argument("c", nargs=3, type=_finite_float, metavar="C")
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=_cmd_classify)

    p = _add_common(subs.add_parser("fig1", help="isotropic trade-off curve samples"))
    p.add_argument("--count", type=_count, default=None, help="number of sample points (default 101)")
    p.set_defaults(func=_cmd_fig1)

    p = _add_common(subs.add_parser("circuit", help="run a copying circuit on one input state"))
    p.add_argument("--beta", type=_parse_beta, default=None)
    p.add_argument("--variant", choices=("a", "b"), default=None)
    p.add_argument("--input", type=_parse_state, default=None, help="+x..-z or re0,im0,re1,im1")
    p.set_defaults(func=_cmd_circuit)

    p = _add_common(subs.add_parser("tomography", help="reconstruct one output's affine map"))
    p.add_argument("--beta", type=_parse_beta, default=None)
    p.add_argument("--channel", choices=("B", "C", "D"), default=None)
    p.set_defaults(func=_cmd_tomography)

    p = _add_common(subs.add_parser("scan", help="randomized monotonicity scan of the trade-off"))
    p.add_argument("--region", choices=("good", "outside"), default=None)
    p.add_argument("--n-outer", dest="n_outer", type=_positive_int, default=None)
    p.add_argument("--n-inner", dest="n_inner", type=_positive_int, default=None)
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.add_argument("--max-keep", dest="max_keep", type=_nonnegative_int, default=None)
    p.add_argument("--full", action="store_true", default=None, help="4000 x 100000 preset")
    p.set_defaults(func=_cmd_scan)

    p = _add_common(subs.add_parser("concavity", help="random mixing checks of the eavesdropper quality"), fmt=False)
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--p1", type=_probability, default=None)
    p.add_argument("--mode", type=_parse_mode, default=None)
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=_cmd_concavity)

    p = _add_common(subs.add_parser("jacobian-check", help="finite-difference check of the trade-off Jacobian"), fmt=False)
    p.add_argument("b", nargs=3, type=_finite_float, metavar="B")
    p.add_argument("--step", type=_positive_float, default=None)
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=_cmd_jacobian_check)

    p = _add_common(subs.add_parser("check-e", help="physicality report for a Gram matrix file"), fmt=False)
    p.add_argument("file", help="JSON file with a 4x4 matrix of [re, im] pairs")
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=_cmd_check_e)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        return args.func(args, config)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
