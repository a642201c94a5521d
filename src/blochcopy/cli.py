"""Command line interface.

Every subcommand prints a JSON document to stdout by default; the ones
with naturally tabular output also accept --format csv, whose cells are
true/false for a flag, an integer as is and the repr of any other float.
Both formats go through _emit, fig1's chunked points aside.  Timing goes to
stderr so identical inputs give byte-identical stdout.  Exit codes: 0 on
success, 1 when a constraint is violated or a check fails, 2 on usage
errors.

Each option's type, choices and default are declared once, in
_build_parser; scan's defaults and regions are ScanConfig's.  A config
file of key=value lines (--config) supplies values through the same
declarations; one its flag would reject exits 1 with the flag's message
after its file, line and key.  A key that names an option of another
subcommand is ignored, one that names no option at all exits 1.
Precedence: flag, scan --full preset, config file, default.
`circuit --input -x` takes -x as a value.
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
    g_map_many,
    gamma_from_beta,
    isotropic_tradeoff,
    jacobians,
)
from .quality import quality_bloch, quality_e_diagonal
from .validation import _MAX_OUTER, _REGIONS, ScanConfig, concavity_check, monotonicity_scan

__all__ = ["main"]


class _UsageError(ValueError):
    """Bad input found after argument parsing; exits 2 like a parser error."""


# ---------------------------------------------------------------------------
# option parsing helpers


def _load_config(path: str) -> dict:
    """Read key=value lines into {key: (line number, value)}; blank lines and # comments are skipped."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = (lineno, value.strip())
    return out


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _reasoned(parse):
    """Let argparse print the ValueError message of parse, not its name."""

    def checked(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return checked


def _unit(v: np.ndarray, what: str) -> np.ndarray:
    """v over its norm; over its largest real or imaginary part first if its squared norm is not finite and normal."""
    with np.errstate(over="ignore"):
        norm_sq = float(np.vdot(v, v).real)
    if not sys.float_info.min <= norm_sq < math.inf:
        big = float(np.max(np.abs(v.view(float))))
        if big == 0.0:
            raise ValueError(f"{what} must be nonzero")
        return _unit(v / big, what)  # a squared norm in [1, 4]
    return v / np.sqrt(norm_sq)


def _numbers(text: str, what: str, n: int, forms: str, **checks) -> np.ndarray:
    """n comma-separated finite numbers, passed through _checked with checks; forms names them in the count error."""
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what} must be {forms} comma-separated numbers")
    return _checked([float(p) for p in parts], what, (n,), **checks)


@_reasoned
def _parse_mode(text: str) -> np.ndarray:
    named = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    if text in named:
        return np.array(named[text])
    return _unit(_numbers(text, "mode", 3, "x, y, z or three"), "mode direction")


@_reasoned
def _parse_beta(text: str) -> np.ndarray:
    return _numbers(text, "beta", 4, "four", unit_tol=DEFAULT_TOL)


def _number(cast, test, expected: str):
    """An argparse type: cast the text, then require test(value)."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan  # fails every test below
        if not test(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_positive_int = _number(int, lambda n: n >= 1, "a positive integer")
_nonnegative_int = _number(int, lambda n: n >= 0, "a nonnegative integer")
_outer_count = _number(int, lambda n: 1 <= n <= _MAX_OUTER, f"a positive integer of at most {_MAX_OUTER}")
_count = _number(int, lambda n: n >= 2, "an integer of at least 2")
_finite_float = _number(float, math.isfinite, "a finite number")
_positive_float = _number(float, lambda x: 0.0 < x < math.inf, "a positive finite number")
_tolerance = _number(float, lambda x: 0.0 <= x < math.inf, "a nonnegative finite number")
_probability = _number(float, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]")


# Trials that concavity draws and checks per concavity_check call.
_CONCAVITY_BLOCK = 1024
# Rows that fig1 formats and writes at once.
_FIG1_CHUNK = 1024

# (+axis, -axis) eigenstates of each Pauli operator
_AXIS_KETS = {
    "x": (np.array([1, 1]) * _RT2, np.array([1, -1]) * _RT2),
    "y": (np.array([1, 1j]) * _RT2, np.array([1, -1j]) * _RT2),
    "z": (np.array([1, 0]), np.array([0, 1])),
}


@_reasoned
def _parse_state(text: str) -> np.ndarray:
    """One qubit state: '+x'..'-z' or four numbers re0,im0,re1,im1."""
    if len(text) == 2 and text[0] in "+-" and text[1] in _AXIS_KETS:
        plus, minus = _AXIS_KETS[text[1]]
        return np.asarray(plus if text[0] == "+" else minus, dtype=complex)
    vals = _numbers(text, "state", 4, "+x..-z or four")
    return _unit(np.array([vals[0] + 1j * vals[1], vals[2] + 1j * vals[3]]), "state")


def _cell(x) -> str:
    """One CSV cell: a bool as true or false, an int as is, anything else as the repr of its float."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x) if isinstance(x, int) else repr(float(x))


def _emit(args, doc, header=(), rows=()) -> None:
    """Print doc as indented JSON, or under --format csv the header and then the rows."""
    if getattr(args, "format", "json") == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(map(_cell, row)))
    else:
        print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gmap(args) -> int:
    b = np.asarray(args.b, dtype=float)
    c = g_map(b, tol=args.tol)
    _emit(args, {"b": b.tolist(), "c": c.tolist()}, ("c1", "c2", "c3"), [c])
    return 0


def _cmd_quality(args) -> int:
    beta, mode = args.beta, args.mode
    q_b = quality_bloch(AffineBlochMap.diagonal(b_from_beta(beta)), mode)
    q_c = quality_bloch(AffineBlochMap.diagonal(b_from_beta(gamma_from_beta(beta))), mode)
    q_e = quality_e_diagonal(beta, mode)
    doc = {"beta": beta.tolist(), "mode": mode.tolist(), "q_b": q_b, "q_c": q_c, "q_e": q_e}
    _emit(args, doc, ("q_b", "q_c", "q_e"), [(q_b, q_c, q_e)])
    return 0


def _cmd_classify(args) -> int:
    doc = classify_pair(args.b, args.c, tol=args.tol).to_json()
    _emit(args, doc, doc["flags"].keys(), [doc["flags"].values()])
    return 0


def _cmd_fig1(args) -> int:
    # written _FIG1_CHUNK rows at a time, so any count runs in bounded memory; the
    # bytes are those of _emit on the whole list of points, in either format
    count = args.count
    if args.format == "csv":
        head, row, sep, tail = "r,s\n", "{!r},{!r}", "\n", "\n"
    else:
        head = f'{{\n  "count": {count},\n  "points": [\n'
        row, sep, tail = "    [\n      {!r},\n      {!r}\n    ]", ",\n", "\n  ]\n}\n"
    sys.stdout.write(head)
    for lo in range(0, count, _FIG1_CHUNK):
        rs = [i / (count - 1) for i in range(lo, min(lo + _FIG1_CHUNK, count))]
        sys.stdout.write((sep if lo else "") + sep.join(row.format(r, isotropic_tradeoff(r)) for r in rs))
    sys.stdout.write(tail)
    return 0


def _cmd_circuit(args) -> int:
    state = args.input
    out = (circuit_a if args.variant == "a" else circuit_b)(state, args.beta)
    doc = {
        "variant": args.variant,
        "beta": args.beta.tolist(),
        "input_state": np.column_stack([state.real, state.imag]).tolist(),
        "output_state": np.column_stack([out.real, out.imag]).tolist(),
    }
    _emit(args, doc, ("index", "re", "im"), [(i, z.real, z.imag) for i, z in enumerate(out)])
    return 0


def _cmd_tomography(args) -> int:
    bmap = channel_tomography(args.beta, args.channel)
    doc = {"channel": args.channel, "beta": args.beta.tolist(), **bmap.to_json()}
    header = ["d1", "d2", "d3", *(f"l{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))]
    _emit(args, doc, header, [[*bmap.delta, *bmap.linear.ravel()]])
    return 0


def _cmd_scan(args) -> int:
    fields = ("n_outer", "n_inner", "seed", "region", "max_keep")
    report = monotonicity_scan(ScanConfig(**{name: getattr(args, name) for name in fields}))
    header = [f"{name}{q}" for name in ("b", "cand", "gb", "gcand") for q in (1, 2, 3)]
    rows = [rec["b"] + rec["candidate"] + rec["g_b"] + rec["g_candidate"] for rec in report.violations]
    _emit(args, report.to_json(), header, rows)
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    if args.region == "good" and report.n_violations:
        print(f"error: {report.n_violations} trade-off violations in the good region", file=sys.stderr)
        return 1
    return 0


def _cmd_concavity(args) -> int:
    rng = np.random.default_rng(args.seed)
    min_margin = np.inf
    bad = 0
    for lo in range(0, args.trials, _CONCAVITY_BLOCK):
        # v1 then v2, trial by trial: the draw order of one trial at a time
        pairs = random_isometry(8, 2, rng, (min(_CONCAVITY_BLOCK, args.trials - lo), 2))
        mixed, averaged = concavity_check(pairs[:, 0], pairs[:, 1], args.p1, args.mode)
        margins = mixed - averaged
        min_margin = min(min_margin, float(margins.min()))
        bad += int(np.count_nonzero(margins < -args.tol))
    doc = {"trials": args.trials, "seed": args.seed, "p1": args.p1, "mode": args.mode.tolist()}
    _emit(args, {**doc, "min_margin": float(min_margin), "violations": bad})
    return 1 if bad else 0


def _cmd_jacobian_check(args) -> int:
    step = args.step
    b = np.asarray(args.b, dtype=float)
    pair = jacobians(beta_from_b(b))
    if not pair.invertible:
        raise ValueError("Jacobian is singular at this point (a coefficient vanishes)")
    analytic = pair.j / (16.0 * pair.beta4)
    shifts = step * np.eye(3)
    c = g_map_many(np.concatenate([b + shifts, b - shifts]))  # rows b + step e_q, then b - step e_q
    fd = (c[:3] - c[3:]).T / (2.0 * step)
    fd_error = float(np.max(np.abs(fd - analytic)) / max(1.0, np.max(np.abs(analytic))))
    inverse = pair.k / (16.0 * pair.gamma4)
    residual = float(np.max(np.abs(analytic @ inverse - np.eye(3))))
    passed = fd_error <= args.tol and residual <= 1e-8
    _emit(args, {"b": b.tolist(), "step": step, "fd_error": fd_error, "inverse_residual": residual, "passed": passed})
    return 0 if passed else 1


def _cmd_check_e(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
        if isinstance(payload, dict):
            payload = payload.get("e_gram", payload)
        e_gram = _checked(complex_matrix_from_json(payload), "Gram matrix", (4, 4), complex)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"{args.file}: malformed Gram matrix payload ({exc})") from None
    report = check_physical(e_gram, tol=args.tol)
    _emit(args, report.to_json())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub, fmt: str | None = "json"):
    sub.add_argument("--config", help="file of key=value option defaults")
    if fmt:
        sub.add_argument("--format", choices=("json", "csv"), default=fmt)
    return sub


class _Parser(argparse.ArgumentParser):
    """Takes a negative number (-1e-3 included) or a state -x, -y, -z for a value.

    argparse would read both as unknown options.  Subparsers use this class too.
    """

    _VALUE = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|-[xyz]$")

    def _parse_optional(self, arg_string):
        if self._VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by name; every option's type, choices and default are here."""
    parser = _Parser(
        prog="blochcopy",
        description="Optimal qubit copying machines: trade-off maps, circuits and scans.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _add_common(subs.add_parser("gmap", help="best second-copy axes for given first-copy axes"))
    p.add_argument("b", nargs=3, type=_finite_float, metavar="B")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_gmap)

    p = _add_common(subs.add_parser("quality", help="copy and eavesdropper qualities of a machine"))
    p.add_argument("--beta", type=_parse_beta, default=None, help="four comma-separated coefficients")
    p.add_argument("--mode", type=_parse_mode, default="z", help="x, y, z or three numbers")
    p.set_defaults(func=_cmd_quality)

    p = _add_common(subs.add_parser("classify", help="classify a candidate pair of copy axes"))
    p.add_argument("b", nargs=3, type=_finite_float, metavar="B")
    p.add_argument("c", nargs=3, type=_finite_float, metavar="C")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_classify)

    p = _add_common(subs.add_parser("fig1", help="isotropic trade-off curve samples"), fmt="csv")
    p.add_argument("--count", type=_count, default=101, help="number of sample points (default %(default)s)")
    p.set_defaults(func=_cmd_fig1)

    p = _add_common(subs.add_parser("circuit", help="run a copying circuit on one input state"))
    p.add_argument("--beta", type=_parse_beta, default=None)
    p.add_argument("--variant", choices=("a", "b"), default="a")
    p.add_argument("--input", type=_parse_state, default="+z", help="+x..-z or re0,im0,re1,im1")
    p.set_defaults(func=_cmd_circuit)

    p = _add_common(subs.add_parser("tomography", help="reconstruct one output's affine map"))
    p.add_argument("--beta", type=_parse_beta, default=None)
    p.add_argument("--channel", choices=("B", "C", "D"), default="B")
    p.set_defaults(func=_cmd_tomography)

    p = _add_common(subs.add_parser("scan", help="randomized monotonicity scan of the trade-off"))
    p.add_argument("--region", choices=_REGIONS, default=ScanConfig.region)
    p.add_argument("--n-outer", dest="n_outer", type=_outer_count, default=ScanConfig.n_outer)
    p.add_argument("--n-inner", dest="n_inner", type=_positive_int, default=ScanConfig.n_inner)
    p.add_argument("--seed", type=_nonnegative_int, default=ScanConfig.seed)
    p.add_argument("--max-keep", dest="max_keep", type=_nonnegative_int, default=ScanConfig.max_keep)
    p.add_argument("--full", action="store_true", help="4000 x 100000 preset")
    p.set_defaults(func=_cmd_scan)

    p = _add_common(subs.add_parser("concavity", help="random mixing checks of the eavesdropper quality"), fmt=None)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--p1", type=_probability, default=0.5)
    p.add_argument("--mode", type=_parse_mode, default="z")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_concavity)

    p = _add_common(subs.add_parser("jacobian-check", help="finite-difference check of the trade-off Jacobian"), fmt=None)
    p.add_argument("b", nargs=3, type=_finite_float, metavar="B")
    p.add_argument("--step", type=_positive_float, default=1e-6)
    p.add_argument("--tol", type=_tolerance, default=1e-4)
    p.set_defaults(func=_cmd_jacobian_check)

    p = _add_common(subs.add_parser("check-e", help="physicality report for a Gram matrix file"), fmt=None)
    p.add_argument("file", help="JSON file with a 4x4 matrix of [re, im] pairs")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_check_e)

    return parser, subs.choices


def _config_defaults(subparsers: dict, command: str, path: str) -> dict:
    """Config values parsed as their flags would be, failing with the flags' messages.

    Keys of another subcommand's options are ignored, so one file can serve several; any other key fails.
    """
    known = {a.dest for sub in subparsers.values() for a in sub._actions if a.option_strings}
    sub = subparsers[command]
    actions = {a.dest: a for a in sub._actions if a.option_strings and a.dest not in ("help", "config")}
    values = {}
    for key, (lineno, text) in _load_config(path).items():
        if key not in known:
            raise argparse.ArgumentTypeError(f"{path}:{lineno}: {key}: unknown config key")
        if key in actions:
            action = actions[key]
            try:  # argparse's own steps for a flag: the action's type, then its choices
                value = _parse_bool(text) if action.nargs == 0 else sub._get_value(action, text)
                sub._check_value(action, value)
            except (argparse.ArgumentError, ValueError) as exc:  # the latter from _parse_bool
                message = getattr(exc, "message", exc)
                raise argparse.ArgumentTypeError(f"{path}:{lineno}: {key}: {message}") from None
            values[key] = value
    return values


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        full = getattr(args, "full", False)
        if args.config or full:
            # config values and the --full preset become defaults; flags win on reparse
            sub = subparsers[args.command]
            values = _config_defaults(subparsers, args.command, args.config) if args.config else {}
            if full or values.get("full"):
                values.update(n_outer=4000, n_inner=100000)
            sub.set_defaults(**values)
            args = parser.parse_args(argv)
        if getattr(args, "beta", ...) is None:
            raise ValueError("beta is required (flag --beta or config key beta)")
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:  # the last from config values
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
