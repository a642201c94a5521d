"""End-to-end runs of the command line interface."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from blochcopy import cli
from blochcopy.cli import _build_parser, main
from blochcopy.channel import complex_matrix_to_json
from blochcopy.optimizer import g_map
from blochcopy.validation import random_physical_gram
from oracles import concavity_report


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gmap


def test_gmap_json(capsys):
    code, out, _ = _run(capsys, ["gmap", "0.5", "0.5", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["b"] == [0.5, 0.5, 0.5]
    assert doc["c"] == pytest.approx(list(g_map([0.5, 0.5, 0.5])))


def test_gmap_csv(capsys):
    code, out, _ = _run(capsys, ["gmap", "--format", "csv", "1", "1", "1"])
    assert code == 0
    assert out == "c1,c2,c3\n0.0,0.0,0.0\n"


def test_gmap_rejects_unattainable_axes(capsys):
    code, out, err = _run(capsys, ["gmap", "0.9", "0.9", "0.5"])
    assert code == 1
    assert out == ""
    assert err == "error: tetrahedron violated: b1+b2 > 1+b3\n"


def test_gmap_of_huge_finite_axes_prints_only_its_error():
    # the axes' sums overflow to inf, and a command line shows numpy's warnings on stderr
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "blochcopy.cli", "gmap", "1e308", "1e308", "1e308"]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == "error: tetrahedron violated: b1+b2 > 1+b3; b2+b3 > 1+b1; b3+b1 > 1+b2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gmap", "nan", "nan", "nan"],
        ["gmap", "0.5", "inf", "0.5"],
        ["classify", "nan", "nan", "nan", "0", "0", "0"],
        ["classify", "1", "1", "1", "0", "nan", "0"],
        ["jacobian-check", "0.5", "nan", "0.5"],
        ["jacobian-check", "inf", "0.6", "0.55"],
    ],
    ids=["gmap-nan", "gmap-inf", "classify-b", "classify-c", "jacobian-nan", "jacobian-inf"],
)
def test_non_finite_axes_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "expected a finite number" in errors[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["gmap", "{x}", "0", "0"],
        ["classify", "0.5", "0.5", "0.5", "{x}", "0", "0"],
        ["jacobian-check", "{x}", "0.2", "0.3"],
    ],
    ids=["gmap", "classify", "jacobian-check"],
)
def test_negative_axes_in_scientific_notation(capsys, argv):
    runs = [_run(capsys, [a.format(x=x) for a in argv]) for x in ("-1e-1", "-1.0E-1", "-0.1")]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == 0 and runs[0][1]


# ---------------------------------------------------------------------------
# fig1


def test_fig1_defaults(capsys):
    code, out, _ = _run(capsys, ["fig1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,s"
    assert len(lines) == 102
    assert lines[1] == "0.0,1.0"
    assert lines[51] == "0.5,0.8090169943749475"
    assert lines[101] == "1.0,0.0"


def test_fig1_count_and_json(capsys):
    code, out, _ = _run(capsys, ["fig1", "--count", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert doc["points"][0] == [0.0, 1.0]
    assert doc["points"][1] == [0.5, 0.8090169943749475]
    assert doc["points"][2] == [1.0, 0.0]


def _old_fig1(count, fmt):
    """fig1's stdout as it was made before it streamed: from the whole list of points at once."""
    from blochcopy.optimizer import isotropic_tradeoff

    points = [(r, isotropic_tradeoff(r)) for r in (i / (count - 1) for i in range(count))]
    if fmt == "csv":
        return "r,s\n" + "".join(f"{float(r)!r},{float(s)!r}\n" for r, s in points)
    return json.dumps({"count": count, "points": [[r, s] for r, s in points]}, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count", [2, 101, 1000, cli._FIG1_CHUNK, cli._FIG1_CHUNK + 1, 2 * cli._FIG1_CHUNK + 1])
def test_fig1_streams_the_bytes_of_the_whole_list(capsys, fmt, count):
    code, out, err = _run(capsys, ["fig1", "--count", str(count), "--format", fmt])
    assert (code, err) == (0, "")
    assert out == _old_fig1(count, fmt)


class _Sink:
    """A stdout that counts what it is given and keeps none of it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fig1_memory_does_not_grow_with_the_count(monkeypatch, fmt):
    # the whole list of 50,000 points peaked at 6 MB (csv) and 25 MB (json); a chunk of rows near 0.2 MB
    main(["fig1", "--count", "2000", "--format", fmt])  # warm: parser and imports
    peaks = []
    for count in (2000, 50_000):
        sink = _Sink()
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            assert main(["fig1", "--count", str(count), "--format", fmt]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        assert sink.chars > count * 10
    assert peaks[1] <= peaks[0] + 2**16, peaks


def test_fig1_needs_two_points(capsys, tmp_path):
    # on the command line this is a usage error (test_bad_counts_and_steps_are_usage_errors)
    config = tmp_path / "fig1.cfg"
    config.write_text("count=1\n")
    code, _, err = _run(capsys, ["fig1", "--config", str(config)])
    assert code == 1
    assert err == f"error: {config}:1: count: expected an integer of at least 2, got '1'\n"


# ---------------------------------------------------------------------------
# quality


def test_quality_json(capsys):
    s = repr(float(1.0 / np.sqrt(2.0)))
    code, out, _ = _run(capsys, ["quality", "--beta", f"{s},0,0,{s}"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == [0.0, 0.0, 1.0]
    assert doc["q_b"] == pytest.approx(1.0)
    assert doc["q_c"] == pytest.approx(1.0)
    assert doc["q_e"] == pytest.approx(1.0)


def test_quality_normalizes_the_mode(capsys):
    s = repr(float(1.0 / np.sqrt(2.0)))
    code, out, _ = _run(capsys, ["quality", "--beta", f"{s},0,0,{s}", "--mode", "3,0,4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == pytest.approx([0.6, 0.0, 0.8])
    assert doc["q_e"] == pytest.approx(0.8)


def test_quality_requires_beta(capsys):
    code, _, err = _run(capsys, ["quality"])
    assert code == 1
    assert "beta is required" in err


def test_quality_rejects_unnormalized_beta(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quality", "--beta", "1,1,0,0"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# classify


def test_classify_json(capsys):
    r = 2.0 / 3.0
    c = [repr(float(x)) for x in g_map([r, r, r])]
    code, out, _ = _run(capsys, ["classify", repr(r), repr(r), repr(r), *c])
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"]["conjecturally_optimal"] is True
    assert doc["residuals"]["c_minus_g_b"] < 1e-12


def test_classify_csv(capsys):
    code, out, _ = _run(capsys, ["classify", "--format", "csv", "1", "1", "1", "0", "0", "0"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "possible,positive,mutual,h_nonnegative,gamma4_nonnegative,conjecturally_optimal"
    )
    assert lines[1] == "true,true,true,true,true,true"


def test_classify_a_face_point_whose_squares_round_below_zero(capsys):
    # on a face, where one row of Lambda (1, b) rounds below 0 at tol 0: not possible, and no error
    b = ["0.4819727898195105", "-0.5284020369017679", "-0.010374826721278402"]
    code, out, _ = _run(capsys, ["classify", *b, "0.1", "0.1", "0.1", "--tol", "0"])
    assert code == 0
    assert json.loads(out)["flags"]["possible"] is False


# ---------------------------------------------------------------------------
# circuit and tomography


def test_circuit_identity_machine(capsys):
    # the input ends up on B unchanged, the environment in the entangled
    # pair state, so amplitudes sit at indices 0 and 3 of the E bits
    code, out, _ = _run(capsys, ["circuit", "--beta", "1,0,0,0", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,re,im"
    assert len(lines) == 9
    s = repr(float(1.0 / np.sqrt(2.0)))
    assert lines[1] == f"0,{s},0.0"
    assert lines[4] == f"3,{s},0.0"
    for i in (2, 3, 5, 6, 7, 8):
        assert lines[i].endswith(",0.0,0.0")


def test_circuit_variants_agree(capsys):
    beta = f"0.8,0.1,0.1,{float(np.sqrt(0.34))!r}"
    _, out_a, _ = _run(capsys, ["circuit", "--beta", beta, "--input", "+x"])
    doc_a = json.loads(out_a)
    _, out_b, _ = _run(capsys, ["circuit", "--beta", beta, "--input", "+x", "--variant", "b"])
    doc_b = json.loads(out_b)
    diff = np.array(doc_a["output_state"]) - np.array(doc_b["output_state"])
    assert np.max(np.abs(diff)) < 1e-12
    assert doc_a["variant"] == "a" and doc_b["variant"] == "b"


@pytest.mark.parametrize("state", ["-x", "-y", "-z"])
def test_named_state_with_a_minus_sign_is_a_value(capsys, state):
    beta = f"0.8,0.1,0.1,{float(np.sqrt(0.34))!r}"
    spaced = _run(capsys, ["circuit", "--beta", beta, "--input", state])
    joined = _run(capsys, ["circuit", "--beta", beta, f"--input={state}"])
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1]


def test_tomography_csv(capsys):
    s = repr(float(1.0 / np.sqrt(2.0)))
    code, out, _ = _run(capsys, ["tomography", "--beta", f"{s},0,0,{s}", "--format", "csv"])
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "d1,d2,d3,l11,l12,l13,l21,l22,l23,l31,l32,l33"
    values = [float(x) for x in row.split(",")]
    assert values[:3] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    expected = np.diag([0.0, 0.0, 1.0]).ravel()
    assert values[3:] == pytest.approx(list(expected), abs=1e-12)


def test_tomography_rejects_nan_beta(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["tomography", "--beta", "nan,1,0,0"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "--beta" in err and "Traceback" not in err

    config = tmp_path / "tomography.cfg"
    config.write_text("beta=nan,1,0,0\n")
    code, out, err = _run(capsys, ["tomography", "--config", str(config)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {config}:1: beta: beta must have unit squared norm")


def test_tomography_json_channel_c(capsys):
    code, out, _ = _run(capsys, ["tomography", "--beta", "1,0,0,0", "--channel", "C"])
    assert code == 0
    doc = json.loads(out)
    assert doc["channel"] == "C"
    assert np.array(doc["linear"]) == pytest.approx(np.zeros((3, 3)), abs=1e-12)


# ---------------------------------------------------------------------------
# scan


def test_scan_good_region_passes(capsys):
    code, out, err = _run(capsys, ["scan", "--n-outer", "20", "--n-inner", "100", "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["region"] == "good"
    assert doc["n_violations"] == 0
    assert "elapsed:" in err
    assert "elapsed" not in doc


def test_scan_stdout_is_deterministic(capsys):
    argv = ["scan", "--region", "outside", "--n-outer", "10", "--n-inner", "50", "--seed", "3"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_scan_outside_reports_counterexamples(capsys):
    code, out, _ = _run(
        capsys,
        ["scan", "--region", "outside", "--n-outer", "50", "--n-inner", "500", "--seed", "1"],
    )
    assert code == 0  # counterexamples outside the good region are expected
    doc = json.loads(out)
    assert doc["n_violations"] >= 1


def test_scan_csv_format(capsys):
    code, out, _ = _run(
        capsys,
        [
            "scan",
            "--region",
            "outside",
            "--n-outer",
            "20",
            "--n-inner",
            "200",
            "--seed",
            "1",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    assert out.startswith("b1,b2,b3,cand1")


_SCAN_CSV_HEADER = "b1,b2,b3,cand1,cand2,cand3,gb1,gb2,gb3,gcand1,gcand2,gcand3"


def test_scan_csv_rows_are_the_kept_records(capsys):
    argv = ["scan", "--region", "outside", "--n-outer", "50", "--n-inner", "200", "--seed", "2", "--max-keep", "4"]
    _, doc, _ = _run(capsys, argv)
    code, out, _ = _run(capsys, [*argv, "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    records = json.loads(doc)["violations"]
    assert lines[0] == _SCAN_CSV_HEADER
    assert len(lines) == 1 + len(records) == 5
    for line, rec in zip(lines[1:], records):
        cells = line.split(",")
        assert len(cells) == 12
        assert cells == [repr(x) for x in rec["b"] + rec["candidate"] + rec["g_b"] + rec["g_candidate"]]


def test_scan_csv_without_violations_is_header_only(capsys, monkeypatch):
    from blochcopy.validation import ScanReport

    empty = ScanReport(region="good", seed=0, n_outer=1, n_inner=1, checked=0, n_violations=0)
    monkeypatch.setattr(cli, "monotonicity_scan", lambda config: empty)
    code, out, _ = _run(capsys, ["scan", "--format", "csv"])
    assert code == 0
    assert out == _SCAN_CSV_HEADER + "\n"


def test_scan_full_preset_sets_the_inner_count(capsys):
    code, out, _ = _run(capsys, ["scan", "--full", "--n-outer", "1", "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n_outer"] == 1
    assert doc["n_inner"] == 100000


@pytest.mark.parametrize("flag", ["--n-outer", "--n-inner"])
def test_scan_sizes_must_be_positive(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["scan", flag, "0"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"argument {flag}: expected a positive integer" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["concavity", "--trials", "0"], "argument --trials: expected a positive integer"),
        (["concavity", "--trials", "-1"], "argument --trials: expected a positive integer"),
        (["scan", "--max-keep", "-1"], "argument --max-keep: expected a nonnegative integer"),
        (["scan", "--n-outer", "4294967297"],
         "argument --n-outer: expected a positive integer of at most 4294967296"),
        (["jacobian-check", "0.5", "0.5", "0.5", "--step", "0"], "expected a positive finite number"),
        (["jacobian-check", "0.5", "0.5", "0.5", "--step=nan"], "expected a positive finite number"),
        (["jacobian-check", "0.5", "0.5", "0.5", "--step", "-1e-3"], "argument --step: expected a positive finite number"),
        (["fig1", "--count", "1"], "argument --count: expected an integer of at least 2"),
        (["concavity", "--p1", "1.5"], "argument --p1: expected a number in [0, 1]"),
        (["gmap", "0.5", "0.5", "0.5", "--tol", "-1"], "argument --tol: expected a nonnegative finite number"),
        (["check-e", "x.json", "--tol", "inf"], "argument --tol: expected a nonnegative finite number"),
        (["scan", "--seed", "-1"], "argument --seed: expected a nonnegative integer"),
        (["concavity", "--seed", "-1"], "argument --seed: expected a nonnegative integer"),
        (["quality", "--beta", "1,0,0"], "argument --beta: beta must be four comma-separated numbers"),
        (["quality", "--beta", "1,1,0,0"], "argument --beta: beta must have unit squared norm, got 2.0"),
        (["quality", "--beta", "1,0,0,0", "--mode", "0,0,0"], "argument --mode: mode direction must be nonzero"),
        (["circuit", "--beta", "1,0,0,0", "--input", "0,0,0,0"], "argument --input: state must be nonzero"),
    ],
    ids=["trials0", "trials-1", "max-keep-1", "n-outer-2**32+1", "step0", "step-nan", "step-sci", "count1", "p1",
         "tol-1", "tol-inf", "scan-seed-1", "concavity-seed-1", "beta-length", "beta-norm", "mode-zero",
         "state-zero"],
)
def test_bad_counts_and_steps_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err and "Warning" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize(
    "command, flag, value, scaled",
    [
        ("quality", "--mode", "1e308,1e308,0", "1,1,0"),
        ("quality", "--mode", "-1e308,1e308,0", "-1,1,0"),
        ("quality", "--mode", "1e154,1e154,1e154", "1,1,1"),
        ("quality", "--mode", "1e-160,0,0", "x"),
        ("quality", "--mode", "1e-200,0,0", "x"),
        ("circuit", "--input", "1e300,0,1e300,0", "1,0,1,0"),
        ("circuit", "--input", "1e-200,0,1e-200,0", "1,0,1,0"),
    ],
    ids=["mode-overflow", "mode-overflow-negative", "mode-overflow-3", "mode-subnormal", "mode-underflow",
         "state-overflow", "state-underflow"],
)
def test_directions_whose_squared_norm_overflows_or_underflows_read_as_their_scaled_form(
    capsys, command, flag, value, scaled
):
    # the squared norm is inf, subnormal or 0; dividing by the largest part first gives the scaled form's bits
    base = [command, "--beta", "0.7,0.5,0.4,0.31622776601683794"]
    code, out, err = _run(capsys, [*base, f"{flag}={value}"])
    assert (code, err) == (0, "")
    assert out == _run(capsys, [*base, f"{flag}={scaled}"])[1]


def test_zero_step_from_a_config_file_is_a_runtime_error(capsys, tmp_path):
    config = tmp_path / "step.cfg"
    config.write_text("step=0\n")
    code, out, err = _run(capsys, ["jacobian-check", "0.5", "0.5", "0.5", "--config", str(config)])
    assert code == 1
    assert out == ""
    assert err == f"error: {config}:1: step: expected a positive finite number, got '0'\n"


@pytest.mark.parametrize(
    "argv, line, message",
    [
        (["concavity", "--trials", "1"], "p1=1.5", "expected a number in [0, 1], got '1.5'"),
        (["scan", "--n-outer", "1", "--n-inner", "1"], "seed=-1", "expected a nonnegative integer, got '-1'"),
        (["scan", "--n-inner", "1"], "n_outer=4294967297",
         "expected a positive integer of at most 4294967296, got '4294967297'"),
        (["gmap", "0.5", "0.5", "0.5"], "tol=-1", "expected a nonnegative finite number, got '-1'"),
        (["classify", "0.5", "0.5", "0.5", "0.5", "0.5", "0.5"], "tol=-1",
         "expected a nonnegative finite number, got '-1'"),
        (["gmap", "0.5", "0.5", "0.5"], "tol=nan", "expected a nonnegative finite number, got 'nan'"),
    ],
    ids=["p1", "seed", "n-outer", "tol", "classify-tol", "tol-nan"],
)
def test_out_of_range_values_from_a_config_file_exit_one(capsys, tmp_path, argv, line, message):
    config = tmp_path / "options.cfg"
    config.write_text("# a comment, then the value\n" + line + "\n")
    code, out, err = _run(capsys, [*argv, "--config", str(config)])
    assert code == 1
    assert out == ""
    assert err == f"error: {config}:2: {line.partition('=')[0]}: {message}\n"


def test_scan_exit_code_on_good_region_violation(capsys, monkeypatch):
    from blochcopy import cli
    from blochcopy.validation import ScanReport

    fake = ScanReport(
        region="good", seed=0, n_outer=1, n_inner=1, checked=1, n_violations=2
    )
    monkeypatch.setattr(cli, "monotonicity_scan", lambda config: fake)
    code, _, err = _run(capsys, ["scan"])
    assert code == 1
    assert "2 trade-off violations" in err


# ---------------------------------------------------------------------------
# concavity and jacobian-check


def test_concavity_command(capsys):
    code, out, _ = _run(capsys, ["concavity", "--trials", "5", "--seed", "4", "--p1", "0.3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 5
    assert doc["violations"] == 0
    assert doc["min_margin"] >= -1e-9


@pytest.mark.parametrize(
    "block, argv",
    [
        (1024, ["--trials", "1030", "--seed", "3", "--p1", "0.4", "--mode", "0.3,-0.5,0.8"]),
        (4, ["--trials", "10", "--seed", "5", "--p1", "0.9", "--mode", "y", "--tol", "0.5"]),
    ],
    ids=["default-block", "small-blocks"],
)
def test_concavity_blocks_match_the_per_trial_loop(capsys, monkeypatch, block, argv):
    monkeypatch.setattr(cli, "_CONCAVITY_BLOCK", block)
    code, out, _ = _run(capsys, ["concavity", *argv])
    assert code == 0
    args = _build_parser()[0].parse_args(["concavity", *argv])
    doc = json.loads(out)
    assert {k: doc[k] for k in ("min_margin", "violations")} == concavity_report(
        args.trials, args.seed, args.p1, args.mode, args.tol
    )


def _count_calls(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records each call's arguments; returns the record."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_concavity_draws_each_block_with_one_call(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_CONCAVITY_BLOCK", 4)
    calls = _count_calls(monkeypatch, cli, "random_isometry")
    code, _, _ = _run(capsys, ["concavity", "--trials", "9", "--seed", "2"])
    assert code == 0
    assert [(args[0], args[1], args[3]) for args in calls] == [(8, 2, (4, 2)), (8, 2, (4, 2)), (8, 2, (1, 2))]


def test_jacobian_check_shifts_with_one_batch_call(capsys, monkeypatch):
    many = _count_calls(monkeypatch, cli, "g_map_many")
    scalar = _count_calls(monkeypatch, cli, "g_map")
    code, _, _ = _run(capsys, ["jacobian-check", "0.3", "0.2", "0.1"])
    assert code == 0
    assert [args[0].shape for args in many] == [(6, 3)]
    assert scalar == []


def test_jacobian_check_near_a_face_names_the_shift_outside(capsys):
    code, out, err = _run(capsys, ["jacobian-check", "0.999", "0.999", "0.999", "--step", "1e-2"])
    assert code == 1
    assert out == ""
    assert err == "error: tetrahedron violated: b1+b2 > 1+b3; b3+b1 > 1+b2\n"


def test_jacobian_check_interior_point(capsys):
    code, out, _ = _run(capsys, ["jacobian-check", "0.5", "0.6", "0.55"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["fd_error"] < 1e-4
    assert doc["inverse_residual"] < 1e-8


def test_jacobian_check_singular_point(capsys):
    code, _, err = _run(capsys, ["jacobian-check", "1", "1", "1"])
    assert code == 1
    assert "singular" in err


# ---------------------------------------------------------------------------
# check-e


def test_check_e_accepts_a_physical_machine(capsys, tmp_path):
    rng = np.random.default_rng(92)
    path = tmp_path / "machine.json"
    path.write_text(json.dumps({"e_gram": complex_matrix_to_json(random_physical_gram(rng))}))
    code, out, _ = _run(capsys, ["check-e", str(path)])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_e_accepts_a_bare_matrix(capsys, tmp_path):
    path = tmp_path / "identity.json"
    gram = np.zeros((4, 4), dtype=complex)
    gram[0, 0] = 1.0
    path.write_text(json.dumps(complex_matrix_to_json(gram)))
    code, out, _ = _run(capsys, ["check-e", str(path)])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_e_flags_an_unphysical_matrix(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(complex_matrix_to_json(np.diag([0.5, 0.5, 0.2, -0.2]).astype(complex))))
    code, out, _ = _run(capsys, ["check-e", str(path)])
    assert code == 1
    assert json.loads(out)["passed"] is False


_NAN_GRAM = "[" + ", ".join(["[[NaN, 0], [0, 0], [0, 0], [0, 0]]"] * 4) + "]"


@pytest.mark.parametrize(
    "payload",
    [
        '{"e_gram": 5}',
        "[[1, 2]]",
        '[[["a", "b"]]]',
        "not json",
        "[[[1, 0], [0, 0]]]",
        _NAN_GRAM,
        _NAN_GRAM.replace("NaN", "-Infinity"),
        pytest.param("[[1, 2]]".encode("utf-16"), id="not-utf-8"),
    ],
)
def test_check_e_malformed_payload_is_a_usage_error(capsys, tmp_path, payload):
    path = tmp_path / "malformed.json"
    path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
    code, out, err = _run(capsys, ["check-e", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: malformed Gram matrix payload (")
    assert err.count("\n") == 1


def test_check_e_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, ["check-e", str(tmp_path / "nope.json")])
    assert code == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# config files and usage errors


def test_config_supplies_defaults(capsys, tmp_path):
    config = tmp_path / "scan.cfg"
    config.write_text("# scan sizes\nn_outer = 3\nn_inner = 40\nseed = 1\n")
    code, out, _ = _run(capsys, ["scan", "--config", str(config)])
    assert code == 0
    doc = json.loads(out)
    assert doc["n_outer"] == 3
    assert doc["n_inner"] == 40
    assert doc["seed"] == 1


def test_flags_beat_the_config(capsys, tmp_path):
    config = tmp_path / "scan.cfg"
    config.write_text("n_outer=3\nn_inner=40\nseed=1\n")
    code, out, _ = _run(capsys, ["scan", "--config", str(config), "--n-outer", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n_outer"] == 2
    assert doc["n_inner"] == 40


def test_config_can_supply_beta(capsys, tmp_path):
    s = repr(float(1.0 / np.sqrt(2.0)))
    config = tmp_path / "quality.cfg"
    config.write_text(f"beta={s},0,0,{s}\nmode=x\n")
    code, out, _ = _run(capsys, ["quality", "--config", str(config)])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == [1.0, 0.0, 0.0]


def test_malformed_config_line(capsys, tmp_path):
    config = tmp_path / "broken.cfg"
    config.write_text("n_outer=3\noops\n")
    code, _, err = _run(capsys, ["scan", "--config", str(config)])
    assert code == 1
    assert err.startswith(f"error: {config}:2: expected key=value")


def test_config_file_that_is_not_utf8_names_its_path(capsys, tmp_path):
    config = tmp_path / "scan.cfg"
    config.write_bytes("n_outer=3\n".encode("utf-16"))
    code, out, err = _run(capsys, ["scan", "--config", str(config)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {config}: 'utf-8' codec can't decode byte 0xff in position 0")
    assert err.count("\n") == 1


def test_config_keys_of_other_subcommands_are_ignored(capsys, tmp_path):
    config = tmp_path / "shared.cfg"
    config.write_text("n_outer=3\nn_inner=40\nbeta=1,0,0,0\nstep=1e-5\ntrials=7\n")
    code, out, _ = _run(capsys, ["scan", "--config", str(config)])
    assert code == 0
    assert json.loads(out)["n_outer"] == 3


def test_config_key_of_no_subcommand_exits_one(capsys, tmp_path):
    config = tmp_path / "typo.cfg"
    config.write_text("n_outer=3\n# the typo\nn_iner=5\n")
    code, out, err = _run(capsys, ["scan", "--config", str(config)])
    assert code == 1
    assert out == ""
    assert err == f"error: {config}:3: n_iner: unknown config key\n"


def test_bad_config_value_is_a_runtime_error(capsys, tmp_path):
    config = tmp_path / "quality.cfg"
    config.write_text("beta=1,0,0\n")
    code, _, err = _run(capsys, ["quality", "--config", str(config)])
    assert code == 1
    assert "four comma-separated numbers" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["tomography", "--beta", "1,0,0,0", "--channel", "E"])
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["quality", "--beta", "1,0,0,0", "--mode", "0,0,0"])
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["quality", "--beta", "1,0,0,0", "--mode", "nan,0,1"])
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["circuit", "--beta", "1,0,0,0", "--input", "1,0,inf,0"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# one option table: a config value goes through its flag's declaration

_GRAM_FILE = "{gram}"
_SCAN = ["scan", "--n-outer", "2", "--n-inner", "50"]
_BETA = "0.8,0.1,0.1,0.5830951894845301"

# (subcommand argv without the option, config key, value); the flag is --key with _ as -
_OPTION_CASES = [
    (["gmap", "0.6", "0.4", "-1e-7"], "tol", "1e-6"),
    (["gmap", "0.3", "0.6", "0.45"], "format", "csv"),
    (["quality"], "beta", _BETA),
    (["quality", "--beta", _BETA], "mode", "0.3,-0.5,0.8"),
    (["quality", "--beta", _BETA], "format", "csv"),
    (["classify", "0.5", "0.6", "0.7", "0.6211147129557122", "0.7043553429698061", "0.7914954260780958"],
     "tol", "0.01"),
    (["classify", "0.5", "0.6", "0.7", "0.4", "0.35", "0.3"], "format", "csv"),
    (["fig1"], "count", "7"),
    (["fig1"], "format", "json"),
    (["circuit", "--input", "+x"], "beta", _BETA),
    (["circuit", "--beta", _BETA], "variant", "b"),
    (["circuit", "--beta", _BETA], "input", "-y"),
    (["circuit", "--beta", _BETA], "format", "csv"),
    (["tomography"], "beta", _BETA),
    (["tomography", "--beta", _BETA], "channel", "D"),
    (["tomography", "--beta", _BETA], "format", "csv"),
    (_SCAN, "region", "outside"),
    (["scan", "--n-inner", "50"], "n_outer", "3"),
    (["scan", "--n-outer", "2"], "n_inner", "60"),
    ([*_SCAN, "--region", "outside"], "seed", "5"),
    (["scan", "--n-outer", "50", "--n-inner", "500", "--seed", "1", "--region", "outside"], "max_keep", "2"),
    (["scan", "--n-outer", "1"], "full", None),
    (_SCAN, "format", "csv"),
    (["concavity", "--trials", "2"], "seed", "9"),
    (["concavity"], "trials", "3"),
    (["concavity", "--trials", "2"], "p1", "0.25"),
    (["concavity", "--trials", "2"], "mode", "x"),
    (["concavity", "--trials", "2"], "tol", "0.5"),
    (["jacobian-check", "0.5", "0.6", "0.55"], "step", "1e-5"),
    (["jacobian-check", "0.5", "0.6", "0.55"], "tol", "1e-12"),
    (["check-e", _GRAM_FILE], "tol", "0.3"),
]


def test_option_cases_cover_every_option():
    _, subparsers = _build_parser()
    declared = {
        (name, action.dest)
        for name, sub in subparsers.items()
        for action in sub._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    assert declared == {(argv[0], key) for argv, key, _ in _OPTION_CASES}


@pytest.mark.parametrize(
    "argv, key, value", _OPTION_CASES, ids=[f"{argv[0]}-{key}" for argv, key, _ in _OPTION_CASES]
)
def test_config_value_gives_the_same_stdout_as_its_flag(capsys, tmp_path, argv, key, value):
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps(complex_matrix_to_json(np.diag([0.5, 0.5, 0.2, -0.2]).astype(complex))))
    argv = [str(gram) if a == _GRAM_FILE else a for a in argv]
    flag = "--" + key.replace("_", "-")
    config = tmp_path / "options.cfg"
    config.write_text(f"{key}={'true' if value is None else value}\n")

    from_flag = _run(capsys, [*argv, flag] if value is None else [*argv, flag, value])
    from_config = _run(capsys, [*argv, "--config", str(config)])
    default = _run(capsys, argv)
    assert from_flag[:2] == from_config[:2]
    assert from_flag[1]
    if (argv[0], key) != ("concavity", "tol"):  # tol only counts violations, and these trials have none
        assert from_flag[:2] != default[:2]


def test_full_preset_beats_the_config_and_flags_beat_both(capsys, tmp_path):
    config = tmp_path / "scan.cfg"
    config.write_text("n_inner=40\n")
    argv = ["scan", "--full", "--n-outer", "1", "--config", str(config)]
    _, out, _ = _run(capsys, argv)
    assert json.loads(out)["n_inner"] == 100000
    _, out, _ = _run(capsys, [*argv, "--n-inner", "5"])
    assert json.loads(out)["n_inner"] == 5


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["tomography", "--beta", "1,0,0,0"], "channel", "c"),
        (["scan"], "region", "foo"),
        (["scan"], "n_outer", "abc"),
        (["gmap", "0.5", "0.5", "0.5"], "format", "xml"),
    ],
    ids=["channel", "region", "n_outer", "format"],
)
def test_config_values_the_flag_rejects_exit_one_with_its_message(capsys, tmp_path, argv, key, value):
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    message = err.splitlines()[-1].split(f"error: argument {flag}: ", 1)[1]
    assert repr(value) in message

    config = tmp_path / "options.cfg"
    config.write_text(f"{key}={value}\n")
    code, out, err = _run(capsys, [*argv, "--config", str(config)])
    assert code == 1
    assert out == ""
    assert err == f"error: {config}:1: {key}: {message}\n"
