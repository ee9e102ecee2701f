import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sun_gates import cli
from sun_gates.amplitude_model import AmplitudeCoefficients, amplitude_operator
from sun_gates.cli import DIMENSION_LIMITS, build_parser, main, parse_complex
from sun_gates.invariant_channels import Channel, ChannelSpec, crossing_map, crossing_operator_deviation
from sun_gates.lcu_encoder import plan_encoding, verify_block
from sun_gates.sun_algebra import build_generators, verify_completeness


def run(tmp_path, *args, name="out.json"):
    out = tmp_path / name
    code = main([*args, "--output", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def run_json(tmp_path, *args):
    code, text = run(tmp_path, *args)
    return code, json.loads(text)


def test_parse_complex():
    assert parse_complex("1,0") == 1.0
    assert parse_complex("-0.5,2") == complex(-0.5, 2.0)
    with pytest.raises(ValueError):
        parse_complex("1")
    with pytest.raises(ValueError):
        parse_complex("1,2,3")


def test_generators_n2(tmp_path):
    code, data = run_json(tmp_path, "generators", "--n", "2")
    assert code == 0
    assert data["generator_count"] == 3
    assert data["all_passed"]
    assert data["completeness_max_deviation"] < 1e-12
    assert len(data["generators"]) == 3
    # entries serialize as [re, im] pairs; first generator is sigma_x / 2
    assert data["generators"][0][0][1] == [0.5, 0.0]


def test_generators_n3_completeness(tmp_path):
    code, data = run_json(tmp_path, "generators", "--n", "3")
    assert code == 0
    assert data["completeness_max_deviation"] < 1e-12


def test_generators_rejects_n1(tmp_path, capsys):
    assert main(["generators", "--n", "1"]) == 2
    assert "at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_passes(tmp_path, n):
    code, data = run_json(tmp_path, "verify", "--n", str(n))
    assert code == 0
    assert data["all_passed"]
    names = [c["name"] for c in data["checks"]]
    assert "u_spectrum" in names
    assert "crossing_row_identity" in names
    assert all(c["passed"] for c in data["checks"])


def test_verify_n6_sweep_is_fast(tmp_path):
    import time

    start = time.perf_counter()
    code, data = run_json(tmp_path, "verify", "--n", "6")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert data["all_passed"]
    assert elapsed < 10.0


def test_verify_single_channel(tmp_path):
    code, data = run_json(tmp_path, "verify", "--n", "4", "--channel", "t")
    assert code == 0
    assert data["channel"] == "t"
    names = [c["name"] for c in data["checks"]]
    assert "swap_action" not in names
    assert "u_exponential_form" in names


def test_verify_swap_is_permutation_at_n2(tmp_path):
    code, data = run_json(tmp_path, "verify", "--n", "2", "--channel", "s")
    assert code == 0
    swap = next(c for c in data["checks"] if c["name"] == "swap_action")
    assert swap["max_deviation"] == 0.0


def test_verify_swap_action_catches_a_wrong_swap(tmp_path, monkeypatch):
    # the s-channel gates are built from swap_matrix, so swap_action must not compare against it
    import sun_gates.invariant_channels as channels

    monkeypatch.setattr(channels, "swap_matrix", lambda n: np.eye(n * n, dtype=complex))
    code, data = run_json(tmp_path, "verify", "--n", "3", "--channel", "s")
    assert code == 1
    swap = next(c for c in data["checks"] if c["name"] == "swap_action")
    assert not swap["passed"] and swap["max_deviation"] == 1.0


def test_u_spectrum_adds_a_wrong_multiplicity_to_its_deviation(tmp_path, monkeypatch):
    # eigenvalues of -Z_t: all still of modulus 1, but +1 x8 and -1 x1 at N = 3, a miscount of 7
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda z: -eigvalsh(z))
    code, data = run_json(tmp_path, "verify", "--n", "3", "--channel", "t")
    assert code == 1
    spectrum = next(c for c in data["checks"] if c["name"] == "u_spectrum")
    assert spectrum["detail"] == "multiplicities +1 x8, -1 x1"
    assert not spectrum["passed"] and 7.0 <= spectrum["max_deviation"] <= 7.0 + 1e-12


def test_encode_identity(tmp_path):
    code, data = run_json(tmp_path, "encode", "--a", "1,0", "--b", "0,0", "--n", "2")
    assert code == 0
    assert data["alpha"] == 1.0
    assert data["block_identity_deviation"] < 1e-12
    assert data["circuit"]["version"] == 1
    assert len(data["circuit"]["gates"]) == 4


def test_encode_projector_probability(tmp_path):
    code, data = run_json(
        tmp_path, "encode", "--a", "0.5,0", "--b", "0.5,0",
        "--n", "2", "--channel", "s", "--psi", "0,1,0,0",
    )
    assert code == 0
    assert abs(data["postselection_probability"] - 0.5) < 1e-12


def test_encode_alpha_arithmetic(tmp_path):
    code, data = run_json(tmp_path, "encode", "--a", "0.6,0", "--b", "0,0.8")
    assert code == 0
    assert abs(data["alpha"] - 1.4) < 1e-15


def test_encode_rejects_zero_amplitude(tmp_path, capsys):
    assert main(["encode", "--a", "0,0", "--b", "0,0"]) == 2
    assert "zero amplitude" in capsys.readouterr().err


def test_encode_rejects_bad_psi_length(capsys):
    assert main(["encode", "--a", "1,0", "--b", "0,0", "--n", "2", "--psi", "1,0"]) == 2


@pytest.mark.parametrize("args, env", [
    (["encode", "--n", "2", "--a=nan,0", "--b=1,0"], None),
    (["encode", "--n", "2", "--a=1,0", "--b=0,inf"], None),
    (["encode", "--n", "2", "--a=1,0", "--b=1,0", "--psi=nan,0,0,0"], None),
    # a norm that overflows names the state, not --a and --b
    (["encode", "--n", "2", "--a=1,0", "--b=0,0", "--psi=1e200,0,0,0"], None),
    (["verify", "--n", "2", "--tolerance", "inf"], None),
    (["verify", "--n", "2"], "inf"),
], ids=["a", "b", "psi", "psi-overflow", "tolerance", "env-tolerance"])
def test_non_finite_input_exits_2(tmp_path, capsys, monkeypatch, args, env):
    if env is not None:
        monkeypatch.setenv("SUN_GATES_TOLERANCE", env)
    code, text = run(tmp_path, *args)
    assert code == 2
    assert text == ""
    assert "finite" in capsys.readouterr().err


def test_cross_reference_points(tmp_path):
    code, data = run_json(tmp_path, "cross", "--a", "1,0", "--b", "0,0", "--n", "2", "--channel", "s")
    assert code == 0
    assert data["a_crossed"] == [1.0, 0.0]
    assert data["b_crossed"] == [1.0, 0.0]
    assert data["operator_consistency_deviation"] <= 1e-12

    code, data = run_json(tmp_path, "cross", "--a", "0,1", "--b", "1,0", "--n", "3", "--channel", "t")
    assert code == 0
    assert data["source_channel"] == "t"
    assert data["target_channel"] == "s"
    assert data["round_trip_deviation"] <= 1e-14


def test_cross_round_trip_is_tight(tmp_path):
    # negative leading components need the --flag=value spelling
    code, data = run_json(tmp_path, "cross", "--a=0.3,-0.4", "--b=-1.2,0.9", "--n", "5")
    assert code == 0
    assert data["round_trip_deviation"] <= 1e-14


def test_disk_csv(tmp_path):
    out = tmp_path / "disk.csv"
    code = main(["disk", "--resolution", "8", "--output", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "phi", "re_a", "im_a", "re_b", "im_b", "norm_sq"]
    boundary = rows[1:9]
    for row in boundary:
        assert abs(float(row[6]) - 1.0) <= 1e-12
    assert float(boundary[0][0]) == 0.0
    assert abs(float(boundary[-1][0]) - np.pi / 2) <= 1e-12
    interior = rows[9:]
    assert interior
    for row in interior:
        assert float(row[6]) < 1.0


def test_disk_json_format(tmp_path):
    code, data = run_json(tmp_path, "disk", "--resolution", "4", "--format", "json")
    assert code == 0
    assert len(data["rows"]) == 4 * 4
    assert data["rows"][0]["a"] == [1.0, 0.0]


@pytest.mark.parametrize("args", [
    ["disk"], ["disk", "--format", "json"], ["verify", "--n", "2"], ["generators", "--n", "2"],
    ["encode", "--n", "2", "--a", "0.5,0", "--b", "0.5,0", "--psi", "0,1,0,0"],
    ["cross", "--n", "2", "--a", "1,0", "--b", "0,0"], ["partial-wave", "sectors.csv"],
], ids=["disk-csv", "disk-json", "verify", "generators", "encode-psi", "cross", "partial-wave"])
def test_output_file_gets_the_stdout_bytes(tmp_path, capsysbinary, monkeypatch, args):
    # main alone writes: every command's file output is its stdout, byte for byte
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sectors.csv").write_text("j,re_a,im_a,re_b,im_b,kappa\n0,1,0,0,0,1\n")
    assert main(args) == 0
    stdout = capsysbinary.readouterr().out
    out = tmp_path / "out"
    assert main([*args, "--output", str(out)]) == 0
    assert out.read_bytes() == stdout
    assert stdout.endswith(b"\n") and capsysbinary.readouterr().out == b""


def test_partial_wave_saturation(tmp_path):
    sectors = tmp_path / "sectors.csv"
    sectors.write_text("j,re_a,im_a,re_b,im_b,kappa\n0,1,0,0,0,1\n")
    code, data = run_json(tmp_path, "partial-wave", str(sectors))
    assert code == 0
    assert data["sectors"][0]["elastic_saturation"]
    assert data["all_bounds_satisfied"]


def test_partial_wave_violation_exits_nonzero(tmp_path):
    sectors = tmp_path / "sectors.csv"
    sectors.write_text("j,re_a,im_a,re_b,im_b,kappa\n1,1,0,1,0,1\n")
    code, data = run_json(tmp_path, "partial-wave", str(sectors))
    assert code == 1
    assert abs(data["sectors"][0]["norm_sq"] - 2.0) <= 1e-14
    assert not data["all_bounds_satisfied"]


ROW_KEYS = ["j", "a", "b", "kappa", "norm_sq", "bound_satisfied", "eigen_plus", "eigen_minus", "in_unit_disk",
            "elastic_saturation"]
bounded = st.floats(min_value=-2, max_value=2)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(sectors=[(0.0, 0.0, 0.0, 0.0, 1.0)])   # no scattering: inside every bound, not saturated
@example(sectors=[(1.0, 0.0, 0.0, 0.0, 0.3)])   # elastic saturation
@example(sectors=[(1.0, 0.0, 1.0, 0.0, 1.0)])   # norm 2: the bound fails
@given(sectors=st.lists(st.tuples(bounded, bounded, bounded, bounded, st.floats(min_value=1e-3, max_value=10)),
                        min_size=1, max_size=3))
def test_partial_wave_flags_match_arithmetic(tmp_path, sectors):
    table = tmp_path / "flags.csv"
    table.write_text("j,re_a,im_a,re_b,im_b,kappa\n" + "".join(
        "2," + ",".join(repr(v) for v in sector) + "\n" for sector in sectors))
    code, data = run_json(tmp_path, "partial-wave", str(table), "--tolerance=1e-10")
    for (re_a, im_a, re_b, im_b, kappa), row in zip(sectors, data["sectors"], strict=True):
        a, b = complex(re_a, im_a), complex(re_b, im_b)
        norm_sq = abs(a) ** 2 + abs(b) ** 2
        eigens = (1 + 1j * kappa * (a + b), 1 + 1j * kappa * (a - b))
        assert list(row) == ROW_KEYS
        assert row["bound_satisfied"] == (norm_sq <= 1.0 + 1e-10)
        assert row["in_unit_disk"] == [abs(e) <= 1.0 + 1e-10 for e in eigens]
        assert row["elastic_saturation"] == (abs(norm_sq - 1.0) <= 1e-10)
    assert data["all_bounds_satisfied"] == all(row["bound_satisfied"] for row in data["sectors"])
    assert code == (0 if data["all_bounds_satisfied"] else 1)


@pytest.mark.parametrize("tolerance, satisfied", [("0.25", True), ("0.2", False)])
def test_partial_wave_bound_is_inclusive(tmp_path, tolerance, satisfied):
    # |1|^2 + |0.5|^2 = 1.25 = 1 + 0.25 exactly, so at --tolerance=0.25 the norm sits on the bound
    sectors = tmp_path / "sectors.csv"
    sectors.write_text("j,re_a,im_a,re_b,im_b,kappa\n0,1,0,0.5,0,1\n")
    code, data = run_json(tmp_path, "partial-wave", str(sectors), f"--tolerance={tolerance}")
    assert data["sectors"][0]["norm_sq"] == 1.25
    assert data["sectors"][0]["bound_satisfied"] is satisfied
    assert code == (0 if satisfied else 1)


def test_partial_wave_accepts_a_byte_order_mark(tmp_path):
    sectors = tmp_path / "sectors.csv"
    sectors.write_bytes(b"\xef\xbb\xbf" + b"j,re_a,im_a,re_b,im_b,kappa\n0,1,0,0,0,1\n")
    code, data = run_json(tmp_path, "partial-wave", str(sectors))
    assert code == 0
    assert data["sectors"][0]["elastic_saturation"]


def test_partial_wave_empty_file(tmp_path, capsys):
    # a table with no sector rows would satisfy every bound vacuously, so it is an input error
    sectors = tmp_path / "sectors.csv"
    for text in ["", "j,re_a,im_a,re_b,im_b,kappa\n", "j,re_a,im_a,re_b,im_b,kappa\n\n"]:
        sectors.write_text(text)
        code, out = run(tmp_path, "partial-wave", str(sectors))
        assert (code, out) == (2, "")
        assert str(sectors) in capsys.readouterr().err


def test_partial_wave_parse_error_reports_line(tmp_path, capsys):
    sectors = tmp_path / "sectors.csv"
    for bad_row, reason in [("1,oops,0,0,0,1", "float"), ("1,nan,0,0,0,1", "finite"), ("1,0,0,0,0,inf", "finite")]:
        sectors.write_text(f"j,re_a,im_a,re_b,im_b,kappa\n0,1,0,0,0,1\n{bad_row}\n")
        assert main(["partial-wave", str(sectors)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and reason in err


def test_partial_wave_line_numbers_skip_blanks(tmp_path, capsys):
    sectors = tmp_path / "sectors.csv"
    sectors.write_text("j,re_a,im_a,re_b,im_b,kappa\n\n0,1,0,0,0,1\n\n2,bad,0,0,0,1\n")
    assert main(["partial-wave", str(sectors)]) == 2
    assert "line 5" in capsys.readouterr().err
    # a quoted field spanning two lines: the bad row is file line 4, though it is the third record
    sectors.write_text('j,re_a,im_a,re_b,im_b,kappa\n"0\n",1,0,0,0,1\n1,bad,0,0,0,1\n')
    assert main(["partial-wave", str(sectors)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_partial_wave_oversized_field_is_usage_error(tmp_path, capsys):
    # csv.Error, raised past csv.field_size_limit(), is no ValueError; it still exits 2 naming the line
    sectors = tmp_path / "sectors.csv"
    sectors.write_text("j,re_a,im_a,re_b,im_b,kappa\n0," + "1" * 200_000 + ",0,0,0,1\n")
    code, text = run(tmp_path, "partial-wave", str(sectors))
    captured = capsys.readouterr()
    assert (code, text, captured.out) == (2, "", "")
    assert "line 2" in captured.err and "Traceback" not in captured.err


def test_partial_wave_missing_file(capsys):
    assert main(["partial-wave", "/nonexistent/sectors.csv"]) == 2


def test_tolerance_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SUN_GATES_TOLERANCE", "1e-6")
    code, data = run_json(tmp_path, "verify", "--n", "2")
    assert code == 0
    assert data["tolerance"] == 1e-6
    monkeypatch.setenv("SUN_GATES_TOLERANCE", "not-a-number")
    assert main(["verify", "--n", "2"]) == 2


def test_flag_overrides_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SUN_GATES_TOLERANCE", "1e-6")
    code, data = run_json(tmp_path, "verify", "--n", "2", "--tolerance", "1e-9")
    assert code == 0
    assert data["tolerance"] == 1e-9


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


SECTORS = "j,re_a,im_a,re_b,im_b,kappa\n0,1,0,0,0,1\n"


@pytest.mark.parametrize("args", [
    ["disk", "--n", "3"],
    ["verify", "--format", "csv"],
    ["encode", "--a", "1,0", "--b", "0,0", "--seed", "1"],
    ["cross", "--a", "1,0", "--b", "0,0", "--seed", "1"],
    ["generators", "--channel", "s"],
    ["partial-wave", "{sectors}", "--n", "3"],
], ids=["disk", "verify", "encode", "cross", "generators", "partial-wave"])
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, capsys, args):
    sectors = tmp_path / "sectors.csv"
    sectors.write_text(SECTORS)
    code, text = run(tmp_path, *[arg.format(sectors=sectors) for arg in args])
    assert code == 2
    assert text == ""
    assert "unrecognized arguments" in capsys.readouterr().err


def test_tolerance_flag_wins_over_invalid_env(tmp_path, monkeypatch):
    # the env var is --tolerance's string default, converted only when the flag is absent
    monkeypatch.setenv("SUN_GATES_TOLERANCE", "bogus")
    code, data = run_json(tmp_path, "verify", "--n", "2", "--tolerance", "1e-9")
    assert code == 0
    assert data["tolerance"] == 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy RuntimeWarning on the CLI path fails the test
@pytest.mark.parametrize("args, row", [
    (["partial-wave", "{sectors}"], "0,1e200,0,0,0,1"),      # |a|^2 raises OverflowError
    (["partial-wave", "{sectors}"], "0,1e154,0,1e154,0,1"),  # |a|^2 + |b|^2 = inf
    (["partial-wave", "{sectors}"], "0,1,0,1,0,1e308"),      # 1 + i kappa (a + b) = 1 + inf j
    (["cross", "--n", "2", "--a=1e308,1e308", "--b=1e308,0"], "0,1,0,0,0,1"),
    # crossed coefficients of inf + nan j and of -inf: numpy raised on neither, and the JSON writer on the second
    (["cross", "--n", "32", "--a=1e308,0", "--b=0,0"], "0,1,0,0,0,1"),
    (["cross", "--n", "4", "--channel", "t", "--a=1e307,0", "--b=-1e308,0"], "0,1,0,0,0,1"),
    (["encode", "--n", "2", "--a=1e308,0", "--b=1e308,0"], "0,1,0,0,0,1"),
], ids=["partial-wave", "partial-wave-norm-sq", "partial-wave-eigen", "cross", "cross-nan", "cross-inf", "encode"])
def test_overflow_exits_2(tmp_path, capsys, args, row):
    sectors = tmp_path / "sectors.csv"
    sectors.write_text(f"j,re_a,im_a,re_b,im_b,kappa\n{row}\n")
    code, text = run(tmp_path, *[arg.format(sectors=sectors) for arg in args])
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert "overflow" in err
    assert "Warning" not in err and "Traceback" not in err
    # the message names the command and the input it was given
    assert err.startswith(f"error: {args[0]} ")
    for given in (arg for arg in args[1:] if arg.startswith(("--a=", "--b=", "{"))):
        assert given.format(sectors=sectors) in err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _check_cli_contract(tmp_path, *args):
    """main never raises; exit 0/1 writes strict JSON, exit 2 writes nothing."""
    out = tmp_path / "fuzz.json"
    out.unlink(missing_ok=True)
    code = main([*args, "--output", str(out)])
    assert code in (0, 1, 2)
    if code == 2:
        assert not out.exists()
    else:
        _strict_json(out.read_text())


finite = st.floats(allow_nan=False, allow_infinity=False)
FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(command=st.sampled_from(["encode", "cross"]), n=st.sampled_from([2, 3]),
       channel=st.sampled_from(["s", "t"]), a=st.tuples(finite, finite), b=st.tuples(finite, finite))
def test_fuzz_coefficient_commands(tmp_path, command, n, channel, a, b):
    _check_cli_contract(tmp_path, command, "--n", str(n), "--channel", channel,
                        "--a={!r},{!r}".format(*a), "--b={!r},{!r}".format(*b))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(rows=st.lists(st.tuples(st.integers(0, 4), finite, finite, finite, finite, finite), max_size=3))
def test_fuzz_partial_wave(tmp_path, rows):
    sectors = tmp_path / "fuzz.csv"
    sectors.write_text("j,re_a,im_a,re_b,im_b,kappa\n" + "".join(
        ",".join(repr(v) for v in row) + "\n" for row in rows))
    _check_cli_contract(tmp_path, "partial-wave", str(sectors))


def test_subnormal_coefficients_encode(tmp_path):
    code, text = run(tmp_path, "encode", "--n", "2", "--a=5e-324,0", "--b=0,5e-324")
    assert code == 0
    assert _strict_json(text)["all_passed"]


def test_failed_block_check_exits_1_with_strict_json(tmp_path):
    # the block deviation exceeds this tolerance: the CLI's verdict is a plain bool and the payload still prints
    code, text = run(tmp_path, "encode", "--n", "2", "--a=1,0", "--b=1,0", "--tolerance=1e-320")
    assert code == 1
    payload = _strict_json(text)
    assert payload["all_passed"] is False
    assert {"block_identity_deviation", "w_unitarity_deviation"} <= payload.keys()
    # the library returns Python floats, which json and `is` comparisons take as they are
    assert type(verify_completeness(build_generators(2))) is float
    coeffs = AmplitudeCoefficients(ChannelSpec(Channel.S, 2), 1.0, 1.0)
    report = verify_block(plan_encoding(coeffs), coeffs)
    assert type(report.block_identity_deviation) is float and type(report.w_unitarity_deviation) is float


def test_disk_resolution_above_limit_is_usage_error(tmp_path, capsys):
    # never test a resolution that would allocate: the limit is checked before linspace
    code, text = run(tmp_path, "disk", "--resolution", "1025")
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert "1024" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["generators", "verify", "encode", "cross"])
def test_dimension_above_limit_is_usage_error(tmp_path, capsys, command):
    # never test a dimension that would allocate: the limit is checked while parsing
    limit = {"generators": 32, "verify": 16, "encode": 64, "cross": 64}[command]
    coefficients = ["--a", "1,0", "--b", "0,0"] if command in ("encode", "cross") else []
    code, text = run(tmp_path, command, "--n", str(limit + 1), *coefficients)
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert "--n" in err and f"'{limit + 1}'" in err and f"at most {limit}" in err


def test_verify_dimension_above_its_limit_is_usage_error(tmp_path, capsys):
    # verify alone stops below 32; only the parser runs, never an identity suite
    limit = DIMENSION_LIMITS["verify"]
    code, text = run(tmp_path, "verify", "--n", str(limit + 1))
    captured = capsys.readouterr()
    assert code == 2
    assert text == "" and captured.out == ""
    assert "--n" in captured.err and f"'{limit + 1}'" in captured.err
    assert f"at most {limit}" in captured.err
    assert build_parser().parse_args(["verify", "--n", str(limit)]).n == limit
    encode = build_parser().parse_args(["encode", "--n", "32", "--a", "1,0", "--b", "0,0"])
    assert encode.n == 32


def test_readme_command_table_matches_the_parser(capsys):
    # the README's subcommand/flag table, its flag order and each "--n (2 to LIMIT)" against build_parser
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.M))
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(table) == list(subparsers.choices)
    for name, sub in subparsers.choices.items():
        flags = [a.option_strings[0] if a.option_strings else a.dest.upper()
                 for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        assert re.findall(r"`(--[a-z-]+|[A-Z_]+)`", table[name]) == flags, name
        if "--n" not in flags:
            continue
        limit = int(re.search(r"`--n` \(2 to (\d+)", table[name]).group(1))
        coefficients = ["--a", "1,0", "--b", "0,0"] if "--a" in flags else []
        assert build_parser().parse_args([name, "--n", str(limit), *coefficients]).n == limit
        with pytest.raises(SystemExit):
            build_parser().parse_args([name, "--n", str(limit + 1), *coefficients])
        assert f"at most {limit}," in capsys.readouterr().err


def test_readme_library_sketch_runs():
    # the README's python block is the library's calling convention on show; it must run as printed
    root = Path(__file__).resolve().parent.parent
    sketch, = re.findall(r"^```python\n(.*?)^```$", (root / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", sketch], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr


def count_calls(monkeypatch, *names):
    """Wrap each named function wherever a ``sun_gates`` module binds it; return the live call counts."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper
    for name in names:
        modules = [m for key, m in list(sys.modules.items()) if key.startswith("sun_gates") and hasattr(m, name)]
        wrapper = counted(name, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("command", ["encode", "cross"])
def test_coefficient_commands_build_no_generators(tmp_path, monkeypatch, command):
    # the channel gates depend on N alone, so these commands never need the su(N) generators
    calls = count_calls(monkeypatch, "build_generators")
    code, data = run_json(tmp_path, command, "--n", "3", "--a", "0.6,0", "--b", "0,0.8")
    assert code == 0
    assert data["all_passed"]
    assert calls["build_generators"] == 0


def test_verify_builds_each_channel_once(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, "build_generators", "build_projectors")
    # the crossing check reads no dense Z, so each channel's z_gate is built once, for the gate checks
    z_gate, built = ChannelSpec.__dict__["z_gate"], Counter()

    def counted(spec, build=z_gate.func):
        built[spec.kind.value] += 1
        return build(spec)
    monkeypatch.setattr(z_gate, "func", counted)
    code, data = run_json(tmp_path, "verify", "--n", "8")
    assert code == 0
    assert data["all_passed"]
    assert calls == {"build_generators": 1, "build_projectors": 2}
    assert built == {"s": 1, "t": 1}


def test_verify_leaves_numpy_random_unimported(tmp_path):
    # pytest has imported numpy.random already, so verify runs in a fresh interpreter
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("import sys; from sun_gates.cli import main; "
              f"print(main(['verify', '--n', '3', '--output', {str(tmp_path / 'out.json')!r}]), "
              "'numpy.random' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n"


def test_negative_seed_is_usage_error(tmp_path, capsys):
    code, text = run(tmp_path, "verify", "--seed", "-1")
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert "--seed" in err and "'-1'" in err


def test_json_floats_round_trip_exactly(tmp_path):
    # serialized floats reparse to the same doubles the library computed
    code, data = run_json(tmp_path, "encode", "--a", "0.6,0", "--b", "0,0.8", "--n", "3", "--channel", "s")
    assert code == 0
    plan = plan_encoding(AmplitudeCoefficients(ChannelSpec(Channel.S, 3), 0.6, 0.8j))
    assert data["alpha"] == plan.alpha
    assert data["gamma"] == plan.gamma
    assert data["circuit"]["gates"][0]["theta"] == 2.0 * plan.gamma


def test_verify_is_deterministic_given_seed(tmp_path, monkeypatch):
    code1, data1 = run_json(tmp_path, "verify", "--n", "3", "--seed", "11")
    code2, data2 = run_json(tmp_path, "verify", "--n", "3", "--seed", "11")
    assert (code1, data1) == (code2, data2)
    # the seed reaches the round-trip operator: one seed draws one operator, another a different one
    ops = []
    monkeypatch.setattr(cli, "decompose", lambda op, gens, decompose=cli.decompose: ops.append(op) or decompose(op, gens))
    for seed in ("11", "11", "12"):
        assert run_json(tmp_path, "verify", "--n", "3", "--seed", seed)[0] == 0
    assert np.array_equal(ops[0], ops[1]) and not np.array_equal(ops[0], ops[2])
    assert all(-1.0 <= part.min() and part.max() < 1.0 for op in ops for part in (op.real, op.imag))


def swap_or_parity(psi, n, channel):
    """Z psi without a matrix: the transpose of psi as N x N in the s channel, 2<s|psi>|s> - psi in the t channel."""
    if channel == "s":
        return psi.reshape(n, n).T.ravel()
    singlet = np.eye(n).ravel() / np.sqrt(n)
    return 2.0 * np.vdot(singlet, psi) * singlet - psi


@pytest.mark.parametrize("channel", ["s", "t"])
def test_encode_at_dimension_cap(tmp_path, channel):
    n = DIMENSION_LIMITS["encode"]
    rng = np.random.default_rng(32)
    psi = rng.normal(size=n * n)
    psi /= np.linalg.norm(psi)
    a, b = 0.4 - 0.3j, -0.2 + 0.9j
    code, text = run(tmp_path, "encode", "--n", str(n), "--channel", channel, "--a=0.4,-0.3", "--b=-0.2,0.9",
                     "--psi=" + ",".join(repr(float(v)) for v in psi))
    assert code == 0
    data = _strict_json(text)
    assert data["all_passed"]
    alpha = abs(a) + abs(b)
    m_psi = a * psi + b * swap_or_parity(psi, n, channel)
    assert abs(data["postselection_probability"] - np.vdot(m_psi, m_psi).real / alpha ** 2) <= 1e-12


def test_encode_holds_at_most_three_dense_arrays(tmp_path):
    # the t-channel Z is built from its closed form: no projector pair and no stored identity next to it
    n = 16
    psi = np.full(n * n, 1.0 / n)
    dense_bytes = (n * n) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        code, _ = run(tmp_path, "encode", "--n", str(n), "--channel", "t", "--a=0.4,-0.3", "--b=-0.2,0.9",
                      "--psi=" + ",".join(repr(float(v)) for v in psi))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * dense_bytes, peak / dense_bytes


@pytest.mark.parametrize("channel", ["s", "t"])
def test_encode_at_its_cap_allocates_no_dense_array(tmp_path, channel):
    # Z acts on psi in O(N^2): the whole run stays below 1% of one N^2 x N^2 complex array
    n = DIMENSION_LIMITS["encode"]
    psi = np.full(n * n, 1.0 / n)
    dense_bytes = (n * n) ** 2 * np.dtype(complex).itemsize
    argv = ["encode", "--n", str(n), "--channel", channel, "--a=0.4,-0.3", "--b=-0.2,0.9",
            "--psi=" + ",".join(repr(float(v)) for v in psi)]
    tracemalloc.start()
    try:
        code, _ = run(tmp_path, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < dense_bytes / 100, peak / dense_bytes


coefficient = st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 8), kind=st.sampled_from(list(Channel)), a=coefficient, b=coefficient,
       other=st.tuples(coefficient, coefficient),
       axes=st.sampled_from([(0, *tail) for tail in itertools.permutations((1, 2, 3))]))
def test_crossing_deviation_matches_the_dense_operators(n, kind, a, b, other, axes):
    # the dense crossing_map(M_s) - M_t over all N^4 entries is the oracle of the support-based check
    def dense(s_coeffs, t_coeffs):
        return np.abs(crossing_map(amplitude_operator(s_coeffs)) - amplitude_operator(t_coeffs)).max()

    coeffs = AmplitudeCoefficients(ChannelSpec(kind, n), a, b)
    crossed, _, deviation = cli._crossing_deviations(coeffs)
    s_coeffs, t_coeffs = (coeffs, crossed) if kind is Channel.S else (crossed, coeffs)
    assert abs(deviation - dense(s_coeffs, t_coeffs)) <= 1e-15
    # an unrelated t-channel pair leaves O(1) entries on both supports, so each entry is pinned, not only a zero;
    # every spectator-fixing regrouping is pinned too, since select_crossing_axes reads each through the supports
    unrelated = AmplitudeCoefficients(t_coeffs.channel, *other)
    moved = np.transpose(amplitude_operator(s_coeffs).reshape(n, n, n, n), axes).reshape(n * n, n * n)
    expected = np.abs(moved - amplitude_operator(unrelated)).max()
    deviation = crossing_operator_deviation(s_coeffs, unrelated, axes)
    assert abs(deviation - expected) <= 1e-15 * max(1.0, expected)


@pytest.mark.parametrize("channel", ["s", "t"])
def test_cross_at_its_cap_allocates_no_dense_array(tmp_path, channel):
    # the crossing is checked on the O(N^2) nonzero entries: the run stays below 1% of one N^2 x N^2 complex array
    n = DIMENSION_LIMITS["cross"]
    dense_bytes = (n * n) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        code, text = run(tmp_path, "cross", "--n", str(n), "--channel", channel, "--a=0.4,-0.3", "--b=-0.2,0.9")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert _strict_json(text)["all_passed"]
    assert peak < dense_bytes / 100, peak / dense_bytes


# edge values of every numeric field; no token of EDGE parses to an int above 4
EDGE = ["0", "-0", "5e-324", "1e-320", "1e308", "1e400", "nan", "inf", "2.5", "0x10", ""]
SECTOR_HEADER = "j,re_a,im_a,re_b,im_b,kappa\n"
# each flag's well-formed values, and the edge values that replace up to two of them in a drawn command line
WELL_FORMED = {
    "--n": ["2", "3", "4"],
    "--channel": ["s", "t"],
    "--tolerance": ["1e-12", "1e-320"],  # at 1e-320 any nonzero deviation fails its check
    "--seed": ["0", "7"],
    "--a": ["1,0", "0.6,-0.8", "5e-324,0"],
    "--b": ["0,0", "0,1", "-2.5,1e-320"],
    "--resolution": ["2", "3", "16"],
    "--format": ["csv", "json"],
}
# re,im from edge parts, or the wrong field count
edge_complex = st.one_of(st.tuples(st.sampled_from(EDGE), st.sampled_from(EDGE)).map(",".join),
                         st.sampled_from(["1", "1,0,0"]))
EDGE_VALUES = {
    "--n": st.sampled_from([*EDGE, "-1", "1"]),
    "--channel": st.just("u"),
    "--tolerance": st.sampled_from(EDGE),
    "--seed": st.sampled_from([*EDGE, "-1"]),
    "--a": edge_complex,
    "--b": edge_complex,
    "--resolution": st.sampled_from([*EDGE, "1"]),
    "--format": st.just("xml"),
}
COMMAND_FLAGS = {
    "generators": ["--n", "--tolerance"],
    "verify": ["--n", "--channel", "--tolerance", "--seed"],
    "encode": ["--n", "--channel", "--tolerance", "--a", "--b", "--psi"],
    "cross": ["--n", "--channel", "--tolerance", "--a", "--b"],
    "disk": ["--resolution", "--format"],
    "partial-wave": ["--tolerance"],
}


@pytest.fixture(scope="module")
def sector_files(tmp_path_factory):
    """Small sector tables: in and beyond the bound, header only, bad header, short row, an edge value per field."""
    root = tmp_path_factory.mktemp("sectors")
    base = ["0", "0.6", "0", "0.8", "0", "1"]
    tables = {"valid": SECTOR_HEADER + ",".join(base) + "\n", "violation": SECTOR_HEADER + "0,1,0,1,0,1\n",
              "header-only": SECTOR_HEADER, "bad-header": "j,a,b\n0,1,0\n", "short-row": SECTOR_HEADER + "0,1,0\n"}
    for field in range(6):
        for i, token in enumerate(EDGE):
            row = [*base[:field], token, *base[field + 1:]]
            tables[f"field{field}-{i}"] = SECTOR_HEADER + ",".join(row) + "\n"
    for name, text in tables.items():
        (root / f"{name}.csv").write_text(text)
    return [str(root / f"{name}.csv") for name in tables] + [str(root / "missing.csv")]


@st.composite
def psi_tokens(draw, n, corrupt):
    """A basis vector of N^2 real amplitudes; a corrupt one may have N^2 +- 1 entries or an edge value."""
    length = n * n + (draw(st.integers(-1, 1)) if corrupt else 0)
    values = ["0"] * length
    values[draw(st.integers(0, length - 1))] = "1"
    if corrupt and draw(st.booleans()):
        values[draw(st.integers(0, length - 1))] = draw(st.sampled_from(EDGE))
    return ",".join(values)


@st.composite
def command_lines(draw, sector_files):
    """A subcommand with some of its flags (maybe one it does not read), each joined or split from its value."""
    command = draw(st.sampled_from(list(COMMAND_FLAGS)))
    flags = [flag for flag in COMMAND_FLAGS[command] if draw(st.integers(0, 7))]
    flags = list(dict.fromkeys(flags + draw(st.sampled_from([[]] * 6 + [["--resolution"], ["--seed"], ["--a"]]))))
    corrupt = set(draw(st.lists(st.sampled_from(flags), max_size=2))) if flags else set()
    values = {flag: draw(EDGE_VALUES[flag] if flag in corrupt else st.sampled_from(WELL_FORMED[flag]))
              for flag in flags if flag != "--psi"}
    if "--psi" in flags:
        n = values.get("--n", "3")  # --n defaults to 3
        n = int(n) if n in WELL_FORMED["--n"] else draw(st.integers(2, 4))
        values["--psi"] = draw(psi_tokens(n, "--psi" in corrupt))
    argv = [command] + ([draw(st.sampled_from(sector_files))] if command == "partial-wave" else [])
    for flag, value in values.items():
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_command_line_exits_cleanly(sector_files, data):
    # exit 0 or 1 with its strict payload and the verdict it states, or exit 2 with one error and no stdout
    argv = data.draw(command_lines(sector_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert "Traceback" not in stderr
    if code == 2:
        assert stdout == ""
        assert "error:" in stderr
        return
    assert code in (0, 1)
    if argv[0] == "disk":
        assert code == 0
        if stdout.startswith("theta,"):
            assert stdout.startswith("theta,phi,re_a,im_a,re_b,im_b,norm_sq\r\n")
            return
    payload = _strict_json(stdout)
    verdict = payload.get("all_passed", payload.get("all_bounds_satisfied", True))
    assert verdict is (code == 0)
