import csv
import json
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sun_gates.cli import main, parse_complex


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
    (["verify", "--n", "2", "--tolerance", "inf"], None),
    (["verify", "--n", "2"], "inf"),
], ids=["a", "b", "psi", "tolerance", "env-tolerance"])
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


def test_partial_wave_empty_file(tmp_path):
    sectors = tmp_path / "sectors.csv"
    sectors.write_text("")
    code, data = run_json(tmp_path, "partial-wave", str(sectors))
    assert code == 0
    assert data["sectors"] == []


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
@pytest.mark.parametrize("args", [
    ["partial-wave", "{sectors}"],
    ["cross", "--n", "2", "--a=1e308,1e308", "--b=1e308,0"],
    ["encode", "--n", "2", "--a=1e308,0", "--b=1e308,0"],
], ids=["partial-wave", "cross", "encode"])
def test_overflow_exits_2(tmp_path, capsys, args):
    sectors = tmp_path / "sectors.csv"
    sectors.write_text("j,re_a,im_a,re_b,im_b,kappa\n0,1e200,0,0,0,1\n")
    code, text = run(tmp_path, *[arg.format(sectors=sectors) for arg in args])
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert "overflow" in err
    assert "Warning" not in err and "Traceback" not in err


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
    coefficients = ["--a", "1,0", "--b", "0,0"] if command in ("encode", "cross") else []
    code, text = run(tmp_path, command, "--n", "33", *coefficients)
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert "--n" in err and "'33'" in err and "32" in err


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
    calls = count_calls(monkeypatch, "build_generators", "build_projectors", "build_gates")
    code, data = run_json(tmp_path, "verify", "--n", "3")
    assert code == 0
    assert data["all_passed"]
    assert calls == {"build_generators": 1, "build_projectors": 2, "build_gates": 2}


def test_negative_seed_is_usage_error(tmp_path, capsys):
    code, text = run(tmp_path, "verify", "--seed", "-1")
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert "--seed" in err and "'-1'" in err


def test_json_floats_round_trip_exactly(tmp_path):
    # serialized floats reparse to the same doubles the library computed
    from sun_gates.amplitude_model import AmplitudeCoefficients
    from sun_gates.invariant_channels import s_channel
    from sun_gates.lcu_encoder import plan_encoding

    code, data = run_json(tmp_path, "encode", "--a", "0.6,0", "--b", "0,0.8", "--n", "3", "--channel", "s")
    assert code == 0
    plan = plan_encoding(AmplitudeCoefficients(s_channel(3), 0.6, 0.8j))
    assert data["alpha"] == plan.alpha
    assert data["gamma"] == plan.gamma
    assert data["circuit"]["gates"][0]["theta"] == 2.0 * plan.gamma


def test_verify_is_deterministic_given_seed(tmp_path):
    code1, data1 = run_json(tmp_path, "verify", "--n", "3", "--seed", "11")
    code2, data2 = run_json(tmp_path, "verify", "--n", "3", "--seed", "11")
    assert (code1, data1) == (code2, data2)
