import argparse
import contextlib
import csv
import io
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sun_gates import cli
from sun_gates import invariant_channels as channels
from sun_gates import lcu_encoder
from sun_gates.amplitude_model import AmplitudeCoefficients, amplitude_operator, disk_samples
from sun_gates.cli import DIMENSION_LIMITS, build_parser, main, parse_complex
from sun_gates.invariant_channels import Channel, ChannelSpec, crossing_map, crossing_operator_deviation
from sun_gates.lcu_encoder import plan_encoding, verify_block
from sun_gates.sun_algebra import GeneratorSet, build_generators, verify_completeness


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


@pytest.mark.parametrize("n", [2, 3, 5])
def test_generators_text_is_one_json_dump_of_its_payload(capsys, n):
    # the oracle: one json.dumps of the whole payload, the generators as nested [re, im] lists
    assert main(["generators", "--n", str(n)]) == 0
    text = capsys.readouterr().out
    data = json.loads(text)
    gens = build_generators(n)
    data["generators"] = gens.generators.view(np.float64).reshape(len(gens), n, n, 2).tolist()
    assert text == json.dumps(data, indent=2) + "\n"
    # the antisymmetric generators' real parts: equal to 0.0, but printed apart from it
    assert "-0.0" in text


def test_generators_at_its_cap_writes_its_text_piece_by_piece(tmp_path):
    # 52.9 MB of text at N = 32.  The measured peak is 93.5 MB (1.77x), all of it in the identity checks before
    # the first piece; the text held whole as one str peaks at 2.0x, and one json.dumps of nested lists at 8.4x
    out = tmp_path / "generators.json"
    tracemalloc.start()
    try:
        code = main(["generators", "--n", str(DIMENSION_LIMITS["generators"]), "--output", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.9 * out.stat().st_size, peak / out.stat().st_size


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


def fault(owner, name, wrap):
    """A fault to install with monkeypatch: ``owner.name`` becomes ``wrap`` of the original."""
    def install(monkeypatch):
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    return install


def result_fault(owner, name, change):
    """A fault: ``owner.name`` returns ``change`` of what it returned."""
    return fault(owner, name, lambda original: lambda *args: change(original(*args)))


def generator_fault(a, scale=1.0, shift=0.0):
    """A fault: the generators ``verify`` builds have T^a replaced by scale T^a + shift I."""
    def change(gens):
        mats = gens.generators.copy()
        mats[a] = scale * mats[a] + shift * np.eye(gens.n)
        return GeneratorSet(n=gens.n, generators=mats)
    return result_fault(cli, "build_generators", change)


scaled_t0 = generator_fault(0, scale=1.01)
doubled_p_plus = result_fault(cli, "build_projectors", lambda pair: (2.0 * pair[0], pair[1]))
p_minus_as_p_plus = result_fault(cli, "build_projectors", lambda pair: (pair[0], pair[0]))
scaled_z, phased_z = (result_fault(ChannelSpec.__dict__["z_gate"], "func", lambda z, c=c: c * z) for c in (1.01, 1j))


def wrong_axes(monkeypatch):
    """A fault: the crossing reads the legs with no regrouping."""
    monkeypatch.setattr(channels, "CROSSING_AXES", (0, 1, 2, 3))


scaled_crossed_b = result_fault(cli, "cross_coefficients", lambda crossed: replace(crossed, b=1.01 * crossed.b))

#: One fault per check that ``verify`` runs; that check must report it
FAULTS = {
    "generator_hermiticity": generator_fault(0, scale=1j),
    "generator_tracelessness": generator_fault(-1, shift=0.01),
    "generator_orthonormality": scaled_t0,
    "completeness_identity": scaled_t0,
    **{f"{check}[{tag}]": installer for tag in "st" for check, installer in [
        ("projector_idempotence", doubled_p_plus),
        ("projector_orthogonality", p_minus_as_p_plus),
        ("projector_completeness", p_minus_as_p_plus),
        ("projector_traces", doubled_p_plus),
        ("projector_generator_form", doubled_p_plus),
        ("gate_unitarity", scaled_z),
        ("gate_involution", phased_z),
        ("gate_hermiticity", phased_z),
    ]},
    # z_gate is the matrix of apply_z, so an s-channel apply_z that leaves psi alone gives Z = I
    "swap_action": fault(ChannelSpec, "apply_z",
                         lambda apply_z: lambda spec, psi: psi if spec.kind is Channel.S else apply_z(spec, psi)),
    "u_spectrum": scaled_z,
    # X read with the s-channel pairing sum_a T^a (x) T^a
    "u_exponential_form": fault(channels, "charge_parity_bilinear",
                                lambda _: lambda gens: sum(np.kron(t, t) for t in gens)),
    "crossing_row_identity": wrong_axes,
    "crossing_row_swap": wrong_axes,
    "crossing_coefficient_round_trip": scaled_crossed_b,
    "crossing_operator_consistency": scaled_crossed_b,
    "decompose_round_trip": result_fault(cli, "decompose", lambda dec: replace(dec, corr=dec.corr.T)),
}


def verify_stdout(capsys, *args):
    """Run ``verify`` on stdout; return its exit status and strict-JSON payload, with stderr empty."""
    code = main(["verify", *args])
    out, err = capsys.readouterr()
    assert err == ""
    return code, _strict_json(out)


with contextlib.redirect_stdout(io.StringIO()) as clean:
    assert main(["verify", "--n", "3"]) == 0
#: The check names of a clean ``verify`` payload, in its order
CHECK_NAMES = [row["name"] for row in json.loads(clean.getvalue())["checks"]]


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_every_check_catches_a_fault(capsys, monkeypatch, name):
    # a check with no fault case fails here, so every new check brings the fault it catches
    assert name in FAULTS, f"no fault case for the check {name}"
    FAULTS[name](monkeypatch)
    code, payload = verify_stdout(capsys, "--n", "3")
    row = next(row for row in payload["checks"] if row["name"] == name)
    assert code == 1 and not payload["all_passed"]
    assert row["max_deviation"] > 1e-6


def test_a_generator_fault_fails_a_check_instead_of_exiting_2(capsys, monkeypatch):
    # the library measures a wrong construction; only a usage or input error exits 2
    scaled_t0(monkeypatch)
    code, payload = verify_stdout(capsys, "--n", "4")
    row = next(row for row in payload["checks"] if row["name"] == "u_exponential_form")
    assert code == 1
    assert row["max_deviation"] > 1e-6


def test_a_fault_in_apply_z_fails_verify(capsys, monkeypatch):
    # z_gate is the matrix of apply_z, so the gate rows measure the Z that encode applies
    fault(ChannelSpec, "apply_z", lambda apply_z: lambda spec, psi: 1.01 * apply_z(spec, psi))(monkeypatch)
    code, payload = verify_stdout(capsys, "--n", "3")
    rows = {row["name"]: row for row in payload["checks"]}
    assert code == 1 and not payload["all_passed"]
    for name in (f"{gate}[{tag}]" for gate in ("gate_unitarity", "gate_involution") for tag in "st"):
        assert rows[name]["max_deviation"] > 1e-6 and not rows[name]["passed"]


#: The three delta pairings of the legs of [(a,b),(c,d)]: direct d_ac d_bd, exchange d_ad d_bc, singlet d_ab d_cd
PAIRINGS = {"direct": ("ac", "bd"), "exchange": ("ad", "bc"), "singlet": ("ab", "cd")}


def projector_terms(kind, n):
    """Each projector of the pair (p_plus, p_minus) of ``build_projectors`` as its (coefficient, pairing) terms."""
    if kind == "s":
        return [[(0.5, "direct"), (0.5, "exchange")], [(0.5, "direct"), (-0.5, "exchange")]]
    return [[(1.0 / n, "singlet")], [(1.0, "direct"), (-1.0 / n, "singlet")]]


def projector_pair(terms, n):
    eye = np.eye(n, dtype=complex)
    return tuple(sum(c * np.einsum("{},{}->abcd".format(*PAIRINGS[pairing]), eye, eye).reshape(n * n, n * n)
                     for c, pairing in projector) for projector in terms)


#: Each single delta-pairing fault: one term of one channel's P_plus or P_minus read with another pairing
PAIRING_MUTANTS = [
    (kind, p, term, other)
    for kind in "st" for p, projector in enumerate(projector_terms(kind, 3))
    for term, (_, pairing) in enumerate(projector) for other in PAIRINGS if other != pairing
]


@pytest.mark.parametrize("kind, p, term, other", PAIRING_MUTANTS,
                         ids=[f"{kind}-p_{'plus' if p == 0 else 'minus'}-{term}-{other}"
                              for kind, p, term, other in PAIRING_MUTANTS])
def test_a_single_delta_pairing_fault_fails_a_projector_check(capsys, monkeypatch, kind, p, term, other):
    original = cli.build_projectors
    spec = ChannelSpec(Channel(kind), 3)
    terms = projector_terms(kind, 3)
    assert all(np.array_equal(x, y) for x, y in zip(projector_pair(terms, 3), original(spec)))
    terms[p][term] = (terms[p][term][0], other)
    mutant = projector_pair(terms, 3)
    monkeypatch.setattr(cli, "build_projectors", lambda s: mutant if s == spec else original(s))
    code, payload = verify_stdout(capsys, "--n", "3")
    assert code == 1 and not payload["all_passed"]
    tripped = [row["name"] for row in payload["checks"] if row["name"].startswith("projector_")
               and row["name"].endswith(f"[{kind}]") and row["max_deviation"] > 1e-6]
    assert tripped


def nan_pair_head(pair):
    return np.nan * pair[0], pair[1]


class ShrunkArange:
    """numpy with ``arange(stop)`` read as ``arange(stop / stop)``: the crossing check's support is then 4 points."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def arange(stop):
        return np.arange(stop / stop)


def shrunk_support(rows):
    """``rows`` with ``invariant_channels`` reading ``ShrunkArange`` as numpy inside each call alone."""
    def call(s, t):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(channels, "np", ShrunkArange())
            return rows(s, t)
    return call


#: Faults that make a check's deviation nan, each with the checks it names and how their detail starts;
#: a construction that raises while its check measures names its exception there
NONFINITE_FAULTS = {
    "decompose_nan_corr": (result_fault(cli, "decompose", lambda dec: replace(dec, corr=np.nan * dec.corr)),
                           ["decompose_round_trip"], "ValueError: corr "),
    "nan_p_plus": (result_fault(cli, "build_projectors", nan_pair_head), ["projector_idempotence[s]"], ""),
    "nan_u_exponential_form": (result_fault(cli, "u_exponential_form", lambda u: np.nan * u),
                               ["u_exponential_form"], ""),
    "nan_generator_form_p_plus": (result_fault(cli, "generator_form_projectors", nan_pair_head),
                                  ["projector_generator_form[t]"], ""),
    "nan_hermiticity": (result_fault(cli, "hermiticity_deviation", lambda _: np.nan), ["generator_hermiticity"], ""),
    # GeneratorSet refuses a nan generator, in every row that reads the generators
    "nan_t0": (generator_fault(0, scale=np.nan), [
        "generator_hermiticity", "generator_tracelessness", "generator_orthonormality", "completeness_identity",
        "projector_generator_form[s]", "projector_generator_form[t]", "u_exponential_form", "decompose_round_trip"],
        "ValueError: generators must be finite"),
    # a nan crossed coefficient is refused by AmplitudeCoefficients, in both rows that read the crossing
    "nan_crossed_b": (result_fault(cli, "cross_coefficients", lambda crossed: replace(crossed, b=complex("nan"))),
                      ["crossing_coefficient_round_trip", "crossing_operator_consistency"],
                      "ValueError: coefficient b "),
    # the Fierz tensor of T^0 x 1e200 overflows, in every row that reads it
    "overflowing_t0": (generator_fault(0, scale=1e200), ["projector_generator_form[s]", "u_exponential_form"],
                       "FloatingPointError: overflow"),
    "nan_apply_z": (fault(ChannelSpec, "apply_z", lambda apply_z: lambda spec, psi: np.nan * apply_z(spec, psi)),
                    ["u_spectrum"], "LinAlgError: "),
    # a crossing check that compares 4 of its 4N^2 support points raises, in both rows that read the gate relations
    "shrunk_crossing_support": (fault(cli, "crossing_row_deviations", shrunk_support),
                                ["crossing_row_identity", "crossing_row_swap"], "ValueError: reads 4 of the 36 "),
}


@pytest.mark.parametrize("case", NONFINITE_FAULTS)
def test_a_nonfinite_deviation_is_a_failing_row(capsys, monkeypatch, case):
    # strict JSON has no nan: the row prints null, fails, and names it, and verify exits 1, not 2
    install, names, detail_start = NONFINITE_FAULTS[case]
    install(monkeypatch)
    code, payload = verify_stdout(capsys, "--n", "3")
    assert code == 1 and not payload["all_passed"]
    for name in names:
        row = next(row for row in payload["checks"] if row["name"] == name)
        assert row["max_deviation"] is None and row["passed"] is False
        assert row["detail"].startswith(detail_start) and row["detail"].endswith("max_deviation is nan")


def raising(owner, name):
    """A fault: ``owner.name`` raises ``ValueError("injected")`` whatever it is given."""
    def raise_injected(*args):
        raise ValueError("injected")
    return fault(owner, name, lambda _: raise_injected)


#: Each construction of ``verify`` raising, with the rows at N = 3 that read it: those rows alone fail
RAISING_FAULTS = {
    "build_generators": (raising(cli, "build_generators"), [
        "generator_hermiticity", "generator_tracelessness", "generator_orthonormality", "completeness_identity",
        "projector_generator_form[s]", "projector_generator_form[t]", "u_exponential_form", "decompose_round_trip"]),
    "build_projectors": (raising(cli, "build_projectors"), [
        f"projector_{check}[{tag}]" for tag in "st"
        for check in ("idempotence", "orthogonality", "completeness", "traces", "generator_form")]),
    "apply_z": (raising(ChannelSpec, "apply_z"), [
        *(f"gate_{check}[{tag}]" for tag in "st" for check in ("unitarity", "involution", "hermiticity")),
        "swap_action", "u_spectrum", "u_exponential_form"]),
    "crossing_row_deviations": (raising(cli, "crossing_row_deviations"),
                                ["crossing_row_identity", "crossing_row_swap"]),
}


@pytest.mark.parametrize("case", RAISING_FAULTS)
def test_a_raising_construction_fails_exactly_the_rows_that_read_it(capsys, monkeypatch, case):
    # each construction is built inside the rows that read it, so its raise is a failing row, not exit 2
    install, failing = RAISING_FAULTS[case]
    install(monkeypatch)
    code, payload = verify_stdout(capsys, "--n", "3")
    assert code == 1 and not payload["all_passed"]
    assert [row["name"] for row in payload["checks"]] == CHECK_NAMES
    assert {row["name"]: (row["max_deviation"], row.get("detail")) for row in payload["checks"]
            if not row["passed"]} == dict.fromkeys(failing, (None, "ValueError: injected; max_deviation is nan"))


def test_identity_sweep_tabulates_a_raising_construction(capsys, monkeypatch):
    sweep = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "identity_sweep.py"))
    RAISING_FAULTS["crossing_row_deviations"][0](monkeypatch)
    monkeypatch.setattr(sys, "argv", ["identity_sweep.py", "--max-n", "3"])
    assert sweep["main"]() == 1
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[-1].startswith("worst deviation nan;")


def test_identity_sweep_reports_a_nan_as_its_worst_deviation(capsys, monkeypatch):
    # the nan round trip is the last row at every N, after finite rows that max() would have kept
    sweep = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "identity_sweep.py"))
    NONFINITE_FAULTS["decompose_nan_corr"][0](monkeypatch)
    monkeypatch.setattr(sys, "argv", ["identity_sweep.py", "--max-n", "3"])
    assert sweep["main"]() == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("worst deviation nan;")


def run_sweep_json(capsys, monkeypatch, *args):
    sweep = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "identity_sweep.py"))
    monkeypatch.setattr(sys, "argv", ["identity_sweep.py", "--json", *args])
    code = sweep["main"]()
    out, err = capsys.readouterr()
    assert err == ""
    # strict JSON: the parse fails on a NaN or Infinity token
    return code, json.loads(out, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))


def test_identity_sweep_json_records_every_row_in_units_of_eps(capsys, monkeypatch):
    code, record = run_sweep_json(capsys, monkeypatch, "--max-n", "3", "--seed", "0", "7")
    assert code == 0 and record["all_passed"]
    eps = np.finfo(float).eps
    assert record["eps"] == eps
    assert [(run["seed"], run["n"]) for run in record["runs"]] == [(0, 2), (0, 3), (7, 2), (7, 3)]
    for run in record["runs"]:
        assert [row["name"] for row in run["checks"]] == CHECK_NAMES and len(CHECK_NAMES) == 28
        assert all(row["eps_units"] == row["max_deviation"] / eps for row in run["checks"])


def test_identity_sweep_json_prints_a_nan_row_as_null(capsys, monkeypatch):
    NONFINITE_FAULTS["decompose_nan_corr"][0](monkeypatch)
    code, record = run_sweep_json(capsys, monkeypatch, "--max-n", "2")
    assert code == 1 and not record["all_passed"] and record["worst_deviation"] is None
    rows = record["runs"][0]["checks"]
    assert any(row["max_deviation"] is None for row in rows)
    assert all((row["max_deviation"] is None) == (row["eps_units"] is None) for row in rows)


def test_identity_sweep_prints_its_table_under_a_generator_fault(capsys, monkeypatch):
    # the script's main in process, so the fault reaches the identity suite it calls
    sweep = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "identity_sweep.py"))
    scaled_t0(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["identity_sweep.py", "--max-n", "4"])
    assert sweep["main"]() == 1
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:2 + len(CHECK_NAMES)]]
    assert [row[0] for row in rows] == CHECK_NAMES and all(len(row) == 4 for row in rows)
    assert lines[-1].endswith("all checks pass at 1e-10: False")


def test_stdout_digests_prints_one_line_per_command(capsys):
    # each line is "<sha1> <exit> <argv>", in the script's command order, and the working directory comes back
    cwd = os.getcwd()
    digests = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "stdout_digests.py"))
    digests["main"]()
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and os.getcwd() == cwd
    assert all(re.fullmatch(r"[0-9a-f]{40} [012] \S.*", line) for line in lines), lines
    assert [line.split(" ", 2)[2] for line in lines] == [shlex.join(argv) for argv in digests["COMMANDS"]]


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


@pytest.mark.parametrize("argv, status, error", [
    (["verify", "--n", "2"], 0, ""),
    (["encode", "--n", "2", "--a=0,0", "--b=0,0"], 2, "error: cannot encode the zero amplitude (a = b = 0)\n"),
], ids=["verify", "encode-zero"])
def test_python_m_sun_gates_exits_with_the_status_of_main(capsys, monkeypatch, argv, status, error):
    # the package's __main__ hands main's status to sys.exit, as `python -m sun_gates` runs it
    monkeypatch.setattr(sys, "argv", ["sun_gates", *argv])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("sun_gates", run_name="__main__")
    assert exited.value.code == status
    out, err = capsys.readouterr()
    assert (bool(out), err) == (status == 0, error)


def test_encode_rejects_zero_amplitude(tmp_path, capsys):
    assert main(["encode", "--a", "0,0", "--b", "0,0"]) == 2
    assert "zero amplitude" in capsys.readouterr().err


def test_encode_rejects_bad_psi_length(tmp_path, capsys):
    # apply_with_postselection is the one length check on --psi, so it names the state vector's length
    code, text = run(tmp_path, "encode", "--n", "2", "--a=1,0", "--b=0,0", "--psi=1,0")
    assert (code, text) == (2, "")
    assert capsys.readouterr() == ("", "error: psi must have shape (4,), got (2,)\n")
    # the coefficients are checked before the state, so a zero amplitude is named first
    assert main(["encode", "--n", "2", "--a=0,0", "--b=0,0", "--psi=1,0"]) == 2
    assert "zero amplitude" in capsys.readouterr().err


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


@pytest.mark.parametrize("args, message", [
    (["encode", "--n", "2", "--a=inf,0", "--b=1,0"], "coefficient a must be finite, got (inf+0j)"),
    (["cross", "--n", "2", "--a=1,0", "--b=nan,0"], "coefficient b must be finite, got (nan+0j)"),
], ids=["encode-a", "cross-b"])
def test_a_non_finite_coefficient_is_named(capsys, args, message):
    # AmplitudeCoefficients is the one finiteness rule for --a and --b, in both commands that read them
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("args, message", [
    (["encode", "--n", "2", "--a=abc,0", "--b=0,0"],
     "complex values use the re,im syntax with two real numbers, got 'abc,0'"),
    (["encode", "--n", "2", "--a=1,0", "--b=0,0", "--psi=abc,0,0,0"],
     "psi must be 4 comma-separated real amplitudes for N=2, got 'abc,0,0,0'"),
    (["cross", "--n", "2", "--a=1,0", "--b=0,xyz"],
     "complex values use the re,im syntax with two real numbers, got '0,xyz'"),
    (["encode", "--n", "2", "--a=1,0", "--b=0,0", "--psi="],
     "psi must be 4 comma-separated real amplitudes for N=2, got ''"),
], ids=["a", "psi", "cross-b", "empty-psi"])
def test_non_numeric_input_is_named(tmp_path, capsys, args, message):
    # the whole value is quoted with the rule it breaks, not only float()'s complaint about one part
    code, text = run(tmp_path, *args)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


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


def disk_oracle(resolution, fmt):
    """The ``disk`` text, row by row: a = r cos(theta), b = i r sin(theta), norm_sq = |a|^2 + |b|^2."""
    thetas = np.linspace(0.0, np.pi / 2.0, resolution)
    rows = []
    for r in [1.0] + [k / resolution for k in range(1, resolution)]:
        for t in thetas:
            a, b = complex(r * np.cos(t)), complex(1j * r * np.sin(t))
            rows.append((float(t), a, b, abs(a) ** 2 + abs(b) ** 2))
    if fmt == "json":
        rows = [{"theta": t, "phi": 0.0, "a": [a.real, a.imag], "b": [b.real, b.imag], "norm_sq": norm_sq}
                for t, a, b, norm_sq in rows]
        return json.dumps({"resolution": resolution, "rows": rows}, indent=2) + "\n"
    lines = ["theta,phi,re_a,im_a,re_b,im_b,norm_sq"]
    lines += [",".join(repr(x) for x in (t, 0.0, a.real, a.imag, b.real, b.imag, norm_sq))
              for t, a, b, norm_sq in rows]
    return "".join(line + "\r\n" for line in lines)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("resolution", [2, 8, 64, 257])
def test_disk_text_matches_the_row_formulas(capsys, resolution, fmt):
    assert main(["disk", "--resolution", str(resolution), "--format", fmt]) == 0
    got, want = capsys.readouterr().out.split("\n"), disk_oracle(resolution, fmt).split("\n")
    # the first differing line, not a diff of the whole text, which takes minutes at resolution 257
    assert next(((i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w), None) is None
    assert len(got) == len(want)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_disk_writes_its_table_row_by_row(tmp_path, fmt):
    # 65,536 rows at resolution 256, 5.9 MB of csv or 14.8 MB of json text; held whole, they peak at 18.9 and 132 MB
    tracemalloc.start()
    try:
        code = main(["disk", "--resolution", "256", "--format", fmt, "--output", str(tmp_path / "disk")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # the three columns and at most 1 MB more: one radius of rows at a time, never a whole column as Python objects
    assert peak < sum(column.nbytes for column in disk_samples(256)) + 1e6, peak


@pytest.mark.parametrize("column", [0, 1, 2], ids=["theta", "a", "b"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_nonfinite_disk_sample_exits_2_before_any_output(tmp_path, capsys, monkeypatch, fmt, column):
    # checked before the first piece: stdout stays empty, and --output is never opened
    def nan_in_row_1(columns):
        columns = [c.copy() for c in columns]
        columns[column][1] = np.nan
        return tuple(columns)
    result_fault(cli, "disk_samples", nan_in_row_1)(monkeypatch)
    args = ["disk", "--resolution", "8", "--format", fmt]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: disk samples must be finite, got a nan or infinite entry\n"
    assert main([*args, "--output", str(tmp_path / "disk")]) == 2
    assert not (tmp_path / "disk").exists()


def inf_entry(gens):
    mats = gens.generators.copy()
    mats[0, 0, 1] = np.inf
    return GeneratorSet(n=gens.n, generators=mats)


@pytest.mark.parametrize("fault, message", [
    (result_fault(cli, "build_generators", inf_entry), "generators must be finite, got a nan or infinite entry"),
    (result_fault(cli, "hermiticity_deviation", lambda deviation: np.nan), "not JSON compliant"),
], ids=["entry", "deviation"])
def test_a_nonfinite_generators_value_exits_2_before_any_output(tmp_path, capsys, monkeypatch, fault, message):
    # the entries and, through _json of the header, every other value are checked before the first piece
    fault(monkeypatch)
    args = ["generators", "--n", "3"]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert main([*args, "--output", str(tmp_path / "generators.json")]) == 2
    assert not (tmp_path / "generators.json").exists()


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


@pytest.mark.parametrize("table, message", [
    ("j,a,b\n0,1,0\n", "line 1: expected header j,re_a,im_a,re_b,im_b,kappa, got j,a,b"),
    ("j,re_a,im_a,re_b,im_b,kappa\n0,1,0,0,0\n", "line 2: expected 6 fields, got 5"),
], ids=["header", "field-count"])
def test_partial_wave_malformed_table_is_named(tmp_path, capsys, table, message):
    sectors = tmp_path / "sectors.csv"
    sectors.write_text(table)
    code, text = run(tmp_path, "partial-wave", str(sectors))
    assert (code, text) == (2, "")
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
    """main never raises; exit 0/1 writes strict JSON, exit 2 writes nothing.  Returns the exit status."""
    out = tmp_path / "fuzz.json"
    out.unlink(missing_ok=True)
    code = main([*args, "--output", str(out)])
    assert code in (0, 1, 2)
    if code == 2:
        assert not out.exists()
    else:
        _strict_json(out.read_text())
    return code


finite = st.floats(allow_nan=False, allow_infinity=False)
FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(command=st.sampled_from(["encode", "cross"]), n=st.sampled_from([2, 3]),
       channel=st.sampled_from(["s", "t"]), a=st.tuples(finite, finite), b=st.tuples(finite, finite))
def test_fuzz_coefficient_commands(tmp_path, command, n, channel, a, b):
    # a pair with alpha = |a| + |b| in the normal range passes, or overflows (exit 2); it never fails a check
    code = _check_cli_contract(tmp_path, command, "--n", str(n), "--channel", channel,
                               "--a={!r},{!r}".format(*a), "--b={!r},{!r}".format(*b))
    assert code != 1 or abs(complex(*a)) + abs(complex(*b)) < sys.float_info.min


magnitudes = st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                       st.floats(-9.99, 9.99), st.integers(-300, 149))


@FUZZ
@example(n=3, channel="s", parts=(1e6, 0.3, 0.7, 1e6))
@example(n=3, channel="s", parts=(1e9, 0.3, 0.7, 1e9))
@given(n=st.sampled_from([2, 3, 5, 16, 64]), channel=st.sampled_from(["s", "t"]),
       parts=st.tuples(*[st.one_of(magnitudes, st.floats(-1e150, 1e150))] * 4))
def test_cross_passes_finite_coefficients_at_any_scale(capsys, n, channel, parts):
    # rounding grows with the coefficients, so cross judges it against tolerance * max(1, |a|, |b|, |a'|, |b'|)
    code = main(["cross", "--n", str(n), "--channel", channel,
                 "--a={!r},{!r}".format(*parts[:2]), "--b={!r},{!r}".format(*parts[2:])])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "") and _strict_json(out)["all_passed"]


def test_cross_fails_a_relative_fault_at_large_coefficients(capsys, monkeypatch):
    # the scaled tolerance still catches a crossed b' off by one part in 1e9, at a scale where rounding passes
    argv = ["cross", "--n", "3", "--a=1e6,0.3", "--b=0.7,1e6"]
    assert main(argv) == 0
    result_fault(cli, "cross_coefficients", lambda crossed: replace(crossed, b=(1 + 1e-9) * crossed.b))(monkeypatch)
    capsys.readouterr()
    assert main(argv) == 1 and not _strict_json(capsys.readouterr().out)["all_passed"]


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


@pytest.mark.parametrize("a, b", [("3e-322,1e-323", "0,0"), ("1e-323,0", "7e-323,-2e-322")])
def test_subnormal_alpha_that_loses_bits_fails_the_block_check(tmp_path, a, b):
    # abs() of two nonzero subnormal parts rounds to the subnormal grid, so the printed alpha cannot carry a / alpha
    code, text = run(tmp_path, "encode", "--n", "2", f"--a={a}", f"--b={b}")
    assert code == 1
    assert _strict_json(text)["block_identity_deviation"] > 1e-6


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
    report = verify_block(plan_encoding(coeffs))
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


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # each sun-gates line of the README's bash blocks exits 0 as printed;
    # partial-wave reads a table with the header its comment names
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"^```bash\n(.*?)^```$", readme, re.M | re.S)
             for line in block.splitlines() if line.startswith("sun-gates ")]
    assert len(lines) >= 7
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if argv[0] == "partial-wave":
            header, = re.findall(r"CSV header: (\S+)", comment)
            (tmp_path / argv[1]).write_text(f"{header}\n0,0.6,0,0.8,0,1\n")
        assert main(argv) == 0, line
        assert capsys.readouterr().err == "", line


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


def test_encode_replays_its_plan_once(capsys, monkeypatch):
    # cli exports the circuit for the payload, and the plan replays its own export once for both of its readers
    calls = Counter()
    for module in (cli, lcu_encoder):
        def counted(plan, name=module.__name__, export=lcu_encoder.export_circuit):
            calls[name] += 1
            return export(plan)
        monkeypatch.setattr(module, "export_circuit", counted)
    assert main(["encode", "--n", "2", "--a=0.3,0.1", "--b=0.2,0", "--psi=0,0.6,0.8,0"]) == 0
    assert '"postselection_probability"' in capsys.readouterr().out
    assert calls == {"sun_gates.cli": 1, "sun_gates.lcu_encoder": 1}


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
       other=st.tuples(coefficient, coefficient))
def test_crossing_deviation_matches_the_dense_operators(n, kind, a, b, other):
    # the dense crossing_map(M_s) - M_t over all N^4 entries is the oracle of the support-based check
    def dense(s_coeffs, t_coeffs):
        return np.abs(crossing_map(amplitude_operator(s_coeffs)) - amplitude_operator(t_coeffs)).max()

    coeffs = AmplitudeCoefficients(ChannelSpec(kind, n), a, b)
    crossed, _, deviation = cli._crossing_deviations(coeffs)
    s_coeffs, t_coeffs = (coeffs, crossed) if kind is Channel.S else (crossed, coeffs)
    assert abs(deviation - dense(s_coeffs, t_coeffs)) <= 1e-15
    # an unrelated t-channel pair leaves O(1) entries on both supports, so each entry is pinned, not only a zero
    unrelated = AmplitudeCoefficients(t_coeffs.channel, *other)
    expected = dense(s_coeffs, unrelated)
    deviation = crossing_operator_deviation(s_coeffs, unrelated)
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
