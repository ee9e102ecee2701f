"""Every oracle accepts the CLI's real payloads and rejects corrupted ones."""

import contextlib
import io
import json

import numpy as np
import pytest

import oracles
import workloads
from sun_gates import cli

SEED = 7


def run_item(item: workloads.Item) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(item.argv) == 0
    return buffer.getvalue()


@pytest.fixture(scope="module")
def cold_items(tmp_path_factory):
    """One item of each cli-cold subcommand with its real output: {subcommand: (item, output)}."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "WORK_DIR", tmp_path_factory.mktemp("work"))
        workloads.write_sector_files(SEED)
        items = [workloads.cli_cold_item(SEED, index) for index in range(6)]
        return {item.argv[0]: (item, run_item(item)) for item in items}


def test_real_payloads_pass(cold_items):
    for item, text in cold_items.values():
        item.check(text)


@pytest.mark.parametrize("make_item", [workloads.verify_n8_item, workloads.encode_n16_item])
@pytest.mark.parametrize("index", [0, 1])
def test_real_in_process_payloads_pass(make_item, index):
    item = make_item(SEED, index)
    found = item.check(run_item(item))
    assert found and all(0.0 <= dev <= oracles.EXACT for dev in found.values())


def corrupt(text: str, edit) -> str:
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


def drop_check(payload):
    payload["checks"] = [c for c in payload["checks"] if c["name"] != "decompose_round_trip"]


def set_key(key, value):
    return lambda payload: payload.__setitem__(key, value)


def scale_key(key, factor):
    return lambda payload: payload.__setitem__(key, payload[key] * factor)


def nan_deviation(payload):
    payload["checks"][0]["max_deviation"] = float("nan")


def wrong_spectrum(payload):
    next(c for c in payload["checks"] if c["name"] == "u_spectrum")["detail"] = "multiplicities +1 x2, -1 x7"


def perturb_generator(payload):
    payload["generators"][0][0][1][0] += 1e-9


def perturb_crossed(payload):
    payload["a_crossed"][0] += 1e-9


def perturb_eigenvalue(payload):
    payload["sectors"][0]["eigen_plus"][1] += 1e-9


CORRUPTIONS = {
    "verify": [
        ("nan token", nan_deviation),
        ("missing check", drop_check),
        ("all_passed false", set_key("all_passed", False)),
        ("wrong spectrum", wrong_spectrum),
    ],
    "encode": [
        ("nan token", set_key("postselection_probability", float("nan"))),
        ("perturbed probability", scale_key("postselection_probability", 1.0 + 1e-9)),
        ("all_passed false", set_key("all_passed", False)),
        ("infinite deviation", set_key("w_unitarity_deviation", float("inf"))),
        ("wrong alpha", scale_key("alpha", 1.0 + 1e-9)),
    ],
    "generators": [
        ("perturbed matrix", perturb_generator),
        ("all_passed false", set_key("all_passed", False)),
    ],
    "cross": [
        ("perturbed coefficient", perturb_crossed),
        ("nan token", set_key("round_trip_deviation", float("nan"))),
    ],
    "partial-wave": [
        ("perturbed eigenvalue", perturb_eigenvalue),
        ("all bounds false", set_key("all_bounds_satisfied", False)),
    ],
}


@pytest.mark.parametrize("command,label,edit",
                         [(command, label, edit) for command, cases in CORRUPTIONS.items() for label, edit in cases])
def test_corrupted_payload_is_rejected(cold_items, command, label, edit):
    item, text = cold_items[command]
    with pytest.raises(oracles.OracleError):
        item.check(corrupt(text, edit))


def test_corrupted_disk_rows_are_rejected(cold_items):
    item, text = cold_items["disk"]
    lines = text.splitlines()
    with pytest.raises(oracles.OracleError):
        item.check("\n".join(lines[:-1]))
    fields = lines[1].split(",")
    fields[-1] = "nan"
    with pytest.raises(oracles.OracleError):
        item.check("\n".join([lines[0], ",".join(fields), *lines[2:]]))


@pytest.mark.parametrize("channel", ["s", "t"])
def test_swap_or_parity_matches_the_dense_operator(channel):
    n = 3
    eye = np.eye(n * n)
    if channel == "s":
        dense = sum(np.outer(eye[j * n + i], eye[i * n + j]) for i in range(n) for j in range(n))
    else:
        singlet = np.eye(n).reshape(n * n) / np.sqrt(n)
        dense = 2.0 * np.outer(singlet, singlet) - eye
    psi = np.linspace(-1.0, 1.0, n * n)
    assert np.abs(oracles.swap_or_parity(psi, n, channel) - dense @ psi).max() < 1e-15
