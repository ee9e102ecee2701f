"""Acceptance suite: one test per shipping criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import csv
import json
import time

import numpy as np
from scipy.linalg import expm

from sun_gates.amplitude_model import (
    AmplitudeCoefficients,
    PartialWaveSector,
    amplitude_operator,
    cross_coefficients,
    invariance_residual,
    scalar_amplitudes,
    unitary_parameterization,
)
from sun_gates.cli import main
from sun_gates.invariant_channels import (
    CROSSING_AXES,
    Channel,
    ChannelSpec,
    build_projectors,
    crossing_map,
    generator_form_projectors,
    select_crossing_axes,
    swap_matrix,
    u_exponential_form,
)
from sun_gates.lcu_encoder import (
    apply_with_postselection,
    build_w,
    export_circuit,
    plan_encoding,
    verify_block,
)
from sun_gates.sun_algebra import (
    build_generators,
    hermiticity_deviation,
    orthonormality_deviation,
    tracelessness_deviation,
    verify_completeness,
)


def report(criterion, ok, detail=""):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_pairs(rng, count):
    values = rng.normal(size=(count, 4))
    return [(complex(x[0], x[1]), complex(x[2], x[3])) for x in values]


def test_criterion_1_generator_suite():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        gens = build_generators(n)
        worst = max(
            worst,
            hermiticity_deviation(gens),
            tracelessness_deviation(gens),
            orthonormality_deviation(gens),
            verify_completeness(gens),
        )
    elapsed = time.perf_counter() - start
    report(
        "1 (generators, N=2..8)",
        worst <= 1e-12 and elapsed < 5.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_projector_suite():
    worst = 0.0
    for n in range(2, 9):
        gens = build_generators(n)
        eye = np.eye(n * n)
        for kind in (Channel.S, Channel.T):
            spec = ChannelSpec(kind, n)
            p, q = build_projectors(spec)
            if kind is Channel.S:
                traces = (n * (n + 1) / 2.0, n * (n - 1) / 2.0)
            else:
                traces = (1.0, float(n * n - 1))
            g_plus, g_minus = generator_form_projectors(spec, gens)
            worst = max(
                worst,
                np.abs(p @ p - p).max(),
                np.abs(q @ q - q).max(),
                np.abs(p @ q).max(),
                np.abs(p + q - eye).max(),
                abs(np.trace(p).real - traces[0]),
                abs(np.trace(q).real - traces[1]),
                np.abs(p - g_plus).max(),
                np.abs(q - g_minus).max(),
            )
    report("2 (projectors, N=2..8)", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_3_gate_suite():
    worst = 0.0
    spectrum_worst = 0.0
    overlap_worst = 0.0
    counts_ok = True
    for n in range(2, 9):
        gens = build_generators(n)
        eye = np.eye(n * n)
        for kind in (Channel.S, Channel.T):
            spec = ChannelSpec(kind, n)
            z = spec.z_gate
            worst = max(
                worst,
                np.abs(z.conj().T @ z - eye).max(),
                np.abs(z @ z - spec.s_identity).max(),
            )
            if kind is Channel.S:
                worst = max(worst, np.abs(z - swap_matrix(n)).max())
            else:
                evals = np.sort(np.linalg.eigvalsh(z))
                counts_ok = counts_ok and int(np.sum(evals > 0)) == 1
                counts_ok = counts_ok and int(np.sum(evals < 0)) == n * n - 1
                spectrum_worst = max(spectrum_worst, float(np.abs(np.abs(evals) - 1.0).max()))
                u_exp = u_exponential_form(gens)
                overlap = abs(np.einsum("ij,ij", z.conj(), u_exp)) / (n * n)
                overlap_worst = max(overlap_worst, 1.0 - overlap)
    report(
        "3 (gates, N=2..8)",
        worst <= 1e-12 and spectrum_worst <= 1e-10 and counts_ok and overlap_worst <= 1e-8,
        f"gate dev {worst:.2e}, spectrum dev {spectrum_worst:.2e}, "
        f"exponential-form defect {overlap_worst:.2e}",
    )


def test_criterion_4_crossing():
    rows_worst = 0.0
    for n in range(2, 7):
        s_spec = ChannelSpec(Channel.S, n)
        t_spec = ChannelSpec(Channel.T, n)
        eye = np.eye(n * n)
        rows_worst = max(
            rows_worst,
            np.abs(crossing_map(s_spec.s_identity) - (n / 2.0) * (eye + t_spec.z_gate)).max(),
            np.abs(crossing_map(s_spec.z_gate) - eye).max(),
        )
    rng = np.random.default_rng(404)
    round_trip_worst = 0.0
    for n in range(2, 7):
        for a, b in random_pairs(rng, 20):
            coeffs = AmplitudeCoefficients(ChannelSpec(Channel.S, n), a, b)
            back = cross_coefficients(cross_coefficients(coeffs))
            round_trip_worst = max(round_trip_worst, abs(back.a - a), abs(back.b - b))
    oracle_ok = select_crossing_axes(2) == [CROSSING_AXES] and select_crossing_axes(3) == [CROSSING_AXES]
    report(
        "4 (crossing, N=2..6)",
        rows_worst <= 1e-12 and round_trip_worst <= 1e-14 and oracle_ok,
        f"row dev {rows_worst:.2e}, round trip {round_trip_worst:.2e}, "
        f"unique oracle winner {oracle_ok}",
    )


def test_criterion_5_amplitude_algebra():
    rng = np.random.default_rng(505)
    worst_scalar = 0.0
    worst_residual = 0.0
    for n in range(2, 7):
        for kind in (Channel.S, Channel.T):
            spec = ChannelSpec(kind, n)
            projs = build_projectors(spec)
            for a, b in random_pairs(rng, 100):
                m = amplitude_operator(AmplitudeCoefficients(spec, a, b))
                mp, mm = scalar_amplitudes(m, projs)
                worst_scalar = max(worst_scalar, abs(mp - (a + b)), abs(mm - (a - b)))
                worst_residual = max(worst_residual, invariance_residual(m, projs))
    report(
        "5 (amplitude algebra, 100 pairs/channel, N=2..6)",
        worst_scalar <= 1e-12 and worst_residual <= 1e-12,
        f"scalar dev {worst_scalar:.2e}, residual {worst_residual:.2e}",
    )


def test_criterion_6_unitary_parameterization():
    worst_matrix = 0.0
    worst_norm = 0.0
    worst_overlap = 0.0
    for kind in (Channel.S, Channel.T):
        spec = ChannelSpec(kind, 3)
        for theta in np.linspace(0.0, 2.0 * np.pi, 8):
            for phi in np.linspace(-np.pi, np.pi, 8):
                c = unitary_parameterization(theta, phi, spec)
                worst_norm = max(worst_norm, abs(abs(c.a) ** 2 + abs(c.b) ** 2 - 1.0))
                worst_overlap = max(worst_overlap, abs((np.conj(c.a) * c.b).real))
                m = amplitude_operator(c)
                expected = np.exp(1j * phi) * expm(1j * theta * spec.z_gate)
                worst_matrix = max(worst_matrix, float(np.abs(m - expected).max()))
    report(
        "6 (unitary parameterization, 64-point grid per channel)",
        worst_matrix <= 1e-10 and worst_norm <= 1e-14 and worst_overlap <= 1e-14,
        f"matrix dev {worst_matrix:.2e}, norm dev {worst_norm:.2e}, Re(a*b) {worst_overlap:.2e}",
    )


def test_criterion_7_block_encoding():
    rng = np.random.default_rng(707)
    worst_block = 0.0
    worst_unitarity = 0.0
    worst_probability = 0.0
    structure_ok = True
    for n in range(2, 7):
        eye = np.eye(2 * n * n)
        for kind in (Channel.S, Channel.T):
            spec = ChannelSpec(kind, n)
            for a, b in random_pairs(rng, 50):
                coeffs = AmplitudeCoefficients(spec, a, b)
                plan = plan_encoding(coeffs)
                w = build_w(plan)
                m = amplitude_operator(coeffs)
                # the dense W and the library's 2x2 report must both hold
                encoded = verify_block(plan)
                d = n * n
                worst_block = max(worst_block, float(np.abs(w[:d, :d] - m / plan.alpha).max()),
                                  encoded.block_identity_deviation)
                worst_unitarity = max(worst_unitarity, float(np.abs(w.conj().T @ w - eye).max()),
                                      encoded.w_unitarity_deviation)
                psi = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
                psi /= np.linalg.norm(psi)
                result = apply_with_postselection(plan, psi)
                oracle = float(np.linalg.norm(m @ psi) ** 2 / plan.alpha ** 2)
                worst_probability = max(worst_probability, abs(result.success_probability - oracle))
                circuit_gates = export_circuit(plan)["gates"]
                structure_ok = structure_ok and len(circuit_gates) == 4
                targets = {g.get("target") for g in circuit_gates if "target" in g}
                structure_ok = structure_ok and targets == {"ancilla"}
    report(
        "7 (block encoding, 50 pairs/channel, N=2..6)",
        worst_block <= 1e-12
        and worst_unitarity <= 1e-12
        and worst_probability <= 1e-12
        and structure_ok,
        f"block dev {worst_block:.2e}, unitarity {worst_unitarity:.2e}, "
        f"probability dev {worst_probability:.2e}, 4 gates + 1 ancilla {structure_ok}",
    )


def test_criterion_8_partial_wave_and_disk(tmp_path):
    elastic = PartialWaveSector(j=0, a_j=1.0, b_j=0.0, kappa_j=1.0)
    violated = PartialWaveSector(j=1, a_j=1.0, b_j=1.0, kappa_j=1.0)
    arithmetic_ok = (
        abs(elastic.norm_sq - 1.0) <= 1e-14
        and abs(violated.norm_sq - 2.0) <= 1e-14
        and abs(violated.eigen_plus - (1.0 + 2.0j)) <= 1e-14
        and abs(violated.eigen_minus - 1.0) <= 1e-14
    )
    out = tmp_path / "disk.csv"
    resolution = 16
    code = main(["disk", "--resolution", str(resolution), "--output", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    header_ok = rows[0] == ["theta", "phi", "re_a", "im_a", "re_b", "im_b", "norm_sq"]
    boundary_dev = max(abs(float(row[6]) - 1.0) for row in rows[1 : resolution + 1])
    report(
        "8 (partial waves and disk data)",
        arithmetic_ok and code == 0 and header_ok and boundary_dev <= 1e-12,
        f"arithmetic {arithmetic_ok}, boundary norm dev {boundary_dev:.2e}",
    )


def test_criterion_9_end_to_end_verify(tmp_path):
    start = time.perf_counter()
    codes = {}
    for n in range(2, 7):
        out = tmp_path / f"verify_{n}.json"
        codes[n] = main(["verify", "--n", str(n), "--output", str(out)])
        payload = json.loads(out.read_text())
        codes[n] = codes[n] if payload["all_passed"] else 1
    elapsed = time.perf_counter() - start
    report(
        "9 (end-to-end verify, N=2..6, both channels)",
        all(code == 0 for code in codes.values()) and elapsed < 30.0,
        f"exit codes {codes}, {elapsed:.2f}s",
    )
