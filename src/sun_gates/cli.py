"""Command-line front-end: construction, verification, encoding, crossing, disk data.

Each subcommand takes only the flags it reads (``sun-gates COMMAND -h`` lists
them); any other flag is a usage error.  Exit status: 0 when all checks pass,
1 on verification failure, 2 on usage or input errors, floating-point overflow
included.  Complex arguments use the shell-safe ``re,im`` syntax; a negative
leading value needs the joined form (``--a=-1,0``, ``--psi=-0.5,...``).  The
``SUN_GATES_TOLERANCE`` environment variable supplies the tolerance; it is
read and validated only when ``--tolerance`` is absent.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .amplitude_model import (
    MAX_DISK_RESOLUTION,
    AmplitudeCoefficients,
    PartialWaveSector,
    amplitude_operator,
    check_partial_wave,
    cross_coefficients,
    disk_samples,
)
from .invariant_channels import (
    Channel,
    ChannelSpec,
    build_gates,
    crossing_map,
    crossing_row_deviations,
    generator_form_projectors,
    swap_matrix,
    u_exponential_form,
)
from .lcu_encoder import (
    apply_with_postselection,
    build_w,
    circuit_to_json,
    export_circuit,
    plan_encoding,
    verify_block,
)
from .qudit_ops import decompose, reconstruct
from .sun_algebra import (
    DEFAULT_TOLERANCE,
    build_generators,
    hermiticity_deviation,
    orthonormality_deviation,
    tracelessness_deviation,
    verify_completeness,
)

ENV_TOLERANCE = "SUN_GATES_TOLERANCE"

#: Largest accepted --n: every command holds dense N^2 x N^2 (and N^4-entry) arrays.
MAX_DIMENSION = 32

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    passed: bool
    detail: str = ""


def _cplx(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def parse_complex(text: str) -> complex:
    """Parse the ``re,im`` complex-argument syntax; both parts must be finite."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"complex values use the re,im syntax, got {text!r}")
    value = complex(float(parts[0]), float(parts[1]))
    if not np.isfinite(value):
        raise ValueError(f"complex value must be finite, got {text!r}")
    return value


def _checked(convert, accept, requirement: str):
    """An argparse type: ``convert(text)`` when that succeeds and passes ``accept``, else a usage error."""
    def parse(text: str):
        try:
            if accept(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
    return parse


_dimension = _checked(int, lambda n: 2 <= n <= MAX_DIMENSION,
                      f"qudit dimension must be an integer of at least 2 and at most {MAX_DIMENSION}")
_tolerance = _checked(float, lambda t: np.isfinite(t) and t > 0,
                      f"tolerance (--tolerance, else {ENV_TOLERANCE}) must be finite and positive")
_seed = _checked(int, lambda s: s >= 0, "seed must be an integer of at least 0")


def _max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max())


def _crossing_deviations(coeffs: AmplitudeCoefficients, s_gates, t_gates):
    """Cross ``coeffs``; return (crossed, round-trip deviation, operator-consistency deviation)."""
    crossed = cross_coefficients(coeffs)
    back = cross_coefficients(crossed)
    s_coeffs, t_coeffs = (coeffs, crossed) if coeffs.channel.kind is Channel.S else (crossed, coeffs)
    m_s = amplitude_operator(s_coeffs, s_gates)
    m_t = amplitude_operator(t_coeffs, t_gates)
    round_trip = max(abs(back.a - coeffs.a), abs(back.b - coeffs.b))
    return crossed, round_trip, _max_abs(crossing_map(m_s) - m_t)


def identity_checks(n: int, kinds: list[Channel], tolerance: float, seed: int) -> list[CheckResult]:
    """Run the full identity suite at dimension ``n`` for the given channels."""
    rng = np.random.default_rng(seed)
    gens = build_generators(n)
    d = n * n

    def check(name, deviation, detail=""):
        deviation = float(deviation)
        return CheckResult(name=name, max_deviation=deviation, passed=deviation <= tolerance, detail=detail)

    results = [
        check("generator_hermiticity", hermiticity_deviation(gens)),
        check("generator_tracelessness", tracelessness_deviation(gens)),
        check("generator_orthonormality", orthonormality_deviation(gens)),
        check("completeness_identity", verify_completeness(gens, tolerance).max_deviation),
    ]

    eye = np.eye(d, dtype=complex)
    # both channels' gates: the crossing checks below tie them together, so they always run
    s_gates, t_gates = (build_gates(ChannelSpec(kind, n)) for kind in (Channel.S, Channel.T))
    for kind in kinds:
        tag = kind.value
        gates = s_gates if kind is Channel.S else t_gates
        z = gates.z_gate
        # the gates are P+ + P- and P+ - P-, so half their sum and difference are the projectors
        p_plus, p_minus = (gates.s_identity + z) / 2.0, (gates.s_identity - z) / 2.0
        g_plus, g_minus = generator_form_projectors(gates.channel, gens)
        if kind is Channel.S:
            trace_plus, trace_minus = n * (n + 1) / 2.0, n * (n - 1) / 2.0
        else:
            trace_plus, trace_minus = 1.0, float(d - 1)
        results += [
            check(f"projector_idempotence[{tag}]",
                  max(_max_abs(p_plus @ p_plus - p_plus), _max_abs(p_minus @ p_minus - p_minus))),
            check(f"projector_orthogonality[{tag}]", _max_abs(p_plus @ p_minus)),
            check(f"projector_completeness[{tag}]", _max_abs(p_plus + p_minus - eye)),
            check(f"projector_traces[{tag}]",
                  max(abs(np.trace(p_plus).real - trace_plus), abs(np.trace(p_minus).real - trace_minus))),
            check(f"projector_generator_form[{tag}]",
                  max(_max_abs(p_plus - g_plus), _max_abs(p_minus - g_minus))),
            check(f"gate_unitarity[{tag}]", _max_abs(z.conj().T @ z - eye)),
            check(f"gate_involution[{tag}]", _max_abs(z @ z - gates.s_identity)),
            check(f"gate_hermiticity[{tag}]", _max_abs(z - z.conj().T)),
        ]
        if kind is Channel.S:
            results.append(check("swap_action", _max_abs(z - swap_matrix(n))))
        else:
            evals = np.linalg.eigvalsh(z)
            n_plus = int(np.sum(evals > 0))
            n_minus = int(np.sum(evals < 0))
            spectrum_dev = _max_abs(np.abs(evals) - 1.0)
            counts_ok = n_plus == 1 and n_minus == d - 1
            results.append(CheckResult(
                name="u_spectrum",
                max_deviation=spectrum_dev,
                passed=bool(counts_ok and spectrum_dev <= tolerance),
                detail=f"multiplicities +1 x{n_plus}, -1 x{n_minus}",
            ))
            u_exp = u_exponential_form(gens)
            overlap = abs(np.einsum("ij,ij", z.conj(), u_exp)) / d
            results.append(check("u_exponential_form", abs(1.0 - overlap)))

    row_identity, row_swap = crossing_row_deviations(s_gates, t_gates)
    results += [check("crossing_row_identity", row_identity), check("crossing_row_swap", row_swap)]

    a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
    _, round_trip, operator_dev = _crossing_deviations(
        AmplitudeCoefficients(ChannelSpec(Channel.S, n), a, b), s_gates, t_gates)
    results += [check("crossing_coefficient_round_trip", round_trip),
                check("crossing_operator_consistency", operator_dev)]

    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    results.append(check("decompose_round_trip", _max_abs(reconstruct(decompose(op, gens), gens) - op)))
    return results


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)


def _emit_json(payload: dict, output: str | None) -> None:
    _emit(json.dumps(payload, indent=2, allow_nan=False), output)


def cmd_generators(args: argparse.Namespace) -> int:
    gens = build_generators(args.n)
    completeness = verify_completeness(gens, args.tolerance)
    deviations = {
        "hermiticity_max_deviation": hermiticity_deviation(gens),
        "tracelessness_max_deviation": tracelessness_deviation(gens),
        "orthonormality_max_deviation": orthonormality_deviation(gens),
        "completeness_max_deviation": completeness.max_deviation,
    }
    all_passed = all(v <= args.tolerance for v in deviations.values())
    payload = {
        "n": args.n,
        "tolerance": args.tolerance,
        "generator_count": len(gens),
        "generators": [[[_cplx(entry) for entry in row] for row in mat] for mat in gens],
        **deviations,
        "all_passed": all_passed,
    }
    _emit_json(payload, args.output)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    kinds = [Channel(args.channel)] if args.channel else [Channel.S, Channel.T]
    checks = identity_checks(args.n, kinds, args.tolerance, args.seed)
    all_passed = all(c.passed for c in checks)
    payload = {
        "n": args.n,
        "channel": args.channel or "both",
        "tolerance": args.tolerance,
        "seed": args.seed,
        "checks": [
            {"name": c.name, "max_deviation": c.max_deviation, "passed": c.passed,
             **({"detail": c.detail} if c.detail else {})}
            for c in checks
        ],
        "all_passed": all_passed,
    }
    _emit_json(payload, args.output)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_encode(args: argparse.Namespace) -> int:
    n, d = args.n, args.n ** 2
    psi = None
    if args.psi is not None:
        values = [float(part) for part in args.psi.split(",")]
        if len(values) != d:
            raise ValueError(f"psi must have {d} amplitudes for N={n}, got {len(values)}")
        psi = np.array(values, dtype=complex)
    channel = ChannelSpec(Channel(args.channel or "s"), n)
    coeffs = AmplitudeCoefficients(channel, parse_complex(args.a), parse_complex(args.b))
    plan = plan_encoding(coeffs)
    gates = build_gates(channel)
    w = build_w(plan, gates)
    m = amplitude_operator(coeffs, gates)
    report = verify_block(w, m, plan.alpha, args.tolerance)
    unitarity = _max_abs(w.conj().T @ w - np.eye(2 * d))
    payload = {
        "circuit": circuit_to_json(export_circuit(plan)),
        "alpha": plan.alpha,
        "gamma": plan.gamma,
        "phi_a": plan.phi_a,
        "phi_b": plan.phi_b,
        "block_identity_deviation": report.max_deviation,
        "w_unitarity_deviation": unitarity,
    }
    if psi is not None:
        result = apply_with_postselection(plan, gates, psi)
        payload["postselection_probability"] = result.success_probability
        payload["postselection_annihilated"] = result.annihilated
    all_passed = report.passed and unitarity <= args.tolerance
    payload["all_passed"] = all_passed
    _emit_json(payload, args.output)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_cross(args: argparse.Namespace) -> int:
    a, b = parse_complex(args.a), parse_complex(args.b)
    source = ChannelSpec(Channel(args.channel or "s"), args.n)
    crossed, round_trip_dev, operator_dev = _crossing_deviations(
        AmplitudeCoefficients(source, a, b),
        build_gates(ChannelSpec(Channel.S, args.n)),
        build_gates(ChannelSpec(Channel.T, args.n)),
    )
    all_passed = operator_dev <= args.tolerance and round_trip_dev <= args.tolerance
    payload = {
        "n": args.n,
        "source_channel": source.kind.value,
        "target_channel": crossed.channel.kind.value,
        "a": _cplx(a),
        "b": _cplx(b),
        "a_crossed": _cplx(crossed.a),
        "b_crossed": _cplx(crossed.b),
        "operator_consistency_deviation": operator_dev,
        "round_trip_deviation": round_trip_dev,
        "all_passed": all_passed,
    }
    _emit_json(payload, args.output)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_disk(args: argparse.Namespace) -> int:
    rows = disk_samples(args.resolution)
    if args.format == "json":
        payload = {
            "resolution": args.resolution,
            "rows": [
                {"theta": r.theta, "phi": r.phi, "a": _cplx(r.a), "b": _cplx(r.b), "norm_sq": r.norm_sq}
                for r in rows
            ],
        }
        _emit_json(payload, args.output)
        return EXIT_OK
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["theta", "phi", "re_a", "im_a", "re_b", "im_b", "norm_sq"])
    for r in rows:
        writer.writerow([
            repr(r.theta), repr(r.phi),
            repr(r.a.real), repr(r.a.imag),
            repr(r.b.real), repr(r.b.imag),
            repr(r.norm_sq),
        ])
    _emit(buffer.getvalue().rstrip("\n"), args.output)
    return EXIT_OK


def read_sectors(path: str) -> list[PartialWaveSector]:
    """Parse a sector CSV with header j,re_a,im_a,re_b,im_b,kappa.

    Raises ValueError carrying the offending line number on malformed input.
    """
    sectors = []
    with open(path, newline="", encoding="utf-8") as fh:
        numbered = [
            (line_number, row)
            for line_number, row in enumerate(csv.reader(fh), start=1)
            if row and any(cell.strip() for cell in row)
        ]
    if not numbered:
        return sectors
    header_line, header_row = numbered[0]
    header = [cell.strip() for cell in header_row]
    expected = ["j", "re_a", "im_a", "re_b", "im_b", "kappa"]
    if header != expected:
        raise ValueError(
            f"line {header_line}: expected header {','.join(expected)}, got {','.join(header)}"
        )
    for line_number, row in numbered[1:]:
        try:
            if len(row) != 6:
                raise ValueError(f"expected 6 fields, got {len(row)}")
            sectors.append(PartialWaveSector(
                j=int(row[0]),
                a_j=complex(float(row[1]), float(row[2])),
                b_j=complex(float(row[3]), float(row[4])),
                kappa_j=float(row[5]),
            ))
        except ValueError as exc:
            raise ValueError(f"line {line_number}: {exc}") from exc
    return sectors


def cmd_partial_wave(args: argparse.Namespace) -> int:
    sectors = read_sectors(args.sectors_file)
    reports = [(s, check_partial_wave(s, args.tolerance)) for s in sectors]
    all_satisfied = all(r.bound_satisfied for _, r in reports)
    payload = {
        "tolerance": args.tolerance,
        "sectors": [
            {
                "j": s.j,
                "a": _cplx(s.a_j),
                "b": _cplx(s.b_j),
                "kappa": s.kappa_j,
                "norm_sq": r.norm_sq,
                "bound_satisfied": r.bound_satisfied,
                "eigen_plus": _cplx(r.eigen_plus),
                "eigen_minus": _cplx(r.eigen_minus),
                "in_unit_disk": list(r.in_unit_disk),
                "elastic_saturation": r.elastic_saturation,
            }
            for s, r in reports
        ],
        "all_bounds_satisfied": all_satisfied,
    }
    _emit_json(payload, args.output)
    return EXIT_OK if all_satisfied else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sun-gates", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--n": dict(type=_dimension, default=3, help=f"qudit dimension N, 2 to {MAX_DIMENSION} (default 3)"),
        "--channel": dict(choices=["s", "t"], default=None,
                          help="scattering channel (default s; verify runs both when omitted)"),
        # a string default goes through _tolerance; argparse converts it only when the flag is absent
        "--tolerance": dict(type=_tolerance, default=os.environ.get(ENV_TOLERANCE, DEFAULT_TOLERANCE),
                            help=f"check tolerance (default {ENV_TOLERANCE} or {DEFAULT_TOLERANCE})"),
        "--seed": dict(type=_seed, default=0, help="seed for randomized checks (integer >= 0)"),
        "--a": dict(required=True, help="coefficient of the identity gate, re,im"),
        "--b": dict(required=True, help="coefficient of the Z gate, re,im"),
        "--psi": dict(default=None, help="optional system state: N^2 comma-separated real amplitudes"),
        "--resolution": dict(type=int, default=8, help=f"boundary sample count (2 to {MAX_DISK_RESOLUTION})"),
        "--format": dict(choices=["csv", "json"], default="csv", help="payload format (default csv)"),
        "--output": dict(default=None, help="write output to this path instead of stdout"),
        "sectors_file": dict(help="CSV with header j,re_a,im_a,re_b,im_b,kappa"),
    }
    commands = [
        ("generators", cmd_generators, "build generators and verify their identities", "--n --tolerance"),
        ("verify", cmd_verify, "run the full operator-identity suite", "--n --channel --tolerance --seed"),
        ("encode", cmd_encode, "block-encode an amplitude a*I + b*Z",
         "--n --channel --tolerance --a --b --psi"),
        ("cross", cmd_cross, "transport coefficients to the crossed channel",
         "--n --channel --tolerance --a --b"),
        ("disk", cmd_disk, "emit coefficient-disk samples", "--resolution --format"),
        ("partial-wave", cmd_partial_wave, "check unitarity bounds for a sector table",
         "sectors_file --tolerance"),
    ]
    for name, run, help_text, flags in commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for flag in [*flags.split(), "--output"]:
            p.add_argument(flag, **options[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.run(args)
    except ArithmeticError as exc:
        print(f"error: arithmetic overflow or invalid value: {exc}", file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
