"""Command-line front-end: construction, verification, encoding, crossing, disk data.

Each subcommand takes only the flags it reads (``sun-gates COMMAND -h`` lists
them, with each command's ``--n`` limit); any other flag is a usage error.
``--output`` gets the bytes stdout would.  Exit status: 0 when all checks pass,
1 on verification failure, 2 on usage or input errors, floating-point overflow
included (its message names the command and the input it was given).  A
``verify`` check whose deviation is nan or infinite fails, and prints it as
``null`` with a ``detail`` that names it; a ``ValueError`` or ``ArithmeticError``
raised while a check measures is such a row, its detail ``"<ExceptionType>: <message>"``.
Complex arguments use the shell-safe ``re,im`` syntax; a negative leading value needs
the joined form (``--a=-1,0``, ``--psi=-0.5,...``).  The
``SUN_GATES_TOLERANCE`` environment variable supplies the tolerance; it is
read and validated only when ``--tolerance`` is absent.  Every crossing check
of ``cross`` and ``verify`` runs through ``invariant_channels.crossing_operator_deviation``.
The library's checks return deviations as floats; this module alone compares
them with the tolerance, each by ``deviation <= tolerance`` (``cross`` by ``deviation <=
tolerance * max(1, |a|, |b|, |a'|, |b'|)``), and sets ``passed``, ``all_passed`` and the exit status from that.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import random
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .amplitude_model import (
    MAX_DISK_RESOLUTION,
    AmplitudeCoefficients,
    PartialWaveSector,
    cross_coefficients,
    disk_samples,
)
from .invariant_channels import (
    Channel,
    ChannelSpec,
    build_projectors,
    crossing_operator_deviation,
    crossing_row_deviations,
    generator_form_projectors,
    swap_matrix,
    u_exponential_form,
)
from .lcu_encoder import (
    apply_with_postselection,
    export_circuit,
    plan_encoding,
    verify_block,
)
from .qudit_ops import decompose, reconstruct
from .sun_algebra import (
    DEFAULT_TOLERANCE,
    build_generators,
    finite_array,
    hermiticity_deviation,
    orthonormality_deviation,
    tracelessness_deviation,
    verify_completeness,
)

ENV_TOLERANCE = "SUN_GATES_TOLERANCE"

#: Each command that takes --n, with its largest N; the parser and both scripts build --n from this entry.
DIMENSION_LIMITS = {
    "generators": 32,  # holds dense N^2 x N^2 (and N^4-entry) arrays
    "verify": 16,      # its decompose is an O(N^8) einsum (reconstruct O(N^6)): 23-30 s at N = 16, 1 thread, Xeon
    "encode": 64,      # applies Z to --psi in O(N^2) and holds no N^2 x N^2 array
    "cross": 64,       # checks the crossing on the O(N^2) nonzero entries and holds no N^2 x N^2 array
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class CheckResult:
    """One identity's measurement: its largest deviation, and what else it counted, if anything."""

    name: str
    max_deviation: float
    detail: str = ""


def _cplx(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def parse_complex(text: str) -> complex:
    """Parse the ``re,im`` complex-argument syntax; ``AmplitudeCoefficients`` judges whether the value is finite."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"complex values use the re,im syntax, got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ValueError(f"complex values use the re,im syntax with two real numbers, got {text!r}") from None


def checked_argument(convert, accept, requirement: str):
    """An argparse type: ``convert(text)`` when that succeeds and passes ``accept``, else a usage error."""
    def parse(text: str):
        try:
            if accept(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
    return parse


def dimension_argument(limit: int):
    return checked_argument(int, lambda n: 2 <= n <= limit,
                            f"qudit dimension must be an integer of at least 2 and at most {limit}")


_tolerance = checked_argument(float, lambda t: np.isfinite(t) and t > 0,
                              f"tolerance (--tolerance, else {ENV_TOLERANCE}) must be finite and positive")
seed_argument = checked_argument(int, lambda s: s >= 0, "seed must be an integer of at least 0")


def _max_abs(*arrays) -> float:
    """The largest |entry| over all ``arrays``; a nan in any of them makes it nan."""
    return float(np.max([np.abs(m).max() for m in arrays]))


def _crossing_deviations(coeffs: AmplitudeCoefficients):
    """Cross ``coeffs``; return (crossed, round-trip deviation, operator-consistency deviation)."""
    crossed = cross_coefficients(coeffs)
    back = cross_coefficients(crossed)
    s_coeffs, t_coeffs = (coeffs, crossed) if coeffs.channel.kind is Channel.S else (crossed, coeffs)
    round_trip = max(abs(back.a - coeffs.a), abs(back.b - coeffs.b))
    return crossed, round_trip, crossing_operator_deviation(s_coeffs, t_coeffs)


def identity_checks(n: int, kinds: list[Channel], seed: int) -> list[CheckResult]:
    """Measure the full identity suite at dimension ``n`` for the given channels; callers judge the deviations.

    Each construction is built in the first row that reads it and kept for later rows; one that raises is kept
    by none, so it fails exactly the rows that read it, and every other row is still measured.
    """
    rng = random.Random(seed)
    gens = functools.cache(lambda: build_generators(n))
    d = n * n

    def check(name, measure):
        # measure() returns a deviation, or (deviation, detail); a ValueError or ArithmeticError it raises is a nan row
        try:
            deviation, detail = measured if isinstance(measured := measure(), tuple) else (measured, "")
        except (ValueError, ArithmeticError) as exc:
            deviation, detail = np.nan, f"{type(exc).__name__}: {exc}"
        return CheckResult(name=name, max_deviation=float(deviation), detail=detail)

    results = [
        check("generator_hermiticity", lambda: hermiticity_deviation(gens())),
        check("generator_tracelessness", lambda: tracelessness_deviation(gens())),
        check("generator_orthonormality", lambda: orthonormality_deviation(gens())),
        check("completeness_identity", lambda: verify_completeness(gens())),
    ]

    eye = np.eye(d, dtype=complex)
    # both channels: the crossing checks below tie them together, so they always run
    s_spec, t_spec = (ChannelSpec(kind, n) for kind in (Channel.S, Channel.T))
    for kind in kinds:
        tag = kind.value
        spec = s_spec if kind is Channel.S else t_spec
        # the delta-index projectors (p_plus, p_minus), built apart from apply_z, of which spec.z_gate is the matrix
        projectors = functools.cache(lambda: build_projectors(spec))
        traces = (n * (n + 1) / 2.0, n * (n - 1) / 2.0) if kind is Channel.S else (1.0, float(d - 1))
        results += [
            check(f"projector_idempotence[{tag}]", lambda: _max_abs(*(p @ p - p for p in projectors()))),
            check(f"projector_orthogonality[{tag}]", lambda: _max_abs(np.matmul(*projectors()))),
            check(f"projector_completeness[{tag}]", lambda: _max_abs(np.add(*projectors()) - eye)),
            check(f"projector_traces[{tag}]",
                  lambda: _max_abs(*(np.trace(p).real - trace for p, trace in zip(projectors(), traces)))),
            check(f"projector_generator_form[{tag}]", lambda: _max_abs(
                *(p - g for p, g in zip(projectors(), generator_form_projectors(spec, gens()))))),
            check(f"gate_unitarity[{tag}]", lambda: _max_abs(spec.z_gate.conj().T @ spec.z_gate - eye)),
            check(f"gate_involution[{tag}]", lambda: _max_abs(spec.z_gate @ spec.z_gate - eye)),
            check(f"gate_hermiticity[{tag}]", lambda: _max_abs(spec.z_gate - spec.z_gate.conj().T)),
        ]
        if kind is Channel.S:
            # the swap as the regrouped identity, built apart from apply_z, of which z_gate is the matrix
            results.append(check("swap_action", lambda: _max_abs(spec.z_gate - swap_matrix(n))))
        else:
            def spectrum():
                evals = np.linalg.eigvalsh(spec.z_gate)
                n_plus, n_minus = int(np.sum(evals > 0)), int(np.sum(evals < 0))
                # a wrong multiplicity adds its miscount, so a passing spectrum keeps its deviation's bits
                miscount = max(abs(n_plus - 1), abs(n_minus - (d - 1)))
                return _max_abs(np.abs(evals) - 1.0) + miscount, f"multiplicities +1 x{n_plus}, -1 x{n_minus}"
            results += [check("u_spectrum", spectrum), check("u_exponential_form", lambda: abs(
                1.0 - abs(np.einsum("ij,ij", spec.z_gate.conj(), u_exponential_form(gens()))) / d))]

    rows = functools.cache(lambda: crossing_row_deviations(s_spec, t_spec))
    results += [check("crossing_row_identity", lambda: rows()[0]), check("crossing_row_swap", lambda: rows()[1])]

    a, b = (complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(2))
    crossing = functools.cache(lambda: _crossing_deviations(AmplitudeCoefficients(s_spec, a, b)))
    results += [check("crossing_coefficient_round_trip", lambda: crossing()[1]),
                check("crossing_operator_consistency", lambda: crossing()[2])]

    # real and imaginary parts uniform on [-1, 1): the top 53 bits of each little-endian uint64, scaled
    bits = np.frombuffer(rng.randbytes(16 * d * d), dtype="<u8") >> 11
    real, imag = (bits * 2.0 ** -52 - 1.0).reshape(2, d, d)
    op = real + 1j * imag
    results.append(check("decompose_round_trip", lambda: _max_abs(reconstruct(decompose(op, gens())) - op)))
    return results


def _json(payload: dict) -> str:
    """Strict JSON: a NaN or infinity raises ValueError instead of printing a non-JSON token."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def cmd_generators(args: argparse.Namespace) -> tuple[Iterator[str], bool]:
    gens = build_generators(args.n)
    deviations = {
        "hermiticity_max_deviation": hermiticity_deviation(gens),
        "tracelessness_max_deviation": tracelessness_deviation(gens),
        "orthonormality_max_deviation": orthonormality_deviation(gens),
        "completeness_max_deviation": verify_completeness(gens),
    }
    all_passed = all(v <= args.tolerance for v in deviations.values())
    payload = {
        "n": args.n,
        "tolerance": args.tolerance,
        "generator_count": len(gens),
        "generators": "@",  # the placeholder the generator pieces replace; no other value is a string
        **deviations,
        "all_passed": all_passed,
    }
    header, footer = _json(payload).split('"@"')
    # each entry as its [re, im] pair at _json's depth-4 indent, formatted once per distinct 16 bytes, not per value:
    # 0.0 == -0.0, so a cache of floats keyed by value would print the antisymmetric generators' -0.0 as 0.0
    records, index = np.unique(gens.generators.view("V16").ravel(), return_inverse=True)
    entries = ["\n        [\n          %r,\n          %r\n        ]" % (re, im)
               for re, im in records.view(np.float64).reshape(-1, 2).tolist()]
    def pieces():
        for k, generator in enumerate(index.reshape(gens.generators.shape)):
            rows = ",".join("\n      [" + ",".join(entries[i] for i in row) + "\n      ]" for row in generator.tolist())
            yield (",\n    [" if k else header + "[\n    [") + rows + "\n    ]"
        yield "\n  ]" + footer
    return pieces(), all_passed


def cmd_verify(args: argparse.Namespace) -> tuple[str, bool]:
    kinds = [Channel(args.channel)] if args.channel else [Channel.S, Channel.T]
    rows = []
    for c in identity_checks(args.n, kinds, args.seed):
        # strict JSON has no nan or infinity: such a deviation prints as null, fails, and its detail names it
        finite = math.isfinite(c.max_deviation)
        detail = "; ".join(filter(None, [c.detail, "" if finite else f"max_deviation is {c.max_deviation}"]))
        rows.append({"name": c.name, "max_deviation": c.max_deviation if finite else None,
                     "passed": c.max_deviation <= args.tolerance, **({"detail": detail} if detail else {})})
    all_passed = all(row["passed"] for row in rows)
    payload = {
        "n": args.n,
        "channel": args.channel or "both",
        "tolerance": args.tolerance,
        "seed": args.seed,
        "checks": rows,
        "all_passed": all_passed,
    }
    return _json(payload), all_passed


def cmd_encode(args: argparse.Namespace) -> tuple[str, bool]:
    n, d = args.n, args.n ** 2
    psi = None
    if args.psi is not None:
        try:
            psi = [float(part) for part in args.psi.split(",")]
        except ValueError:
            raise ValueError(f"psi must be {d} comma-separated real amplitudes for N={n}, got {args.psi!r}") from None
    channel = ChannelSpec(Channel(args.channel or "s"), n)
    plan = plan_encoding(AmplitudeCoefficients(channel, parse_complex(args.a), parse_complex(args.b)))
    report = verify_block(plan)
    all_passed = max(report.block_identity_deviation, report.w_unitarity_deviation) <= args.tolerance
    payload = {
        "circuit": export_circuit(plan),
        "alpha": plan.alpha,
        "gamma": plan.gamma,
        "phi_a": plan.phi_a,
        "phi_b": plan.phi_b,
        "block_identity_deviation": report.block_identity_deviation,
        "w_unitarity_deviation": report.w_unitarity_deviation,
    }
    if psi is not None:
        result = apply_with_postselection(plan, psi)
        payload["postselection_probability"] = result.success_probability
        payload["postselection_annihilated"] = result.annihilated
    payload["all_passed"] = all_passed
    return _json(payload), all_passed


def cmd_cross(args: argparse.Namespace) -> tuple[str, bool]:
    a, b = parse_complex(args.a), parse_complex(args.b)
    source = ChannelSpec(Channel(args.channel or "s"), args.n)
    crossed, round_trip_dev, operator_dev = _crossing_deviations(AmplitudeCoefficients(source, a, b))
    # rounding grows with the coefficients, so the tolerance is relative to the largest of them (absolute below 1)
    bound = args.tolerance * max(1.0, abs(a), abs(b), abs(crossed.a), abs(crossed.b))
    all_passed = operator_dev <= bound and round_trip_dev <= bound
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
    return _json(payload), all_passed


def cmd_disk(args: argparse.Namespace) -> tuple[Iterator[str], bool]:
    # built and checked before any piece, so a bad --resolution or a non-finite sample raises before --output opens
    columns = disk_samples(args.resolution)
    for column in columns:
        finite_array("disk samples", column)
    # (header, row, separator, footer): _json's bytes or csv.writer's; each of the row's seven floats (theta, phi,
    # re a, im a, re b, im b, norm_sq) prints by its repr, as both of them print a float
    header, row, separator, footer = {
        "csv": ("theta,phi,re_a,im_a,re_b,im_b,norm_sq\r\n", ",".join(["%r"] * 7), "\r\n", "\r\n"),
        "json": (f'{{\n  "resolution": {args.resolution},\n  "rows": [\n',
                 '    {\n      "theta": %r,\n      "phi": %r,\n      "a": [\n        %r,\n        %r\n      ],\n'
                 '      "b": [\n        %r,\n        %r\n      ],\n      "norm_sq": %r\n    }', ",\n", "\n  ]\n}\n"),
    }[args.format]
    def pieces():
        # one piece per radius, so no column is ever held whole as Python objects
        for start in range(0, columns[0].size, args.resolution):
            rows = zip(*(column[start:start + args.resolution].tolist() for column in columns))
            # norm_sq on each row's Python numbers: np.abs(a) ** 2 rounds some rows to other bits
            yield (separator if start else header) + separator.join(
                row % (theta, 0.0, a.real, a.imag, b.real, b.imag, abs(a) ** 2 + abs(b) ** 2) for theta, a, b in rows)
        yield footer
    return pieces(), True


def read_sectors(path: str) -> list[PartialWaveSector]:
    """Parse a sector CSV with header j,re_a,im_a,re_b,im_b,kappa.

    Raises ValueError carrying the offending line number on malformed input.
    """
    sectors = []
    # utf-8-sig drops a leading byte-order mark, which would otherwise prefix the header's first name
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            # line_num is the file line a row ends on, also past a quoted field that spans lines
            numbered = [(reader.line_num, row) for row in reader if row and any(cell.strip() for cell in row)]
        except csv.Error as exc:
            # csv.Error is no ValueError; a field over csv.field_size_limit() raises one
            raise ValueError(f"line {reader.line_num}: {exc}") from exc
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


def cmd_partial_wave(args: argparse.Namespace) -> tuple[str, bool]:
    sectors = read_sectors(args.sectors_file)
    if not sectors:
        # an empty table would pass every bound vacuously
        raise ValueError(f"{args.sectors_file}: no sector rows below the header")
    tol = args.tolerance
    # a measurement that overflows raises FloatingPointError, which main reports with the file name
    rows = [
        {
            "j": s.j,
            "a": _cplx(s.a_j),
            "b": _cplx(s.b_j),
            "kappa": s.kappa_j,
            "norm_sq": s.norm_sq,
            "bound_satisfied": s.norm_sq <= 1.0 + tol,
            "eigen_plus": _cplx(s.eigen_plus),
            "eigen_minus": _cplx(s.eigen_minus),
            "in_unit_disk": [abs(e) <= 1.0 + tol for e in (s.eigen_plus, s.eigen_minus)],
            "elastic_saturation": abs(s.norm_sq - 1.0) <= tol,
        }
        for s in sectors
    ]
    all_satisfied = all(row["bound_satisfied"] for row in rows)
    payload = {"tolerance": tol, "sectors": rows, "all_bounds_satisfied": all_satisfied}
    return _json(payload), all_satisfied


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sun-gates", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--channel": dict(choices=["s", "t"], default=None,
                          help="scattering channel (default s; verify runs both when omitted)"),
        # a string default goes through _tolerance; argparse converts it only when the flag is absent
        "--tolerance": dict(type=_tolerance, default=os.environ.get(ENV_TOLERANCE, DEFAULT_TOLERANCE),
                            help=f"check tolerance (default {ENV_TOLERANCE} or {DEFAULT_TOLERANCE})"),
        "--seed": dict(type=seed_argument, default=0, help="seed for randomized checks (integer >= 0)"),
        "--a": dict(required=True, help="coefficient of the identity gate, re,im"),
        "--b": dict(required=True, help="coefficient of the Z gate, re,im"),
        "--psi": dict(default=None, help="optional system state: N^2 comma-separated real amplitudes"),
        "--resolution": dict(type=int, default=8, help=f"boundary sample count (2 to {MAX_DISK_RESOLUTION})"),
        "--format": dict(choices=["csv", "json"], default="csv", help="payload format (default csv)"),
        "--output": dict(default=None, help="write output to this path instead of stdout"),
        "sectors_file": dict(help="CSV with header j,re_a,im_a,re_b,im_b,kappa"),
    }
    # the commands in DIMENSION_LIMITS take --n first, up to their own limit
    commands = [
        ("generators", cmd_generators, "build generators and verify their identities", "--tolerance"),
        ("verify", cmd_verify, "run the full operator-identity suite", "--channel --tolerance --seed"),
        ("encode", cmd_encode, "block-encode an amplitude a*I + b*Z", "--channel --tolerance --a --b --psi"),
        ("cross", cmd_cross, "transport coefficients to the crossed channel", "--channel --tolerance --a --b"),
        ("disk", cmd_disk, "emit coefficient-disk samples", "--resolution --format"),
        ("partial-wave", cmd_partial_wave, "check unitarity bounds for a sector table",
         "sectors_file --tolerance"),
    ]
    for name, run, help_text, flags in commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if name in DIMENSION_LIMITS:
            limit = DIMENSION_LIMITS[name]
            p.add_argument("--n", type=dimension_argument(limit), default=3,
                           help=f"qudit dimension N, 2 to {limit} (default 3)")
        for flag in [*flags.split(), "--output"]:
            p.add_argument(flag, **options[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: the only place that writes its text and turns its verdict into the exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            text, passed = args.run(args)
            # newline="" keeps the bytes stdout would get, the CSV's \r\n included
            out = open(args.output, "w", encoding="utf-8", newline="") if args.output else contextlib.nullcontext(sys.stdout)
            with out as fh:
                # a command's text is one str, or an iterable of str pieces written as they come
                fh.writelines([text] if isinstance(text, str) else text)
        return EXIT_OK if passed else EXIT_CHECK_FAILED
    except ArithmeticError as exc:
        # name the command and its numeric input as given on the command line
        given = [f"--{flag}={getattr(args, flag)}" for flag in ("a", "b") if hasattr(args, flag)]
        given += [args.sectors_file] if hasattr(args, "sectors_file") else []
        print(f"error: {' '.join([args.command, *given])}: arithmetic overflow or invalid value: {exc}",
              file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE
