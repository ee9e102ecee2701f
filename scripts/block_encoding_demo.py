#!/usr/bin/env python3
"""Encode a random invariant amplitude and verify the circuit end to end.

Draws (a, b), builds the one-ancilla circuit, checks the block identity and
W's unitarity on the circuit's 2x2 ancilla factors, runs ancilla postselection
on a random state, and prints the exported circuit JSON.  Exits 1 unless both
deviations are within 1e-12 and the postselection probability matches the
direct application of the projectors to 1e-12 relative.

Usage: python scripts/block_encoding_demo.py [--n 3] [--channel t] [--seed 1]
"""

import argparse
import json

import numpy as np

from sun_gates.amplitude_model import AmplitudeCoefficients
from sun_gates.cli import DIMENSION_LIMITS, dimension_argument, seed_argument
from sun_gates.invariant_channels import Channel, ChannelSpec, build_projectors
from sun_gates.lcu_encoder import apply_with_postselection, export_circuit, plan_encoding, verify_block


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    # the CLI's converters, so a bad value exits 2 with the CLI's message
    limit = DIMENSION_LIMITS["generators"]
    parser.add_argument("--n", type=dimension_argument(limit), default=3,
                        help=f"qudit dimension, 2 to {limit}: the limit of the CLI commands that hold dense "
                             "N^2 x N^2 arrays, since the direct postselection check reads the dense projectors")
    parser.add_argument("--channel", choices=["s", "t"], default="t")
    parser.add_argument("--seed", type=seed_argument, default=1)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    spec = ChannelSpec(Channel(args.channel), args.n)

    a, b = (complex(*pair) for pair in rng.normal(size=(2, 2)))
    coeffs = AmplitudeCoefficients(spec, a, b)
    plan = plan_encoding(coeffs)

    print(f"channel {args.channel}, N={args.n}")
    print(f"a = {a:.4f}, b = {b:.4f}, alpha = {plan.alpha:.4f}, gamma = {plan.gamma:.4f}")
    report = verify_block(plan)
    passed = max(report.block_identity_deviation, report.w_unitarity_deviation) <= 1e-12
    print(f"block identity deviation: {report.block_identity_deviation:.2e} (pass: {passed})")
    print(f"W unitarity deviation:    {report.w_unitarity_deviation:.2e}")

    d = args.n ** 2
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    result = apply_with_postselection(plan, psi)
    # Z as P_plus - P_minus of the delta-index projectors, built apart from the apply_z that postselection uses
    p_plus, p_minus = build_projectors(spec)
    direct = np.linalg.norm(a * psi + b * ((p_plus - p_minus) @ psi)) ** 2 / plan.alpha ** 2
    matches = abs(result.success_probability - direct) <= 1e-12 * direct
    print(f"postselection probability: {result.success_probability:.6f} "
          f"(direct application: {direct:.6f}, match: {matches})")

    print("\nexported circuit:")
    print(json.dumps(export_circuit(plan), indent=2))
    return 0 if passed and matches else 1


if __name__ == "__main__":
    raise SystemExit(main())
