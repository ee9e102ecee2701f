#!/usr/bin/env python3
"""Encode a random invariant amplitude and verify the circuit end to end.

Draws (a, b), builds the one-ancilla circuit, checks the block identity, runs
ancilla postselection on a random state, and prints the exported circuit JSON.

Usage: python scripts/block_encoding_demo.py [--n 3] [--channel t] [--seed 1]
"""

import argparse
import json

import numpy as np

from sun_gates.amplitude_model import AmplitudeCoefficients, amplitude_operator
from sun_gates.invariant_channels import Channel, ChannelSpec, build_gates
from sun_gates.lcu_encoder import (
    apply_with_postselection,
    build_w,
    circuit_to_json,
    export_circuit,
    plan_encoding,
    verify_block,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--channel", choices=["s", "t"], default="t")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    spec = ChannelSpec(Channel(args.channel), args.n)
    gates = build_gates(spec)

    a, b = (complex(*pair) for pair in rng.normal(size=(2, 2)))
    coeffs = AmplitudeCoefficients(spec, a, b)
    plan = plan_encoding(coeffs)
    w = build_w(plan, gates)
    m = amplitude_operator(coeffs, gates)

    print(f"channel {args.channel}, N={args.n}")
    print(f"a = {a:.4f}, b = {b:.4f}, alpha = {plan.alpha:.4f}, gamma = {plan.gamma:.4f}")
    report = verify_block(w, m, plan.alpha, tolerance=1e-12)
    print(f"block identity deviation: {report.max_deviation:.2e} (pass: {report.passed})")
    d = args.n ** 2
    unitarity = np.abs(w.conj().T @ w - np.eye(2 * d)).max()
    print(f"W unitarity deviation:    {unitarity:.2e}")

    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    result = apply_with_postselection(plan, gates, psi)
    direct = np.linalg.norm(m @ psi) ** 2 / plan.alpha ** 2
    print(f"postselection probability: {result.success_probability:.6f} "
          f"(direct application: {direct:.6f})")

    print("\nexported circuit:")
    print(json.dumps(circuit_to_json(export_circuit(plan)), indent=2))


if __name__ == "__main__":
    main()
