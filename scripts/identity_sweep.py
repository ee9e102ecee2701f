#!/usr/bin/env python3
"""Sweep the qudit dimension and tabulate max deviations of every identity family.

Usage: python scripts/identity_sweep.py [--max-n 8] [--seed 0]
"""

import argparse

import numpy as np

from sun_gates.cli import DIMENSION_LIMITS, checked_argument, dimension_argument, identity_checks, seed_argument
from sun_gates.invariant_channels import Channel
from sun_gates.sun_algebra import DEFAULT_TOLERANCE

# the CLI's tolerance type names SUN_GATES_TOLERANCE, which this script does not read
_tolerance = checked_argument(float, lambda t: np.isfinite(t) and t > 0, "tolerance must be finite and positive")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    # the CLI's converters: --max-n has verify's bounds, since each N runs verify's identity suite
    parser.add_argument("--max-n", type=dimension_argument(DIMENSION_LIMITS["verify"]), default=8)
    parser.add_argument("--seed", type=seed_argument, default=0)
    parser.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    args = parser.parse_args()

    dims = range(2, args.max_n + 1)
    tables = {n: identity_checks(n, [Channel.S, Channel.T], args.seed) for n in dims}
    names = [c.name for c in tables[2]]

    width = max(len(name) for name in names) + 2
    header = "identity".ljust(width) + "".join(f"N={n}".rjust(11) for n in dims)
    print(header)
    print("-" * len(header))
    for i, name in enumerate(names):
        cells = "".join(f"{tables[n][i].max_deviation:11.1e}" for n in dims)
        print(name.ljust(width) + cells)

    worst = max(c.max_deviation for checks in tables.values() for c in checks)
    ok = all(c.max_deviation <= args.tolerance for checks in tables.values() for c in checks)
    print(f"\nworst deviation {worst:.2e}; all checks pass at {args.tolerance:.0e}: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
