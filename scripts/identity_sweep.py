#!/usr/bin/env python3
"""Sweep the qudit dimension and tabulate max deviations of every identity family.

Usage: python scripts/identity_sweep.py [--max-n 8] [--seed 0]
"""

import argparse

from sun_gates.cli import identity_checks
from sun_gates.invariant_channels import Channel
from sun_gates.sun_algebra import DEFAULT_TOLERANCE


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    args = parser.parse_args()

    dims = range(2, args.max_n + 1)
    tables = {n: identity_checks(n, [Channel.S, Channel.T], args.tolerance, args.seed) for n in dims}
    names = [c.name for c in tables[2]]

    width = max(len(name) for name in names) + 2
    header = "identity".ljust(width) + "".join(f"N={n}".rjust(11) for n in dims)
    print(header)
    print("-" * len(header))
    for i, name in enumerate(names):
        cells = "".join(f"{tables[n][i].max_deviation:11.1e}" for n in dims)
        print(name.ljust(width) + cells)

    worst = max(c.max_deviation for checks in tables.values() for c in checks)
    ok = all(c.passed for checks in tables.values() for c in checks)
    print(f"\nworst deviation {worst:.2e}; all checks pass at {args.tolerance:.0e}: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
