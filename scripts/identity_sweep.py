#!/usr/bin/env python3
"""Sweep the qudit dimension and tabulate max deviations of every identity family.

With --json, print instead one strict JSON record: each row's max deviation at
every N and seed, and the same value in units of eps = np.finfo(float).eps.  A
nan or infinite deviation prints as null, as ``verify`` prints it.

Usage: python scripts/identity_sweep.py [--max-n 8] [--seed 0 [7 ...]] [--tolerance 1e-10] [--json]
"""

import argparse
import json
import math

import numpy as np

from sun_gates.cli import DIMENSION_LIMITS, checked_argument, dimension_argument, identity_checks, seed_argument
from sun_gates.invariant_channels import Channel
from sun_gates.sun_algebra import DEFAULT_TOLERANCE

EPS = float(np.finfo(float).eps)

# the CLI's tolerance type names SUN_GATES_TOLERANCE, which this script does not read
_tolerance = checked_argument(float, lambda t: np.isfinite(t) and t > 0, "tolerance must be finite and positive")


def _finite_or_none(x: float) -> float | None:
    # strict JSON has no nan or infinity
    return x if math.isfinite(x) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    # the CLI's converters: --max-n has verify's bounds, since each N runs verify's identity suite
    parser.add_argument("--max-n", type=dimension_argument(DIMENSION_LIMITS["verify"]), default=8)
    parser.add_argument("--seed", type=seed_argument, nargs="+", default=[0])
    parser.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    parser.add_argument("--json", action="store_true", help="print a strict JSON record instead of the table")
    args = parser.parse_args()

    dims = range(2, args.max_n + 1)
    tables = {(seed, n): identity_checks(n, [Channel.S, Channel.T], seed) for seed in args.seed for n in dims}
    deviations = [c.max_deviation for checks in tables.values() for c in checks]
    # np.max, not max: a nan deviation makes the worst nan whatever its position
    worst = np.max(deviations)
    ok = all(d <= args.tolerance for d in deviations)

    if args.json:
        runs = [{"seed": seed, "n": n,
                 "checks": [{"name": c.name, "max_deviation": _finite_or_none(c.max_deviation),
                             "eps_units": _finite_or_none(c.max_deviation / EPS)} for c in checks]}
                for (seed, n), checks in tables.items()]
        record = {"eps": EPS, "tolerance": args.tolerance, "runs": runs,
                  "worst_deviation": _finite_or_none(float(worst)), "all_passed": ok}
        print(json.dumps(record, indent=2, allow_nan=False))
        return 0 if ok else 1

    names = [c.name for c in tables[args.seed[0], 2]]
    for seed in args.seed:
        title = f"identity (seed {seed})"
        width = max(len(name) for name in [*names, title]) + 2
        header = title.ljust(width) + "".join(f"N={n}".rjust(11) for n in dims)
        print(header)
        print("-" * len(header))
        for i, name in enumerate(names):
            print(name.ljust(width) + "".join(f"{tables[seed, n][i].max_deviation:11.1e}" for n in dims))
        print()

    print(f"worst deviation {worst:.2e}; all checks pass at {args.tolerance:.0e}: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
