#!/usr/bin/env python3
"""Print the SHA-1 of the stdout of a fixed list of CLI commands, one ``<sha1> <exit> <argv>`` line each.

Each command runs through ``sun_gates.cli.main`` in this process.  Run it on
two checkouts and diff the output: equal lines mean byte-identical stdout and
the same exit status.  The ``partial-wave`` table is written to a temporary
directory, which is the working directory while the commands run, so its
argument prints the same on every run.

Usage: python scripts/stdout_digests.py
"""

import contextlib
import hashlib
import io
import os
import shlex
import tempfile

from sun_gates import cli

COEFFICIENTS = ["--a=0.3,-0.2", "--b=1.7,0.4"]

#: A normalized --psi per N, not symmetric under the swap, so the postselection fields differ by channel
PSI = {2: "0,0.6,0.8,0", 3: "0.5,0.5,0,0,-0.5,0,0,0,0.5"}

# two sectors on the unitary circle, one outside it (exit 1) and one complex one inside
SECTORS = "j,re_a,im_a,re_b,im_b,kappa\n0,1,0,0,0,1\n1,0.6,0,0,0.8,2\n2,1,0,1,0,0.5\n3,0.1,-0.2,0.3,0.05,1.5\n"

COMMANDS = [
    *(["verify", "--n", str(n), "--seed", seed] for n in range(2, 13) for seed in ("0", "7")),
    *(["verify", "--n", "5", "--channel", channel] for channel in "st"),
    ["verify", "--n", "3", "--tolerance=1e-300"],  # each inexact row fails: exit 1, payload still printed
    *(["encode", "--n", str(n), "--channel", channel, *COEFFICIENTS] for n in (2, 3, 8, 16) for channel in "st"),
    *(["encode", "--n", str(n), "--channel", channel, *COEFFICIENTS, f"--psi={psi}"]
      for n, psi in PSI.items() for channel in "st"),
    *(["cross", "--n", str(n), *COEFFICIENTS] for n in (2, 3, 17, 64)),
    *(["generators", "--n", str(n)] for n in (3, 16)),
    *(["disk", "--resolution", str(r), "--format", fmt] for r in (2, 8, 64, 257) for fmt in ("csv", "json")),
    ["partial-wave", "sectors.csv"],
]


def main():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "sectors.csv"), "w", encoding="utf-8") as fh:
            fh.write(SECTORS)
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = cli.main(argv)
                print(hashlib.sha1(out.getvalue().encode("utf-8")).hexdigest(), code, shlex.join(argv))
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
