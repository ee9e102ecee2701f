"""Traced stand-in for ``python -m sun_gates``: installs the span wrappers, runs the CLI, writes the spans.

Usage: python launch.py SPANS_JSON SUBCOMMAND [ARGS...]
"""

from __future__ import annotations

import json
import sys

import benchenv

benchenv.configure_process()

import sun_gates.cli  # noqa: E402  (numpy must be imported after the thread pinning)
import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    spans_out, cli_argv = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return sun_gates.cli.main(cli_argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
