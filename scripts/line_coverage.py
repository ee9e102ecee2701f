#!/usr/bin/env python3
"""Run the test suite in this process under a line tracer, and list each package module's unexecuted lines.

The tracer is the standard library's: ``sys.settrace`` and ``threading.settrace``, installed before
``sun_gates`` is imported, record every line run in a file under ``src/sun_gates/``; frames of other
files are not traced.  A module's executable lines are the lines ``co_lines()`` names over its compiled
code object and every code object nested in it, line 0 left out.

Prints one strict JSON record, ``{module: {"executable": <count>, "unexecuted": [<line>, ...]}}``, and exits
with pytest's status; pytest's own report goes to stderr.

Usage: python scripts/line_coverage.py > coverage.json
"""

import contextlib
import functools
import json
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sun_gates"


def line_tracer(executed: defaultdict):
    """A ``settrace`` function that adds each line run in a file under the package to ``executed[real path]``."""
    @functools.cache
    def real_path_in_package(filename: str) -> str | None:
        path = os.path.realpath(filename)
        return path if path.startswith(str(PACKAGE) + os.sep) else None

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[real_path_in_package(frame.f_code.co_filename)].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        # called on each new frame: only the package's frames get the line tracer
        if (path := real_path_in_package(frame.f_code.co_filename)) is None:
            return None
        executed[path].add(frame.f_lineno)
        return trace_lines

    return trace_calls


def executable_lines(path: Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def main() -> int:
    executed = defaultdict(set)
    tracer = line_tracer(executed)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main([str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    record = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        record[f"sun_gates.{path.stem}"] = {"executable": len(lines),
                                            "unexecuted": sorted(lines - executed[str(path)])}
    print(json.dumps(record, indent=2, allow_nan=False))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
