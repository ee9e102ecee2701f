"""Worker process of one benchmark run: set-up, then a closed loop of items for a fixed time.

Prints ``READY`` once set-up (imports, input files, warm-up) is done, then,
unless ``--setup-only`` is given, runs items until ``--seconds`` have passed
and prints one JSON line holding every item's latency, exit code and output.
With ``--trace`` it alternates blocks of untraced and traced items, so both
halves see the same conditions, and adds the per-layer span statistics of the
traced items. Outputs are checked by the caller, outside the timed loop.

Usage: python worker.py --workload NAME --seed N --seconds S [--setup-only] [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time

import benchenv

benchenv.configure_process()

import tracing  # noqa: E402  (numpy must be imported after the thread pinning)
from workloads import WORKLOADS  # noqa: E402

ITEM_TIMEOUT_S = 60
# Traced and untraced items alternate in blocks of one full cli-cold cycle (and three s/t pairs).
TRACE_BLOCK = 6
LAUNCHER = str(benchenv.BENCH_DIR / "launch.py")
CHILD_SPANS = benchenv.WORK_DIR / "child-spans.json"


class InProcess:
    """Calls ``sun_gates.cli.main`` in this process and captures the payload in memory."""

    def __init__(self):
        import sun_gates.cli

        self.cli = sun_gates.cli
        self.tracer = tracing.Tracer()
        self.traced = False

    def set_traced(self, on: bool) -> None:
        if on and not self.traced:
            self.tracer.install()
        elif self.traced and not on:
            self.tracer.uninstall()
        self.traced = on

    def run(self, argv: list[str], index: int) -> tuple[int, str]:
        self.tracer.item = index
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.main(argv)
        return code, buffer.getvalue()

    def trace_result(self) -> dict:
        self.set_traced(False)
        spans = self.tracer.spans
        return {"spans": spans, "stats": tracing.summarize(spans), "imports": None}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class FreshProcess:
    """Runs every item as a new ``python -m sun_gates`` process; traced items go through the launcher."""

    def __init__(self):
        self.traced = False
        self.spans: list[list] = []
        self.imports: dict[str, list[float]] = {}
        self.children = 0

    def set_traced(self, on: bool) -> None:
        self.traced = on

    def run(self, argv: list[str], index: int) -> tuple[int, str]:
        if self.traced:
            CHILD_SPANS.unlink(missing_ok=True)
            command = [sys.executable, "-X", "importtime", LAUNCHER, str(CHILD_SPANS), *argv]
        else:
            command = [sys.executable, "-m", "sun_gates", *argv]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=benchenv.ROOT,
                              timeout=ITEM_TIMEOUT_S, check=False)
        if self.traced:
            self._collect(proc.stderr, index)
        return proc.returncode, proc.stdout

    def _collect(self, stderr: str, index: int) -> None:
        with open(CHILD_SPANS, encoding="utf-8") as fh:
            spans = json.load(fh)
        base = len(self.spans)
        for span in spans:
            span[tracing.ITEM] = index
            if span[tracing.PARENT] >= 0:
                span[tracing.PARENT] += base
        self.spans.extend(spans)
        for module, times in benchenv.import_times(stderr).items():
            entry = self.imports.setdefault(module, [0.0, 0.0])
            entry[0] += times[0]
            entry[1] += times[1]
        self.children += 1

    def trace_result(self) -> dict:
        imports = {m: [t / self.children for t in times] for m, times in self.imports.items()}
        return {"spans": self.spans, "stats": tracing.summarize(self.spans), "imports": imports}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def timed_loop(workload, seed: int, seconds: float, runner, trace: bool) -> tuple[list, float]:
    """Run items 0, 1, ... until ``seconds`` have passed; returns records and wall time.

    A record is [index, latency_s, exit code, stdout, error, traced].
    """
    records = []
    index = 0
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        argv = workload.make_item(seed, index).argv
        traced = trace and (index // TRACE_BLOCK) % 2 == 1
        runner.set_traced(traced)
        start = time.perf_counter()
        error = None
        try:
            code, out = runner.run(argv, index)
        except Exception as exc:  # an item that raises is a failed item, not the end of the run
            code, out, error = None, "", f"{type(exc).__name__}: {exc}"
        records.append([index, time.perf_counter() - start, code, out, error, traced])
        index += 1
    return records, time.perf_counter() - begin


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    benchenv.WORK_DIR.mkdir(parents=True, exist_ok=True)
    workload.prepare(args.seed)
    runner = InProcess() if workload.in_process else FreshProcess()
    for index in (-1, -2) if workload.in_process else (-1,):
        runner.run(workload.make_item(args.seed, index).argv, index)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    records, wall = timed_loop(workload, args.seed, args.seconds, runner, args.trace)
    result = {"items": records, "wall_s": wall, "peak_rss_mb": runner.peak_rss_mb()}
    if args.trace:
        trace = runner.trace_result()
        with open(benchenv.WORK_DIR / f"spans-{workload.name}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(trace.pop("spans"), fh)
        result["trace"] = trace
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
