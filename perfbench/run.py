"""Benchmark of the sun-gates CLI: end-to-end metrics per workload, or per-layer metrics from a traced run.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload {cli-cold,verify-n8,encode-n16,all} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it sets up the workload's worker process several times,
runs it for ``--seconds`` and prints the end-to-end metrics. With
``--trace 1`` it runs half the time untraced and half with spans around every
public sun_gates function, and prints the per-layer metrics. Every item's
output is checked by the oracles in ``oracles.py``. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time

import benchenv

benchenv.configure_process()

import tracing  # noqa: E402  (numpy must be imported after the thread pinning)
from metrics import END_TO_END, TAIL_BLOCK, block_tail, per_layer_metrics  # noqa: E402
from oracles import OracleError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 7
WORKER = str(benchenv.BENCH_DIR / "worker.py")


def worker_command(workload: str, seed: int, seconds: float, *extra: str, importtime: bool = False) -> list[str]:
    return [sys.executable, *(["-X", "importtime"] if importtime else []), WORKER,
            "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), *extra]


def run_worker(command: list[str], timeout: float) -> tuple[float, str]:
    """Start a worker, time launch-to-READY, and return (setup seconds, rest of its stdout)."""
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=benchenv.ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {' '.join(command)}")
    return setup, rest


def check_items(workload, seed: int, records: list) -> tuple[int, dict[str, float], list[str]]:
    """Run the oracle on every item; returns (failed count, worst deviation per family, first errors)."""
    failed, worst, errors = 0, {}, []
    for index, _latency, code, out, error, _traced in records:
        try:
            if error:
                raise OracleError(error)
            if code != 0:
                raise OracleError(f"exit status {code}")
            found = workload.make_item(seed, index).check(out)
        except (ValueError, LookupError, TypeError, AttributeError, StopIteration) as exc:  # malformed payload
            failed += 1
            if len(errors) < 5:
                errors.append(f"item {index}: {exc}")
            continue
        for family, dev in found.items():
            worst[family] = max(worst.get(family, 0.0), dev)
    return failed, worst, errors


def measure(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one untraced run."""
    # Set-ups are split between before and after the timed run, so their median spans the host's slow spells.
    setup_only = worker_command(workload.name, seed, seconds, "--setup-only")
    setups = [run_worker(setup_only, 120)[0] for _ in range(SETUP_RUNS // 2)]
    setup, out = run_worker(worker_command(workload.name, seed, seconds), seconds + 120)
    setups.append(setup)
    setups += [run_worker(setup_only, 120)[0] for _ in range(SETUP_RUNS - len(setups))]
    result = json.loads(out.strip().splitlines()[-1])
    records = result["items"]
    failed, _worst, errors = check_items(workload, seed, records)
    latencies = [r[1] for r in records]
    tail, blocks = block_tail(latencies)
    beyond = sum(latency > tail for latency in latencies)
    values = {
        "items_per_s": len(records) / result["wall_s"],
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "success_ratio": (len(records) - failed) / len(records),
    }
    notes = {
        "latency_tail_ms": f"median of the slowest item of {blocks} blocks of {TAIL_BLOCK}; "
                           f"{beyond} of {len(records)} items beyond, p{100.0 * (1 - beyond / len(records)):.1f}",
        "setup_s": f"median of {SETUP_RUNS} set-ups",
        "peak_rss_mb": "peak over the CLI child processes" if not workload.in_process else "worker process",
        "success_ratio": f"fail_ratio {failed}/{len(records)}",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
    return {"attempted": len(records), "failed": failed, "errors": errors, "metrics": metrics, "notes": notes}


def measure_traced(workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics from a run that alternates blocks of untraced and traced items."""
    command = worker_command(workload.name, seed, seconds, "--trace", importtime=workload.in_process)
    proc = subprocess.run(command, capture_output=True, text=True, cwd=benchenv.ROOT,
                          timeout=seconds + 120, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"traced worker failed (exit {proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    records = result["items"]
    failed, worst, errors = check_items(workload, seed, records)
    traced = [r[1] for r in records if r[5]]
    untraced = [r[1] for r in records if not r[5]]
    stats = result["trace"]["stats"]
    imports = result["trace"]["imports"] or benchenv.import_times(proc.stderr)

    values = {}
    for name in per_layer_metrics():
        parts = name.split(".")
        if name.startswith("import."):
            module = ".".join(parts[1:-1])
            self_ms, cumulative_ms = imports.get(module, (0.0, 0.0))
            values[name] = cumulative_ms if module == "numpy" else self_ms
        elif name.startswith("precision."):
            values[name] = worst.get(parts[1], 0.0)
        elif not name.startswith("trace."):
            calls, self_ns, raised = stats.get(".".join(parts[:-1]), (0, 0, 0))
            values[name] = {"calls": calls / len(traced), "self_ms": self_ns / 1e6 / len(traced),
                            "errors": raised}[parts[-1]]
    values["trace.item_ms"] = statistics.fmean(traced) * 1e3
    values["trace.overhead_pct"] = (statistics.fmean(traced) / statistics.fmean(untraced) - 1.0) * 100.0
    shares = {layer: values[f"{layer}.self_ms"] / values["trace.item_ms"] * 100.0 for layer in tracing.LAYERS}
    notes = {f"{layer}.self_ms": f"{share:.1f}% of traced item time" for layer, share in shares.items()}
    notes["trace.item_ms"] = f"mean of {len(traced)} traced items; {len(untraced)} untraced"
    if workload.dominant:
        layer, least = workload.dominant
        notes[f"{layer}.self_ms"] += f"; isolation {'holds' if shares[layer] >= least else 'NOT MET'} (>= {least:g}%)"
    if workload.absent:
        calls = values[f"{workload.absent}.calls"]
        notes[f"{workload.absent}.calls"] = f"isolation {'holds' if calls == 0 else 'NOT MET'} (expected 0 calls)"
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in per_layer_metrics().items()}
    return {"attempted": len(records), "failed": failed, "errors": errors, "metrics": metrics, "notes": notes}


def report(workload, outcome: dict) -> None:
    print(f"# workload {workload.name}: {workload.why}")
    print(f"#   isolates: {workload.isolates}")
    print(f"#   expect no change from: {workload.no_change_for}")
    for name, metric in outcome["metrics"].items():
        note = outcome["notes"].get(name)
        print(f"{workload.name:<11} {name:<48} {metric['value']:>14.6g} {metric['unit']:<10}"
              + (f" ({note})" if note else ""))
    for error in outcome["errors"]:
        print(f"{workload.name:<11} FAILED {error}")


def result_line(outcome: dict) -> dict:
    return {"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": outcome["metrics"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (benchenv.SRC / "sun_gates" / "__init__.py").is_file():
        print(f"error: no sun_gates sources under {benchenv.SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    benchenv.WORK_DIR.mkdir(parents=True, exist_ok=True)
    print("# env " + " ".join(f"{k}={v!r}" for k, v in benchenv.environment().items()))
    # Bytecode exists for an installed package; write it before any timing, even under PYTHONDONTWRITEBYTECODE.
    for directory in (benchenv.SRC / "sun_gates", benchenv.BENCH_DIR):
        compileall.compile_dir(directory, maxlevels=0, quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        outcome = (measure_traced if args.trace else measure)(workload, args.seed, args.seconds)
        report(workload, outcome)
        results[name] = result_line(outcome)
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
