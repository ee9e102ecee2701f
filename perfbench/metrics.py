"""Names, units and directions of the benchmark's metrics; BENCHMARK.json declares the same."""

from __future__ import annotations

import statistics

from tracing import LAYERS

# name -> (unit, better)
END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_ratio": ("ratio", "higher"),
}

# latency_tail_ms is the median, over blocks of this many consecutive items, of each block's slowest item.
TAIL_BLOCK = 10


def block_tail(latencies: list[float]) -> tuple[float, int]:
    """Median over consecutive blocks of TAIL_BLOCK items of each block's slowest item.

    For independent items this estimates the p93 (0.5 ** (1 / 10) = 0.933). Unlike a
    percentile of the pooled run, it does not follow the host into a slow spell that
    covers less than half of the run. Returns the value and the number of blocks.
    """
    blocks = [latencies[i:i + TAIL_BLOCK] for i in range(0, len(latencies) - TAIL_BLOCK + 1, TAIL_BLOCK)]
    if not blocks:
        return max(latencies), 0
    return statistics.median(max(block) for block in blocks), len(blocks)


# Functions whose self time is reported on their own, beside their layer's total.
LAYER_FUNCTIONS = {
    "qudit_ops": ("decompose", "reconstruct"),
    "lcu_encoder": ("build_w", "apply_with_postselection", "verify_block"),
    "invariant_channels": ("charge_parity_bilinear", "generator_form_projectors", "u_exponential_form",
                           "build_projectors"),
    "sun_algebra": ("build_generators", "verify_completeness"),
    "amplitude_model": ("amplitude_operator",),
    "cli": ("identity_checks", "cmd_encode", "build_parser"),
}
PRECISION_FAMILIES = ("generator", "projector", "gate", "charge_parity", "crossing", "decompose",
                      "block_identity", "w_unitarity", "postselection")


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of every per-layer metric, in report order."""
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = ("count/item", "lower")
        metrics[f"{layer}.self_ms"] = ("ms/item", "lower")
        metrics[f"{layer}.errors"] = ("count", "lower")
        for fn in LAYER_FUNCTIONS[layer]:
            metrics[f"{layer}.{fn}.self_ms"] = ("ms/item", "lower")
    metrics["import.numpy.ms"] = ("ms", "lower")
    metrics["import.sun_gates.ms"] = ("ms", "lower")
    for layer in LAYERS:
        metrics[f"import.sun_gates.{layer}.ms"] = ("ms", "lower")
    for family in PRECISION_FAMILIES:
        metrics[f"precision.{family}.max_dev"] = ("abs", "lower")
    metrics["trace.item_ms"] = ("ms", "lower")
    metrics["trace.overhead_pct"] = ("%", "lower")
    return metrics
