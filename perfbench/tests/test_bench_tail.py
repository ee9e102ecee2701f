"""latency_tail_ms stays on the typical tail when the host slows down for part of a run."""

import random

from metrics import TAIL_BLOCK, block_tail


def test_block_tail_is_median_of_block_maxima():
    latencies = [float(i % TAIL_BLOCK) + block for block in (0.0, 10.0, 20.0) for i in range(TAIL_BLOCK)]
    assert block_tail(latencies) == (19.0, 3)


def test_block_tail_ignores_a_slow_spell_under_half_the_run():
    rng = random.Random(7)
    clean = [rng.uniform(0.15, 0.20) for _ in range(300)]
    slowed = [x * 1.5 if 100 <= i < 160 else x for i, x in enumerate(clean)]
    pooled_p95 = sorted(slowed)[int(0.95 * len(slowed))]
    assert pooled_p95 > 0.25
    assert abs(block_tail(slowed)[0] - block_tail(clean)[0]) < 0.005


def test_block_tail_of_a_run_shorter_than_a_block_is_its_slowest_item():
    assert block_tail([0.3, 0.1, 0.2]) == (0.3, 0)
