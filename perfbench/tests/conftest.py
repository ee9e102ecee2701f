"""Make the benchmark's modules and the checkout's sources importable by its tests."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
