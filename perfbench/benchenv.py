"""Paths, thread pinning and the environment report shared by the benchmark's processes.

Every process of the benchmark calls ``configure_process`` before numpy is
imported, and passes the pinned variables on to the processes it starts.
"""

from __future__ import annotations

import os
import platform
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure_process() -> None:
    """Pin BLAS to one thread and put the checkout's ``src`` first on the import path.

    Must run before numpy is imported in this process; processes started
    afterwards inherit the same settings.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git; ``unknown`` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, str]:
    """Python, numpy and BLAS versions, thread variables, CPUs and commit of this run."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": str(blas),
    }
    env.update({var: os.environ.get(var, "") for var in BLAS_THREAD_VARS})
    env["cpu_count"] = str(os.cpu_count())
    env["cpu_model"] = _cpu_model()
    env["commit"] = _git_commit()
    return env


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_times(stderr: str) -> dict[str, tuple[float, float]]:
    """Parse ``-X importtime`` output into {module: (self_ms, cumulative_ms)}."""
    times = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            times[match.group(3).strip()] = (int(match.group(1)) / 1000.0, int(match.group(2)) / 1000.0)
    return times
