"""The benchmark's workloads: the argv of every item, and the oracle that checks its output.

Every workload is a closed loop with one client: items run one after another
from a single worker process with BLAS pinned to one thread, so there is no
queue and no waiting time to report. An item's inputs are drawn from
(workload, seed, item index) alone, so the same seed gives the same inputs and
no result can be reused from an earlier item.

Complex and state arguments are passed as ``--a=re,im``, ``--b=re,im`` and
``--psi=v1,...``. The separate form (``--psi -0.5,0.5,0.5,0.5``) exits 2,
because argparse reads a value with a leading minus as an option; the joined
form is the one the project README documents for negative values. The CLI fix
belongs to later input hardening, not to the benchmark.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles
from benchenv import WORK_DIR


@dataclass(frozen=True)
class Item:
    """One command line and the oracle that checks what it prints."""

    argv: list[str]
    check: Callable[[str], dict[str, float]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    isolates: str
    no_change_for: str
    in_process: bool
    make_item: Callable[[int, int], Item]
    prepare: Callable[[int], None] = field(default=lambda seed: None)
    # Isolation the traced run confirms: ``dominant`` = (layer, least % of item time its self time takes),
    # and ``absent`` is a layer that gets no calls.
    dominant: tuple[str, float] | None = None
    absent: str | None = None


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _complex(rng: random.Random) -> complex:
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def _arg(flag: str, values) -> str:
    return f"--{flag}=" + ",".join(repr(float(v)) for v in values)


def _encode_item(rng: random.Random, n: int, channel: str) -> Item:
    a, b = _complex(rng), _complex(rng)
    raw = [rng.gauss(0.0, 1.0) for _ in range(n * n)]
    norm = math.sqrt(math.fsum(x * x for x in raw))
    psi = [x / norm for x in raw]
    argv = ["encode", "--n", str(n), "--channel", channel,
            _arg("a", (a.real, a.imag)), _arg("b", (b.real, b.imag)), _arg("psi", psi)]
    return Item(argv, lambda text: oracles.check_encode(text, n, channel, a, b, psi))


def _verify_item(rng: random.Random, n: int) -> Item:
    seed = rng.randrange(2 ** 31)
    argv = ["verify", "--n", str(n), "--tolerance", "1e-12", "--seed", str(seed)]
    return Item(argv, lambda text: oracles.check_verify(text, n, seed))


# --- verify-n8 -------------------------------------------------------------------------------

def verify_n8_item(seed: int, index: int) -> Item:
    return _verify_item(_rng("verify-n8", seed, index), 8)


VERIFY_N8 = Workload(
    name="verify-n8",
    why="N=8 is the paper's desk-scale ceiling; the invariant operators are checked densely, as "
        "N^2 x N^2 matrices, and decompose/reconstruct dominate the item.",
    isolates="qudit_ops (decompose + reconstruct, ~85% of item time); invariant_channels is the next ceiling",
    no_change_for="lcu_encoder (0 calls here): a structured a*I + b*Z encoder must not move this workload",
    in_process=True,
    make_item=verify_n8_item,
    dominant=("qudit_ops", 80.0),
    absent="lcu_encoder",
)


# --- encode-n16 ------------------------------------------------------------------------------

def encode_n16_item(seed: int, index: int) -> Item:
    return _encode_item(_rng("encode-n16", seed, index), 16, "st"[index % 2])


ENCODE_N16 = Workload(
    name="encode-n16",
    why="the same gates applied to states instead of checked as matrices: build_w, postselection "
        "and the W^dagger W unitarity product at N=16, alternating s and t channels.",
    isolates="lcu_encoder (build_w twice per item, ~75% of item time) and cli.cmd_encode",
    no_change_for="qudit_ops (0 calls here): contraction-path work in decompose/reconstruct must not move it",
    in_process=True,
    make_item=encode_n16_item,
    dominant=("lcu_encoder", 60.0),
    absent="qudit_ops",
)


# --- cli-cold --------------------------------------------------------------------------------

COLD_N = 3
DISK_RESOLUTION = 16
SECTOR_FILES = 8
SECTORS_PER_FILE = 6


def sectors(seed: int, k: int) -> list[tuple[int, complex, complex, float]]:
    """Sector table k of the run: (j, a_j, b_j, kappa_j) strictly inside the unit disk."""
    rng = _rng("cli-cold/sectors", seed, k)
    table = []
    for j in range(SECTORS_PER_FILE):
        radius = 0.9 * math.sqrt(rng.random())
        angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)]
        a = radius * math.cos(angles[0]) * complex(math.cos(angles[1]), math.sin(angles[1]))
        b = radius * math.sin(angles[0]) * complex(math.cos(angles[2]), math.sin(angles[2]))
        table.append((j, a, b, rng.uniform(0.1, 2.0)))
    return table


def sector_path(seed: int, k: int) -> str:
    return str(WORK_DIR / f"sectors-{seed}-{k}.csv")


def write_sector_files(seed: int) -> None:
    """Write the run's sector tables for ``partial-wave`` (part of set-up)."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    for k in range(SECTOR_FILES):
        lines = ["j,re_a,im_a,re_b,im_b,kappa"]
        lines += [f"{j},{a.real!r},{a.imag!r},{b.real!r},{b.imag!r},{kappa!r}" for j, a, b, kappa in sectors(seed, k)]
        with open(sector_path(seed, k), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def cli_cold_item(seed: int, index: int) -> Item:
    """One of the six subcommands at N=3, cycling in item order."""
    rng = _rng("cli-cold", seed, index)
    n = COLD_N
    kind = index % 6
    if kind == 0:
        return Item(["generators", "--n", str(n)], lambda text: oracles.check_generators(text, n))
    if kind == 1:
        return _verify_item(rng, n)
    if kind == 2:
        return _encode_item(rng, n, "st"[(index // 6) % 2])
    if kind == 3:
        a, b = _complex(rng), _complex(rng)
        argv = ["cross", "--n", str(n), _arg("a", (a.real, a.imag)), _arg("b", (b.real, b.imag))]
        return Item(argv, lambda text: oracles.check_cross(text, n, a, b))
    if kind == 4:
        argv = ["disk", "--resolution", str(DISK_RESOLUTION)]
        return Item(argv, lambda text: oracles.check_disk(text, DISK_RESOLUTION))
    k = (index // 6) % SECTOR_FILES
    return Item(["partial-wave", sector_path(seed, k)], lambda text: oracles.check_partial_wave(text, sectors(seed, k)))


CLI_COLD = Workload(
    name="cli-cold",
    why="what a shell user pays: one fresh `python -m sun_gates` process per item, cycling through "
        "all six subcommands at N=3; interpreter start and imports are most of the ~300 ms.",
    isolates="process start and import (numpy ~105 ms of ~170 ms for `import sun_gates.cli`); kernels < 1%",
    no_change_for="kernel work in qudit_ops or lcu_encoder: those must show no change here",
    in_process=False,
    make_item=cli_cold_item,
    prepare=write_sector_files,
)


WORKLOADS = {w.name: w for w in (CLI_COLD, VERIFY_N8, ENCODE_N16)}
