"""The evaluation grid every workload draws from, and seeded input generation.

The grid is the paper's Figs 14-16: four technique variants at 4 and 8
wide over the 12 SPEC CINT2000 clones, each job at the reference shape of
2k measured + 2k warmup instructions.  All inputs derive from the
workload seed through :func:`rng`, in the benchmark's own process; the
program only ever receives the generated specs.
"""

from __future__ import annotations

import dataclasses
import random

INSTS = 2_000
WARMUP = 2_000
#: Ops materialized beyond ``INSTS + WARMUP`` for a replay feed: enough
#: for everything a run fetches past its last commit (the replay-vs-
#: generator parity check fails loudly if it ever is not).
REPLAY_MARGIN = 1_024

WIDTHS = (4, 8)
#: (scheduler, regfile) wire values of the four technique variants.
VARIANTS = (
    ("base", "base"),
    ("seq_wakeup", "base"),
    ("base", "sequential"),
    ("seq_wakeup", "sequential"),
)


def rng(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible stream for one use of the workload seed."""
    return random.Random(f"perfbench:{purpose}:{seed}")


def wire_spec(benchmark: str, width: int, variant: tuple[str, str], seed: int) -> dict:
    """A serve ``run`` spec for one grid cell on the native backend."""
    scheduler, regfile = variant
    return {
        "kind": "run",
        "benchmark": benchmark,
        "width": width,
        "scheduler": scheduler,
        "regfile": regfile,
        "seed": seed,
        "insts": INSTS,
        "warmup": WARMUP,
        "backend": "native",
    }


def cell_stream(draw: random.Random):
    """Endless fresh grid specs, visiting every grid cell once per round.

    Each round is a new seeded permutation of the 96 cells, each with a
    new workload seed, so every run of a phase has the same mix of
    benchmarks and machines and only the streams and order vary.
    """
    from itertools import product

    cells = list(product(benchmarks(), WIDTHS, VARIANTS))
    while True:
        draw.shuffle(cells)
        for benchmark, width, variant in cells:
            yield wire_spec(benchmark, width, variant, draw.randrange(1, 2**31))


def configs(backend: str = "native"):
    """The eight grid machines as :class:`MachineConfig` values."""
    from repro.serve.protocol import parse_spec

    out = []
    for width in WIDTHS:
        for variant in VARIANTS:
            config = parse_spec(wire_spec("gzip", width, variant, 0)).config()
            out.append(dataclasses.replace(config, backend=backend))
    return out


def benchmarks() -> tuple[str, ...]:
    from repro.workloads.profiles import SPEC_BENCHMARKS

    return tuple(SPEC_BENCHMARKS)
