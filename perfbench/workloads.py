"""Seeded op lists for the three CLI workloads.

Standard library only, so the ops a seed gives do not depend on the
numpy version.

Each workload yields blocks of ops.  A block is a stratified draw: the
inputs that set an op's cost (family, n, theta, grid size) are spread
evenly over their ranges inside every block, and the seed picks the
values within each stratum and the order of the block.  A run times
whole blocks only, so two seeds run the same mix of cheap and expensive
ops and their throughputs stay comparable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

FAMILIES = ("vacuum", "subtracted", "added", "number")
WORKLOADS = ("certify", "sweep", "export")
# The workloads BENCHMARK.json gates.  export stays runnable but is not
# gated: on the reference box its spread over ten seeds exceeded the 0.25
# bound (IQR/median 0.27 for latency_p50_s, 0.32 for latency_tail_s).
GATED = ("certify", "sweep")

# certify: verify at the default per-family grid.  theta stops at 1.5
# because one theta = 2 state costs seconds and over a gigabyte.  A
# number verify costs about 0.5 s + 1.4 ms (n+1)^3, so n is not drawn
# freely: every pair of blocks gives each family the same eight n levels,
# spread evenly over 0..16, two per n stratum.  The seed draws theta
# inside its stratum and the order of each block.  Each family pairs its
# n strata with the theta strata in a fixed way.  number pairs top with
# top, so the range's largest state is in every block.  Each family's top
# n stratum sits at the middle of its theta stratum, so that the run's
# peak memory and largest costs do not hang on the draw.  The pairings
# of the other families were
# chosen with a cost model fitted to measured ops, so that the run's
# tail latency (its 11th-largest) falls among ops of similar cost and not
# at a step.  With n and a Latin pairing drawn per block, that model put
# the tail's seed-to-seed IQR/median at 0.13; with these pairings, 0.07
# at 8% per-op timing noise.
CERTIFY_N_MAX = 16
CERTIFY_THETA = (0.1, 1.5)
CERTIFY_STRATA = 4
CERTIFY_N_LEVELS = tuple(round(j * CERTIFY_N_MAX / (2 * CERTIFY_STRATA - 1))
                         for j in range(2 * CERTIFY_STRATA))  # 0, 2, 5, 7, 9, 11, 14, 16
# theta stratum of each n stratum, per family.
CERTIFY_PAIRING = {"vacuum": (0, 1, 3, 2), "subtracted": (3, 0, 2, 1),
                   "added": (3, 0, 2, 1), "number": (0, 1, 2, 3)}

# sweep: scan-theta with negativity over its default 20 steps in
# theta 0.1..2.0.  n stops at 8 because one number n = 8 scan already
# takes several seconds.
SWEEP_N_MAX = 8
SWEEP_STEPS = 20
SWEEP_THETA = (0.1, 2.0)

# export: eval from the closed form on the default box.  One grid in
# four is 1001^2, so the median op is a small grid and the big grids
# decide throughput.
EXPORT_N_MAX = 5
EXPORT_THETA = (0.1, 2.0)
EXPORT_FORMATS = ("csv", "json")
EXPORT_RESOLUTIONS = (81, 81, 81, 1001)
EXPORT_BOX = 4.0

# Nominal block time on the reference box (2 CPUs, Python 3.11, numpy
# 2.4, one BLAS thread).  A run measures a fixed number of blocks, the
# number that fits in --seconds at these times, so every run of a
# workload times the same amount of work and the same number of ops.
NOMINAL_BLOCK_S = {"certify": 16.0, "sweep": 20.0, "export": 4.25}
# A timed pass stops at the next block boundary once its work takes this
# many times --seconds, which bounds a run on a much slower machine.
SLOW_LIMIT = 2.0


@dataclass(frozen=True)
class Op:
    """One CLI call; ``argv`` lacks only the output path."""

    index: int
    block: int
    command: str
    family: str
    n: int
    theta: float | None = None
    fmt: str | None = None
    res: int | None = None

    @property
    def suffix(self) -> str:
        return {"verify": ".json", "scan-theta": ".csv", "eval": f".{self.fmt}"}[self.command]

    def argv(self, out_path: str) -> list[str]:
        args = [self.command, "--family", self.family, "--n", str(self.n)]
        if self.theta is not None:
            args += ["--theta", repr(self.theta)]
        if self.command == "eval":
            args += ["--source", "closed-form", "--box", repr(EXPORT_BOX),
                     "--res", str(self.res), "--format", self.fmt]
        return args + ["--out", out_path]

    def describe(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}


class _Deck:
    """Draws without replacement from ``items``, reshuffling when empty.

    Over each full pass every item appears once, so the mix of a short
    run is close to the mix of a long one.
    """

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self.left = rng, list(items), []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def _certify_blocks(rng: random.Random):
    lo, hi = CERTIFY_THETA
    k = CERTIFY_STRATA
    while True:
        # Blocks come in antithetic pairs: the second takes each n
        # stratum's other level and mirrors the first's theta offsets
        # (x -> 1 - x), so a pair spans every stratum evenly.
        offsets = {key: rng.random() for key in itertools.product(FAMILIES, range(k))}
        for side in (0, 1):
            ops = []
            for family in FAMILIES:
                for i, j in enumerate(CERTIFY_PAIRING[family]):
                    x = offsets[family, j] if side == 0 else 1.0 - offsets[family, j]
                    if i == k - 1:
                        # The largest states sit mid-stratum: they set the
                        # run's peak memory and a third of its time.
                        x = 0.5
                    ops.append(dict(command="verify", family=family,
                                    n=CERTIFY_N_LEVELS[2 * i + side],
                                    theta=lo + (hi - lo) * (j + x) / k))
            rng.shuffle(ops)
            yield ops


def _sweep_blocks(rng: random.Random):
    while True:
        ops = [dict(command="scan-theta", family=f, n=n)
               for f in FAMILIES for n in range(SWEEP_N_MAX + 1)]
        rng.shuffle(ops)
        yield ops


def _export_blocks(rng: random.Random):
    lo, hi = EXPORT_THETA
    # One family deck and one n deck per (format, resolution), so every
    # four blocks the 1001^2 CSV and the 1001^2 JSON each visit every family.
    shapes = [(fmt, res) for fmt in EXPORT_FORMATS for res in EXPORT_RESOLUTIONS]
    families = {shape: _Deck(rng, FAMILIES) for shape in dict.fromkeys(shapes)}
    orders = {shape: _Deck(rng, range(EXPORT_N_MAX + 1)) for shape in dict.fromkeys(shapes)}
    while True:
        ops = [dict(command="eval", family=families[shape].draw(), n=orders[shape].draw(),
                    theta=rng.uniform(lo, hi), fmt=shape[0], res=shape[1])
               for shape in shapes]
        rng.shuffle(ops)
        yield ops


def block_count(workload: str, seconds: float) -> int:
    """Blocks one run measures: as many as fit in ``seconds`` nominally, at least one."""
    return max(1, int(seconds // NOMINAL_BLOCK_S[workload]))


_BLOCKS = {"certify": _certify_blocks, "sweep": _sweep_blocks, "export": _export_blocks}


def blocks(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless seeded sequence of op blocks; the same seed gives the same ops."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    index = 0
    for number, fields_list in enumerate(_BLOCKS[workload](random.Random(f"{workload}:{int(seed)}"))):
        ops = [Op(index=index + i, block=number, **fields) for i, fields in enumerate(fields_list)]
        index += len(ops)
        yield ops

