"""Machine-speed calibration: a fixed kernel timed between the program's ops.

The reference box is a shared VM whose CPU speed drifts by 20-30% over
minutes: in ten-seed sets of ``sweep``, whose ops are the same in every
run, the run-level speed moved from 0.74 to 1.16 of its median while
the light and the heavy ops kept their ratio.  A wall-clock figure of a 40 s run therefore spreads by the
machine's drift, not the program's.

This kernel uses only numpy, scipy and the interpreter, never the
program, so no change to ``src/`` moves its time.  It mixes the kinds of
work the program does: an elementwise recurrence and an exponential on a
241^2 grid (the closed forms' Hermite sums), a 64^2 matrix exponential
(the oracle), and a pure-Python loop (the CLI and the call overhead).
The worker times it between ops, outside each op's latency, and the
runner times it just before and after each set-up interpreter.  The
runner divides each op time by the run's ``slowdown``, and each set-up
time by the slowdown around it.  The time metrics then read as seconds
on the reference box at its usual speed, and a change to the program
still moves them in full.

The slowdown is the median kernel time over ``REFERENCE_S``, raised to
the workload's ``EXPONENT``: how far its times follow the kernel's.
How far that is depends on the machine's state.  Over runs on the
reference box the log-log slope of a run's as-timed ops_per_s against
its kernel median was 1.15 for sweep (correlation 0.93) and 0.6-0.7 for
certify (correlation 0.94) while the machine drifted, but in quiet
spells the kernel moved by a few percent that the program did not
share.  The exponents were picked by recomputing, for exponents 0 to 1,
the spread (IQR/median) of each batch of five runs, and
taking the one with the smallest worst spread over the batches: 0.4 for
certify (worst 0.09 / 0.16 / 0.16 for ops_per_s / latency_p50_s /
latency_tail_s, against 0.22 / 0.16 / 0.21 as timed), 0.8 for sweep
(0.05 / 0.07 / 0.10, against 0.13 / 0.17 / 0.05), and 0.4 for set-up.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# Median kernel time on the reference box (2-CPU VM, Python 3.11,
# numpy 2.4, scipy 1.17, one BLAS thread).  It only sets the scale the
# time metrics read in; the gate compares runs, so any fixed value works.
REFERENCE_S = 0.0018
# Exponent of the slowdown per workload, and for set-up.  export's is not
# fitted, since it is not gated; it takes sweep's.
EXPONENT = {"certify": 0.4, "sweep": 0.8, "export": 0.8}
SETUP_EXPONENT = 0.4
# Kernel runs after each timed op of the worker, and in the runner
# before and after each set-up interpreter.
REPS_PER_OP = 4
REPS_PER_SETUP = 100

_AXIS = np.linspace(-4.0, 4.0, 241)
_Q, _P = np.meshgrid(_AXIS, _AXIS)
_R = 0.5 * (_Q * _Q + _P * _P)
_LADDER = np.diag(np.sqrt(np.arange(1.0, 64.0)), 1)
# Preallocated grids: a fresh 241^2 array per step would be mapped and
# faulted in anew each time, which doubled the kernel's time in a fresh
# process and made it hang on the heap the program's ops leave behind.
_H0, _H1, _T = np.empty_like(_R), np.empty_like(_R), np.empty_like(_R)


def kernel() -> float:
    """One fixed unit of work; returns a number so nothing is optimised away."""
    h0, h1, t = _H0, _H1, _T
    h0.fill(1.0)
    np.multiply(_Q, 2.0, out=h1)
    for k in range(1, 12):
        # h1 <- 2 q h1 - 2 k h0, written over h0, then the two swap.
        np.multiply(_Q, h1, out=t)
        t *= 2.0
        h0 *= 2.0 * k
        np.subtract(t, h0, out=h0)
        h0, h1 = h1, h0
    np.negative(_R, out=t)
    np.exp(t, out=t)
    t *= h1
    total = float(t.sum())
    total += float(scipy.linalg.expm(0.3 * (_LADDER - _LADDER.T))[0, 0])
    acc = 0
    for i in range(3000):
        acc += i * i
    return total + acc


def sample(reps: int) -> list[float]:
    """Times of ``reps`` kernel runs, in seconds."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def slowdown(times, exponent: float = 1.0) -> float:
    """Median kernel time over the reference, to ``exponent``: 1 on the reference box.

    With exponent 1, 1.2 when the kernel runs 20% slower.
    """
    return (float(statistics.median(times)) / REFERENCE_S) ** exponent
