"""Machine-speed calibration and the quantile estimator of the benchmark.

The 2-vCPU machine the benchmark was defined on changes speed by 1.5-1.8x
for stretches of seconds to minutes, for every kind of op alike, with CPU
time tracking wall time (see ``BASELINE.md``). A 30 s run then measures
mostly which stretch it fell in. To take that out, a fixed reference kernel
that is independent of gaugekit runs between consecutive ops, and every
timing is scaled to the speed at which the kernel takes ``REF_NOMINAL_S``::

    scaled = wall * REF_NOMINAL_S / mean(reference before, reference after)

A set-up probe is scaled by the kernel time its own process measures right
after its set-up. A change to the program moves the wall time and leaves
the reference time alone, so the scaled time moves with it; a slow stretch
of the machine moves both, so the scaled time stays put. The kernel mixes
the kinds of work gaugekit does: a pure-Python dict loop (the gate-table and
identity loops), small ``reshape``/``moveaxis`` copies (tiny register
applies) and copies of a 1 MB amplitude array (the register's axis moves).
Each reference time is the shortest of a few kernel runs. The kernel does
not track the machine exactly on bandwidth-bound work: on ``dense_abelian``
the ops slow less than the kernel does, so the scaling there over-corrects
slightly.

Percentiles use the Harrell-Davis estimator, a weighted mean of all order
statistics with Beta weights centred on the percentile. The op kinds of a
workload take very different times (on ``prepare_seeds`` half the ops are
S4/S3 and half D4), so the plain sample median falls in the gap between two
kinds and jumps with the single slowest op below it and the single fastest
above it; the Harrell-Davis median averages the ops on both sides.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

# About the reference time between ops on the machine the benchmark was
# defined on (2 vCPUs x86_64, 2100 MHz reported, Python 3.11, numpy 2.4;
# 0.75-1.4 ms as its speed changed), so that scaled times read close to that
# machine's wall times.
REF_NOMINAL_S = 1.0e-3

_SMALL = np.arange(4096.0)
_AMPS = np.arange(3**10, dtype=complex)  # 59,049 amplitudes, 0.94 MB


def reference(repeats: int = 3) -> float:
    """Shortest wall time of ``repeats`` runs of the fixed reference kernel;
    the shortest, because an interrupt or the caches an op left behind only
    ever slow a run down."""
    return min(_kernel() for _ in range(repeats))


def _kernel() -> float:
    """Wall time of one run of the reference kernel, about 1 ms."""
    t0 = time.perf_counter()
    table = {}
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0) + 3 * i
    small = _SMALL
    for _ in range(20):
        small = np.moveaxis(small.reshape(16, 16, 16), 0, 2).copy().ravel()
    amps = _AMPS.reshape((3,) * 10)
    for _ in range(4):
        amps = np.moveaxis(amps, 0, 9).copy()
    return time.perf_counter() - t0


def scaled(walls: Sequence[float], refs: Sequence[float]) -> list:
    """Each wall time scaled to reference speed; ``refs`` has one more entry
    than ``walls``: the reference runs before the first op and after each."""
    assert len(refs) == len(walls) + 1
    return [w * 2 * REF_NOMINAL_S / (refs[i] + refs[i + 1]) for i, w in enumerate(walls)]


def hd_quantile(values: Sequence[float], p: float, grid: int = 20001) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: sum of the sorted values
    weighted by the Beta(p(n+1), (1-p)(n+1)) mass on ((i-1)/n, i/n]."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    x = np.linspace(0.0, 1.0, grid)[1:-1]
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, x, cdf, left=0.0, right=1.0)
    return float(np.dot(np.diff(edges), xs))
