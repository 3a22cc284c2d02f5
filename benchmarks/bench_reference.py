"""A fixed reference kernel that gauges the machine's speed during a run.

On a shared machine the other tenants slow one thread by up to 2x, at
times for longer than a whole run, and then no repeat of the work is
fast.  The untraced run (``bench_trace.Stamps``) runs this kernel twice
at every EVERY-th metric evaluation, at the same places in every repeat
of a unit, and times the second run, which finds the caches warm.
run.py scales the run's times by REFERENCE_S over the
kernel's time, taken the way the units' times are: the times the run
would have shown at the speed the benchmark was defined at.

The kernel is the benchmark's own code and never changes with confgeo.
It mixes interpreter work on small dicts and lists with numpy calls on
4-vectors, the mix of confgeo's hot paths.  Timed together in 35
seven-second windows on a shared machine, the fastest ``curvature()``
latency (median over a sweep's query slots) ranged from 395 to 691 us,
a coefficient of variation of 12%, while its ratio to the kernel's
fastest repeat, timed between sweeps, varied by 2.3%.
"""
from __future__ import annotations

import numpy as np

# The kernel's time in quiet spells on the machine the benchmark was
# defined on (2-vCPU x86_64 Intel Xeon virtual machine, Python 3.11.7,
# numpy 2.4.6).
REFERENCE_S = 76.0e-6
# Metric evaluations from one pair of kernel runs to the next.
EVERY = 100
# Kernel runs between units when a unit made none of its own.
BLOCK = 50

_STEP = np.array([1.0, 2.0, 3.0, 4.0])


def kernel():
    table = {}
    for i in range(200):
        table[i] = [i, i * 2.0, str(i)]
    v = np.zeros(4)
    for _ in range(40):
        v = v + _STEP * 0.5
    return len(table), v
