"""Probes of the host's speed, timed next to every measured command.

On a shared host the same code runs up to 1.7x slower while other tenants
load the cores, in phases that last from seconds to minutes: longer than a
benchmark run, so neither a run's median nor its fastest pass repeats from
run to run.  A probe is a fixed piece of benchmark-owned work of one kind
the commands do, and each command is paired with the probes of its kinds.
Timed just before and just after the command, they slow down with it, and

    normalised time = command time * nominal probe time / measured probe time

is the command's time at the speed the host had when the nominal times were
taken.  The probes never call the package, so a change to the program moves
the command's time and not the probes'.  The match is not exact: a command
whose work changes kind (say, from a Python loop to numpy) is still paired
with its old probes, so judge such a change on the raw times too, which the
detail record keeps.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np


def _fraction() -> None:
    """Fraction arithmetic on growing integers, as in the exact tables."""
    x = Fraction(1, 3)
    for i in range(1, 300):
        x = x * Fraction(i, i + 7) + Fraction(1, i)


def _python() -> None:
    """Union-find over Python lists: interpreter work, as in per-trial loops."""
    parent = list(range(400))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for k in range(20000):
        if k % 400 == 0:
            parent[:] = range(400)
        a, b = find(k * 7919 % 400), find(k * 104729 % 400)
        if a != b:
            parent[a] = b


# 4 MiB, about the size of the simulator's arrays of draws per batch
_WORDS = np.arange(1 << 19, dtype=np.uint64)


def _numpy() -> None:
    """uint64 mixing over a large array, as in the vectorised draws."""
    for _ in range(6):
        ((_WORDS * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(7)).sum()


PROBES = {"fraction": _fraction, "python": _python, "numpy": _numpy}

# each probe's 10th-percentile time over 300 runs on a 2-vCPU Xeon, Python
# 3.11.7, numpy 2.4.6; it only sets the scale of the normalised times
NOMINAL_S = {"fraction": 0.0013, "python": 0.0051, "numpy": 0.0037}


def measure(kinds) -> float:
    """Seconds the named probes take, run once each."""
    start = time.perf_counter()
    for kind in kinds:
        PROBES[kind]()
    return time.perf_counter() - start


def nominal(kinds) -> float:
    return sum(NOMINAL_S[kind] for kind in kinds)
