"""Machine-speed calibration, so that timings from different moments compare.

On a shared host the same pass runs 1.5 to 1.8 times slower at some moments
than at others, in spells of tens of seconds, which no repetition inside a
20 s run can average away.  A fixed reference work item, measured right
before and right after each op, slows down with it.  Each op's time is
therefore reported in reference seconds,

    t_ref = t * REF_S / mean(calibration before, calibration after),

the time the op would take on a machine where the reference work takes
REF_S.  The reference work mixes what the package spends its time on: sparse
dicts of Fractions (multipoly), mpmath arithmetic in a private context (so
the package's precision settings cannot change it) and an elementwise numpy
pass (no BLAS call: waking a threaded BLAS makes the reference erratic).  It
uses nothing from dunklsphere, so a change to the package cannot change it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
from mpmath import MPContext

REF_S = 0.010

_rng = random.Random(7)
_TERMS = [(tuple(_rng.randint(0, 5) for _ in range(4)),
           Fraction(_rng.randint(-99, 99), _rng.randint(1, 99))) for _ in range(200)]
_VEC = np.random.default_rng(1).standard_normal(40_000)
_MP = MPContext()
_MP.dps = 50


def reference_work() -> None:
    acc = {}
    for e, c in _TERMS:
        for e2, c2 in _TERMS[:12]:
            k = tuple(a + b for a, b in zip(e, e2))
            acc[k] = acc.get(k, 0) + c * c2
    x = _MP.mpf(1)
    for i in range(150):
        x = x * _MP.mpf("1.0001") + _MP.mpf(i) / 7
    np.exp(_VEC).sum()


def measure() -> float:
    """Wall time of the reference work, in seconds: the faster of two runs,
    so that a single interruption does not count as a slow machine."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return min(times)
