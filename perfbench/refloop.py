"""A fixed reference loop that measures how fast the host runs right now.

The benchmark's machines are shared: the same round of ccl work can take
1.5 times as long a few minutes later, with CPU time equal to wall time, so
the host and not the process sets the pace.  Timing this loop between a
round's timed commands gives the host's speed at that moment, and
``run.py`` scales the round's times by it (see README.md, "Host-speed
adjustment").  The loop does the kinds of work ccl does: Python arithmetic,
building Python objects (as JSON parsing does) and elementwise numpy passes
over 65 536-row arrays (as the Monte Carlo kernel does).  It imports nothing
from ccl, so no change to ccl changes its time.
"""

import json
import time

import numpy as np

_ROWS = np.random.default_rng(20090911).standard_normal((65_536, 4))
_COEFFS = (0.5, -1.25, 2.0, 0.75)
_DOC = json.dumps([{"i": i, "x": [i * 0.5, str(i)], "y": {"z": i}} for i in range(3_000)])


def _python() -> int:
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return total


def _objects() -> int:
    return len(json.loads(_DOC))


def _numpy() -> int:
    ok = np.ones(_ROWS.shape[0], dtype=bool)
    for shift in range(3):
        acc = np.zeros(_ROWS.shape[0])
        for i, c in enumerate(_COEFFS):
            acc += _ROWS[:, (i + shift) % 4] * c
        ok &= acc >= 0
    return int(np.count_nonzero(ok))


def slice_s() -> float:
    """Wall time of one slice of the reference loop (about 13 ms)."""
    t0 = time.perf_counter()
    _python()
    _objects()
    _numpy()
    return time.perf_counter() - t0
