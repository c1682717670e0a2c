"""A fixed piece of work timed between the requests, to take out the host's speed.

On a virtual machine shared with other tenants the same code runs up to 20%
slower or faster from one minute to the next, so plain wall time moves
between runs of the same program by more than a change worth catching.  The
benchmark therefore times this fixed work before every request of a pass
and reports the pass's request time in units of it: a change to the program
moves that ratio one-to-one, and a swing in the host's speed moves both
sides.

The work is ``PIVOTS`` pricing and ratio-test steps of a revised simplex on
a fixed 40x100 dense problem: two ``numpy.linalg.solve`` calls on a 40x40
basis and a few small vector operations per step, in a Python loop.  That
is the mix the program's solver spends its time on, so host contention
slows both alike.  It calls nothing in the program, so a change to the
program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

PIVOTS = 60  # about 5 ms on a 2-vCPU x86-64 virtual machine

_rng = np.random.default_rng(7)
_A = _rng.random((40, 100))
_B = _A[:, :40] + 40 * np.eye(40)
_C = _rng.random(100)
_V = _rng.random(40) + 1.0
_ELIGIBLE = _rng.random(100) > 0.3


def run() -> float:
    """Seconds taken by one slice of the reference work."""
    start = time.perf_counter()
    for _ in range(PIVOTS):
        y = np.linalg.solve(_B.T, _C[:40])
        reduced = _C - _A.T @ y
        entering = int(np.argmax(np.where(_ELIGIBLE, np.abs(reduced), -1.0)))
        w = np.linalg.solve(_B, _A[:, entering])
        step = np.where(w > 1e-9, _V / np.where(w > 1e-9, w, 1.0), np.inf)
        int(np.argmin(step))
    return time.perf_counter() - start
