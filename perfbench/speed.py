"""Reference timings that turn wall times into reference seconds.

A shared or frequency-scaled CPU changes speed for seconds to minutes at a
time. On the 2-vCPU x86-64 VM this benchmark was written on, one fixed
sim-default job took 7.5 ms in some spells and 13.5 ms in others, so a run
that landed in a slow spell read as a regression. Each timed piece of work is
therefore bracketed by two runs of a fixed reference kernel that does not touch
cvdag, and its wall time is multiplied by REF_S over their mean. The result, in
reference seconds, is the time the work would take on a CPU on which the
reference takes REF_S. A change to cvdag cannot move the reference, so it
shows in full, while most of the spells' effect cancels. Over ten 30-s runs
per workload on that VM (seeds 401-410), the spread (IQR over median) of the
wall-time job_s_p50 was 0.135 on sim-default, 0.052 on oracle and 0.163 on
learn-large; in reference seconds it was 0.040, 0.037 and 0.048.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REF_S = 0.005  # wall time of one reference run in the VM's fast spells

_A = np.random.default_rng(0).standard_normal((120, 120))
_EYE = np.eye(120)
_X = np.random.default_rng(1).standard_normal((2000, 80))


def reference() -> None:
    """Fixed work of the three kinds a cvdag job does, each about a third of
    the time: a pure-Python loop over ints and a dict, small dense solves, and
    centering and Gram products of a 2000 x 80 data matrix (1.3 MB).
    The kinds slow by different factors in a slow spell, so the mix matters."""
    d: dict[int, int] = {}
    s = 0
    for i in range(10_000):
        d[i % 97] = d.get(i % 97, 0) + i
        s += i * 3 % 7
    for _ in range(3):
        np.linalg.solve(_A @ _A.T + _EYE, _A)
    for _ in range(2):
        centered = _X - _X.mean(axis=0)
        centered.T @ centered


def reference_seconds() -> float:
    """Wall time of one reference run, with the garbage collector off so that
    garbage left by the measured work is not collected on the reference's time."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Speed:
    """Reference runs between consecutive pieces of timed work."""

    def __init__(self):
        self.refs = [reference_seconds()]

    def scale(self) -> float:
        """Reference seconds per wall second for the work done since the last
        call: REF_S over the mean of the reference runs before and after it."""
        self.refs.append(reference_seconds())
        return 2 * REF_S / (self.refs[-2] + self.refs[-1])
