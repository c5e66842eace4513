"""Host-speed references for the benchmark's timings.

On a shared 2-core VM the host's speed drifts: a fixed loop takes from
1.0 to 1.75 times its fastest time, in spells of seconds to minutes, and
all code slows alike.  Raw wall-clock percentiles then move by 15-45 %
from run to run.  So the benchmark times a fixed reference, which runs no
swgeo code, just before each timed operation on the same CPU, and scales
the operation's time by ``fast time / reference time``.  Timings are thus
reported as they would read on the host in its fast state.  The raw
wall-clock figures are printed beside them.

There are two references, because process start-up (exec, dynamic
loading, file reads) and in-process computation do not slow exactly
alike: ``compute`` for library calls, ``start`` for work that starts an
interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

_ARRAY = np.random.default_rng(0).standard_normal(20000)


def compute_s() -> float:
    """Seconds a Python integer loop and four sorts of 20 000 floats take."""
    t0 = time.perf_counter()
    s = 0
    for k in range(30000):
        s += k * k
    for _ in range(4):
        np.sort(_ARRAY)
    return time.perf_counter() - t0


def start_s() -> float:
    """Seconds an isolated interpreter without ``site`` takes to start
    and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


# name -> (reference, its time on the host in its fast state: the fastest
# 1 % of several hundred passes on a 2-core Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6)
REFERENCES = {"compute": (compute_s, 2.0e-3), "start": (start_s, 8.0e-3)}


def local_reference(refs, half_width: int = 2) -> np.ndarray:
    """Median of the reference times within ``half_width`` operations of
    each one, so one disturbed reference pass does not skew an operation."""
    refs = np.asarray(refs, float)
    return np.array([np.median(refs[max(0, j - half_width):j + half_width + 1])
                     for j in range(len(refs))])


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the reference
    and the operations it scales run on the same one."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
