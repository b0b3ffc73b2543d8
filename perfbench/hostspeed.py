"""Host-speed sampling: time a fixed kernel while the operations run.

On a shared host the same code runs up to 1.7x slower for seconds to
minutes at a time, because other tenants load the physical cores; the
speed moves between a few levels about once a second.  A run of 20
seconds can sit inside a slow phase, so wall times from different runs
spread more than any bound worth having.

The benchmark therefore samples the host's speed during the timed
operations: an interval timer interrupts the main thread every
``INTERVAL_S`` and its handler times a fixed kernel that does not touch
the program (about 2 ms, so about 1% of the run).  The run's times are
then reported in *reference seconds*::

    ref_s = wall_s * REFERENCE_S[kind] / median(kernel samples of the run)

that is, the time the operations would take on a host where the kernel
takes ``REFERENCE_S[kind]``.  A slow phase slows the kernel and the
operations alike, so it cancels; a change to the program moves only the
operations.  The time the handler takes is taken out of the operations'
wall times, and the raw wall times stay in the run's diagnostics line.

Two kernels, matched to what bounds a workload's time: ``python`` (a
dict-and-integer interpreter loop, for the netDb workloads) and
``numpy`` (in-place sort and arithmetic over a small float array, for
the campaign workloads).
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, Dict, List

import numpy as np

#: Median kernel time on a quiet 2-vCPU Intel Xeon (Python 3.11.7, NumPy
#: 2.4.6).  Only the scale of ``ref_s`` depends on these constants, and
#: numbers from different hosts are never compared.
REFERENCE_S: Dict[str, float] = {"python": 0.0020, "numpy": 0.0020}
INTERVAL_S = 0.25

_ARRAYS: List[np.ndarray] = []


def _python_kernel() -> None:
    table = {}
    total = 0
    for i in range(12_000):
        table[i % 1000] = i
        total += i * i % 7


def _numpy_kernel() -> None:
    # In place on two 128 KiB arrays: no allocation and a cache-sized
    # working set, so the program's heap and cache state barely move it.
    if not _ARRAYS:
        _ARRAYS.append(np.random.default_rng(20180625).random(16_384))
        _ARRAYS.append(np.empty(16_384))
    values, work = _ARRAYS
    for _ in range(16):
        np.copyto(work, values)
        work.sort()
        np.multiply(values, 3.0, out=work)
        work.sum()


KERNELS: Dict[str, Callable[[], None]] = {"python": _python_kernel, "numpy": _numpy_kernel}


def time_kernel(kind: str) -> float:
    begin = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - begin


def speed_factor(kind: str, samples: List[float]) -> float:
    """Multiplier from wall seconds to reference seconds; 1 when a phase
    ended before the first sample."""
    return REFERENCE_S[kind] / statistics.median(samples) if samples else 1.0


class Sampler:
    """Times the ``kind`` kernel every ``INTERVAL_S`` while it is active.

    The handler runs in the main thread between bytecodes, so a sample
    waits for a long C call to return but never runs beside the program.
    ``spent`` is the handler's total time, to be taken out of the wall
    times of the operations it interrupted.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples: List[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        self.samples.append(time_kernel(self.kind))
        self.spent += time.perf_counter() - begin

    def __enter__(self) -> "Sampler":
        time_kernel(self.kind)  # first-call set-up stays out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
