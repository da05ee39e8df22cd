"""Host-speed probe: reports times at a fixed nominal speed of the core.

The benchmark runs on a few cores of a shared host, and how fast those
cores run drifts with what the host's other tenants do: the same n=500
d=8 build takes 2.0 s in one half-minute and 3.6 s in the next, with CPU
time tracking wall time.  Medians within a run cannot remove a drift
that lasts longer than the run.

So every worker pins itself to one CPU and runs a probe thread that wakes
every ``INTERVAL_S`` and times a fixed piece of work of each kind it
samples.  There are two kinds, because the drift does not slow all code
alike: when the interpreter runs a third slower, numpy's array loops may
run only a sixth slower.

* ``python``: interpreter work, integer arithmetic and dict stores.  The
  folding builds, ``slt verify`` and the imports are code of this kind.
* ``numpy``: distances, a sort and a float32 matrix product over a few
  thousand points, the operations of the pyramid's cone spanner.

A python piece holds the GIL throughout, so the build thread waits and its
wall time is what the piece took from the build.  numpy releases the GIL
inside its loops, and the build thread may run meanwhile, so a numpy piece
is timed in the probe thread's own CPU time.  The median time of one kind
over a measured stretch says how fast the core ran that kind of code
there.  A time is reported as its wall seconds, minus the time the probe
took inside it, times ``NOMINAL_S[kind] / median``: the seconds it would
have taken with the core at the speed where the pieces take
``NOMINAL_S``.  Wall times are kept in each run's record.
"""
from __future__ import annotations

import os
import statistics
import threading
from time import perf_counter, thread_time

import numpy as np

INTERVAL_S = 0.025  # the probe costs 1-3% of a build, by the kinds it samples
# Seconds of one piece of each kind on an idle core of the host the
# benchmark was defined on.
NOMINAL_S = {"python": 300e-6, "numpy": 450e-6}
KINDS = tuple(NOMINAL_S)
MIN_SAMPLES = 5  # per kind and stretch; more are taken after it if needed

_POINTS = np.random.default_rng(0).random((2048, 3))
_AXES = np.random.default_rng(1).random((3, 64)).astype(np.float32)


def python_piece() -> int:
    s = 0
    d = {}
    for i in range(3000):
        s += i * i
        d[i & 255] = s
    return s


def numpy_piece() -> int:
    diff = _POINTS - _POINTS[7]
    order = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")
    cells = np.argmax(diff[order[:512]].astype(np.float32) @ _AXES, axis=1)
    return int(cells[0])


# Each kind's piece and the clock it is timed by.
PIECES = {"python": (python_piece, perf_counter), "numpy": (numpy_piece, thread_time)}


def timed_piece(kind: str) -> float:
    piece, clock = PIECES[kind]
    t0 = clock()
    piece()
    return clock() - t0


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and every thread it starts later, to one CPU.

    The probe then measures the core the build runs on.  Call it before
    any other thread starts (numpy's BLAS threads included).
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Probe:
    """Piece times per kind, appended by a daemon thread while it runs.

    ``python`` is always sampled: set-up and ``slt verify`` need it.
    """

    def __init__(self, kinds: tuple[str, ...] = KINDS):
        self.kinds = tuple(k for k in KINDS if k == "python" or k in kinds)
        self.samples: dict[str, list[float]] = {k: [] for k in self.kinds}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="probe", daemon=True)

    def start(self) -> "Probe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            for kind in self.kinds:
                self.samples[kind].append(timed_piece(kind))

    def mark(self) -> dict[str, int]:
        return {k: len(v) for k, v in self.samples.items()}

    def since(self, mark: dict[str, int]) -> dict[str, list[float]]:
        return {k: v[mark.get(k, 0):] for k, v in self.samples.items()}

    def fill(self, samples: dict[str, list[float]]) -> dict[str, list[float]]:
        """Time pieces here until ``samples`` holds MIN_SAMPLES of each kind.

        Called after a stretch is measured, so the extra pieces stay out
        of it; a stretch shorter than a few intervals needs them.
        """
        for kind in self.kinds:
            taken = samples.setdefault(kind, [])
            while len(taken) < MIN_SAMPLES:
                taken.append(timed_piece(kind))
        return samples


def spent(samples: dict[str, list[float]]) -> float:
    """Seconds the probe took from the build for these samples."""
    return sum(sum(v) for v in samples.values())


def scale(samples: dict[str, list[float]], kind: str) -> float:
    """Factor from wall seconds to nominal seconds for code of ``kind``."""
    taken = samples.get(kind, [])
    if len(taken) < MIN_SAMPLES:
        raise ValueError(f"{len(taken)} {kind} probe samples, need {MIN_SAMPLES}")
    return NOMINAL_S[kind] / statistics.median(taken)
