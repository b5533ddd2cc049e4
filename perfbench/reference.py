"""A yardstick for the machine's speed, sampled while the program runs.

On a shared 2-core VM the same code runs up to 2.5x slower for minutes
at a time when the host is busy, and faster again later, with no steal
time the guest could see; within a minute it swings by 1.6x, and from
millisecond to millisecond a vCPU switches between a fast and a slow
speed.  Ten runs of the same program then spread by more than any
useful bound.

The yardstick is a fixed piece of work that does not touch the
program, of the same kind as the workload it measures: ``python``
(dict reads and writes, integer and bitwise arithmetic, list appends,
small calls: the interpreter work of PODEM, scan and the service) or
``mixed`` (half that, half bitwise ufuncs into preallocated
``(lanes, words)`` ``uint64`` blocks: the wide fault simulator).  While a
timed region runs, a :class:`Sampler` interrupts it every
:data:`PERIOD_S` with a timer signal and times one piece (about 0.5 ms
on the recording machine) in the signal handler, on the region's own
thread.  The pieces' CPU times give the machine's *slowness* over the region,
relative to the recording machine, and the benchmark reports the
region's time, less the pieces, divided by it: *reference seconds*,
the time the work would take on the recording machine.  A program
change does not move the pieces, so it moves a reported time by its
full factor; a machine that is slower for any part of the region slows
the pieces taken in that part alike.

On the recording machine, over a minute in which the slowness swung
from 1.25 to 1.95, PODEM's time per repetition varied by 12.7%
(coefficient of variation) and its reference time by 2.6%; scan
verification 5.8% and 3.2%.  Different code does not slow down by
exactly the same factor, so the correction is close, not exact.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Generic, List, Sequence, Tuple, TypeVar

import numpy

T = TypeVar("T")

#: Seconds between two pieces.
PERIOD_S = 0.05


def _step(table: dict, key: int, value: int) -> int:
    old = table.get(key, 0)
    table[key] = (old + value) & 0xFFFF
    return old ^ value


def python_piece(loops: int = 1600) -> int:
    """Interpreter work; returns a checksum so nothing is skipped."""
    table: dict = {}
    trail: List[int] = []
    acc = 0
    for i in range(loops):
        acc = (acc * 33 + _step(table, i & 511, i)) & 0xFFFFFFFF
        if i & 7 == 0:
            trail.append(acc >> 3)
    return acc ^ len(trail)


_SHAPE = (128, 64)
_NETS = [
    numpy.random.default_rng(7).integers(0, 2**63, size=_SHAPE, dtype=numpy.uint64)
    for _ in range(16)
]
_OUT = numpy.empty(_SHAPE, dtype=numpy.uint64)


def numpy_piece(rounds: int = 4) -> int:
    """Bitwise ufuncs on lane blocks; returns a checksum.  The blocks
    are made once, so a piece times only the ufuncs."""
    acc = numpy.zeros(_SHAPE, dtype=numpy.uint64)
    for r in range(rounds):
        for g in range(16):
            numpy.bitwise_and(_NETS[g], _NETS[(g * 7 + r) & 15], out=_OUT)
            numpy.invert(_OUT, out=_OUT)
            numpy.bitwise_xor(acc, _OUT, out=acc)
    return int(acc[0, 0])


def mixed_piece() -> int:
    """Half a python piece and half a numpy piece: the wide simulator
    runs interpreter code around its ufuncs.  (Over 44 no-drop gradings
    of r5315 in four minutes, reference time varied by 3.3% with these
    pieces, 4.1% with python or numpy pieces alone, measured time by
    7.2%.)"""
    return python_piece(800) ^ numpy_piece(2)


#: Each kind's piece, and the seconds it takes on the recording machine
#: (a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4).  The seconds are only
#: a scale: reference seconds read as seconds on that machine.
PIECES: Dict[str, Tuple[Callable[[], int], float]] = {
    "python": (python_piece, 0.0005),
    "mixed": (mixed_piece, 0.00055),
}


def slowness(times: Sequence[float], unit_s: float) -> float:
    """The machine's slowness from piece times.

    Their mean with the fastest and slowest tenth left out, over the
    piece's time on the recording machine.  A piece runs at one of the
    machine's momentary speeds, and the mean follows the share of time
    spent at each (as the program's work, spread over many pieces'
    worth, does) where a median would jump between them; the trimmed
    tails are pieces a context switch cut into.
    """
    ordered = sorted(times)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut]) / unit_s


@dataclass(frozen=True)
class Timed(Generic[T]):
    """A region's result, its time less the pieces, and the slowness."""

    result: T
    start: float
    end: float
    seconds: float
    slowness: float

    @property
    def reference_s(self) -> float:
        return self.seconds / self.slowness


class Sampler:
    """Pieces timed from a timer signal while a region runs.

    Only one sampler may run at a time in a process, on its main
    thread.  A region shorter than a period gets one piece, taken right
    after it.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.piece, self.unit_s = PIECES[kind]
        #: Each piece's wall time, which its region is charged less, and
        #: its CPU time, which the slowness is read from: a piece that a
        #: busy worker process shares a vCPU with takes longer on the
        #: wall clock, not in CPU time.
        self.times: List[float] = []
        self.cpu_times: List[float] = []

    def _take(self, signum: int = 0, frame: object = None) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        self.piece()
        self.cpu_times.append(time.thread_time() - cpu)
        self.times.append(time.perf_counter() - start)

    def timed(self, fn: Callable[[], T]) -> Timed[T]:
        """Run ``fn`` with pieces taken every :data:`PERIOD_S`."""
        first = len(self.times)
        previous = signal.signal(signal.SIGALRM, self._take)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        seconds = end - start - sum(self.times[first:])
        if len(self.times) == first:
            self._take()
        return Timed(result, start, end, seconds, slowness(self.cpu_times[first:], self.unit_s))
