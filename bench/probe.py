"""Machine-speed probe that scales measured times to a nominal speed.

Hosts shared with other tenants change speed: on the 2-core machine this
benchmark was written on, the same pure-Python loop ran anywhere between
0.6x and 1.0x of its best speed, changing within fractions of a second,
so raw wall-clock times of identical work spread by more than the bounds
in ``BENCHMARK.json``.  The harness therefore times a fixed kernel
between items, about every ``INTERVAL_S``, and multiplies each measured
time by ``NOMINAL_S`` over the kernel's mean time within ``WINDOW_S`` of
it: a reported time is the measured time scaled to a machine on which
the kernel takes ``NOMINAL_S``.  The kernel mixes the kinds of work grlr
does (checked modular arithmetic through method calls, ``Fraction``
arithmetic, tuple-keyed dicts) and shares no code with grlr, so a change
to grlr never changes the yardstick.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 4e-4
INTERVAL_S = 0.01
REPEATS = 3
WINDOW_S = 0.01


class _Mod:
    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        self.p = p

    def check(self, x: int) -> int:
        if not isinstance(x, int) or not 0 <= x < self.p:
            raise ValueError(x)
        return x

    def mul(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        return (a * b) % self.p

    def sub(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        return (a - b) % self.p


_F7 = _Mod(7)
_MATRIX = tuple(tuple(((i + 2) ** j + i * j) % 7 for j in range(7)) for i in range(6))


def _rref_mod7() -> int:
    """Reduce a fixed 6x7 matrix over GF(7); the rank is always 6."""
    f = _F7
    mat = [[f.check(x) for x in row] for row in _MATRIX]
    r = 0
    for c in range(7):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, f.p)
        mat[r] = [f.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def _fractions() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 20):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    return acc


def _dicts() -> int:
    table = {(i, i * 7 % 13): [i, str(i)] for i in range(500)}
    return sum(key[1] + value[0] for key, value in table.items())


def kernel() -> None:
    _rref_mod7()
    _fractions()
    _dicts()


class SpeedProbe:
    """Kernel timings ``(end time, duration)`` taken through a run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, count: int = 1) -> None:
        """Time the kernel; each sample is the fastest of ``REPEATS`` runs,
        so that caches the items left cold do not count as a slow machine."""
        collecting = gc.isenabled()
        gc.disable()  # a collection's cost depends on the program's heap, not on the machine
        try:
            for _ in range(count):
                best = None
                for _ in range(REPEATS):
                    start = time.perf_counter()
                    kernel()
                    end = time.perf_counter()
                    best = end - start if best is None else min(best, end - start)
                self.times.append(end)
                self.durations.append(best)
        finally:
            if collecting:
                gc.enable()

    def due(self) -> None:
        """Sample once if ``INTERVAL_S`` has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured over [start, end] into nominal time."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.durations[lo:hi] or self.durations[max(lo - 1, 0):lo + 1]
        return NOMINAL_S / statistics.fmean(window)
