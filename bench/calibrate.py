"""Reference kernel for the speed of the machine at the moment of measuring.

Shared cloud hosts change speed by tens of percent within a minute (other
tenants on the same cores), which would swamp any change in the program. The
benchmark therefore times this fixed kernel right before and right after
each command, and every SAMPLE_EVERY_NS between generations, and scales the
measured times by nominal / measured kernel time (`Speedometer`). The kernel
never calls evoreg, so no change to the program can move it; it mixes the
kinds of work the program does (interpreted float arithmetic on lists, small
records, string hashing, dict lookups, seeded numpy generators and small
vector operations) so that contention slows it roughly as much as the
program.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

# duration of one kernel pass on a quiet 2.0 GHz Xeon vCPU; only the ratio
# to it matters, so it merely keeps scaled times near real ones
NOMINAL_MS = 6.0
# sample at most this often inside a command
SAMPLE_EVERY_NS = 100_000_000

_PANEL = np.random.default_rng(20090624).random((24, 206))
_ACTIVITY = _PANEL[0] * 0.5 + 0.25


@dataclass
class _Fit:
    coefficients: tuple
    t_stats: tuple
    r2: float


def _kernel() -> float:
    acc = 0.0
    gram = (_PANEL @ _PANEL.T).tolist()
    fits = []
    for i in range(24):
        for j in range(i + 1, 24):
            a00, a01, a11 = gram[i][i], gram[i][j], gram[j][j]
            det = a00 * a11 - a01 * a01
            inv = [[a11 / det, -a01 / det], [-a01 / det, a00 / det]]
            t = tuple(math.sqrt(abs(inv[k][k])) for k in range(2))
            fits.append(_Fit((inv[0][0], inv[1][1]), t, det / (a00 * a11)))
    acc += max(f.r2 for f in fits)
    cache = {}
    for i in range(60):
        key = format(i * 2654435761 % (1 << 24), "024b")
        digest = hashlib.blake2b(f"7|{key}".encode(), digest_size=16).digest()
        words = np.frombuffer(digest, dtype=np.uint64)
        values = np.random.Generator(np.random.Philox(key=words)).uniform(0, 1, 206)
        cache[key] = values
        dx = values - values.mean()
        acc += float(dx @ (_ACTIVITY - _ACTIVITY.mean())) ** 2 / float(dx @ dx)
    keys = list(cache)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            acc += sum(x != y for x, y in zip(keys[a], keys[b]))
    return acc


class Speedometer:
    """Kernel readings over time, and intervals scaled to nominal speed.

    An interval is scaled by NOMINAL_MS over the mean kernel time of the
    readings taken inside it and of the nearest reading on either side; the
    kernel's own time inside an interval is not counted as the program's.
    """

    def __init__(self):
        self.mid: list[int] = []     # reading midpoints, perf_counter_ns
        self.ms: list[float] = []    # kernel wall time of each reading
        self.cpu_ns: list[int] = []  # kernel CPU time of each reading
        self._last_end = 0

    def read(self) -> None:
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        _kernel()
        t1, c1 = time.perf_counter_ns(), time.process_time_ns()
        self.mid.append((t0 + t1) // 2)
        self.ms.append((t1 - t0) / 1e6)
        self.cpu_ns.append(c1 - c0)
        self._last_end = t1

    def maybe_read(self) -> None:
        if time.perf_counter_ns() - self._last_end >= SAMPLE_EVERY_NS:
            self.read()

    def _inside(self, t0: int, t1: int) -> tuple[int, int]:
        return bisect.bisect_left(self.mid, t0), bisect.bisect_right(self.mid, t1)

    def factor(self, t0: int, t1: int) -> float:
        lo, hi = self._inside(t0, t1)
        near = self.ms[max(lo - 1, 0):hi + 1]
        return NOMINAL_MS / (sum(near) / len(near))

    def wall_s(self, t0: int, t1: int) -> tuple[float, float]:
        """(raw, scaled) seconds of program time in [t0, t1]."""
        lo, hi = self._inside(t0, t1)
        raw = (t1 - t0 - sum(self.ms[lo:hi]) * 1e6) / 1e9
        return raw, raw * self.factor(t0, t1)

    def cpu_s(self, t0: int, t1: int, cpu_ns: int) -> tuple[float, float]:
        """(raw, scaled) CPU seconds of the program, given the process CPU
        time spent in [t0, t1]."""
        lo, hi = self._inside(t0, t1)
        raw = (cpu_ns - sum(self.cpu_ns[lo:hi])) / 1e9
        return raw, raw * self.factor(t0, t1)

