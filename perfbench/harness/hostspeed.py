"""The host's speed, timed alongside the program.

The cores of a shared host do not run at one speed.  On the 2-core VM
the benchmark was made on, a fixed loop takes anywhere from 1x to 1.8x
its best time, switching within seconds and staying for minutes, with no
steal time reported; the service's CPU time per request moves with it.
Raw times of two sets of runs of the same code then differ by more than
any bound worth setting.

So the benchmark times a fixed reference kernel of its own between
service calls -- pure Python like the service: a hash join over fixed
tuples and the oracle's exact Banzhaf count of a fixed lineage -- and
divides each time it reports by the host's *slowdown* at that moment:
the kernel's time over :data:`REFERENCE_S`.  Times then read as on a host
where the kernel takes :data:`REFERENCE_S`.  The kernel shares no code
with the program, so a change to the program moves the figures in full,
while a change of host speed moves kernel and program alike and cancels.
Raw, unscaled figures stay in every run's raw record.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from typing import List, Sequence

from .oracle import banzhaf_values

#: Kernel time that counts as slowdown 1 (about its time on the fast
#: stretches of the VM the benchmark was made on).
REFERENCE_S = 0.0025
#: Slowdown of a moment: median of this many kernel samples nearest to it.
NEIGHBOURS = 16

_rng = random.Random("hostspeed")
_ROWS = [(_rng.randrange(300), _rng.randrange(300), _rng.randrange(50))
         for _ in range(1500)]
_LINEAGE = [tuple(sorted(_rng.sample(range(14), 3))) for _ in range(18)]


def kernel() -> int:
    """The fixed work: a self hash join, then an exact Banzhaf count."""
    index = {}
    for a, b, c in _ROWS:
        index.setdefault(a, []).append((b, c))
    out = 0
    for a, b, c in _ROWS:
        for _, c2 in index.get(b, ()):
            out += (c ^ c2) & 3
    return out + sum(banzhaf_values(_LINEAGE).values())


def sample() -> float:
    """Seconds one run of :func:`kernel` takes now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def slowdown(samples: Sequence[float]) -> float:
    """Slowdown of the stretch the kernel ``samples`` (seconds) cover."""
    return statistics.median(samples) / REFERENCE_S


class Timeline:
    """Kernel samples of a run, each at its offset from the run's start."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.seconds: List[float] = []

    def add(self, at: float, seconds: float) -> None:
        """Record a sample; offsets must not decrease."""
        self.at.append(at)
        self.seconds.append(seconds)

    def __len__(self) -> int:
        return len(self.at)

    def slowdown_at(self, at: float) -> float:
        """Slowdown from the :data:`NEIGHBOURS` samples nearest ``at``."""
        if not self.at:
            raise ValueError("no kernel samples")
        middle = bisect.bisect_left(self.at, at)
        low = max(0, min(middle - NEIGHBOURS // 2,
                         len(self.at) - NEIGHBOURS))
        return slowdown(self.seconds[low:low + NEIGHBOURS])
