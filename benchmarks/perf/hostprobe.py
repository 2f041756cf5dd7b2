"""A fixed pure-Python kernel whose time tracks the host's speed.

A shared host runs the benchmark at a speed that drifts with its
neighbours: the same sweep can take 1.5x or 2x as long for minutes at a
time.  :meth:`HostProbe.time_s` times a fixed amount of work shaped like
the program's hot loops — pointer chasing through a table larger than
the core's caches, dict updates and integer arithmetic in the
interpreter — so probes taken next to a measured sweep group say how
fast the host ran that group.  Nothing here imports ``repro``: a change
to the program cannot change the probe.
"""

from __future__ import annotations

from array import array
from time import perf_counter

#: Entries of the pointer-chasing ring, one 8-byte int each (16 MB).
RING_BITS = 21
#: Steps of one probe.
STEPS = 50_000
#: Median probe time on the reference host (a 2-vCPU Intel Xeon VM at
#: 2.0 GHz, Python 3.11) in a quiet window; normalised times are
#: seconds of that host.
REFERENCE_S = 0.0124


class HostProbe:
    """The probe's ring, built once per process."""

    def __init__(self) -> None:
        # One full-period LCG cycle: j -> a*j + c modulo a power of two
        # visits every entry once, in scattered order.
        n, a, c = 1 << RING_BITS, 6364136223846793005, 1442695040888963407
        mask = n - 1
        self.ring = array("q", ((a * j + c) & mask for j in range(n)))

    @property
    def footprint_mb(self) -> float:
        """Resident size the ring adds to its process, in MB."""
        return len(self.ring) * self.ring.itemsize / 2**20

    def time_s(self) -> float:
        """Seconds one fixed probe takes now."""
        ring = self.ring
        counts: dict[int, int] = {}
        t = perf_counter()
        j = 0
        for i in range(STEPS):
            j = ring[j]
            k = (j ^ i) & 2047
            counts[k] = counts.get(k, 0) + 1
        return perf_counter() - t
