"""Machine cost model — the Cray-T3D stand-in.

Section 5 of the paper characterises the testbed: each T3D node has
64 MB of memory, reaches 103 MFLOPS with BLAS-3 DGEMM, and the
``SHMEM_PUT`` RMA primitive costs 2.7 µs overhead with 128 MB/s
bandwidth.  :data:`CRAY_T3D` packages those numbers; the software
overheads of the active memory management scheme (MAP bookkeeping,
allocation, address packages) are free parameters with defaults in the
microsecond range typical of the era's runtimes.

All times are seconds; sizes are bytes.  The worked examples instead use
:data:`UNIT_MACHINE` (unit task weights, unit message cost, zero
overheads) to match the paper's Figure 2 accounting.  Every cost must be
finite and non-negative, ``flop_rate`` finite and positive and
``memory_capacity`` a finite integer >= 0
(:func:`~repro.core.maps.is_capacity`); a spec violating that raises
:class:`~repro.errors.MachineSpecError` when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..core.maps import check_capacity, is_capacity
from ..core.schedule import CommModel
from ..errors import MachineSpecError

#: Time-cost fields; each must be finite and non-negative.
COST_FIELDS = (
    "put_latency", "byte_time", "send_overhead", "map_overhead",
    "alloc_cost", "free_cost", "package_overhead", "address_cost",
    "ra_cost",
)


@dataclass(frozen=True)
class MachineSpec:
    """Cost parameters of the simulated distributed-memory machine."""

    #: Number of floating point operations per second per node; used by
    #: the sparse substrates to turn flop counts into task weights.
    flop_rate: float = 103e6
    #: One-way latency of an RMA put (the 2.7 µs SHMEM_PUT overhead).
    put_latency: float = 2.7e-6
    #: Seconds per byte of payload (1 / 128 MB/s).
    byte_time: float = 1.0 / 128e6
    #: CPU time the sender spends issuing one put.
    send_overhead: float = 2.7e-6
    #: Per-processor memory capacity in bytes (64 MB per T3D node).
    memory_capacity: int = 64 * 1024 * 1024
    #: When True, a processor's outgoing transfers serialise on its
    #: network interface (shared injection bandwidth); when False
    #: (default, the paper's Gantt convention) messages overlap freely.
    nic_serialize: bool = False

    # --- active memory management overheads (section 3.3) -------------
    # Software costs of the mid-90s runtime protocol (150 MHz Alpha,
    # list walking, hash lookups); these are free parameters of the
    # reproduction — see the overhead-sensitivity ablation benchmark.
    #: Fixed cost of performing a MAP's actions.
    map_overhead: float = 50e-6
    #: Cost of allocating / freeing one volatile object.
    alloc_cost: float = 5e-6
    free_cost: float = 3e-6
    #: Cost of assembling one address package plus per-address cost.
    package_overhead: float = 25e-6
    address_cost: float = 1e-6
    #: Cost of reading one arrived address package (the RA operation).
    ra_cost: float = 10e-6

    def __post_init__(self) -> None:
        for name in COST_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise MachineSpecError(name, value, "finite and >= 0")
        if not (math.isfinite(self.flop_rate) and self.flop_rate > 0):
            raise MachineSpecError(
                "flop_rate", self.flop_rate, "finite and > 0"
            )
        if not is_capacity(self.memory_capacity):
            raise MachineSpecError("memory_capacity", self.memory_capacity,
                                   "a finite integer >= 0")

    def comm_model(self) -> CommModel:
        """The linear message-cost model used for schedule prediction."""
        return CommModel(latency=self.put_latency, byte_time=self.byte_time)

    def message_time(self, nbytes: int) -> float:
        """End-to-end time of one data put."""
        return self.put_latency + nbytes * self.byte_time

    def task_weight(self, flops: float, floor: float = 1e-6) -> float:
        """Task weight (seconds) for a given flop count."""
        return max(flops / self.flop_rate, floor)

    def with_capacity(self, capacity: int) -> "MachineSpec":
        """Copy of the spec with a different per-processor capacity
        (checked by :func:`~repro.core.maps.check_capacity`)."""
        return replace(self, memory_capacity=check_capacity(capacity))

    def scaled_overheads(self, factor: float) -> "MachineSpec":
        """Copy with all memory-management overheads scaled by
        ``factor`` (used by the overhead-sensitivity ablation)."""
        return replace(
            self,
            map_overhead=self.map_overhead * factor,
            alloc_cost=self.alloc_cost * factor,
            free_cost=self.free_cost * factor,
            package_overhead=self.package_overhead * factor,
            address_cost=self.address_cost * factor,
            ra_cost=self.ra_cost * factor,
        )


#: The paper's evaluation platform (section 5).
CRAY_T3D = MachineSpec()

#: The paper's second implementation platform ("implemented ... on
#: Cray-T3D and Meiko CS-2").  The CS-2's communication is markedly
#: slower relative to compute (~10 us latency, ~40 MB/s through the Elan
#: co-processor; ~90 MFLOPS per dual-SuperSPARC/Fujitsu node), so the
#: same schedules are more latency-bound — the cross-machine ablation
#: quantifies the shift.
MEIKO_CS2 = MachineSpec(
    flop_rate=90e6,
    put_latency=10e-6,
    byte_time=1.0 / 40e6,
    send_overhead=8e-6,
    memory_capacity=128 * 1024 * 1024,
)

#: Unit-cost machine matching the paper's worked examples: every message
#: costs one time unit, overheads are zero.
UNIT_MACHINE = MachineSpec(
    flop_rate=1.0,
    put_latency=1.0,
    byte_time=0.0,
    send_overhead=0.0,
    memory_capacity=1 << 30,
    map_overhead=0.0,
    alloc_cost=0.0,
    free_cost=0.0,
    package_overhead=0.0,
    address_cost=0.0,
    ra_cost=0.0,
)
