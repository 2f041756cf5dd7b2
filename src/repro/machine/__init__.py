"""Simulated distributed-memory machine with RMA communication.

The Cray-T3D stand-in: :class:`~repro.machine.spec.MachineSpec` holds
the cost model (the :data:`~repro.machine.spec.CRAY_T3D` preset uses the
paper's published numbers), :mod:`repro.machine.memory` the
per-processor allocators, and
:class:`~repro.machine.simulator.Simulator` the discrete-event execution
of schedules under the active memory management protocol of section 3.
"""

from .spec import CRAY_T3D, MEIKO_CS2, UNIT_MACHINE, MachineSpec
from .memory import FreeListAllocator, ObjectAllocator
from .compiled import LoweredSchedule, get_exec_plan, lower_schedule
from .simulator import (
    CompiledSchedule,
    ProcState,
    ProcessorStats,
    SimResult,
    Simulator,
    TraceEvent,
    simulate,
)

__all__ = [
    "CRAY_T3D",
    "CompiledSchedule",
    "FreeListAllocator",
    "LoweredSchedule",
    "MEIKO_CS2",
    "MachineSpec",
    "ObjectAllocator",
    "ProcState",
    "ProcessorStats",
    "SimResult",
    "Simulator",
    "TraceEvent",
    "UNIT_MACHINE",
    "get_exec_plan",
    "lower_schedule",
    "simulate",
]
