"""One capacity check at every entry that takes a capacity.

A per-processor memory capacity must be a finite integer >= 0.  The MAP
planner, the simulator (both modes), the static analyzer, the checked
run and ``MachineSpec.with_capacity`` each raise the same
:class:`~repro.errors.CapacityError`, naming the value, instead of
truncating it or failing later on ``int()``.
"""

import math
import re

import pytest

from repro.analysis import analyze_schedule, pick_capacity
from repro.conformance import run_check
from repro.core import analyze_memory, plan_maps
from repro.core.maps import is_capacity
from repro.errors import CapacityError
from repro.graph.paper_example import schedule_c
from repro.machine import CRAY_T3D, UNIT_MACHINE, Simulator

BAD = [float("nan"), float("inf"), 2.5, -1]

ENTRIES = {
    "plan_maps": lambda s, cap: plan_maps(analyze_memory(s), cap),
    "Simulator-managed": lambda s, cap: Simulator(
        s, spec=UNIT_MACHINE, capacity=cap),
    "Simulator-baseline": lambda s, cap: Simulator(
        s, spec=UNIT_MACHINE, capacity=cap, memory_managed=False),
    "analyze_schedule": lambda s, cap: analyze_schedule(s, capacity=cap),
    "run_check": lambda s, cap: run_check(s, capacity=cap),
    "with_capacity": lambda s, cap: CRAY_T3D.with_capacity(cap),
}


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_bad_capacity_is_named(entry, value):
    with pytest.raises(CapacityError, match=re.escape(f"capacity = {value!r}")):
        ENTRIES[entry](schedule_c(), value)


def test_capacity_error_is_a_value_error():
    with pytest.raises(ValueError):
        plan_maps(analyze_memory(schedule_c()), 2.5)


@pytest.mark.parametrize("value, ok", [
    (0, True), (8, True), (8.0, True), (float("nan"), False),
    (float("inf"), False), (2.5, False), (-1, False), ("8", False),
    (None, False),
])
def test_is_capacity(value, ok):
    assert is_capacity(value) is ok


def test_nan_fraction_is_named():
    prof = analyze_memory(schedule_c())
    with pytest.raises(CapacityError, match="fraction = nan"):
        pick_capacity(prof, math.nan)
    # Finite out-of-range fractions keep clamping to MIN_MEM / TOT.
    assert pick_capacity(prof, -3.0) == prof.min_mem
    assert pick_capacity(prof, 7.0) == prof.tot
