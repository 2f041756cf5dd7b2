"""Tests for the optional NIC-serialization network model."""

import pytest

from repro.core import analyze_memory, cyclic_placement, owner_compute_assignment, rcp_order
from repro.graph.generators import fork_join, random_trace
from repro.machine import CompiledSchedule, MachineSpec, Simulator


def spec(nic: bool) -> MachineSpec:
    return MachineSpec(
        flop_rate=1.0,
        put_latency=0.5,
        byte_time=0.5,  # transfers are expensive: contention matters
        send_overhead=0.0,
        memory_capacity=1 << 30,
        map_overhead=0.0, alloc_cost=0.0, free_cost=0.0,
        package_overhead=0.0, address_cost=0.0, ra_cost=0.0,
        nic_serialize=nic,
    )


class TestNicSerialization:
    def test_default_off(self):
        assert MachineSpec().nic_serialize is False

    @pytest.mark.parametrize("seed", range(4))
    def test_serialization_never_faster(self, seed):
        g = random_trace(50, 10, seed=seed)
        pl = cyclic_placement(g, 3)
        asg = owner_compute_assignment(g, pl)
        cs = CompiledSchedule(rcp_order(g, pl, asg))
        free = Simulator(spec=spec(False), compiled=cs).run().parallel_time
        ser = Simulator(spec=spec(True), compiled=cs).run().parallel_time
        assert ser >= free - 1e-9

    def test_fanout_contends(self):
        """One producer feeding many remote consumers: with NIC
        serialization the transfers queue and the makespan grows
        strictly."""
        g = fork_join(1, 8, weight=1.0, size=4)
        pl = cyclic_placement(g, 4)
        asg = owner_compute_assignment(g, pl)
        cs = CompiledSchedule(rcp_order(g, pl, asg))
        free = Simulator(spec=spec(False), compiled=cs).run().parallel_time
        ser = Simulator(spec=spec(True), compiled=cs).run().parallel_time
        assert ser > free

    def test_completes_under_memory_pressure(self):
        g = random_trace(60, 10, seed=7)
        pl = cyclic_placement(g, 3)
        asg = owner_compute_assignment(g, pl)
        s = rcp_order(g, pl, asg)
        prof = analyze_memory(s)
        res = Simulator(
            s, spec=spec(True), capacity=prof.min_mem
        ).run()
        assert res.peak_memory <= prof.min_mem
