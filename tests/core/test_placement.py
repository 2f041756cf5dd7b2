"""Unit tests for placement / ownership (Definitions 1 and 3)."""

import pytest

from repro.core.placement import (
    Placement,
    accessed_objects,
    block_placement,
    cyclic_placement,
    derive_placement,
    owner_compute_assignment,
    perm_vola_sets,
    placement_from_dict,
    validate_owner_compute,
)
from repro.errors import PlacementError
from repro.graph import GraphBuilder
from repro.graph.generators import chain, random_trace


def two_proc_graph():
    b = GraphBuilder(materialize_inputs=False)
    b.add_object("a", 2)
    b.add_object("b", 3)
    b.add_task("wa", writes=("a",))
    b.add_task("wb", reads=("a",), writes=("b",))
    b.add_task("r", reads=("a", "b"))
    return b.build()


class TestPlacement:
    def test_cyclic(self):
        g = chain(4)
        pl = cyclic_placement(g, 2)
        assert pl["d0"] == 0 and pl["d1"] == 1 and pl["d2"] == 0

    def test_cyclic_explicit_order(self):
        g = chain(3)
        pl = cyclic_placement(g, 2, order=["d2", "d1", "d0"])
        assert pl["d2"] == 0 and pl["d1"] == 1 and pl["d0"] == 0

    def test_block(self):
        g = chain(4)
        pl = block_placement(g, 2)
        assert pl["d0"] == 0 and pl["d1"] == 0 and pl["d2"] == 1 and pl["d3"] == 1

    def test_from_dict(self):
        pl = placement_from_dict(2, {"x": 1})
        assert pl["x"] == 1

    def test_owner_out_of_range(self):
        with pytest.raises(PlacementError):
            Placement(2, {"x": 5})

    def test_bad_num_procs(self):
        with pytest.raises(PlacementError):
            Placement(0, {})

    @pytest.mark.parametrize("make", [cyclic_placement, block_placement])
    @pytest.mark.parametrize("nprocs", [0, -1])
    def test_placements_reject_no_processors(self, make, nprocs):
        with pytest.raises(PlacementError, match="num_procs"):
            make(chain(3), nprocs)

    def test_missing_owner(self):
        pl = Placement(2, {})
        with pytest.raises(PlacementError):
            pl["x"]

    def test_owned_by(self):
        pl = Placement(2, {"a": 0, "b": 1, "c": 0})
        assert pl.owned_by(0) == ["a", "c"]


class TestOwnerCompute:
    def test_writers_on_owner(self):
        g = two_proc_graph()
        pl = placement_from_dict(2, {"a": 0, "b": 1})
        asg = owner_compute_assignment(g, pl)
        assert asg["wa"] == 0 and asg["wb"] == 1

    def test_read_only_task_colocated_with_input(self):
        g = two_proc_graph()
        pl = placement_from_dict(2, {"a": 0, "b": 1})
        asg = owner_compute_assignment(g, pl)
        assert asg["r"] == 0  # owner of first read 'a'

    def test_multi_owner_write_rejected(self):
        b = GraphBuilder(materialize_inputs=False)
        b.add_object("a")
        b.add_object("b")
        b.add_task("t", writes=("a", "b"))
        g = b.build()
        pl = placement_from_dict(2, {"a": 0, "b": 1})
        with pytest.raises(PlacementError):
            owner_compute_assignment(g, pl)

    def test_validate_owner_compute(self):
        g = two_proc_graph()
        pl = placement_from_dict(2, {"a": 0, "b": 1})
        asg = owner_compute_assignment(g, pl)
        validate_owner_compute(g, pl, asg)
        asg["wa"] = 1
        with pytest.raises(PlacementError):
            validate_owner_compute(g, pl, asg)

    def test_derive_placement_roundtrip(self):
        g = random_trace(40, 10, seed=5)
        pl = cyclic_placement(g, 3)
        asg = owner_compute_assignment(g, pl)
        derived = derive_placement(g, asg, 3)
        for t in g.tasks():
            for o in t.writes:
                assert derived[o] == pl[o]

    def test_derive_placement_conflict(self):
        # make both writers write 'a' on different procs
        b = GraphBuilder(materialize_inputs=False)
        b.add_object("a")
        b.add_task("w1", writes=("a",))
        b.add_task("w2", writes=("a",))
        g2 = b.build()
        with pytest.raises(PlacementError):
            derive_placement(g2, {"w1": 0, "w2": 1}, 2)


class TestPermVola:
    def test_sets(self):
        g = two_proc_graph()
        pl = placement_from_dict(2, {"a": 0, "b": 1})
        asg = owner_compute_assignment(g, pl)
        perm, vola = perm_vola_sets(g, pl, asg)
        assert perm[0] == {"a"}
        assert vola[1] == {"a"}  # wb reads a remotely
        assert perm[1] == {"b"}

    def test_accessed_objects(self):
        g = two_proc_graph()
        assert accessed_objects(g, ["wb"]) == {"a", "b"}
