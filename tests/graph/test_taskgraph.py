"""Unit tests for the TaskGraph container."""

import pytest

from repro.core.index import graph_index
from repro.errors import CycleError, GraphError
from repro.graph import DataObject, Task, TaskGraph


def diamond() -> TaskGraph:
    """a -> b, a -> c, b -> d, c -> d."""
    g = TaskGraph()
    for o in "wxyz":
        g.add_object(o, 1)
    g.add_task(Task("a", writes=("w",)))
    g.add_task(Task("b", reads=("w",), writes=("x",)))
    g.add_task(Task("c", reads=("w",), writes=("y",)))
    g.add_task(Task("d", reads=("x", "y"), writes=("z",)))
    g.add_edge("a", "b", "w")
    g.add_edge("a", "c", "w")
    g.add_edge("b", "d", "x")
    g.add_edge("c", "d", "y")
    return g


class TestConstruction:
    def test_counts(self):
        g = diamond()
        assert g.num_tasks == 4 and g.num_objects == 4 and g.num_edges == 4

    def test_add_object_idempotent(self):
        g = TaskGraph()
        g.add_object("a", 2)
        g.add_object(DataObject("a", 2))
        assert g.num_objects == 1

    def test_object_size_conflict(self):
        g = TaskGraph()
        g.add_object("a", 2)
        with pytest.raises(GraphError):
            g.add_object("a", 3)

    def test_duplicate_task(self):
        g = TaskGraph()
        g.add_object("a")
        g.add_task(Task("t", writes=("a",)))
        with pytest.raises(GraphError):
            g.add_task(Task("t", writes=("a",)))

    def test_unknown_object_access(self):
        g = TaskGraph()
        with pytest.raises(GraphError):
            g.add_task(Task("t", reads=("nope",)))

    def test_self_edge_rejected(self):
        g = TaskGraph()
        g.add_object("a")
        g.add_task(Task("t", writes=("a",)))
        with pytest.raises(GraphError):
            g.add_edge("t", "t")

    def test_unknown_edge_endpoint(self):
        g = TaskGraph()
        g.add_object("a")
        g.add_task(Task("t", writes=("a",)))
        with pytest.raises(GraphError):
            g.add_edge("t", "u")

    def test_parallel_edges_merged(self):
        g = TaskGraph()
        g.add_object("a")
        g.add_object("b")
        g.add_task(Task("u", writes=("a", "b")))
        g.add_task(Task("v", reads=("a", "b")))
        g.add_edge("u", "v", "a")
        g.add_edge("u", "v", "b")
        assert g.num_edges == 1
        assert g.edge_objects("u", "v") == {"a", "b"}

    def test_sync_edge(self):
        g = TaskGraph()
        g.add_object("a")
        g.add_task(Task("u", writes=("a",)))
        g.add_task(Task("v"))
        g.add_edge("u", "v", None)
        assert g.edge_objects("u", "v") == frozenset()

    def test_freeze_blocks_mutation(self):
        g = diamond().freeze()
        with pytest.raises(GraphError):
            g.add_object("new")


class TestQueries:
    def test_entry_exit(self):
        g = diamond()
        assert g.entry_tasks() == ["a"]
        assert g.exit_tasks() == ["d"]

    def test_degrees(self):
        g = diamond()
        assert g.in_degree("d") == 2 and g.out_degree("a") == 2

    def test_writers_readers(self):
        g = diamond()
        assert g.writers("w") == ["a"]
        assert g.readers("w") == ["b", "c"]

    def test_topological_order(self):
        g = diamond()
        order = g.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        assert pos["a"] < pos["b"] < pos["d"]
        assert pos["a"] < pos["c"] < pos["d"]

    def test_cycle_detection(self):
        g = TaskGraph()
        g.add_object("a")
        g.add_task(Task("u", writes=("a",)))
        g.add_task(Task("v", reads=("a",)))
        g.add_edge("u", "v", "a")
        g.add_edge("v", "u", None)
        with pytest.raises(CycleError):
            g.freeze()

    def test_totals(self):
        g = diamond()
        assert g.total_work() == 4.0
        assert g.total_data() == 4

    def test_unknown_lookups(self):
        g = diamond()
        with pytest.raises(GraphError):
            g.task("nope")
        with pytest.raises(GraphError):
            g.object("nope")
        with pytest.raises(GraphError):
            g.edge_objects("a", "d")

    def test_contains_len(self):
        g = diamond()
        assert "a" in g and "nope" not in g
        assert len(g) == 4

    def test_frozen_index_maps(self):
        """The dense ids live on the graph index, not on the graph."""
        g = diamond().freeze()
        gi = graph_index(g)
        assert gi.tid["a"] == 0
        assert gi.object_names == ["w", "x", "y", "z"]
        assert not hasattr(g, "task_index") and not hasattr(g, "object_size")

    def test_task_names_is_program_order_frozen_or_not(self):
        g = diamond()
        names = list(g.task_names)
        assert names == [t.name for t in g.tasks()] and names
        assert g.freeze().task_names == names


class TestCommuteGroups:
    def test_groups_registered(self):
        g = TaskGraph()
        g.add_object("acc")
        g.add_task(Task("u1", writes=("acc",), commute="s"))
        g.add_task(Task("u2", writes=("acc",), commute="s"))
        groups = g.commute_groups()
        assert groups == {"s": ("u1", "u2")}
        assert g.commute_peers("u1") == ("u2",)

    def test_no_group(self):
        g = diamond()
        assert g.commute_peers("a") == ()
