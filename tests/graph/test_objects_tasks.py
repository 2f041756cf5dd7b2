"""Unit tests for DataObject / Task primitives."""

import pytest

from repro.graph.objects import Access, AccessMode, DataObject
from repro.graph.tasks import Task


class TestDataObject:
    def test_basic(self):
        d = DataObject("a", 4)
        assert d.name == "a" and d.size == 4

    def test_default_unit_size(self):
        assert DataObject("a").size == 1

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            DataObject("", 1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DataObject("a", -1)

    def test_zero_size_allowed(self):
        assert DataObject("a", 0).size == 0

    def test_equality_and_hash(self):
        assert DataObject("a", 2) == DataObject("a", 2)
        assert DataObject("a", 2) != DataObject("a", 3)
        assert len({DataObject("a", 2), DataObject("a", 2)}) == 1


class TestAccessMode:
    def test_read_flags(self):
        assert AccessMode.READ.reads and not AccessMode.READ.writes

    def test_write_flags(self):
        assert AccessMode.WRITE.writes and not AccessMode.WRITE.reads

    def test_readwrite_flags(self):
        assert AccessMode.READWRITE.reads and AccessMode.READWRITE.writes

    def test_access_wrapper(self):
        a = Access("x", AccessMode.READWRITE)
        assert a.reads and a.writes


class TestTask:
    def test_basic(self):
        t = Task("t", reads=("a",), writes=("b",), weight=2.0)
        assert t.reads == ("a",) and t.writes == ("b",) and t.weight == 2.0

    def test_list_inputs_normalised(self):
        t = Task("t", reads=["a"], writes=["b"])
        assert isinstance(t.reads, tuple) and isinstance(t.writes, tuple)

    def test_accesses_dedup(self):
        t = Task("t", reads=("a", "b"), writes=("b", "c"))
        assert t.accesses == ("a", "b", "c")

    def test_read_only_write_only(self):
        t = Task("t", reads=("a", "b"), writes=("b", "c"))
        assert t.read_only == ("a",)
        assert t.write_only == ("c",)

    def test_touches(self):
        t = Task("t", reads=("a",), writes=("b",))
        assert t.touches("a") and t.touches("b") and not t.touches("c")

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Task("t", weight=-1.0)

    def test_duplicate_read_rejected(self):
        with pytest.raises(ValueError):
            Task("t", reads=("a", "a"))

    def test_duplicate_write_rejected(self):
        with pytest.raises(ValueError):
            Task("t", writes=("a", "a"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Task("")

    def test_commute_tag(self):
        t = Task("t", reads=("a",), writes=("a",), commute="grp")
        assert t.commute == "grp"

    def test_kernel_not_compared(self):
        t1 = Task("t", kernel=lambda store: None)
        t2 = Task("t", kernel=None)
        assert t1 == t2


class TestBadValuesRaiseGraphValueError:
    """A weight or size no engine can run fails at construction with a
    :class:`GraphValueError` (a ``GraphError`` and a ``ValueError``)
    naming the field and the value."""

    @pytest.mark.parametrize(
        "weight", [float("nan"), float("inf"), float("-inf"), -1.0],
        ids=["nan", "inf", "-inf", "negative"],
    )
    def test_bad_task_weight(self, weight):
        from repro.errors import GraphError, GraphValueError

        with pytest.raises(GraphValueError) as ei:
            Task("t", weight=weight)
        err = ei.value
        assert isinstance(err, GraphError) and isinstance(err, ValueError)
        assert err.field == "weight" and err.value is weight
        assert "weight" in str(err) and repr(weight) in str(err)
        assert "'t'" in str(err)

    def test_negative_object_size(self):
        from repro.errors import GraphError, GraphValueError

        with pytest.raises(GraphValueError) as ei:
            DataObject("a", -3)
        err = ei.value
        assert isinstance(err, GraphError) and isinstance(err, ValueError)
        assert err.field == "size" and err.value == -3
        assert "size = -3" in str(err) and "'a'" in str(err)

    def test_nan_weight_never_reaches_an_engine(self):
        # Before: a NaN weight built fine and both engines died with a
        # bare "event scheduled in the past" assertion.
        from repro.errors import GraphValueError
        from repro.graph import GraphBuilder

        b = GraphBuilder()
        b.add_object("x", 1)
        with pytest.raises(GraphValueError, match="weight = nan"):
            b.add_task("t", writes=("x",), weight=float("nan"))
