"""The out-of-context message table (Section 3.4 of the paper)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mbuf import Mbuf
from repro.core.ooc import OocTable


def roomy():
    """A table nothing below fills: 4 senders, 64 slots each."""
    return OocTable(64)


def mk(path, src=0):
    return Mbuf(src=src, path=tuple(path), mtype=0, payload=None)


class TestStoreDrain:
    def test_exact_path_drain(self):
        table = roomy()
        table.store(mk(("a", 1)))
        drained = table.drain_prefix(("a", 1))
        assert len(drained) == 1
        assert len(table) == 0

    def test_prefix_drain_catches_descendants(self):
        table = roomy()
        table.store(mk(("a", 1, "rb", 0)))
        table.store(mk(("a", 1, "rb", 1)))
        table.store(mk(("a", 2)))
        drained = table.drain_prefix(("a", 1))
        assert len(drained) == 2
        assert len(table) == 1

    def test_prefix_is_componentwise_not_string(self):
        table = roomy()
        table.store(mk(("ab",)))
        assert table.drain_prefix(("a",)) == []

    def test_fifo_within_path(self):
        table = roomy()
        first, second = mk(("x",), src=1), mk(("x",), src=2)
        table.store(first)
        table.store(second)
        assert table.drain_prefix(("x",)) == [first, second]

    def test_drain_empty(self):
        assert roomy().drain_prefix(("nope",)) == []

    def test_has_prefix(self):
        table = roomy()
        table.store(mk(("a", 1, "b")))
        assert table.has_prefix(("a",))
        assert table.has_prefix(("a", 1))
        assert not table.has_prefix(("a", 2))

    def test_purge_counts(self):
        table = roomy()
        table.store(mk(("a",)))
        table.store(mk(("a",)))
        assert table.purge_prefix(("a",)) == 2
        assert len(table) == 0


class TestBounds:
    def test_capacity_evicts_oldest(self):
        table = OocTable(3)
        for i in range(5):
            table.store(mk(("p", i)))
        assert len(table) == 3
        assert table.evictions == 2
        # Oldest two paths are gone, newest three remain.
        assert not table.has_prefix(("p", 0))
        assert not table.has_prefix(("p", 1))
        assert table.has_prefix(("p", 4))

    def test_eviction_within_shared_path(self):
        table = OocTable(2)
        first, second, third = (mk(("x",)) for _ in range(3))
        for mbuf in (first, second, third):
            table.store(mbuf)
        assert table.drain_prefix(("x",)) == [second, third]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            OocTable(0)


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 3), min_size=1, max_size=3),
            st.integers(0, 3),
        ),
        max_size=40,
    )
)
@settings(max_examples=150)
def test_property_size_accounting(entries):
    """len(table) always equals stored minus drained minus evicted."""
    table = OocTable(10)
    stored = 0
    drained = 0
    for path, _ in entries:
        table.store(mk(tuple(path)))
        stored += 1
    for path, _ in entries[: len(entries) // 2]:
        drained += len(table.drain_prefix(tuple(path)))
    assert len(table) == stored - drained - table.evictions
