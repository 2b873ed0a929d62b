"""B-tree index: ordering, duplicates, splits, range scans."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.btree import BTree
from repro.db.buffer import BufferCache
from repro.db.heap import TID
from repro.db.transactions import Transaction
from repro.devices.memdisk import MemDisk
from repro.devices.switch import DeviceSwitch
from repro.sim.clock import SimClock


def make_btree(capacity: int = 64) -> BTree:
    clock = SimClock()
    switch = DeviceSwitch()
    switch.register(MemDisk("mem0", clock))
    switch.get("mem0").create_relation("idx")
    buffers = BufferCache(switch, capacity=capacity)
    return BTree.create(buffers, "mem0", "idx")


def tx() -> Transaction:
    return Transaction(xid=5, start_time=0.0)


def test_empty_search():
    bt = make_btree()
    assert bt.search((42,)) == []


def test_insert_and_search():
    bt = make_btree()
    bt.insert(tx(), (42,), TID(1, 2))
    assert bt.search((42,)) == [TID(1, 2)]
    assert bt.search((41,)) == []


def test_duplicate_keys_all_returned():
    """Historical chunk versions share a chunk number: "an index on all
    of the file's available data, including both old and current
    blocks"."""
    bt = make_btree()
    tids = [TID(p, 0) for p in range(10)]
    for t in tids:
        bt.insert(tx(), (7,), t)
    assert sorted(bt.search((7,))) == sorted(tids)


def test_many_inserts_force_splits():
    bt = make_btree()
    for i in range(3000):
        bt.insert(tx(), (i,), TID(i, 0))
    assert bt.depth() >= 2
    assert bt.entry_count() == 3000
    bt.check_invariants()
    assert bt.search((1234,)) == [TID(1234, 0)]
    assert bt.search((0,)) == [TID(0, 0)]
    assert bt.search((2999,)) == [TID(2999, 0)]


def test_reverse_order_inserts():
    bt = make_btree()
    for i in reversed(range(1500)):
        bt.insert(tx(), (i,), TID(i, 0))
    bt.check_invariants()
    assert [t.pageno for _k, t in bt.scan_all()] == list(range(1500))


def test_range_scan():
    bt = make_btree()
    for i in range(100):
        bt.insert(tx(), (i,), TID(i, 0))
    got = [t.pageno for _k, t in bt.scan_values_range((10,), (20,))]
    assert got == list(range(10, 21))


def test_range_scan_unbounded():
    bt = make_btree()
    for i in range(50):
        bt.insert(tx(), (i,), TID(i, 0))
    assert len(list(bt.scan_values_range(None, None))) == 50
    assert [t.pageno for _k, t in bt.scan_values_range((45,), None)] \
        == [45, 46, 47, 48, 49]


def test_composite_keys_and_prefix_range():
    bt = make_btree()
    for parent in (1, 2, 3):
        for name in ("a", "b", "c"):
            bt.insert(tx(), (parent, name), TID(parent, ord(name)))
    got = [t for _k, t in bt.scan_values_range((2,), (2,))]
    assert got == [TID(2, 97), TID(2, 98), TID(2, 99)]


def test_text_keys():
    bt = make_btree()
    words = ["zebra", "apple", "mango", "apple2", "", "ápple"]
    for i, w in enumerate(words):
        bt.insert(tx(), (w,), TID(i, 0))
    assert bt.search(("apple",)) == [TID(1, 0)]
    keys = [k for k, _t in bt.scan_all()]
    assert keys == sorted(keys)


def test_remove_entry():
    bt = make_btree()
    for i in range(20):
        bt.insert(tx(), (i,), TID(i, 0))
    assert bt.remove((7,), TID(7, 0))
    assert bt.search((7,)) == []
    assert not bt.remove((7,), TID(7, 0))
    assert bt.entry_count() == 19


def test_remove_only_named_duplicate():
    bt = make_btree()
    bt.insert(tx(), (1,), TID(1, 0))
    bt.insert(tx(), (1,), TID(2, 0))
    assert bt.remove((1,), TID(1, 0))
    assert bt.search((1,)) == [TID(2, 0)]


def test_insert_marks_transaction_wrote():
    bt = make_btree()
    transaction = tx()
    bt.insert(transaction, (1,), TID(0, 0))
    assert transaction.wrote


def test_insert_with_none_transaction():
    bt = make_btree()
    bt.insert(None, (1,), TID(0, 0))
    assert bt.search((1,)) == [TID(0, 0)]


def test_repeated_point_lookups_descend_once_each_and_find_their_key():
    """3 000 keys (two levels), 2 000 lookups of 16 hot keys: one
    root-to-leaf descent per lookup, every result right."""
    bt = make_btree(capacity=512)
    for i in range(3000):
        bt.insert(tx(), (i,), TID(i, 0))
    assert bt.depth() == 2
    before = BTree.total_descents
    assert all(bt.search((i % 16,)) == [TID(i % 16, 0)] for i in range(2000))
    assert BTree.total_descents - before == 2000


def test_survives_small_buffer_cache():
    """Splits under heavy eviction pressure must not lose updates."""
    bt = make_btree(capacity=8)
    for i in range(2000):
        bt.insert(tx(), (i % 97, i), TID(i, 0))
    bt.check_invariants()
    assert bt.entry_count() == 2000


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-10**6, max_value=10**6),
                min_size=1, max_size=400))
def test_property_sorted_iteration(keys):
    bt = make_btree()
    for i, key in enumerate(keys):
        bt.insert(tx(), (key,), TID(i, 0))
    scanned = [k for k, _t in bt.scan_all()]
    assert scanned == sorted(scanned)
    assert len(scanned) == len(keys)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                max_size=300), st.integers(min_value=0, max_value=500))
def test_property_search_matches_reference(keys, probe):
    bt = make_btree()
    reference: dict[int, list[TID]] = {}
    for i, key in enumerate(keys):
        t = TID(i, 0)
        bt.insert(tx(), (key,), t)
        reference.setdefault(key, []).append(t)
    assert sorted(bt.search((probe,))) == sorted(reference.get(probe, []))
