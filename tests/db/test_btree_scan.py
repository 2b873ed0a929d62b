"""B-tree leaf-run scans: equivalence with the per-slot scan they
replaced, the suspended-cursor contract, decode counts, cache bounds."""

import gc
import struct
import weakref
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.btree import _HI_SUFFIX, BTree
from repro.db.buffer import BufferCache
from repro.db.heap import TID
from repro.db.keycodec import encode_key
from repro.db.tuples import Column, Schema
from repro.devices.memdisk import MemDisk
from repro.devices.switch import DeviceSwitch
from repro.sim.clock import SimClock
from repro.sim.cpu import CpuModel
from tests.db import test_btree


class CountingCpu(CpuModel):
    """Records the argument of every ``btree_compare`` charge."""

    def btree_compare(self, count: int = 1) -> float:
        self.compares.append(count)
        return super().btree_compare(count)


def make_btree(capacity: int = 64) -> BTree:
    bt = test_btree.make_btree(capacity)
    bt.cpu = CountingCpu(SimClock())
    bt.cpu.compares = []
    return bt


# -- the per-slot scan, kept as the reference ---------------------------------

_KLEN = struct.Struct("<H")


def reference_scan(bt: BTree, lo, hi):
    """``BTree.scan_range`` as it was before the leaf-run rewrite: one
    Python step per entry, key and TID decoded from the leaf record."""
    start_key = lo if lo is not None else b""
    leafno, _path = bt._descend(start_key)
    while leafno:
        page = bt._page(leafno)
        idx = bt._bisect(page, start_key, right=False) if lo is not None else 0
        for slot in range(idx, page.nslots):
            rec = page.record_view(slot)
            (klen,) = _KLEN.unpack_from(rec, 0)
            key = bytes(rec[2:2 + klen])
            if hi is not None and key > hi:
                return
            yield key, TID.unpack(rec, 2 + klen)
        lo = None
        leafno = page.special


def observed(bt: BTree, scan, take=None):
    """Run ``scan()`` (taking ``take`` entries, all if None) and return
    (entries, pages fetched in order, ``btree_compare`` arguments)."""
    pages = []
    fetch = bt.buffers.get_page

    def recording(dev_name, relname, pageno):
        pages.append(pageno)
        return fetch(dev_name, relname, pageno)

    bt.cpu.compares = []
    bt.buffers.get_page = recording
    try:
        it = iter(scan())
        got = list(it) if take is None else list(islice(it, take))
        del it  # an abandoned scan is closed here, not at a later collection
    finally:
        del bt.buffers.get_page
    return got, pages, bt.cpu.compares


def bound(value, which):
    """The encoded ``lo`` or ``hi`` scan bound for a drawn user key."""
    if value is None:
        return None
    key = encode_key((value,))
    return key + _HI_SUFFIX if which == "hi" else key


KEYS = st.integers(min_value=0, max_value=9)
BOUNDS = st.one_of(st.none(), st.integers(min_value=-1, max_value=10))
# n versions of one user key; heap page numbers run through 255 → 256,
# where the TID suffix needs its second byte (big-endian, so versions
# still sort by page number)
VERSIONS = st.tuples(st.just("insert"), KEYS, st.integers(1, 400),
                     st.integers(0, 300))
REMOVE = st.tuples(st.just("remove"), st.integers(0, 10**6),
                   st.integers(1, 40))
PROBE = st.tuples(st.just("probe"), BOUNDS, BOUNDS)
# both bounds are entries' own keys, so ``hi`` is met exactly
SPAN = st.tuples(st.just("span"), st.integers(0, 10**6),
                 st.integers(0, 10**6))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([6, 64]),
       st.lists(VERSIONS, min_size=3, max_size=6),
       st.lists(st.one_of(VERSIONS, REMOVE, PROBE, PROBE, SPAN),
                min_size=4, max_size=12))
def test_leaf_run_scan_equals_per_slot_scan(capacity, build, steps):
    """Same (key, TID) sequence, same pages in the same order, same
    comparison charges — on warm, patched, split and evicted leaves."""
    bt = make_btree(capacity)
    model: list[tuple[int, TID]] = []
    steps = build + steps + [("probe", None, None)]
    for stepno, step in enumerate(steps):
        if step[0] == "insert":
            _op, key, n, page0 = step
            for j in range(n):
                tid = TID(page0 + j, stepno)
                bt.insert(None, (key,), tid)
                model.append((key, tid))
            continue
        if step[0] == "remove":
            _op, start, n = step
            for _ in range(min(n, len(model))):
                key, tid = model.pop(start % len(model))
                assert bt.remove((key,), tid)
            continue
        entries = sorted((encode_key((k,)) + t.pack(), t) for k, t in model)
        if step[0] == "span":
            if not entries:
                continue
            lo, hi = (entries[i % len(entries)][0] for i in step[1:])
            lo_v = hi_v = None
        else:
            _op, lo_v, hi_v = step
            lo, hi = bound(lo_v, "lo"), bound(hi_v, "hi")
        want = observed(bt, lambda: reference_scan(bt, lo, hi))
        # The reference decodes each TID from the bytes after the key in
        # the leaf record, so equality pins the cached TIDs to the page.
        assert observed(bt, lambda: bt.scan_range(lo, hi)) == want
        assert want[0] == [
            entry for entry in entries
            if (lo is None or entry[0] >= lo) and (hi is None or entry[0] <= hi)]
        # Leaf-granular laziness: a consumer that takes one entry has
        # fetched no page the per-slot scan would not have.
        assert observed(bt, lambda: bt.scan_range(lo, hi), take=1) \
            == observed(bt, lambda: reference_scan(bt, lo, hi), take=1)
        if step[0] == "span":
            continue
        lo_t = None if lo_v is None else (lo_v,)
        hi_t = None if hi_v is None else (hi_v,)
        assert observed(bt, lambda: bt.scan_values_range(lo_t, hi_t)) == want
        if lo_v is not None:
            point = encode_key((lo_v,))
            found, pages, compares = observed(
                bt, lambda: reference_scan(bt, point, point + _HI_SUFFIX))
            assert observed(bt, lambda: bt.search((lo_v,))) \
                == ([tid for _key, tid in found], pages, compares)
    assert observed(bt, bt.scan_all) \
        == observed(bt, lambda: reference_scan(bt, None, None))
    assert bt.entry_count() == len(model)


# -- the suspended-cursor contract ---------------------------------------------


def check_contract(bt: BTree, take: int, mutate):
    """Suspend a full scan after ``take`` entries, let ``mutate`` change
    the index, drain the scan, and check the contract: every entry that
    was there throughout is yielded exactly once, in key order, and
    nothing is yielded twice."""
    before = dict.fromkeys(bt.scan_all())  # ordered, and a set
    it = bt.scan_all()
    got = [next(it) for _ in range(take)]
    mutate()
    got += list(it)
    after = set(bt.scan_all())
    keys = [key for key, _tid in got]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys), "an entry was yielded twice"
    stayed = [entry for entry in before if entry in after]
    assert [entry for entry in got if entry in before and entry in after] \
        == stayed
    return got


def one_leaf(n: int) -> BTree:
    bt = make_btree()
    for i in range(n):
        bt.insert(None, (2 * i,), TID(i, 0))
    assert bt.depth() == 1
    return bt


def test_insert_behind_the_cursor_yields_nothing_twice():
    bt = one_leaf(50)
    got = check_contract(bt, 10, lambda: bt.insert(None, (5,), TID(999, 0)))
    assert len(got) == 50


def test_insert_ahead_of_the_cursor_loses_no_entry():
    bt = one_leaf(50)
    got = check_contract(bt, 10, lambda: bt.insert(None, (61,), TID(999, 0)))
    assert len(got) in (50, 51)


def test_remove_of_the_next_entry():
    bt = one_leaf(50)
    got = check_contract(bt, 10, lambda: bt.remove((20,), TID(10, 0)))
    assert len(got) in (49, 50)


@pytest.mark.parametrize("leaves_before", [0, 2])
def test_split_under_a_suspended_scan(leaves_before):
    """The split moves the upper half of the cursor's leaf — entries the
    scan has already yielded *and* entries it has not — to a new right
    sibling; the scan must neither skip the latter nor repeat the
    former."""
    bt = make_btree()
    i = 0
    while len(leaf_chain(bt)) <= leaves_before \
            or bt._page(leaf_chain(bt)[-1]).nslots < 200:
        bt.insert(None, (2 * i,), TID(i, 0))
        i += 1
    chain = leaf_chain(bt)
    assert len(chain) == leaves_before + 1
    last = chain[-1]
    skipped = sum(bt._page(no).nslots for no in chain[:-1])
    n = bt._page(last).nslots

    def fill_until_split():
        # Odd keys land between the originals of the last leaf, behind
        # and ahead of the cursor, until it splits.
        j = 0
        while len(leaf_chain(bt)) == len(chain):
            bt.insert(None, (2 * (i - 1 - j % (n - 1)) - 1,), TID(j, 1))
            j += 1
        assert bt._page(last).special == leaf_chain(bt)[-1]

    # Two thirds into the last leaf: past the split point (half way), so
    # the new sibling receives yielded and unyielded originals alike.
    check_contract(bt, skipped + 2 * n // 3, fill_until_split)
    bt.check_invariants()


def leaf_chain(bt: BTree) -> list[int]:
    leafno, _path = bt._descend(b"")
    chain = []
    while leafno:
        chain.append(leafno)
        leafno = bt._page(leafno).special
    return chain


# -- decode counts ---------------------------------------------------------------


def test_probes_decode_each_version_once(db):
    """200 equality probes of a key holding 400+ versions decode each
    index entry once, not once per probe (the per-slot scan decoded
    80 000), and an in-place insert keeps the warm leaf warm."""
    tx = db.begin()
    table = db.create_table(tx, "t", Schema([Column("k", "int4"),
                                             Column("v", "int4")]),
                            indexes=[["k"]])
    tid = table.insert(tx, (1, 0))
    for version in range(1, 400):
        tid = table.update(tx, tid, (1, version))
    db.commit(tx)
    tx = db.begin()
    table = db.table("t", tx)
    snapshot = db.snapshot(tx)
    _index, btree = table._find_index(("k",))
    pages0 = len(leaf_chain(btree))
    decoded0 = BTree.leaf_entries_decoded
    for probe in range(200):
        if probe % 4 == 0:
            tid = table.update(tx, tid, (1, 400 + probe))
        _tid, row = next(table.index_eq(("k",), (1,), snapshot, tx))
        assert row[0] == 1
    decoded = BTree.leaf_entries_decoded - decoded0
    splits = len(leaf_chain(btree)) - pages0
    # A split rebuilds both halves, so their TIDs are decoded again.
    assert 450 <= decoded <= 450 + 450 * splits
    assert db.obs.metrics.value("btree.leaf_entries_decoded") >= decoded
    db.commit(tx)


def test_in_place_insert_patches_keys_and_tids():
    bt = one_leaf(100)
    assert len(list(bt.scan_all())) == 100
    decoded0 = BTree.leaf_entries_decoded
    (leafno,) = leaf_chain(bt)
    node = bt._page(leafno).cache
    bt.insert(None, (31,), TID(7, 7))
    assert bt._page(leafno).cache is node
    keys, tids = node
    assert len(keys) == len(tids) == 101 and tids.count(None) == 1
    assert (encode_key((31,)) + TID(7, 7).pack(), TID(7, 7)) \
        in list(bt.scan_all())
    assert BTree.leaf_entries_decoded - decoded0 == 1


# -- bounds ------------------------------------------------------------------------


@pytest.mark.parametrize("how", ["evict", "invalidate_all"])
def test_node_cache_dies_with_its_frame(how):
    """The decoded keys and TIDs hang off the Page and nowhere else, so
    the cache is bounded by the resident frames."""
    bt = make_btree(capacity=4)
    for i in range(900):
        bt.insert(None, (i,), TID(i, 0))
    first = leaf_chain(bt)[0]
    it = bt.scan_all()
    next(it)
    del it
    keys, tids = bt._page(first).cache
    key0, tid0 = keys[0], weakref.ref(tids[0])
    assert tid0() == TID(0, 0)
    del keys, tids
    if how == "evict":
        assert bt.search((899,)) == [TID(899, 0)]
        assert bt.search((450,)) == [TID(450, 0)]
        assert not bt.buffers.resident("mem0", "idx", first)
    else:
        bt.buffers.invalidate_all()
    gc.collect()
    assert tid0() is None
    assert not [r for r in gc.get_referrers(key0) if isinstance(r, list)]
