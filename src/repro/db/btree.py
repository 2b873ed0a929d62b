"""Page-based B-tree indexes.

"In order to speed up seeks on files, Inversion maintains a Btree index
on the chunk number attribute", and "various Btree indices on the
naming table speed up [pathname] operations".  Index pages live on the
same devices as heap pages and go through the same buffer cache, so
index maintenance *competes with data writes for the disk head* — the
effect the paper blames for Figure 3's creation slowdown.

Structure: a B+ tree.  Page 0 of the index relation is a meta page
holding the root page number.  Leaf entries map a composite key to a
heap :class:`~repro.db.heap.TID`; internal entries map separator keys
to child pages, with each node's first entry acting as the "-infinity"
separator.  Leaves are chained through the page header's ``special``
field for range scans.

Keys are made unique by appending the TID to the user key (both in
order-preserving encodings), which keeps duplicate user keys — e.g.
many historical versions of the same chunk number, which time travel
requires ("an index on all of the file's available data, including
both old and current blocks") — correct across page splits.

Index entries are not themselves versioned: an entry inserted by a
transaction that later aborts simply points at a record no snapshot
will see.  The vacuum cleaner rebuilds indexes when it moves records.

Hot-path engineering (all provably charge-identical to the plain
implementation):

- Each node's entry keys are decoded once into a sorted ``list`` kept
  in the page's ``cache`` slot, so a descent binary-searches with the
  C-level :mod:`bisect` instead of re-decoding a key per comparison.
  The simulated-CPU comparison charge is replayed arithmetically: the
  branch taken at each probe of the classic bisect loop depends only
  on whether the probe index is below the final insertion point, so
  the comparison count is a pure function of ``(nslots, insertion
  point)`` and is reproduced exactly without touching any key bytes.
- The meta page memoizes its decoded root page number in its ``cache``
  slot (invalidated by the same write that changes it).
- A range scan hands out one *run* per leaf, not one entry per Python
  step.  A leaf's TIDs ride beside its keys in the ``cache`` slot, each
  decoded when a scan first covers its slot
  (``btree.leaf_entries_decoded``); an in-place insert patches both
  lists, any other mutation drops them with the page's cache.  A scan
  is the charged ``_bisect`` for its start in the first leaf, a plain
  ``bisect_right`` for its end, two slices, and the sibling pointer
  when the run reached the end of the leaf: the ``get_page`` calls and
  charges of the per-slot loop in the same order (no simulated cost
  was ever per entry), for host work that no longer grows with the
  superseded versions an index carries until vacuum.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

from repro.db.buffer import BufferCache
from repro.db.heap import TID
from repro.db.keycodec import encode_key
from repro.db.page import (
    PAGE_BTREE_INTERNAL,
    PAGE_BTREE_LEAF,
    PAGE_BTREE_META,
    Page,
)
from repro.db.transactions import Transaction
from repro.errors import BTreeError
from repro.obs.registry import MetricSpec
from repro.obs.tracing import NO_SPAN
from repro.sim.cpu import CpuModel

METRICS = (
    MetricSpec("btree.total_descents", "counter", "descents",
               "Root-to-leaf descents this session (the registry "
               "re-baselines the process-global class counter at bind "
               "time).",
               "repro.db.btree"),
    MetricSpec("btree.descents", "counter", "descents",
               "Root-to-leaf descents per index relation this session.",
               "repro.db.btree", ("relation",)),
    MetricSpec("btree.leaf_entries_decoded", "counter", "entries",
               "Leaf TIDs decoded into the per-page node cache: each "
               "slot once per cached view, when a scan first covers it. "
               "Host work only (no simulated charge); it should track "
               "entries written, not entries scanned.",
               "repro.db.btree"),
)

_KLEN_FMT = "<H"
_CHILD_FMT = "<I"
_META_FMT = "<I"
_KLEN = struct.Struct(_KLEN_FMT)
_CHILD = struct.Struct(_CHILD_FMT)
_META = struct.Struct(_META_FMT)

_HI_SUFFIX = b"\xff" * 8
"""Appended to a user-key encoding to form an upper bound covering any
TID suffix."""


def _leaf_entry(key: bytes, tid: TID) -> bytes:
    return _KLEN.pack(len(key)) + key + tid.pack()


def _internal_entry(key: bytes, child: int) -> bytes:
    return _KLEN.pack(len(key)) + key + _CHILD.pack(child)


def _entry_key(record) -> bytes:
    (klen,) = _KLEN.unpack_from(record, 0)
    return bytes(record[2:2 + klen])


def _leaf_tid(record) -> TID:
    (klen,) = _KLEN.unpack_from(record, 0)
    return TID.unpack(record, 2 + klen)


def _internal_child(record) -> int:
    (klen,) = _KLEN.unpack_from(record, 0)
    (child,) = _CHILD.unpack_from(record, 2 + klen)
    return child


def _page_node(page: Page) -> tuple[list[bytes], list[TID | None]]:
    """The node's decoded view, kept in the page's ``cache`` slot until
    the next mutation: its entry keys as a sorted list, decoded once,
    and a parallel list of leaf TIDs, ``None`` until a scan first covers
    the slot (:func:`_leaf_tids`)."""
    node = page.cache
    if node is None:
        mv = page.mv
        unpack_klen = _KLEN.unpack_from
        keys = []
        append = keys.append
        for offset, length in page._slots_all():
            (klen,) = unpack_klen(mv, offset)
            append(bytes(mv[offset + 2:offset + 2 + klen]))
        node = page.cache = (keys, [None] * len(keys))
    return node


def _leaf_tids(page: Page, idx: int, end: int) -> list[TID]:
    """TIDs of leaf slots ``idx..end-1``, decoding those no scan has
    covered since the page's cache was last dropped."""
    keys, tids = _page_node(page)
    run = tids[idx:end]
    # ``all`` tests truth in C (a TID is always true); ``None in run``
    # would call the dataclass's Python ``__eq__`` once per entry.
    if not all(run):
        mv, slots = page.mv, page._slots_all()
        BTree.leaf_entries_decoded += run.count(None)
        for i in range(idx, end):
            if tids[i] is None:
                tids[i] = TID.unpack(mv, slots[i][0] + 2 + len(keys[i]))
        run = tids[idx:end]
    return run


def _replay_ncmp(n: int, p: int) -> int:
    """Comparison count of a binary search over ``n`` slots that lands
    at insertion point ``p``.

    In the classic loop the branch at each probe ``mid`` is "go right"
    exactly when ``mid < p`` (for ``bisect_right``, ``keys[mid] <= key
    ⟺ mid < p``; for ``bisect_left``, ``keys[mid] < key ⟺ mid < p``),
    so the probe sequence — and hence the count the simulated CPU must
    be charged — is determined by ``(n, p)`` alone.
    """
    lo, hi, ncmp = 0, n, 0
    while lo < hi:
        mid = (lo + hi) >> 1
        ncmp += 1
        if mid < p:
            lo = mid + 1
        else:
            hi = mid
    return ncmp


class BTree:
    """A B+ tree index over (composite key → TID)."""

    META_PAGE = 0

    #: process-wide count of root-to-leaf descents.  Benchmarks snapshot
    #: this around a workload to assert the range-read fast path really
    #: does O(1) descents where the per-chunk path did O(N).
    total_descents = 0
    #: the same count broken down by index relation name — lets the
    #: sequential-read benchmark assert on chunk-index descents alone,
    #: separate from naming/fileatt bookkeeping probes.
    descents_by_rel: dict[str, int] = {}
    #: leaf TIDs decoded into node caches (bumped once per fill, by the
    #: number of slots filled).
    leaf_entries_decoded = 0

    def __init__(self, buffers: BufferCache, dev_name: str, relname: str,
                 cpu: CpuModel | None = None) -> None:
        self.buffers = buffers
        self.dev_name = dev_name
        self.relname = relname
        self.cpu = cpu

    # -- creation -------------------------------------------------------

    @classmethod
    def create(cls, buffers: BufferCache, dev_name: str, relname: str,
               cpu: CpuModel | None = None) -> "BTree":
        """Format a freshly created (empty) index relation."""
        metano, meta = buffers.new_page(dev_name, relname, PAGE_BTREE_META)
        if metano != cls.META_PAGE:
            raise BTreeError(f"meta page allocated at {metano}, expected 0")
        rootno, _root = buffers.new_page(dev_name, relname, PAGE_BTREE_LEAF)
        meta.add_record(_META.pack(rootno))
        buffers.mark_dirty(dev_name, relname, cls.META_PAGE)
        return cls(buffers, dev_name, relname, cpu)

    # -- page helpers -------------------------------------------------------

    def _page(self, pageno: int) -> Page:
        return self.buffers.get_page(self.dev_name, self.relname, pageno)

    def _dirty(self, pageno: int) -> None:
        self.buffers.mark_dirty(self.dev_name, self.relname, pageno)

    def _root(self) -> int:
        meta = self._page(self.META_PAGE)
        root = meta.cache
        if root is None:
            (root,) = _META.unpack_from(meta.record_view(0), 0)
            meta.cache = root
        return root

    def _set_root(self, pageno: int) -> None:
        meta = self._page(self.META_PAGE)
        meta.overwrite_record(0, _META.pack(pageno))
        meta.cache = pageno
        self._dirty(self.META_PAGE)

    def _is_leaf(self, page: Page) -> bool:
        return bool(page.flags & PAGE_BTREE_LEAF)

    # -- search helpers --------------------------------------------------------

    def _bisect(self, page: Page, key: bytes, right: bool) -> int:
        """Slot index where ``key`` would be inserted to keep order.
        ``right=True`` → after equal keys."""
        keys = _page_node(page)[0]
        p = bisect_right(keys, key) if right else bisect_left(keys, key)
        if self.cpu is not None and keys:
            self.cpu.btree_compare(_replay_ncmp(len(keys), p))
        return p

    def _child_for(self, page: Page, key: bytes) -> tuple[int, int]:
        """(slot index, child pageno) of the child covering ``key`` in an
        internal node."""
        idx = self._bisect(page, key, right=True) - 1
        if idx < 0:
            idx = 0  # first entry is the -infinity separator
        return idx, _internal_child(page.record_view(idx))

    def _descend(self, key: bytes) -> tuple[int, list[tuple[int, int]]]:
        """Find the leaf for ``key``; returns (leaf pageno, path) where
        path is [(internal pageno, slot taken), ...] from the root."""
        BTree.total_descents += 1
        BTree.descents_by_rel[self.relname] = \
            BTree.descents_by_rel.get(self.relname, 0) + 1
        obs = self.buffers.obs
        span = obs.span("btree.descend", relation=self.relname) \
            if obs is not None and obs.tracer.enabled else NO_SPAN
        with span as sp:
            pageno = self._root()
            path: list[tuple[int, int]] = []
            while True:
                page = self._page(pageno)
                if page.flags & PAGE_BTREE_LEAF:
                    sp.set(depth=len(path) + 1)
                    return pageno, path
                idx, child = self._child_for(page, key)
                path.append((pageno, idx))
                pageno = child

    # -- insertion -----------------------------------------------------------------

    def insert(self, tx: Transaction | None, key_values: Sequence[object] | object,
               tid: TID) -> None:
        """Add an entry.  ``key_values`` is one value or a composite.
        ``tx`` may be None for physical maintenance (index rebuilds)."""
        key = encode_key(key_values) + tid.pack()
        entry = _leaf_entry(key, tid)
        leafno, path = self._descend(key)
        self._insert_into(leafno, path, key, entry, is_leaf=True)
        if tx is not None:
            tx.wrote = True

    def _insert_into(self, pageno: int, path: list[tuple[int, int]],
                     key: bytes, entry: bytes, is_leaf: bool) -> None:
        page = self._page(pageno)
        if page.fits(len(entry)):
            self._place(pageno, page, key, entry)
            return
        # Split.
        sep_key, right_pageno = self._split(pageno, is_leaf)
        # Re-fetch and insert into the correct half.
        target = pageno if key < sep_key else right_pageno
        self._place(target, self._page(target), key, entry)
        # Propagate the separator upward.
        self._insert_separator(path, sep_key, right_pageno)

    def _place(self, pageno: int, page: Page, key: bytes, entry: bytes) -> None:
        """Put ``entry`` into a node that has room for it."""
        keys, tids = node = _page_node(page)
        idx = self._bisect(page, key, right=True)
        page.insert_record(idx, entry)
        # The insert dropped the page's node cache; the new entry's key
        # is exactly ``key``, so patch both lists and put them back
        # rather than re-decoding the whole node next descent (a warm
        # leaf stays warm: only the new slot's TID is still to decode).
        keys.insert(idx, key)
        tids.insert(idx, None)
        page.cache = node
        self._dirty(pageno)

    def _split(self, pageno: int, is_leaf: bool) -> tuple[bytes, int]:
        """Split a full node; returns (separator key, right pageno).

        Ordering note: every page is fully mutated and marked dirty
        before the next cache call, so LRU eviction of an in-flight
        page can never lose an update."""
        page = self._page(pageno)
        records = page.records()
        old_special = page.special
        mid = len(records) // 2
        if mid == 0 or mid >= len(records):
            raise BTreeError(f"cannot split node with {len(records)} entries")
        sep_key = _entry_key(records[mid])
        if is_leaf:
            right_records = records[mid:]
        else:
            # Promote the middle key; its child becomes the right node's
            # -infinity entry.
            promoted_child = _internal_child(records[mid])
            right_records = [_internal_entry(b"", promoted_child)] + records[mid + 1:]
        flags = PAGE_BTREE_LEAF if is_leaf else PAGE_BTREE_INTERNAL
        right_pageno, right = self.buffers.new_page(self.dev_name, self.relname, flags)
        for rec in right_records:
            right.add_record(rec)
        if is_leaf:
            right.special = old_special  # inherit the old right sibling
        self._dirty(right_pageno)
        # Rewrite the left node with the lower half.
        page = self._page(pageno)  # re-fetch: new_page may have evicted it
        page.rewrite(records[:mid])
        if is_leaf:
            page.special = right_pageno
        self._dirty(pageno)
        return sep_key, right_pageno

    def _insert_separator(self, path: list[tuple[int, int]],
                          sep_key: bytes, right_pageno: int) -> None:
        entry = _internal_entry(sep_key, right_pageno)
        if not path:
            # The root split: build a new root above both halves.
            old_root = self._root()
            # The left half kept the old root's pageno, so the new root
            # points at old_root and right_pageno.
            new_rootno, new_root = self.buffers.new_page(
                self.dev_name, self.relname, PAGE_BTREE_INTERNAL)
            new_root.add_record(_internal_entry(b"", old_root))
            new_root.add_record(entry)
            self._dirty(new_rootno)
            self._set_root(new_rootno)
            return
        parent_pageno, _idx = path[-1]
        self._insert_into(parent_pageno, path[:-1], sep_key, entry, is_leaf=False)

    # -- lookup ---------------------------------------------------------------------

    def search(self, key_values: Sequence[object] | object) -> list[TID]:
        """All TIDs filed under exactly this user key (every version)."""
        key = encode_key(key_values)
        return [tid for _keys, tids in self._leaf_runs(key, key + _HI_SUFFIX)
                for tid in tids]

    def scan_range(self, lo: bytes | None, hi: bytes | None
                   ) -> Iterator[tuple[bytes, TID]]:
        """Yield (encoded key, TID) for lo ≤ key ≤ hi over leaf chains.
        ``lo``/``hi`` are encoded byte keys; None means unbounded.

        Cursor contract, for a consumer that changes the index while
        the scan is suspended: an entry that exists from the moment the
        scan enters its leaf until the scan passes it is yielded exactly
        once, in key order; nothing is ever yielded twice; entries added
        or removed meanwhile may or may not be seen."""
        for keys, tids in self._leaf_runs(lo, hi):
            yield from zip(keys, tids)

    def _leaf_runs(self, lo: bytes | None, hi: bytes | None
                   ) -> Iterator[tuple[list[bytes], list[TID]]]:
        """The scan itself, one leaf per step: descend, then hand out
        each leaf's keys and TIDs in [lo, hi] as a pair of slices.

        A run is a copy taken together with the leaf's sibling pointer,
        which is what keeps the cursor contract: a split only ever moves
        entries right, into a new sibling linked directly after their
        old leaf, so the pointer read with the run leads past every
        entry already handed out and to every other one."""
        leafno, _path = self._descend(lo if lo is not None else b"")
        while leafno:
            page = self._page(leafno)
            idx = self._bisect(page, lo, right=False) if lo is not None else 0
            lo = None  # only bisect in the first leaf
            keys = _page_node(page)[0]
            end = len(keys) if hi is None else bisect_right(keys, hi, idx)
            # Past ``hi`` inside this leaf ends the scan.
            leafno = page.special if end == len(keys) else 0
            yield keys[idx:end], _leaf_tids(page, idx, end)

    def scan_values_range(self, lo_values, hi_values) -> Iterator[tuple[bytes, TID]]:
        """Range scan by user key values (inclusive bounds; None =
        unbounded)."""
        lo = encode_key(lo_values) if lo_values is not None else None
        hi = encode_key(hi_values) + _HI_SUFFIX if hi_values is not None else None
        return self.scan_range(lo, hi)

    def scan_all(self) -> Iterator[tuple[bytes, TID]]:
        return self.scan_range(None, None)

    # -- deletion ----------------------------------------------------------------------

    def remove(self, key_values: Sequence[object] | object, tid: TID) -> bool:
        """Remove the entry for (key, tid).  Nodes are not rebalanced —
        the vacuum cleaner rebuilds indexes wholesale; this exists for
        targeted cleanup and tests."""
        key = encode_key(key_values) + tid.pack()
        leafno, _path = self._descend(key)
        while leafno:
            page = self._page(leafno)
            idx = self._bisect(page, key, right=False)
            for slot in range(idx, page.nslots):
                rec = page.get_record(slot)
                if _entry_key(rec) != key:
                    return False
                if _leaf_tid(rec) == tid:
                    page.delete_slot(slot)
                    page.compact()
                    self._dirty(leafno)
                    return True
            leafno = page.special
        return False

    # -- introspection --------------------------------------------------------------------

    def depth(self) -> int:
        """Tree height (1 = root is a leaf)."""
        pageno = self._root()
        depth = 1
        while True:
            page = self._page(pageno)
            if self._is_leaf(page):
                return depth
            _idx, pageno = self._child_for(page, b"")
            depth += 1

    def entry_count(self) -> int:
        return sum(1 for __ in self.scan_all())

    def check_invariants(self) -> None:
        """Verify key ordering within and across leaves (tests)."""
        prev = None
        for key, _tid in self.scan_all():
            if prev is not None and key < prev:
                raise BTreeError("leaf chain out of order")
            prev = key
