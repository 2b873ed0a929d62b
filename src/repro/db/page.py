"""8192-byte slotted data pages.

The POSTGRES data manager page "was chosen early in the design of
POSTGRES, and was intended to make magnetic disk transfers fast"; the
paper notes Inversion inherits it.  The layout here is the classic
slotted page: a fixed header, a slot directory growing downward-in-
address/upward-in-count from the header, and record data growing up
from the end of the page.

Header (12 bytes, little-endian):

== ======= ==========================================================
#  field   meaning
== ======= ==========================================================
H  nslots  number of slot directory entries
H  lower   byte offset of the first free byte after the slot directory
H  upper   byte offset of the start of record data
H  flags   page-kind flags (heap / B-tree leaf / B-tree internal)
I  special page-kind-specific value (B-tree right-sibling pointer)
== ======= ==========================================================

Each slot is 4 bytes: ``(offset: H, length: H)``.  Slot order is the
*logical* record order; B-tree nodes keep slots sorted by key, heap
pages append.

Hot-path layout: the header is parsed once and mirrored in plain
attributes (written through to the buffer on mutation), the slot
directory is decoded lazily into a list of ``(offset, length)`` tuples
that mutators patch in place where the change is local (insert/delete
shift entries; record data never moves), and record access goes
through one long-lived ``memoryview`` so ``get_record`` copies once
instead of twice.  ``Page.cache`` is a scratch slot for higher layers
(the B-tree keeps its decoded keys and TIDs there); any mutation that
can change record bytes clears it, and :attr:`header_cache_invalidations`
counts the clears that dropped a materialized view.
"""

from __future__ import annotations

import struct

from repro.errors import PageError, PageOverflowError
from repro.obs.registry import MetricSpec

METRICS = (
    MetricSpec("page.header_cache_invalidations", "counter", "events",
               "Cached page views (decoded slot directory, or a B-tree "
               "node's decoded keys and TIDs) dropped by a mutation that "
               "could not patch them in place.  Session-relative delta "
               "of the process-global class counter.",
               "repro.db.page"),
)

PAGE_SIZE = 8192
HEADER_FMT = "<HHHHI"
_HEADER = struct.Struct(HEADER_FMT)
HEADER_SIZE = _HEADER.size  # 12
SLOT_FMT = "<HH"
_SLOT = struct.Struct(SLOT_FMT)
SLOT_SIZE = _SLOT.size  # 4

# Page-kind flags.
PAGE_HEAP = 0x0001
PAGE_BTREE_LEAF = 0x0002
PAGE_BTREE_INTERNAL = 0x0004
PAGE_BTREE_META = 0x0008

MAX_RECORD_SIZE = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE
"""Largest record payload that fits on an otherwise empty page."""

_EMPTY_PAGE = bytes(PAGE_SIZE)


class Page:
    """A mutable slotted page over a ``bytearray`` buffer."""

    __slots__ = ("buf", "mv", "_nslots", "_lower", "_upper", "_flags",
                 "_special", "_slotdir", "cache", "version")

    #: process-wide count of dropped cached views (decoded slot
    #: directories / higher-layer ``cache`` payloads) — mutations that
    #: could not be patched coherently.  Mirrored session-relative by
    #: the observability registry.
    header_cache_invalidations = 0

    def __init__(self, buf: bytes | bytearray | None = None, flags: int = 0) -> None:
        if buf is None:
            self.buf = bytearray(PAGE_SIZE)
            self.mv = memoryview(self.buf)
            self._write_header(0, HEADER_SIZE, PAGE_SIZE, flags, 0)
        else:
            if len(buf) != PAGE_SIZE:
                raise PageError(f"page buffer must be {PAGE_SIZE} bytes, got {len(buf)}")
            self.buf = bytearray(buf)
            self.mv = memoryview(self.buf)
            nslots, lower, upper, _flags, _special = self._load_header()
            if lower == 0 and upper == 0 and nslots == 0:
                # All-zero (freshly extended) page: initialize.
                self._write_header(0, HEADER_SIZE, PAGE_SIZE, flags, 0)
        self._slotdir = None
        self.cache = None
        self.version = 0

    # -- header access ------------------------------------------------

    def _load_header(self) -> tuple[int, int, int, int, int]:
        header = _HEADER.unpack_from(self.buf, 0)
        (self._nslots, self._lower, self._upper, self._flags,
         self._special) = header
        return header

    def _write_header(self, nslots: int, lower: int, upper: int,
                      flags: int, special: int) -> None:
        _HEADER.pack_into(self.buf, 0, nslots, lower, upper, flags, special)
        self._nslots = nslots
        self._lower = lower
        self._upper = upper
        self._flags = flags
        self._special = special

    def _drop_caches(self) -> None:
        """Forget the decoded slot directory and any higher-layer cache
        after a mutation that cannot be patched in place."""
        if self._slotdir is not None or self.cache is not None:
            Page.header_cache_invalidations += 1
        self._slotdir = None
        self.cache = None

    @property
    def nslots(self) -> int:
        return self._nslots

    @property
    def flags(self) -> int:
        return self._flags

    @flags.setter
    def flags(self, value: int) -> None:
        self._write_header(self._nslots, self._lower, self._upper,
                           value, self._special)
        self.version += 1

    @property
    def special(self) -> int:
        return self._special

    @special.setter
    def special(self, value: int) -> None:
        self._write_header(self._nslots, self._lower, self._upper,
                           self._flags, value)
        self.version += 1

    @property
    def free_space(self) -> int:
        """Bytes available for one more record *including* its slot."""
        free = self._upper - self._lower
        return free if free > 0 else 0

    def fits(self, record_len: int) -> bool:
        return self._upper - self._lower >= record_len + SLOT_SIZE

    # -- slot directory -----------------------------------------------

    def _slots_all(self) -> list[tuple[int, int]]:
        """The decoded slot directory, built lazily and patched by
        mutators whose effect on it is local."""
        sd = self._slotdir
        if sd is None:
            sd = self._slotdir = list(_SLOT.iter_unpack(
                self.mv[HEADER_SIZE:HEADER_SIZE + self._nslots * SLOT_SIZE]))
        return sd

    def _slot(self, idx: int) -> tuple[int, int]:
        nslots = self._nslots
        if not (0 <= idx < nslots):
            raise PageError(f"slot {idx} out of range (nslots={nslots})")
        sd = self._slotdir
        if sd is None:
            sd = self._slots_all()
        return sd[idx]

    # -- record operations ----------------------------------------------

    def add_record(self, data: bytes) -> int:
        """Append ``data`` as a new record; returns its slot index."""
        return self.insert_record(self._nslots, data)

    def insert_record(self, idx: int, data: bytes) -> int:
        """Insert ``data`` so it becomes slot ``idx``, shifting later
        slots up.  B-tree nodes use this to keep slots key-ordered."""
        n = len(data)
        if n > MAX_RECORD_SIZE:
            raise PageOverflowError(f"record of {n} bytes exceeds page capacity")
        nslots, lower, upper = self._nslots, self._lower, self._upper
        if upper - lower < n + SLOT_SIZE:
            raise PageOverflowError(
                f"record of {n} bytes does not fit (free={self.free_space})")
        if not (0 <= idx <= nslots):
            raise PageError(f"insert position {idx} out of range (nslots={nslots})")
        # Shift the slot directory entries at and after idx.
        src = HEADER_SIZE + idx * SLOT_SIZE
        end = HEADER_SIZE + nslots * SLOT_SIZE
        buf = self.buf
        buf[src + SLOT_SIZE:end + SLOT_SIZE] = buf[src:end]
        new_upper = upper - n
        buf[new_upper:new_upper + n] = data
        self._write_header(nslots + 1, lower + SLOT_SIZE, new_upper,
                           self._flags, self._special)
        if self._slotdir is not None:
            self._slotdir.insert(idx, (new_upper, n))
        _SLOT.pack_into(buf, src, new_upper, n)
        if self.cache is not None:
            # Record positions are unchanged but the slot<->record
            # mapping shifted; higher layers re-derive (or patch and
            # restore) their view.
            self.cache = None
        self.version += 1
        return idx

    def get_record(self, idx: int) -> bytes:
        offset, length = self._slot(idx)
        if offset == 0:
            raise PageError(f"slot {idx} is dead")
        return bytes(self.mv[offset:offset + length])

    def record_view(self, idx: int):
        """Zero-copy view of the record at ``idx`` — valid only until
        the next page mutation (hot readers decode from it in place)."""
        offset, length = self._slot(idx)
        if offset == 0:
            raise PageError(f"slot {idx} is dead")
        return self.mv[offset:offset + length]

    def overwrite_record(self, idx: int, data: bytes) -> None:
        """Replace a record in place.  Only same-length replacement is
        allowed — used solely for stamping ``xmax`` into an existing
        record header (the no-overwrite manager never changes record
        *contents*)."""
        offset, length = self._slot(idx)
        if len(data) != length:
            raise PageError(
                f"in-place overwrite must preserve length ({len(data)} != {length})")
        self.buf[offset:offset + length] = data
        if self.cache is not None:
            Page.header_cache_invalidations += 1
            self.cache = None
        self.version += 1

    def patch_record(self, idx: int, rel_offset: int, patch: bytes) -> None:
        """Patch ``patch`` bytes into the record at slot ``idx`` starting
        ``rel_offset`` bytes into the record."""
        offset, length = self._slot(idx)
        if rel_offset + len(patch) > length:
            raise PageError("patch extends past end of record")
        start = offset + rel_offset
        self.buf[start:start + len(patch)] = patch
        if self.cache is not None:
            Page.header_cache_invalidations += 1
            self.cache = None
        self.version += 1

    def delete_slot(self, idx: int) -> None:
        """Remove slot ``idx`` from the directory (B-tree node
        reorganization; heap pages never delete, they stamp ``xmax``).
        The record bytes become a hole reclaimed by :meth:`compact`."""
        nslots = self._nslots
        if not (0 <= idx < nslots):
            raise PageError(f"slot {idx} out of range (nslots={nslots})")
        src = HEADER_SIZE + (idx + 1) * SLOT_SIZE
        end = HEADER_SIZE + nslots * SLOT_SIZE
        self.buf[src - SLOT_SIZE:end - SLOT_SIZE] = self.buf[src:end]
        self._write_header(nslots - 1, self._lower - SLOT_SIZE, self._upper,
                           self._flags, self._special)
        if self._slotdir is not None:
            del self._slotdir[idx]
        if self.cache is not None:
            Page.header_cache_invalidations += 1
            self.cache = None
        self.version += 1

    def compact(self) -> None:
        """Rewrite the data region to squeeze out holes left by
        :meth:`delete_slot`."""
        nslots = self._nslots
        records = [self.get_record(i) for i in range(nslots)]
        flags, special = self._flags, self._special
        self.buf[:] = _EMPTY_PAGE
        self._write_header(0, HEADER_SIZE, PAGE_SIZE, flags, special)
        self._drop_caches()
        self.version += 1
        for rec in records:
            self.add_record(rec)

    def rewrite(self, records: list[bytes]) -> None:
        """Replace all records, preserving flags and special."""
        flags, special = self._flags, self._special
        self.buf[:] = _EMPTY_PAGE
        self._write_header(0, HEADER_SIZE, PAGE_SIZE, flags, special)
        self._drop_caches()
        self.version += 1
        for rec in records:
            self.add_record(rec)

    def records(self) -> list[bytes]:
        """All records in slot order."""
        return [self.get_record(i) for i in range(self._nslots)]

    def to_bytes(self) -> bytes:
        return bytes(self.buf)
