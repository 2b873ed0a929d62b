"""The device manager interface — the routines every device registers
with the switch.

"For each device, the required interface routines are listed.  These
routines are specific to the database system, and include, for example,
code to create new tables and to commit transactions."  Our interface
is page-oriented: relations (tables, indexes) are named sequences of
8 KB pages; the buffer cache above calls ``read_pages``/``write_pages``
— a run of consecutive pages, and a single page is a run of one — and
the transaction manager calls ``sync_append_meta`` to force its status
file to stable storage at commit.

Simulated I/O costs are charged inside the device managers, so the
layers above stay cost-model-free.

To interpose on a device (inject faults, tap writes, cache them),
subclass :class:`DeviceProxy` and override the calls of interest.
"""

from __future__ import annotations

from abc import ABC, abstractmethod, update_abstractmethods
from inspect import isfunction

from repro.errors import DeviceError


class DeviceManager(ABC):
    """Abstract device manager.

    Concrete managers must be safe for single-threaded use under the
    database's two-phase locking; they need no internal locking of
    their own beyond what Python provides.
    """

    #: switch-registered device name, e.g. ``"magnetic0"``.
    name: str

    #: True if the medium retains data across a simulated crash without
    #: an explicit flush (NVRAM, burned WORM blocks).
    nonvolatile: bool = False

    # -- relation lifecycle -------------------------------------------

    @abstractmethod
    def create_relation(self, relname: str) -> None:
        """Create an empty relation.  Idempotence is an error — the
        catalog guarantees uniqueness."""

    @abstractmethod
    def drop_relation(self, relname: str) -> None:
        """Remove a relation and free its storage (on WORM media the
        blocks are orphaned, not reclaimed)."""

    @abstractmethod
    def relation_exists(self, relname: str) -> bool: ...

    @abstractmethod
    def list_relations(self) -> list[str]: ...

    @abstractmethod
    def nblocks(self, relname: str) -> int:
        """Number of pages currently allocated to the relation."""

    # -- page I/O -------------------------------------------------------

    @abstractmethod
    def extend(self, relname: str) -> int:
        """Allocate one new zeroed page at the end of the relation and
        return its page number.  Allocation is a metadata operation; no
        data transfer is charged until the page is written."""

    @abstractmethod
    def read_pages(self, relname: str, start: int, count: int) -> list[bytes]:
        """Read ``count`` consecutive pages starting at ``start`` in one
        device operation, charging simulated I/O cost.  Managers whose
        cost model rewards contiguity (magnetic disk) charge one
        positioning plus a contiguous transfer per physical run, NVRAM
        one DMA burst, and the jukeboxes page by page
        (:class:`RelationTable`).  A negative ``count`` is a
        ``ValueError``; a run that does not lie inside the relation is a
        ``DeviceError`` raised before anything is charged."""

    @abstractmethod
    def write_pages(self, relname: str, start: int,
                    datas: list[bytes]) -> None:
        """Write ``len(datas)`` consecutive pages starting at ``start``
        durably-on-medium in one device operation — the write-side twin
        of ``read_pages``.  A run that is refused (out of range, or a
        page of the wrong size) is refused whole: no page is written and
        nothing is charged."""

    def read_page(self, relname: str, pageno: int) -> bytes:
        """Convenience: a run of one."""
        return self.read_pages(relname, pageno, 1)[0]

    def write_page(self, relname: str, pageno: int, data: bytes) -> None:
        """Convenience: a run of one."""
        self.write_pages(relname, pageno, [data])

    def page_address(self, relname: str, pageno: int):
        """Where the page sits on the medium, as a value that orders the
        pages of this device the way one pass over the medium meets
        them — the buffer cache's commit sweep writes in this order.
        Managers with a geometry (magnetic disk) return the block
        address; the default, for managers with none, orders by
        relation and page number."""
        return (relname, pageno)

    def rename_relation(self, src: str, dst: str) -> None:
        """Atomically-as-possible replace relation ``dst`` with ``src``
        (the vacuum cleaner's compacted-rewrite swap).  If ``src`` is
        already gone but ``dst`` exists, the rename is treated as
        complete — crash-recovery replay depends on this idempotence.

        The default implementation copies pages; file-backed managers
        override with a true atomic rename."""
        if not self.relation_exists(src):
            if self.relation_exists(dst):
                return  # a crashed rename that already completed
            raise DeviceError(f"no relation {src!r} on {self.name}")
        if self.relation_exists(dst):
            self.drop_relation(dst)
        self.create_relation(dst)
        for pageno in range(self.nblocks(src)):
            self.extend(dst)
            self.write_page(dst, pageno, self.read_page(src, pageno))
        self.drop_relation(src)

    # -- durability ------------------------------------------------------

    @abstractmethod
    def flush(self) -> None:
        """Force any device-private caches to stable storage."""

    @abstractmethod
    def sync_write_meta(self, tag: str, data: bytes) -> None:
        """Durably write a small metadata blob (the transaction status
        file lives here on the root device).  Must be crash-safe."""

    @abstractmethod
    def read_meta(self, tag: str) -> bytes | None:
        """Read back a metadata blob, or None if absent."""

    @abstractmethod
    def meta_tags(self) -> list[str]:
        """Every metadata tag with a stored blob, sorted.  Replication's
        base backup (:mod:`repro.replica`) copies a device relation by
        relation and meta by meta."""

    def sync_append_meta(self, tag: str, data: bytes) -> None:
        """Durably append to a metadata blob (the transaction status
        file is append-only).  Default implementation read-modify-writes;
        managers with real backing files override with a true append."""
        current = self.read_meta(tag) or b""
        self.sync_write_meta(tag, current + data)

    # -- lifecycle -------------------------------------------------------

    @abstractmethod
    def close(self) -> None: ...

    def simulate_crash(self) -> None:
        """Discard volatile device state, as a power failure would.
        Default: nothing is volatile."""

    def rebind_clock(self, clock) -> None:
        """Attach the device to a new simulated clock.  Non-volatile
        devices (NVRAM, WORM, tape) outlive the database session that
        created them; when a database is reopened, its surviving device
        instances charge their costs to the new session's clock.

        Adoption also zeroes the session counters: a metric spans
        exactly one Database session (the reset rule in
        :mod:`repro.obs.registry`), so a device carried across a
        reopen must not leak the previous session's operation counts
        into the new one.  Media state (pages, burned blocks, head and
        tape positions) is physical and survives."""
        self.clock = clock
        stats = getattr(self, "stats", None)
        if stats is not None:
            self.stats = type(stats)()
        for attr in ("disk", "staging_disk"):
            model = getattr(self, attr, None)
            if model is not None:
                model.clock = clock
                model.stats = type(model.stats)()

    # -- helpers ---------------------------------------------------------

    def describe(self) -> dict[str, object]:
        """Human-readable description for the switch listing."""
        return {"name": self.name, "type": type(self).__name__,
                "nonvolatile": self.nonvolatile}

    @staticmethod
    def _check_page(data: bytes) -> None:
        from repro.db.page import PAGE_SIZE
        if len(data) != PAGE_SIZE:
            raise ValueError(f"page write must be {PAGE_SIZE} bytes, got {len(data)}")

    @staticmethod
    def _validate_relname(relname: str) -> None:
        if not relname or any(c in relname for c in "/\\\0"):
            raise ValueError(f"bad relation name {relname!r}")


class RelState:
    """One relation on a device: how many pages it has, and where each
    page written so far lives on the medium (the manager's own value)."""

    __slots__ = ("npages", "where")

    def __init__(self) -> None:
        self.npages = 0
        self.where: dict = {}


class RelationTable(DeviceManager):
    """What every device manager keeps the same way, whatever its medium:
    the relations by name, the check that a run of pages lies inside
    its relation, made before any page or clock moves, the page-by-page
    loop behind ``read_pages`` / ``write_pages``, and metadata blobs in
    memory.

    A manager keeps only where a page lives and what touching it costs:
    ``_read_one`` / ``_write_one`` for one page of a checked run, and
    ``_free`` for the medium a dropped relation held.  Every simulated
    cost is charged in the manager's own module — never here — so that
    time booked by the module that advanced the clock lands on the
    device.  A manager whose runs cost something other than the sum of
    their pages overrides ``read_pages`` / ``write_pages``: around the
    loop (``MemDisk``'s one DMA burst) or in its place after ``_run``
    (``MagneticDisk``'s contiguous block runs).
    """

    #: Makes the state of a new relation: anything with ``npages``.
    state_type = RelState

    def __init__(self, name: str, clock) -> None:
        self.name = name
        self.clock = clock
        self._rels: dict = {}
        self._meta: dict[str, bytes] = {}

    # -- the relation table ---------------------------------------------

    def create_relation(self, relname: str) -> None:
        self._validate_relname(relname)
        if relname in self._rels:
            raise DeviceError(f"relation {relname!r} already exists on {self.name}")
        self._rels[relname] = self.state_type()

    def drop_relation(self, relname: str) -> None:
        st = self._rels.pop(relname, None)
        if st is None:
            raise DeviceError(f"no relation {relname!r} on {self.name}")
        self._free(relname, st)

    def _free(self, relname: str, st) -> None:
        """Release what the dropped relation held on the medium."""

    def relation_exists(self, relname: str) -> bool:
        return relname in self._rels

    def list_relations(self) -> list[str]:
        return list(self._rels)

    def nblocks(self, relname: str) -> int:
        return self._state(relname).npages

    def _state(self, relname: str):
        try:
            return self._rels[relname]
        except KeyError:
            raise DeviceError(f"no relation {relname!r} on {self.name}") from None

    def _run(self, relname: str, start: int, count: int, datas=()):
        """The state of ``relname``, once pages ``[start, start +
        count)`` lie inside it and every page of ``datas`` has the page
        size: a run is refused whole, before it touches anything."""
        if count < 0:
            raise ValueError(f"negative page count {count}")
        for data in datas:
            self._check_page(data)
        st = self._state(relname)
        if not (0 <= start and start + count <= st.npages):
            raise DeviceError(f"{relname!r} pages [{start}, {start + count})"
                              f" out of range ({st.npages})")
        return st

    # -- page I/O -------------------------------------------------------

    def extend(self, relname: str) -> int:
        st = self._state(relname)
        st.npages += 1
        return st.npages - 1

    def read_pages(self, relname: str, start: int, count: int) -> list[bytes]:
        st = self._run(relname, start, count)
        return [self._read_one(relname, st, pageno)
                for pageno in range(start, start + count)]

    def write_pages(self, relname: str, start: int,
                    datas: list[bytes]) -> None:
        st = self._run(relname, start, len(datas), datas)
        for pageno, data in enumerate(datas, start):
            self._write_one(relname, st, pageno, data)

    def _read_one(self, relname: str, st, pageno: int) -> bytes:
        """One page of a checked run, charging what reaching it costs."""
        raise NotImplementedError

    def _write_one(self, relname: str, st, pageno: int, data: bytes) -> None:
        """One page of a checked run, charging what reaching it costs."""
        raise NotImplementedError

    # -- metadata --------------------------------------------------------

    def sync_write_meta(self, tag: str, data: bytes) -> None:
        self._meta[tag] = bytes(data)

    def read_meta(self, tag: str) -> bytes | None:
        return self._meta.get(tag)

    def meta_tags(self) -> list[str]:
        return sorted(self._meta)


class DeviceProxy(DeviceManager):
    """A device manager that hands every interface routine to ``inner``.

    This is how to interpose on a device: subclass, override the
    routines of interest, and register the instance with
    :meth:`~repro.devices.switch.DeviceSwitch.wrap`.  Proxies stack.
    The forwarding routines are made from the ABC's own list below, so
    one added there is forwarded too; ``read_page`` / ``write_page``
    stay the ABC's runs of one, so a subclass that overrides
    ``read_pages`` / ``write_pages`` sees all page I/O."""

    def __init__(self, inner: DeviceManager) -> None:
        self.inner = inner
        self.name = inner.name
        self.nonvolatile = inner.nonvolatile

    def __getattr__(self, attr):
        # Device-specific extras (``disk``, ``stats``, ...).
        return getattr(self.inner, attr)


def _forward(name: str):
    def routine(self, *args, **kwargs):
        return getattr(self.inner, name)(*args, **kwargs)
    routine.__name__ = name
    return routine


for _name, _routine in vars(DeviceManager).items():
    if (isfunction(_routine) and not _name.startswith("_")
            and _name not in ("read_page", "write_page")):
        setattr(DeviceProxy, _name, _forward(_name))
update_abstractmethods(DeviceProxy)
