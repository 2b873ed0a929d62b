"""Rule-driven file migration between storage devices.

"Files that meet some selection criteria should be moved from fast,
expensive storage like magnetic disk to slower, cheaper storage, such
as magnetic tape.  We are exploring strategies for using the POSTGRES
predicate rules system to allow users and administrators to define
migration policies.  Arbitrarily complex rules controlling the
locations of files or groups of files would be declared to the
database manager.  When a file met the announced conditions, it would
be moved from one location in the storage hierarchy to another."

Rules are POSTQUEL qualifications over the file-system view (the same
expressions the query layer accepts, e.g.
``size(file) > 1000000 and filetype(file) = "tm_image"``), each paired
with a target device.  :meth:`MigrationEngine.run` evaluates every rule
and physically relocates matching files' chunk tables — a raw page copy
that preserves every record version, so history and time travel move
with the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.chunks import chunk_table_name
from repro.db.snapshot import BootstrapSnapshot
from repro.db.transactions import Transaction, atomic
from repro.db.tuples import Column, Schema
from repro.errors import MigrationError


@dataclass(frozen=True)
class MigrationRule:
    """One declared policy rule."""

    name: str
    qualification: str  # POSTQUEL expression over the naming view
    target_device: str
    priority: int = 0


@dataclass
class MigrationReport:
    rule: str
    moved: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)


MIGRATION_RULES_TABLE = "inv_migration_rules"
MIGRATION_RULES_SCHEMA = Schema([
    Column("rulename", "text"),
    Column("qualification", "text"),
    Column("target", "text"),
    Column("priority", "int4"),
])


class MigrationEngine:
    """Declares and executes migration rules for one mount.

    Rules are "declared to the database manager": they live in the
    ``inv_migration_rules`` table, so they are transactional, survive
    restarts, and are themselves queryable."""

    def __init__(self, fs) -> None:
        self.fs = fs
        fs.db.ensure_table(MIGRATION_RULES_TABLE, MIGRATION_RULES_SCHEMA)

    @property
    def rules(self) -> list[MigrationRule]:
        """The declared rules, highest priority first."""
        snapshot = BootstrapSnapshot(self.fs.db.tm)
        rows = [MigrationRule(*row) for _tid, row in
                self.fs.db.table(MIGRATION_RULES_TABLE).scan(snapshot)]
        rows.sort(key=lambda r: -r.priority)
        return rows

    def add_rule(self, name: str, qualification: str, target_device: str,
                 priority: int = 0) -> MigrationRule:
        if target_device not in self.fs.db.switch:
            raise MigrationError(f"no device named {target_device!r}")
        from repro.db.query.parser import parse_expression
        parse_expression(qualification)  # validate now, not at run()
        with atomic(self.fs.db) as tx:
            self.fs.db.table(MIGRATION_RULES_TABLE, tx).insert(
                tx, (name, qualification, target_device, priority))
        return MigrationRule(name, qualification, target_device, priority)

    def drop_rule(self, name: str) -> bool:
        db = self.fs.db
        with atomic(db) as tx:
            table = db.table(MIGRATION_RULES_TABLE, tx)
            for tid, row in list(table.scan(db.snapshot(tx), tx)):
                if row[0] == name:
                    table.delete(tx, tid)
                    return True
            return False

    # -- evaluation -----------------------------------------------------------

    def matching_files(self, tx: Transaction,
                       rule: MigrationRule) -> list[tuple[str, int]]:
        """(path, fileid) of plain files satisfying the rule."""
        rows = self.fs.query(
            tx, f'retrieve (filename_of(file), file) '
                f'where ({rule.qualification}) '
                f'and not (filetype(file) = "directory")')
        return [(path, fileid) for path, fileid in rows]

    def run(self, tx: Transaction) -> list[MigrationReport]:
        """Evaluate all rules (priority order) and move what matches.
        A file already on the rule's target device is skipped."""
        reports = []
        migrated: set[int] = set()
        for rule in self.rules:
            report = MigrationReport(rule.name)
            for path, fileid in self.matching_files(tx, rule):
                if fileid in migrated:
                    continue
                if self.device_of(fileid) == rule.target_device:
                    report.skipped.append(path)
                    continue
                self.move_file(tx, fileid, rule.target_device)
                migrated.add(fileid)
                report.moved.append(path)
            reports.append(report)
        return reports

    # -- mechanics --------------------------------------------------------------------

    def device_of(self, fileid: int) -> str:
        info = self.fs.db.catalog.lookup_table(
            chunk_table_name(fileid), BootstrapSnapshot(self.fs.db.tm),
            use_cache=False)
        if info is None:
            raise MigrationError(f"file {fileid} has no chunk table")
        return info.devname

    def move_file(self, tx: Transaction, fileid: int,
                  target_device: str) -> None:
        """Relocate one file's chunk table (and its chunkno index) to
        ``target_device`` by raw page copy, then repoint the catalog."""
        db = self.fs.db
        snapshot = db.snapshot(tx)
        relname = chunk_table_name(fileid)
        info = db.catalog.lookup_table(relname, snapshot, use_cache=False)
        if info is None:
            raise MigrationError(f"file {fileid} has no chunk table")
        if info.devname == target_device:
            return
        src = db.switch.get(info.devname)
        dst = db.switch.get(target_device)
        relations = [relname] + [ix.name for ix in info.indexes]
        for rel in relations:
            db.buffers.flush_relation(info.devname, rel)
            db.buffers.drop_relation(info.devname, rel)
            # An earlier copy may still be there: a move away whose drop
            # waits for its group's force, or an aborted move.
            db._reclaim_orphan(dst, rel, relname)
            dst.create_relation(rel)
            for pageno in range(src.nblocks(rel)):
                dst.extend(rel)
                dst.write_page(rel, pageno, src.read_page(rel, pageno))
        # Repoint the catalog rows (transactional: an abort leaves the
        # old rows visible and the copies orphaned but harmless).
        self._repoint(tx, relname, target_device)
        # Release the source copies at commit.
        for rel in relations:
            tx._pending_drops.append((info.devname, rel))

    def _repoint(self, tx: Transaction, relname: str, devname: str) -> None:
        db = self.fs.db
        db.execute(tx, f'replace c (devname = "{devname}") '
                       f'from c in pg_class where c.relname = "{relname}"')
        # The query engine wrote a pg_class row version the catalog's
        # maps have never seen.
        db.catalog.invalidate_cache()
        tx.abort_hooks.append(db.catalog.invalidate_cache)
