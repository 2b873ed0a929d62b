"""The Inversion shell tool.

Usage::

    python -m repro.fs DBDIR mkfs
    python -m repro.fs DBDIR mkdir /docs
    python -m repro.fs DBDIR put /docs/readme.txt local.txt
    python -m repro.fs DBDIR cat /docs/readme.txt [--asof T]
    python -m repro.fs DBDIR ls [/path] [--asof T]
    python -m repro.fs DBDIR stat /docs/readme.txt
    python -m repro.fs DBDIR rm /docs/readme.txt
    python -m repro.fs DBDIR query 'retrieve (filename) where size(file) > 0'
    python -m repro.fs DBDIR history /docs/readme.txt
    python -m repro.fs DBDIR check
    python -m repro.fs DBDIR vacuum /docs/readme.txt
    python -m repro.fs DBDIR devices

``--asof`` takes a simulated timestamp (see ``history``) and shows the
file system as it was at that instant.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.checker import ConsistencyChecker
from repro.core.chunks import chunk_table_name
from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.db.database import Database
from repro.errors import ReproError


def _open(dbdir: str, create: bool = False):
    if create:
        db = Database.create(dbdir)
        fs = InversionFS.mkfs(db)
    else:
        db = Database.open(dbdir)
        fs = InversionFS.attach(db)
    return db, fs


def cmd_mkfs(args) -> int:
    db, _fs = _open(args.dbdir, create=True)
    print(f"created Inversion file system in {args.dbdir}")
    db.close()
    return 0


def cmd_ls(args) -> int:
    db, fs = _open(args.dbdir)
    try:
        for name in fs.readdir(args.path, timestamp=args.asof):
            child = args.path.rstrip("/") + "/" + name
            att = fs.stat(child, timestamp=args.asof)
            marker = "/" if att.type == "directory" else " "
            print(f"{att.size:>12}  {att.type:<14} {name}{marker}")
    finally:
        db.close()
    return 0


def cmd_cat(args) -> int:
    db, fs = _open(args.dbdir)
    try:
        sys.stdout.buffer.write(fs.read_file(args.path, timestamp=args.asof))
    finally:
        db.close()
    return 0


def cmd_put(args) -> int:
    db, fs = _open(args.dbdir)
    try:
        with open(args.local, "rb") as f:
            data = f.read()
        client = InversionClient(fs)
        client.p_begin()
        tx = client._tx
        fs.write_file(tx, args.path, data, owner=args.owner)
        client.p_commit()
        print(f"wrote {len(data)} bytes to {args.path}")
    finally:
        db.close()
    return 0


def cmd_mkdir(args) -> int:
    db, fs = _open(args.dbdir)
    try:
        client = InversionClient(fs)
        client.p_mkdir(args.path)
        print(f"created directory {args.path}")
    finally:
        db.close()
    return 0


def cmd_rm(args) -> int:
    db, fs = _open(args.dbdir)
    try:
        client = InversionClient(fs)
        before = db.clock.now()
        client.p_unlink(args.path)
        print(f"removed {args.path} (recoverable: "
              f"cat --asof {before:.6f})")
    finally:
        db.close()
    return 0


def cmd_stat(args) -> int:
    db, fs = _open(args.dbdir)
    try:
        att = fs.stat(args.path, timestamp=args.asof)
        print(f"file id : {att.file}")
        print(f"owner   : {att.owner}")
        print(f"type    : {att.type}")
        print(f"size    : {att.size}")
        print(f"ctime   : {att.ctime:.6f}")
        print(f"mtime   : {att.mtime:.6f}")
        print(f"atime   : {att.atime:.6f}")
        if att.type != "directory":
            print(f"table   : {chunk_table_name(att.file)}")
    finally:
        db.close()
    return 0


def cmd_query(args) -> int:
    db, fs = _open(args.dbdir)
    try:
        client = InversionClient(fs)
        for row in client.p_query(args.text):
            print("\t".join(str(v) for v in row))
    finally:
        db.close()
    return 0


def cmd_history(args) -> int:
    """List the committed instants at which the file changed."""
    db, fs = _open(args.dbdir)
    try:
        name = chunk_table_name(fs.resolve(args.path))
        heaps = [db.table(name).heap, db.archive_heap_for(name)]
        instants = set()
        for heap in filter(None, heaps):
            for _tid, xmin, _xmax, _values in heap.scan_all_versions():
                when = db.tm.commit_time(xmin)
                if when is not None:
                    instants.add(when)
        print(f"{args.path}: {len(instants)} committed change instants")
        for when in sorted(instants):
            print(f"  --asof {when:.6f}")
    finally:
        db.close()
    return 0


def cmd_check(args) -> int:
    db, fs = _open(args.dbdir)
    try:
        report = ConsistencyChecker(fs).check_all()
        print(f"checked {report.files_checked} files, "
              f"{report.chunks_checked} chunk versions")
        for c in report.corruptions:
            print(f"  CORRUPT file {c.fileid} chunk {c.chunkno}: "
                  f"{c.kind} — {c.detail}")
        return 0 if report.clean else 1
    finally:
        db.close()


def cmd_vacuum(args) -> int:
    db, fs = _open(args.dbdir)
    try:
        table = chunk_table_name(fs.resolve(args.path))
        stats = db.vacuum(table, archive_device=args.device,
                          keep_history=not args.discard)
        print(f"vacuumed {table}: scanned={stats.scanned} "
              f"archived={stats.archived} expunged={stats.expunged} "
              f"pages {stats.pages_before}->{stats.pages_after}")
    finally:
        db.close()
    return 0


def cmd_devices(args) -> int:
    db, _fs = _open(args.dbdir)
    try:
        for row in db.switch.describe():
            default = " (default)" if row["default"] else ""
            print(f"{row['name']:<12} {row['type']:<14} "
                  f"nonvolatile={row['nonvolatile']}{default}")
    finally:
        db.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.fs")
    parser.add_argument("dbdir", help="Inversion database directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("mkfs").set_defaults(fn=cmd_mkfs)

    p = sub.add_parser("ls")
    p.add_argument("path", nargs="?", default="/")
    p.add_argument("--asof", type=float, default=None)
    p.set_defaults(fn=cmd_ls)

    p = sub.add_parser("cat")
    p.add_argument("path")
    p.add_argument("--asof", type=float, default=None)
    p.set_defaults(fn=cmd_cat)

    p = sub.add_parser("put")
    p.add_argument("path")
    p.add_argument("local")
    p.add_argument("--owner", default="root")
    p.set_defaults(fn=cmd_put)

    p = sub.add_parser("mkdir")
    p.add_argument("path")
    p.set_defaults(fn=cmd_mkdir)

    p = sub.add_parser("rm")
    p.add_argument("path")
    p.set_defaults(fn=cmd_rm)

    p = sub.add_parser("stat")
    p.add_argument("path")
    p.add_argument("--asof", type=float, default=None)
    p.set_defaults(fn=cmd_stat)

    p = sub.add_parser("query")
    p.add_argument("text")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("history")
    p.add_argument("path")
    p.set_defaults(fn=cmd_history)

    sub.add_parser("check").set_defaults(fn=cmd_check)

    p = sub.add_parser("vacuum")
    p.add_argument("path")
    p.add_argument("--device", default=None)
    p.add_argument("--discard", action="store_true",
                   help="discard old versions instead of archiving them")
    p.set_defaults(fn=cmd_vacuum)

    sub.add_parser("devices").set_defaults(fn=cmd_devices)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
