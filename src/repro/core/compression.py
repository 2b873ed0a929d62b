"""Compressed files with random access ("Services Under Investigation").

"Inversion supports compression and uncompression of 'chunks' of user
files.  Special indices are maintained indicating the sizes of the
uncompressed and compressed chunks.  Random access on the uncompressed
version is straightforward.  Inversion determines which compressed
chunk contains the bytes of interest, uncompresses it, and returns the
user only the desired data."

Layout: a compressed file's chunk table stores one *compressed* blob
per logical chunk (the chunk number is the logical index, so the
existing chunkno B-tree doubles as the paper's "special index" into the
compressed stream).  A catalog table ``inv_compression`` records, per
file, the codec, the logical chunk size, and the uncompressed length.
The per-chunk compressed sizes live with the data records themselves.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.core.chunks import ChunkStore
from repro.core.constants import CHUNK_SIZE
from repro.db.snapshot import Snapshot
from repro.db.transactions import Transaction
from repro.db.tuples import Column, Schema
from repro.errors import FileNotFoundError_, InversionError

COMPRESSION_TABLE = "inv_compression"
COMPRESSION_SCHEMA = Schema([
    Column("file", "oid"),
    Column("codec", "text"),
    Column("chunk_size", "int4"),
    Column("usize", "int8"),
])
COMPRESSION_INDEXES = (("file",),)

_CODECS = {
    "zlib": (lambda b: zlib.compress(b, 6), zlib.decompress),
    "zlib-fast": (lambda b: zlib.compress(b, 1), zlib.decompress),
    "zlib-best": (lambda b: zlib.compress(b, 9), zlib.decompress),
    "none": (lambda b: b, lambda b: b),
}


@dataclass(frozen=True)
class CompressionInfo:
    file: int
    codec: str
    chunk_size: int
    usize: int


class CompressionService:
    """Create and read chunk-compressed Inversion files."""

    def __init__(self, fs) -> None:
        self.fs = fs
        fs.db.ensure_table(COMPRESSION_TABLE, COMPRESSION_SCHEMA,
                           indexes=COMPRESSION_INDEXES)

    # -- write path ---------------------------------------------------------

    def create_compressed(self, tx: Transaction, path: str, data: bytes,
                          codec: str = "zlib",
                          chunk_size: int = CHUNK_SIZE,
                          owner: str = "root",
                          device: str | None = None) -> int:
        """Store ``data`` at ``path`` compressed chunk-by-chunk."""
        if codec not in _CODECS:
            raise InversionError(f"unknown codec {codec!r}")
        compress, _decompress = _CODECS[codec]
        fileid = self.fs.creat(tx, path, owner=owner, ftype="plain",
                               device=device)
        store = ChunkStore(self.fs.db, fileid, tx)
        stored = 0
        for chunkno in range(0, max(1, (len(data) + chunk_size - 1) // chunk_size)):
            piece = data[chunkno * chunk_size:(chunkno + 1) * chunk_size]
            blob = compress(piece)
            if len(blob) > CHUNK_SIZE:
                # Incompressible chunk grew past a record: store raw with
                # a marker codec per-chunk is overkill — fall back by
                # storing the original (codec 'none' semantics per chunk
                # would need a flag; we simply require codecs that fit).
                raise InversionError(
                    f"compressed chunk {chunkno} exceeds record capacity")
            store.write_chunk(tx, chunkno, blob)
            stored += len(blob)
        store.flush(tx)
        self.fs.fileatt.update(tx, fileid, size=stored,
                               mtime=self.fs.db.clock.now())
        self.fs.db.table(COMPRESSION_TABLE, tx).insert(
            tx, (fileid, codec, chunk_size, len(data)))
        return fileid

    # -- metadata --------------------------------------------------------------

    def info(self, path: str, tx: Transaction | None = None,
             timestamp: float | None = None) -> CompressionInfo:
        snapshot = self.fs._snap(tx, timestamp)
        fileid = self.fs.namespace.resolve(path, snapshot, tx)
        return self._info_for(fileid, snapshot, tx)

    def _info_for(self, fileid: int, snapshot: Snapshot,
                  tx: Transaction | None) -> CompressionInfo:
        table = self.fs.db.table(COMPRESSION_TABLE, tx)
        for _tid, row in table.index_eq(("file",), (fileid,), snapshot, tx):
            return CompressionInfo(*row)
        raise FileNotFoundError_(f"file {fileid} is not compressed")

    def compression_ratio(self, path: str,
                          tx: Transaction | None = None) -> float:
        """stored bytes / uncompressed bytes."""
        info = self.info(path, tx)
        att = self.fs.stat(path, tx)
        return att.size / info.usize if info.usize else 1.0

    # -- read path -----------------------------------------------------------------

    def read(self, path: str, offset: int, nbytes: int,
             tx: Transaction | None = None,
             timestamp: float | None = None) -> bytes:
        """Random access into the uncompressed byte stream: only the
        compressed chunks covering [offset, offset+nbytes) are fetched
        and uncompressed."""
        snapshot = self.fs._snap(tx, timestamp)
        fileid = self.fs.namespace.resolve(path, snapshot, tx)
        info = self._info_for(fileid, snapshot, tx)
        _compress, decompress = _CODECS[info.codec]
        if offset >= info.usize:
            return b""
        nbytes = min(nbytes, info.usize - offset)
        store = ChunkStore(self.fs.db, fileid, tx)
        out = bytearray()
        pos = offset
        end = offset + nbytes
        while pos < end:
            chunkno = pos // info.chunk_size
            within = pos % info.chunk_size
            blob = store.read_chunk(chunkno, snapshot, tx)
            piece = decompress(blob)
            take = min(len(piece) - within, end - pos)
            if take <= 0:
                break
            out += piece[within:within + take]
            pos += take
        return bytes(out)

    def read_all(self, path: str, tx: Transaction | None = None,
                 timestamp: float | None = None) -> bytes:
        info = self.info(path, tx, timestamp)
        return self.read(path, 0, info.usize, tx, timestamp)

    def chunks_touched(self, info: CompressionInfo, offset: int,
                       nbytes: int) -> int:
        """How many compressed chunks a read must uncompress — the
        quantity the paper's design minimizes."""
        if nbytes <= 0:
            return 0
        first = offset // info.chunk_size
        last = (offset + nbytes - 1) // info.chunk_size
        return last - first + 1
