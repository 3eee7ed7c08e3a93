"""A file-backed FIFO tuple store (Figure 3's "Persistent Store").

The engine's :class:`~repro.core.storage.StorageManager` *accounts* for
spill I/O on the virtual clock; this module provides the physical
layer for deployments that really need to shed memory: an append-only
segment file of pickled tuples with a read cursor, compacted when the
consumed prefix dominates.

Design points, standard for queue-on-disk implementations:

* append-only writes, sequential reads (both O(1) amortized);
* a length-prefixed record format, so partially written trailing
  records (a crash mid-append) are detected and discarded on open;
* compaction rewrites the unread suffix once the dead prefix exceeds
  ``compact_threshold`` bytes.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import tempfile

from repro.core.tuples import StreamTuple
from repro.obs.trace import TraceContext

_LENGTH = struct.Struct("<I")


class SpillError(RuntimeError):
    """Raised for corrupt spill files or misuse."""


class SpillFile:
    """An on-disk FIFO of tuples.

    Args:
        path: backing file (a temp file is created if omitted).
        compact_threshold: dead bytes tolerated before compaction.
    """

    def __init__(self, path: str | None = None, compact_threshold: int = 1 << 20):
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-spill-", suffix=".q")
            os.close(fd)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = path
        self.compact_threshold = compact_threshold
        # "r+b", not "a+b": append mode would pin every write to the
        # end of file (O_APPEND), silently breaking compaction's
        # rewrite-at-front.
        if not os.path.exists(path):
            with open(path, "wb"):
                pass
        self._file = open(path, "r+b")
        self._read_offset = 0
        self._count = 0
        self._recover()

    # -- recovery ---------------------------------------------------------------

    def _recover(self) -> None:
        """Scan existing records; truncate a torn trailing record."""
        self._file.seek(0)
        offset = 0
        count = 0
        while True:
            header = self._file.read(_LENGTH.size)
            if len(header) < _LENGTH.size:
                break
            (length,) = _LENGTH.unpack(header)
            payload = self._file.read(length)
            if len(payload) < length:
                break  # torn write: discard from `offset`
            offset += _LENGTH.size + length
            count += 1
        self._file.truncate(offset)
        self._count = count
        self._read_offset = 0
        self._file.seek(0, io.SEEK_END)

    # -- queue operations --------------------------------------------------------

    def append(self, tup: StreamTuple) -> None:
        """Durably append one tuple (a sampled one with its trace ids)."""
        ctx = tup.trace
        payload = pickle.dumps(
            (tup.values, tup.timestamp, ctx and (ctx.trace_id, ctx.span_id)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._file.seek(0, io.SEEK_END)
        self._file.write(_LENGTH.pack(len(payload)))
        self._file.write(payload)
        self._file.flush()
        self._count += 1

    def pop(self) -> StreamTuple:
        """Read and consume the oldest tuple."""
        if self._count == 0:
            raise SpillError("spill file is empty")
        self._file.seek(self._read_offset)
        header = self._file.read(_LENGTH.size)
        (length,) = _LENGTH.unpack(header)
        payload = self._file.read(length)
        if len(payload) < length:
            raise SpillError(f"corrupt record at offset {self._read_offset}")
        values, timestamp, trace = pickle.loads(payload)
        self._read_offset += _LENGTH.size + length
        self._count -= 1
        if self._read_offset >= self.compact_threshold:
            self._compact()
        return StreamTuple(values, timestamp, trace and TraceContext(*trace))

    def _compact(self) -> None:
        """Drop the consumed prefix by rewriting the live suffix."""
        self._file.seek(self._read_offset)
        remainder = self._file.read()
        self._file.seek(0)
        self._file.write(remainder)
        self._file.truncate(len(remainder))
        self._file.flush()
        self._read_offset = 0

    def __len__(self) -> int:
        return self._count

    @property
    def file_bytes(self) -> int:
        """Current on-disk size (including any un-compacted dead prefix)."""
        self._file.seek(0, io.SEEK_END)
        return self._file.tell()

    def close(self, delete: bool | None = None) -> None:
        """Close (and, for owned temp files, delete) the backing file."""
        self._file.close()
        should_delete = self._owns_file if delete is None else delete
        if should_delete and os.path.exists(self.path):
            os.unlink(self.path)

    def __enter__(self) -> "SpillFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
