"""Hadoop IFile-compatible intermediate file format.

Each record is framed as ``<vint key_len><vint value_len><key><value>``;
the stream ends with an EOF marker (two ``vint(-1)`` bytes) and a 4-byte
CRC32.  That framing is the "non-zero overhead per key/value pair" Fig 8
charges to "File overhead": 2 bytes per small record plus a 6-byte
trailer, which is exactly how the paper's 26,000,006-byte file decomposes
(10^6 records x (2 + 20 + 4) + 6).

The writer optionally compresses the whole record stream through a
pluggable :class:`~repro.mapreduce.codecs.Codec` -- the hook the paper's
§III codec plugs into -- and reports a byte-accounting breakdown
(:class:`IFileStats`) so experiments can print the values/keys/overhead
split of Fig 8 directly.

Chunked block format
--------------------
A second, opt-in layout (``block_bytes=...`` on the writer) chops the
record stream into independently compressed blocks of roughly
``block_bytes`` raw bytes, each with its own CRC32, plus a checksummed
footer describing every block::

    MAGIC(4) | comp_block_0 | ... | comp_block_k | footer
             | footer_len (4B BE) | footer_crc32 (4B BE)

    footer = vint nblocks, then per block:
             vint records, vint raw_len, vint comp_len, crc32 (4B BE)

Records never span blocks.  A bit-flip now localizes to one block: the
reader raises :class:`IFileBlockCorruptError` naming the block, and
:meth:`IFileReader.read_salvage` recovers every healthy block so the
skipping runtime quarantines only the damaged records instead of
re-running the producing map task (whole-segment repair).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.mapreduce.codecs import Codec, NullCodec
from repro.mapreduce.columnar import Ragged, split_rows
from repro.util.bytebuf import ByteBuffer
from repro.util.errors import CorruptRecordError, MalformedRecordError
from repro.util.fsio import atomic_write_bytes
from repro.util.varint import read_vlong, write_vlong

__all__ = [
    "IFileStats",
    "IFileWriter",
    "IFileReader",
    "IFileCorruptError",
    "IFileBlockCorruptError",
    "BadBlock",
    "SegmentDigest",
    "segment_digest",
    "BLOCK_MAGIC",
    "EOF_MARKER_BYTES",
    "TRAILER_BYTES",
]


class IFileCorruptError(CorruptRecordError):
    """A segment failed its integrity checks (checksum, framing, EOF).

    Carries the offending ``path`` (when the segment was read from a
    file) so a task runtime can identify *which* map output to
    re-execute -- Hadoop's fetch-failure -> re-run-the-mapper protocol.
    """

    def __init__(self, message: str, path: str | None = None) -> None:
        super().__init__(message if path is None else f"{message}: {path}")
        self.path = path


class IFileBlockCorruptError(IFileCorruptError):
    """One block of a chunked segment failed its CRC or decode.

    Unlike :class:`IFileCorruptError` this is *recoverable without the
    producing task*: the rest of the segment is intact, so a reader can
    salvage it via :meth:`IFileReader.read_salvage` and quarantine only
    the ``records_lost`` records of block ``block_index``.
    """

    def __init__(self, message: str, path: str | None = None,
                 block_index: int | None = None,
                 records_lost: int = 0) -> None:
        if block_index is not None:
            message = f"{message} (block {block_index})"
        super().__init__(message, path)
        self.block_index = block_index
        self.records_lost = records_lost


@dataclass(frozen=True)
class BadBlock:
    """A corrupt block surfaced by :meth:`IFileReader.read_salvage`.

    ``records`` is the record count the footer promised for the block
    (what was lost); ``raw`` is the compressed block bytes as stored, for
    quarantine side-files.
    """

    index: int
    records: int
    raw: bytes


@dataclass(frozen=True)
class SegmentDigest:
    """Cheap transfer-verification metadata for one segment.

    Both IFile layouts end in a big-endian CRC32 (the stream checksum
    for the plain layout, the footer checksum for the chunked layout),
    so ``(length, trailing CRC)`` identifies a segment's bytes without
    decompressing or decoding anything.  The shuffle transport sends
    this ahead of the chunk stream; the receiver re-derives it from the
    assembled bytes to detect truncated or spliced transfers.
    """

    length: int
    crc: int

    def matches(self, blob: bytes) -> bool:
        """Whether ``blob`` is plausibly the digested segment."""
        return (len(blob) == self.length and self.length >= 4
                and int.from_bytes(blob[-4:], "big") == self.crc)


def segment_digest(source: str | os.PathLike | bytes) -> SegmentDigest:
    """Digest a segment file (or its bytes) without a full decode.

    For a path this is one ``stat`` plus a 4-byte read at the tail --
    the fetcher-side cost of transfer verification is O(1) regardless
    of segment size.  A segment too short to even carry its trailer
    raises :class:`IFileCorruptError` (a truncated footer must never
    surface as a raw ``struct.error`` or silent garbage).
    """
    if isinstance(source, (str, os.PathLike)):
        path: str | None = os.fspath(source)
        size = os.path.getsize(path)
        if size < TRAILER_BYTES:
            raise IFileCorruptError(
                f"segment too short to digest ({size} bytes)", path)
        with open(path, "rb") as fh:
            fh.seek(size - 4)
            tail = fh.read(4)
    else:
        path = None
        blob = bytes(source)
        size = len(blob)
        if size < TRAILER_BYTES:
            raise IFileCorruptError(
                f"segment too short to digest ({size} bytes)", path)
        tail = blob[-4:]
    return SegmentDigest(length=size, crc=int.from_bytes(tail, "big"))


#: leading bytes of the chunked block format.  0x93 decodes as vint key
#: length -109, which a plain segment can never legitimately start with,
#: so the two layouts are distinguishable from the first byte.
BLOCK_MAGIC = b"\x93IFB"
#: two vint(-1) bytes
EOF_MARKER_BYTES = 2
#: EOF marker + CRC32
TRAILER_BYTES = EOF_MARKER_BYTES + 4


def _frame(key_len: int, value_len: int) -> bytes:
    """The varint pair that frames one record."""
    frame = bytearray()
    write_vlong(key_len, frame)
    write_vlong(value_len, frame)
    return bytes(frame)


@dataclass
class IFileStats:
    """Byte accounting for one IFile segment."""

    records: int = 0
    key_bytes: int = 0
    value_bytes: int = 0
    #: per-record varint framing plus the 6-byte trailer
    overhead_bytes: int = 0
    #: on-disk (post-codec) size; equals raw_bytes for the null codec
    materialized_bytes: int = 0

    @property
    def raw_bytes(self) -> int:
        """Total uncompressed stream size."""
        return self.key_bytes + self.value_bytes + self.overhead_bytes

    def merge(self, other: "IFileStats") -> None:
        self.records += other.records
        self.key_bytes += other.key_bytes
        self.value_bytes += other.value_bytes
        self.overhead_bytes += other.overhead_bytes
        self.materialized_bytes += other.materialized_bytes


class IFileWriter:
    """Write an IFile segment to ``path`` (or keep it in memory).

    Usage::

        writer = IFileWriter(path, codec)
        writer.append(key_bytes, value_bytes)
        stats = writer.close()

    With ``block_bytes`` set the segment uses the chunked block layout
    (module docstring): records are sealed into independently
    compressed, individually checksummed blocks of about ``block_bytes``
    raw bytes each, so corruption localizes to one block.
    """

    def __init__(self, path: str | os.PathLike | None, codec: Codec | None = None,
                 atomic: bool = False, block_bytes: int | None = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.codec = codec if codec is not None else NullCodec()
        #: write to a temp file and rename into place on close, so a
        #: reader (or a crashed writer) never observes a partial segment
        self.atomic = atomic
        if block_bytes is not None and block_bytes < 256:
            raise ValueError(f"block_bytes must be >= 256, got {block_bytes}")
        self.block_bytes = block_bytes
        self._buf = ByteBuffer()
        self._block_buf = ByteBuffer()
        self._block_records = 0
        #: per sealed block: (records, raw_len, comp_len, crc32)
        self._blocks: list[tuple[int, int, int, int]] = []
        self.stats = IFileStats()
        self._closed = False
        self._blob: bytes | None = None

    def append(self, key: bytes, value: bytes) -> None:
        """Append one serialized record."""
        if self._closed:
            raise RuntimeError("writer already closed")
        frame = _frame(len(key), len(value))
        self.stats.overhead_bytes += len(frame)
        self.stats.key_bytes += len(key)
        self.stats.value_bytes += len(value)
        self.stats.records += 1
        if self.block_bytes is None:
            self._buf.write(frame)
            self._buf.write(key)
            self._buf.write(value)
            return
        self._block_buf.write(frame)
        self._block_buf.write(key)
        self._block_buf.write(value)
        self._block_records += 1
        if len(self._block_buf) >= self.block_bytes:
            self._seal_block()

    def append_batch(self, keys: np.ndarray, values: np.ndarray | Ragged) -> None:
        """Append many records with one key width in a few numpy passes.

        ``keys`` is an ``(n, key_size)`` uint8 matrix and ``values`` a
        value column: an ``(n, value_size)`` uint8 matrix, or a
        :class:`~repro.mapreduce.columnar.Ragged` column of any lengths.
        The stream bytes, the block boundaries of the chunked layout and
        :class:`IFileStats` are identical to calling :meth:`append` row
        by row: a fixed-width frame is one varint pair for every record,
        a ragged one is built from a table of one frame per distinct
        value length.
        """
        if self._closed:
            raise RuntimeError("writer already closed")
        n, kw = keys.shape
        ragged = type(values) is Ragged
        nv = values.rows if ragged else values.shape[0]
        if n != nv:
            raise ValueError(f"{n} keys vs {nv} values")
        if n == 0:
            return
        if ragged:
            lengths = values.lengths()
            distinct, which = np.unique(lengths, return_inverse=True)
            frames = Ragged.from_table(
                [_frame(kw, vlen) for vlen in distinct.tolist()], which)
            stream = Ragged.hstack(frames, keys, values)
            self.stats.overhead_bytes += frames.data.shape[0]
            self.stats.value_bytes += values.data.shape[0]
            flat, ends = stream.data.tobytes(), stream.offsets[1:]
        else:
            vw = values.shape[1]
            frame = _frame(kw, vw)
            flen = len(frame)
            pitch = flen + kw + vw
            out = np.empty((n, pitch), dtype=np.uint8)
            out[:, :flen] = np.frombuffer(frame, dtype=np.uint8)
            out[:, flen:flen + kw] = keys
            out[:, flen + kw:] = values
            self.stats.overhead_bytes += flen * n
            self.stats.value_bytes += vw * n
            flat, ends = out.tobytes(), None
        self.stats.key_bytes += kw * n
        self.stats.records += n
        if self.block_bytes is None:
            self._buf.write(flat)
            return
        if ends is None:
            ends = np.arange(1, n + 1, dtype=np.int64) * pitch
        row = 0
        while row < n:
            # records up to the one whose append brings the pending block
            # to ``block_bytes`` -- where per-record appends seal it
            base = int(ends[row - 1]) if row else 0
            stop = min(n, 1 + int(np.searchsorted(
                ends, base + self.block_bytes - len(self._block_buf))))
            self._block_buf.write(flat[base:int(ends[stop - 1])])
            self._block_records += stop - row
            row = stop
            if len(self._block_buf) >= self.block_bytes:
                self._seal_block()

    def _seal_block(self) -> None:
        """Compress and checksum the pending block, if any."""
        if self._block_records == 0:
            return
        raw = self._block_buf.getvalue()
        comp = self.codec.compress(raw)
        self._blocks.append(
            (self._block_records, len(raw), len(comp), zlib.crc32(comp))
        )
        self._buf.write(comp)
        self._block_buf.clear()
        self._block_records = 0

    def close(self) -> IFileStats:
        """Finish the segment; returns the final byte accounting."""
        if self._closed:
            return self.stats
        self._closed = True
        if self.block_bytes is None:
            tail = bytearray()
            write_vlong(-1, tail)
            write_vlong(-1, tail)
            assert len(tail) == EOF_MARKER_BYTES
            self._buf.write(tail)
            payload = self._buf.getvalue()
            compressed = self.codec.compress(payload)
            crc = zlib.crc32(compressed)
            blob = compressed + crc.to_bytes(4, "big")
            self.stats.overhead_bytes += TRAILER_BYTES
        else:
            self._seal_block()
            footer = bytearray()
            write_vlong(len(self._blocks), footer)
            for nrec, raw_len, comp_len, crc in self._blocks:
                write_vlong(nrec, footer)
                write_vlong(raw_len, footer)
                write_vlong(comp_len, footer)
                footer.extend(crc.to_bytes(4, "big"))
            blob = (
                BLOCK_MAGIC
                + self._buf.getvalue()
                + bytes(footer)
                + len(footer).to_bytes(4, "big")
                + zlib.crc32(bytes(footer)).to_bytes(4, "big")
            )
            self.stats.overhead_bytes += len(BLOCK_MAGIC) + len(footer) + 8
        self.stats.materialized_bytes = len(blob)
        if self.path is not None:
            if self.atomic:
                # Durable commit: fsync the temp file before the rename
                # (and the directory after), so a crash can never
                # surface an empty or truncated *committed* segment --
                # the rename target is always a valid IFile.
                atomic_write_bytes(self.path, blob)
            else:
                with open(self.path, "wb") as fh:
                    fh.write(blob)
        else:
            self._blob = blob
        self._buf.clear()
        self._block_buf.clear()
        return self.stats

    def getvalue(self) -> bytes:
        """In-memory segment bytes (only for ``path=None`` writers)."""
        if not self._closed:
            raise RuntimeError("close() the writer first")
        if self._blob is None:
            raise RuntimeError("segment was written to a file, not memory")
        return self._blob


class IFileReader:
    """Iterate ``(key_bytes, value_bytes)`` records of an IFile segment.

    Handles both the plain layout and the chunked block layout
    transparently (dispatch on the leading :data:`BLOCK_MAGIC` bytes).
    With ``verify_checksum=True`` a corrupt *block* raises
    :class:`IFileBlockCorruptError` at construction -- catch it, re-open
    with ``verify_checksum=False`` and call :meth:`read_salvage` to
    recover the healthy remainder.
    """

    def __init__(
        self,
        source: str | os.PathLike | bytes,
        codec: Codec | None = None,
        verify_checksum: bool = True,
        path: str | None = None,
    ) -> None:
        """``path`` attaches provenance to a reader over in-memory bytes
        (e.g. a fetched shuffle transfer), so integrity errors still name
        the on-disk segment the repair/re-execution ladder must target."""
        if isinstance(source, (str, os.PathLike)):
            self.path: str | None = os.fspath(source)
            with open(source, "rb") as fh:
                blob = fh.read()
        else:
            self.path = path
            blob = bytes(source)
        self._codec = codec if codec is not None else NullCodec()
        self._blocked = blob.startswith(BLOCK_MAGIC)
        if self._blocked:
            self._payload = b""
            self._init_blocked(blob, verify_checksum)
            return
        self._blob = b""
        self._blocks: list[tuple[int, int, int, int]] = []
        self._block_offsets: list[int] = []
        if len(blob) < TRAILER_BYTES:
            raise IFileCorruptError(
                f"segment too short ({len(blob)} bytes)", self.path)
        body, crc_bytes = blob[:-4], blob[-4:]
        if verify_checksum and zlib.crc32(body) != int.from_bytes(crc_bytes, "big"):
            raise IFileCorruptError("IFile checksum mismatch", self.path)
        self._payload = self._codec.decompress(body)
        if len(self._payload) < EOF_MARKER_BYTES:
            raise MalformedRecordError(
                "decompressed payload missing EOF marker", path=self.path)

    def _init_blocked(self, blob: bytes, verify_checksum: bool) -> None:
        """Parse and (optionally) verify the chunked block layout."""
        self._blob = blob
        if len(blob) < len(BLOCK_MAGIC) + 9:
            raise IFileCorruptError(
                f"blocked segment too short ({len(blob)} bytes)", self.path)
        footer_len = int.from_bytes(blob[-8:-4], "big")
        footer_crc = int.from_bytes(blob[-4:], "big")
        if footer_len < 1 or len(BLOCK_MAGIC) + footer_len + 8 > len(blob):
            raise IFileCorruptError(
                f"bad block footer length {footer_len}", self.path)
        footer = blob[len(blob) - 8 - footer_len:len(blob) - 8]
        if zlib.crc32(footer) != footer_crc:
            raise IFileCorruptError("block footer checksum mismatch", self.path)
        try:
            nblocks, offset = read_vlong(footer, 0)
            if nblocks < 0:
                raise IFileCorruptError(
                    f"bad block count {nblocks}", self.path)
            blocks = []
            for _ in range(nblocks):
                nrec, offset = read_vlong(footer, offset)
                raw_len, offset = read_vlong(footer, offset)
                comp_len, offset = read_vlong(footer, offset)
                if offset + 4 > len(footer):
                    raise IFileCorruptError("truncated block footer", self.path)
                crc = int.from_bytes(footer[offset:offset + 4], "big")
                offset += 4
                if nrec < 0 or raw_len < 0 or comp_len < 0:
                    raise IFileCorruptError("malformed block footer", self.path)
                blocks.append((nrec, raw_len, comp_len, crc))
            if offset != len(footer):
                raise IFileCorruptError(
                    "trailing bytes in block footer", self.path)
        except IFileCorruptError:
            raise
        except CorruptRecordError as exc:
            raise IFileCorruptError(
                f"malformed block footer: {exc}", self.path) from exc
        body_len = len(blob) - len(BLOCK_MAGIC) - footer_len - 8
        if sum(b[2] for b in blocks) != body_len:
            raise IFileCorruptError(
                "block sizes disagree with segment length", self.path)
        offsets = []
        pos = len(BLOCK_MAGIC)
        for _, _, comp_len, _ in blocks:
            offsets.append(pos)
            pos += comp_len
        self._blocks = blocks
        self._block_offsets = offsets
        if verify_checksum:
            for i, (nrec, _, comp_len, crc) in enumerate(blocks):
                start = offsets[i]
                if zlib.crc32(blob[start:start + comp_len]) != crc:
                    raise IFileBlockCorruptError(
                        "block checksum mismatch", self.path,
                        block_index=i, records_lost=nrec)

    @property
    def is_blocked(self) -> bool:
        """True when the segment uses the chunked block layout."""
        return self._blocked

    def _decode_block(self, index: int) -> list[tuple[bytes, bytes]]:
        """Decompress and decode one block into its records (strict)."""
        nrec, raw_len, comp_len, _ = self._blocks[index]
        start = self._block_offsets[index]
        raw = self._codec.decompress(self._blob[start:start + comp_len])
        if len(raw) != raw_len:
            raise MalformedRecordError(
                f"block {index} decompressed to {len(raw)} bytes, "
                f"footer says {raw_len}", path=self.path)
        buf = memoryview(raw)
        offset = 0
        records = []
        for r in range(nrec):
            key_len, offset = read_vlong(buf, offset)
            val_len, offset = read_vlong(buf, offset)
            if key_len < 0 or val_len < 0 or offset + key_len + val_len > len(buf):
                raise MalformedRecordError(
                    "malformed record frame", offset=offset,
                    record_index=r, path=self.path)
            key = bytes(buf[offset:offset + key_len])
            offset += key_len
            value = bytes(buf[offset:offset + val_len])
            offset += val_len
            records.append((key, value))
        if offset != len(buf):
            raise MalformedRecordError(
                f"{len(buf) - offset} trailing bytes in block {index}",
                offset=offset, path=self.path)
        return records

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        if self._blocked:
            for i in range(len(self._blocks)):
                yield from self._decode_block(i)
            return
        buf = memoryview(self._payload)
        offset = 0
        index = 0
        while True:
            key_len, offset = read_vlong(buf, offset)
            if key_len == -1:
                val_len, offset = read_vlong(buf, offset)
                if val_len != -1:
                    raise MalformedRecordError(
                        "malformed EOF marker", offset=offset, path=self.path)
                if offset != len(buf):
                    raise MalformedRecordError(
                        "trailing bytes after EOF marker", offset=offset,
                        path=self.path)
                return
            val_len, offset = read_vlong(buf, offset)
            if key_len < 0 or val_len < 0 or offset + key_len + val_len > len(buf):
                raise MalformedRecordError(
                    "malformed record frame", offset=offset,
                    record_index=index, path=self.path)
            key = bytes(buf[offset:offset + key_len])
            offset += key_len
            value = bytes(buf[offset:offset + val_len])
            offset += val_len
            index += 1
            yield key, value

    def read_all(self) -> list[tuple[bytes, bytes]]:
        """Materialize every record (convenience for tests/small segments)."""
        return list(self)

    def read_salvage(self) -> tuple[list[tuple[bytes, bytes]], list[BadBlock]]:
        """Recover every decodable record of a chunked segment.

        Returns ``(records, bad_blocks)``: records from every block whose
        CRC and decode succeed, in stream order, plus a :class:`BadBlock`
        per failed block (its footer-promised record count and raw
        compressed bytes, for quarantine).  Open the reader with
        ``verify_checksum=False`` first, otherwise construction already
        raised on the bad block.  Plain (non-chunked) segments have no
        block boundaries to salvage at: an intact segment returns
        ``(all records, [])``, a damaged one raises
        :class:`IFileCorruptError` (whole-segment repair territory).
        """
        if not self._blocked:
            # Construction already verified/decompressed; damage beyond
            # the CRC surfaces as decode errors here.
            try:
                return self.read_all(), []
            except CorruptRecordError as exc:
                raise IFileCorruptError(
                    f"plain segment unsalvageable: {exc}", self.path) from exc
        records: list[tuple[bytes, bytes]] = []
        bad: list[BadBlock] = []
        for i, (nrec, _, comp_len, crc) in enumerate(self._blocks):
            start = self._block_offsets[i]
            comp = self._blob[start:start + comp_len]
            if zlib.crc32(comp) != crc:
                bad.append(BadBlock(i, nrec, comp))
                continue
            try:
                records.extend(self._decode_block(i))
            except CorruptRecordError:
                bad.append(BadBlock(i, nrec, comp))
        return records, bad

    def read_columnar(
        self, key_width: int, value_width: int | None = None
    ) -> tuple[np.ndarray, np.ndarray | Ragged] | None:
        """Decode a segment with one key width into a key matrix and a
        value column, or ``None``.

        The caller asserts (from spill metadata) that every key is
        ``key_width`` bytes and, with ``value_width``, that every value is
        that wide: the values then come back as an ``(n, value_width)``
        matrix, else as a :class:`~repro.mapreduce.columnar.Ragged`
        column.  Every record's frame and the EOF marker are verified,
        and ``None`` is returned on anything unexpected, so callers fall
        back to the record iterator, which diagnoses the segment.
        Equivalent to :meth:`read_all` without materializing per-record
        ``bytes``.  Chunked segments return ``None``.
        """
        if self._blocked or key_width <= 0:
            return None
        if value_width is None:
            return self._read_ragged(key_width)
        if value_width <= 0:
            return None
        frame = _frame(key_width, value_width)
        flen = len(frame)
        pitch = flen + key_width + value_width
        body_len = len(self._payload) - EOF_MARKER_BYTES
        if body_len < 0 or body_len % pitch != 0:
            return None
        if bytes(self._payload[body_len:]) != b"\xff\xff":
            return None  # no clean EOF marker; let the iterator diagnose
        n = body_len // pitch
        if n == 0:
            return np.empty((0, key_width), np.uint8), np.empty((0, value_width), np.uint8)
        mat = np.frombuffer(self._payload, dtype=np.uint8, count=n * pitch)
        mat = mat.reshape(n, pitch)
        if not np.array_equiv(mat[:, :flen], np.frombuffer(frame, np.uint8)):
            return None
        return mat[:, flen:flen + key_width], mat[:, flen + key_width:]

    def _read_ragged(self, key_width: int) -> tuple[np.ndarray, Ragged] | None:
        """:meth:`read_columnar` for values of any lengths: one walk from
        frame to frame (the only sequential step -- each value's length
        says where the next frame starts), then every frame checked and
        the keys and values cut out as arrays."""
        buf = self._payload
        body_len = len(buf) - EOF_MARKER_BYTES
        if body_len < 0 or bytes(buf[body_len:]) != b"\xff\xff":
            return None
        key_frame = _frame(key_width, 0)[:-1]
        lead = len(key_frame)
        # a frame whose value length fits one vint byte (0..127) is
        # ``step`` bytes plus the value
        step = lead + 1 + key_width
        starts: list[int] = []
        append = starts.append
        pos = 0
        try:
            while pos < body_len:
                append(pos)
                first = buf[pos + lead]
                if first < 0x80:
                    pos += step + first
                    continue
                value_len, value_at = read_vlong(buf, pos + lead)
                if value_len < 0:
                    return None
                pos = value_at + key_width + value_len
        except (IndexError, CorruptRecordError):
            return None
        if pos != body_len:
            return None
        n = len(starts)
        data = np.frombuffer(buf, np.uint8, count=body_len)
        frame_at = np.array(starts, dtype=np.int64)
        for j, byte in enumerate(key_frame):
            if (data[frame_at + j] != byte).any():
                return None
        # the value length's vint: one byte below 0x80, else the first
        # byte counts the bytes after it (0x88..0x8f; the walk rejected
        # negative lengths)
        first = data[frame_at + lead].astype(np.int64)
        vint_len = np.where(first < 0x80, 1, 0x91 - first)
        head = lead + vint_len + key_width
        lengths = np.diff(frame_at, append=body_len) - head
        _, keys, values = split_rows(
            data, np.column_stack([lead + vint_len,
                                   np.full(n, key_width), lengths]))
        return keys.reshape(n, key_width), Ragged.from_lengths(lengths, values)
