"""On-media encoding of records and data blocks.

Format of one record::

    [seqno: 8B big-endian][flags: 1B][key_len: 2B][value_len: 4B][key][value]

Flags bit 0 marks a tombstone (deletions are out-of-band of the value).

A data block is a concatenation of records in key order followed by a 4-byte
CRC32 checksum.  :func:`verify_block` checks it and raises
:class:`CorruptionError` on mismatch, which the failure-injection tests rely
on; every read of a block from media verifies the whole block, however few
of its records the reader then decodes.

Both table formats keep a :class:`CachedBlock` per data block in the block
cache.  A point read that misses the cache verifies the block and decodes
only the record it returns (:func:`record_at` at the offset a semi-SSTable
index entry stores, or :func:`find_record`'s header walk in an SSTable).
The block's full record list is built on the first cache hit, or by a
reader that needs every record, through the memoized :func:`decode_block`.

An NVMe zone slot holds one record and no checksum of its own (its CRC
lives in the in-memory index); slot reads decode it with
:func:`decode_one`, which is not memoized.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable, Iterator, Optional

from repro.common.errors import CorruptionError
from repro.common.records import Record

_HEADER = struct.Struct(">QBHI")
CHECKSUM_SIZE = 4
_FLAG_TOMBSTONE = 0x01


def encode_record(rec: Record) -> bytes:
    """Serialize one record: header (seqno, flags, sizes) + key + value."""
    flags = _FLAG_TOMBSTONE if rec.deleted else 0
    return (
        _HEADER.pack(rec.seqno, flags, len(rec.key), len(rec.value))
        + rec.key
        + rec.value
    )


def decode_records(data: bytes) -> Iterator[Record]:
    """Decode back-to-back records from ``data`` (no checksum expected)."""
    pos = 0
    end = len(data)
    while pos < end:
        if pos + _HEADER.size > end:
            raise CorruptionError(f"truncated record header at offset {pos}")
        seqno, flags, klen, vlen = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        if pos + klen + vlen > end:
            raise CorruptionError(f"truncated record body at offset {pos}")
        key = data[pos : pos + klen]
        pos += klen
        value = data[pos : pos + vlen]
        pos += vlen
        yield Record(key, value, seqno, deleted=bool(flags & _FLAG_TOMBSTONE))


def record_at(data: bytes, offset: int = 0) -> Record:
    """Decode the single record starting at ``offset`` of ``data``."""
    end = len(data)
    if offset + _HEADER.size > end:
        raise CorruptionError(f"truncated record header at offset {offset}")
    seqno, flags, klen, vlen = _HEADER.unpack_from(data, offset)
    body = offset + _HEADER.size
    if body + klen + vlen > end:
        raise CorruptionError(f"truncated record body at offset {body}")
    return Record(
        data[body : body + klen],
        data[body + klen : body + klen + vlen],
        seqno,
        deleted=bool(flags & _FLAG_TOMBSTONE),
    )


#: The NVMe slot decoder (slot reads, maintenance, the scrubber, PrismDB's
#: slabs): the same single-record decode as :func:`record_at`, under its
#: own name so span tracing can tell slot decodes from table decodes.
decode_one = record_at

#: Never filled (slot decodes are not memoized).  ``perfbench/tracing.py``
#: reads the name to report a memo hit rate, so it stays until it does not.
_DECODE_ONE_MEMO: dict[tuple[bytes, int], Record] = {}


def decode_prefix(data: bytes) -> tuple[list[Record], int, bool]:
    """Decode the longest clean prefix of back-to-back records.

    Unlike :func:`decode_records`, a truncated or structurally implausible
    record does not raise: decoding stops at the first bad record and the
    prefix decoded so far is returned.  This is what a torn WAL tail looks
    like after a crash — every record before the tear is intact, the tear
    itself is garbage.

    Returns ``(records, bytes_consumed, truncated)`` where ``truncated`` is
    True when trailing bytes past ``bytes_consumed`` were dropped.
    """
    records: list[Record] = []
    pos = 0
    end = len(data)
    while pos < end:
        if pos + _HEADER.size > end:
            return records, pos, True
        seqno, flags, klen, vlen = _HEADER.unpack_from(data, pos)
        body = pos + _HEADER.size
        if flags & ~_FLAG_TOMBSTONE or body + klen + vlen > end:
            return records, pos, True
        key = data[body : body + klen]
        value = data[body + klen : body + klen + vlen]
        records.append(
            Record(key, value, seqno, deleted=bool(flags & _FLAG_TOMBSTONE))
        )
        pos = body + klen + vlen
    return records, pos, False


def encode_block(records: Iterable[Record]) -> bytes:
    """Encode records into a checksummed data block."""
    payload = b"".join(encode_record(r) for r in records)
    return payload + struct.pack(">I", zlib.crc32(payload))


# Content-keyed memo of decoded blocks.  Decoding is pure, and the block
# cache already hands the same record list to every reader, so sharing
# one list per distinct block payload is safe.  The memo only pays off
# when a block is re-read (and re-decoded) after LRU eviction; a
# corrupted payload never matches a memoized key, so checksum failures
# still surface.  Bounded by wholesale clearing -- entries are cheap to
# rebuild.
_DECODE_MEMO: dict[bytes, list[Record]] = {}
_DECODE_MEMO_MAX = 1024


def verify_block(block: bytes) -> None:
    """Check a data block's CRC32 footer; raise :class:`CorruptionError`
    if the block is too short to hold one or the payload does not match."""
    if len(block) < CHECKSUM_SIZE:
        raise CorruptionError("block shorter than its checksum")
    (expected,) = struct.unpack_from(">I", block, len(block) - CHECKSUM_SIZE)
    actual = zlib.crc32(memoryview(block)[:-CHECKSUM_SIZE])
    if actual != expected:
        raise CorruptionError(
            f"block checksum mismatch: stored={expected:#x} computed={actual:#x}"
        )


def decode_block(block: bytes) -> list[Record]:
    """Decode a checksummed data block, verifying integrity."""
    cached = _DECODE_MEMO.get(block)
    if cached is not None:
        return cached
    verify_block(block)
    # Inline loop rather than list(decode_records(...)): block decodes run
    # on every table read and the generator resumption overhead is
    # measurable there.
    records: list[Record] = []
    append = records.append
    unpack_from = _HEADER.unpack_from
    hsize = _HEADER.size
    pos = 0
    end = len(block) - CHECKSUM_SIZE
    while pos < end:
        if pos + hsize > end:
            raise CorruptionError(f"truncated record header at offset {pos}")
        seqno, flags, klen, vlen = unpack_from(block, pos)
        body = pos + hsize
        pos = body + klen + vlen
        if pos > end:
            raise CorruptionError(f"truncated record body at offset {body}")
        append(
            Record(
                block[body : body + klen],
                block[body + klen : pos],
                seqno,
                deleted=bool(flags & _FLAG_TOMBSTONE),
            )
        )
    if len(_DECODE_MEMO) >= _DECODE_MEMO_MAX:
        _DECODE_MEMO.clear()
    _DECODE_MEMO[block] = records
    return records


def find_record(block: bytes, key: bytes) -> Optional[Record]:
    """The record for ``key`` in a verified block whose records are sorted
    by key, or ``None``.  Walks the record headers and stops at the first
    key >= ``key``; only that record is decoded."""
    unpack_from = _HEADER.unpack_from
    hsize = _HEADER.size
    pos = 0
    end = len(block) - CHECKSUM_SIZE
    while pos < end:
        if pos + hsize > end:
            raise CorruptionError(f"truncated record header at offset {pos}")
        _, _, klen, vlen = unpack_from(block, pos)
        body = pos + hsize
        found = block[body : body + klen]
        if found >= key:
            return record_at(block, pos) if found == key else None
        pos = body + klen + vlen
    return None


class CachedBlock:
    """A block-cache entry: one verified data block and, once a reader
    needs it, its decoded record list (and that list's keys)."""

    __slots__ = ("raw", "_records", "_keys")

    def __init__(self, raw: bytes, records: Optional[list[Record]] = None) -> None:
        self.raw = raw
        self._records = records
        self._keys: Optional[list[bytes]] = None

    @property
    def records(self) -> list[Record]:
        records = self._records
        if records is None:
            records = self._records = decode_block(self.raw)
        return records

    @property
    def keys(self) -> list[bytes]:
        """The records' keys, in order, for bisecting."""
        keys = self._keys
        if keys is None:
            keys = self._keys = [r.key for r in self.records]
        return keys


def record_encoded_size(rec: Record) -> int:
    """Size of one encoded record (excludes the per-block checksum)."""
    return _HEADER.size + len(rec.key) + len(rec.value)
