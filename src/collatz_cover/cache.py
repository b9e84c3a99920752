"""Persistent memo of total stopping times keyed by odd integer.

File layout, all little-endian:

    magic   4 bytes  b"CSIG"
    version u8       currently 1
    count   u64      number of entries
    entries count * (key u64, value u64), keys strictly increasing
    crc     u32      CRC32 of every preceding byte

A loader that sees anything else (wrong magic, truncation, trailing bytes,
out-of-order or even keys, checksum mismatch) raises ``CacheFormatError``
rather than guessing.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile
import zlib

MAGIC = b"CSIG"
FORMAT_VERSION = 1

#: Keys at or above this bound are not admitted (write policy, not an error).
#: It drops the large values that walks climb through, not the entry count:
#: memory still grows by one dict entry per admitted key, about 86 bytes.
DEFAULT_MAX_KEY = 1 << 32

_HEADER = struct.Struct("<4sBQ")
_PAIR = struct.Struct("<QQ")
_CRC = struct.Struct("<I")

_U64_MAX = (1 << 64) - 1


class CacheFormatError(ValueError):
    """A cache file that does not parse or fails its checksum."""


class SigmaCache:
    """Map from odd integer to its total stopping time.

    Writes are last-write-wins; every writer for a key stores the same value,
    since the stopping time is a function of the key. Every command uses its
    cache from one thread: the range sweep runs serially.
    """

    def __init__(self, max_key: int = DEFAULT_MAX_KEY):
        if max_key < 1:
            raise ValueError(f"max_key must be positive, got {max_key}")
        self.max_key = max_key
        self._entries: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def get(self, key: int) -> int | None:
        return self._entries.get(key)

    def put(self, key: int, value: int) -> None:
        """Store one stopping time. Keys outside the admission bound are
        silently skipped; non-odd keys and negative values are rejected."""
        if key < 1 or not key & 1:
            raise ValueError(f"cache keys must be positive odd integers, got {key}")
        if value < 0:
            raise ValueError(f"stopping times are nonnegative, got {value}")
        if key < self.max_key:
            self._entries[key] = value

    def items(self):
        """Entries in ascending key order."""
        return sorted(self._entries.items())

    def clear(self) -> None:
        self._entries.clear()

    def save(self, path) -> None:
        """Write all entries to ``path`` in the binary format above. The
        bytes go to a synced temp file that is renamed over ``path``, so a
        crash leaves the old file or the new one, never a torn mix."""
        pairs = self.items()
        for key, value in pairs:
            if key > _U64_MAX or value > _U64_MAX:
                raise ValueError(f"entry ({key}, {value}) does not fit in u64")
        payload = bytearray(_HEADER.pack(MAGIC, FORMAT_VERSION, len(pairs)))
        for key, value in pairs:
            payload += _PAIR.pack(key, value)
        payload += _CRC.pack(zlib.crc32(payload))
        directory, name = os.path.split(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path, max_key: int = DEFAULT_MAX_KEY) -> "SigmaCache":
        """Read a cache file, validating structure and checksum. Entries
        beyond ``max_key`` are dropped by the usual admission policy."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < _HEADER.size + _CRC.size:
            raise CacheFormatError(f"{path}: file too short ({len(blob)} bytes)")
        body, crc_bytes = blob[:-_CRC.size], blob[-_CRC.size:]
        (expected,) = _CRC.unpack(crc_bytes)
        if zlib.crc32(body) != expected:
            raise CacheFormatError(f"{path}: checksum mismatch")
        magic, version, count = _HEADER.unpack_from(body, 0)
        if magic != MAGIC:
            raise CacheFormatError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise CacheFormatError(f"{path}: unsupported format version {version}")
        if len(body) != _HEADER.size + count * _PAIR.size:
            raise CacheFormatError(
                f"{path}: expected {count} entries, payload holds "
                f"{(len(body) - _HEADER.size) // _PAIR.size}"
            )
        cache = cls(max_key=max_key)
        prev = 0
        offset = _HEADER.size
        for _ in range(count):
            key, value = _PAIR.unpack_from(body, offset)
            offset += _PAIR.size
            if not key & 1:
                raise CacheFormatError(f"{path}: even key {key}")
            if key <= prev:
                raise CacheFormatError(f"{path}: keys not strictly increasing at {key}")
            prev = key
            if key < cache.max_key:
                cache._entries[key] = value
        return cache
