import os
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from collatz_cover import CacheFormatError, SigmaCache, sigma_infinity


def test_put_get_and_admission():
    cache = SigmaCache(max_key=100)
    cache.put(13, 9)
    assert cache.get(13) == 9
    assert 13 in cache
    cache.put(101, 5)  # at/above the bound: silently skipped
    assert cache.get(101) is None
    assert len(cache) == 1


def test_put_rejects_bad_entries():
    cache = SigmaCache()
    with pytest.raises(ValueError):
        cache.put(4, 2)
    with pytest.raises(ValueError):
        cache.put(0, 0)
    with pytest.raises(ValueError):
        cache.put(13, -1)


def test_roundtrip(tmp_path):
    cache = SigmaCache()
    for d in range(1, 300):
        sigma_infinity(d, cache)
    path = tmp_path / "sigma.bin"
    cache.save(path)
    loaded = SigmaCache.load(path)
    assert loaded.items() == cache.items()


def test_file_layout(tmp_path):
    cache = SigmaCache()
    cache.put(13, 9)
    cache.put(1, 0)
    cache.put(5, 5)
    path = tmp_path / "sigma.bin"
    cache.save(path)
    blob = path.read_bytes()
    # independently re-encode: header, ascending pairs, trailing crc32
    body = struct.pack("<4sBQ", b"CSIG", 1, 3)
    for key, value in [(1, 0), (5, 5), (13, 9)]:
        body += struct.pack("<QQ", key, value)
    assert blob == body + struct.pack("<I", zlib.crc32(body))


def _valid_blob(entries):
    body = struct.pack("<4sBQ", b"CSIG", 1, len(entries))
    for key, value in entries:
        body += struct.pack("<QQ", key, value)
    return body + struct.pack("<I", zlib.crc32(body))


def _write(tmp_path, blob):
    path = tmp_path / "cache.bin"
    path.write_bytes(blob)
    return path


def test_load_rejects_bad_magic(tmp_path):
    blob = bytearray(_valid_blob([(5, 5)]))
    blob[0:4] = b"XSIG"
    body = bytes(blob[:-4])
    path = _write(tmp_path, body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CacheFormatError, match="magic"):
        SigmaCache.load(path)


def test_load_rejects_bad_version(tmp_path):
    blob = bytearray(_valid_blob([(5, 5)]))
    blob[4] = 9
    body = bytes(blob[:-4])
    path = _write(tmp_path, body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CacheFormatError, match="version"):
        SigmaCache.load(path)


def test_load_rejects_truncation(tmp_path):
    blob = _valid_blob([(5, 5), (13, 9)])
    path = _write(tmp_path, blob[:-9])
    with pytest.raises(CacheFormatError):
        SigmaCache.load(path)


def test_load_rejects_trailing_garbage(tmp_path):
    blob = _valid_blob([(5, 5)])
    path = _write(tmp_path, blob + b"\x00")
    with pytest.raises(CacheFormatError):
        SigmaCache.load(path)


def test_load_rejects_corrupted_checksum(tmp_path):
    blob = bytearray(_valid_blob([(5, 5)]))
    blob[-1] ^= 0xFF
    path = _write(tmp_path, bytes(blob))
    with pytest.raises(CacheFormatError, match="checksum"):
        SigmaCache.load(path)


def test_load_rejects_corrupted_payload(tmp_path):
    blob = bytearray(_valid_blob([(5, 5)]))
    blob[-10] ^= 0x01  # flip a value byte without fixing the crc
    path = _write(tmp_path, bytes(blob))
    with pytest.raises(CacheFormatError, match="checksum"):
        SigmaCache.load(path)


def test_load_rejects_unsorted_keys(tmp_path):
    path = _write(tmp_path, _valid_blob([(13, 9), (5, 5)]))
    with pytest.raises(CacheFormatError, match="increasing"):
        SigmaCache.load(path)


def test_load_rejects_duplicate_keys(tmp_path):
    path = _write(tmp_path, _valid_blob([(5, 5), (5, 5)]))
    with pytest.raises(CacheFormatError, match="increasing"):
        SigmaCache.load(path)


def test_load_rejects_even_keys(tmp_path):
    path = _write(tmp_path, _valid_blob([(4, 2)]))
    with pytest.raises(CacheFormatError, match="even"):
        SigmaCache.load(path)


def test_load_applies_admission_bound(tmp_path):
    big = (1 << 40) + 1
    path = _write(tmp_path, _valid_blob([(5, 5), (big, 7)]))
    loaded = SigmaCache.load(path)  # default bound is 2^32
    assert loaded.get(5) == 5
    assert loaded.get(big) is None
    wide = SigmaCache.load(path, max_key=1 << 50)
    assert wide.get(big) == 7


def test_save_rejects_oversized_values(tmp_path):
    cache = SigmaCache()
    cache.put(5, 1 << 64)
    with pytest.raises(ValueError):
        cache.save(tmp_path / "x.bin")


def test_concurrent_writers_agree():
    cache = SigmaCache()

    def worker(_):
        for d in range(1, 400, 2):
            sigma_infinity(d, cache)
        return len(cache)

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(worker, range(8)))
    reference = SigmaCache()
    for d in range(1, 400, 2):
        sigma_infinity(d, reference)
    assert dict(cache.items()) == dict(reference.items())


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "sigma.bin"
    old = SigmaCache()
    old.put(13, 9)
    old.save(path)
    new = SigmaCache()
    new.put(27, 111)

    def crash(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        new.save(path)
    monkeypatch.undo()
    assert SigmaCache.load(path).items() == [(13, 9)]
    assert os.listdir(tmp_path) == ["sigma.bin"]


_valid_entries = st.lists(
    st.tuples(st.integers(0, 2**20).map(lambda k: 2 * k + 1),
              st.integers(0, 2**64 - 1)),
    max_size=6, unique_by=lambda pair: pair[0]).map(sorted)


def _reseal(body):
    return body + struct.pack("<I", zlib.crc32(body))


def _load_or_reject(tmp_path, blob):
    """Loading must give a valid cache or CacheFormatError, nothing else."""
    path = _write(tmp_path, blob)
    try:
        loaded = SigmaCache.load(path)
    except CacheFormatError:
        return
    keys = [key for key, _ in loaded.items()]
    assert all(key & 1 for key in keys)
    assert keys == sorted(set(keys))


_fuzz = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_fuzz
@given(blob=st.binary(max_size=120))
def test_load_fuzz_random_bytes(tmp_path, blob):
    _load_or_reject(tmp_path, blob)
    _load_or_reject(tmp_path, _reseal(blob))  # past the checksum


@_fuzz
@given(entries=_valid_entries, position=st.integers(0, 10**6),
       byte=st.integers(0, 255), reseal=st.booleans())
def test_load_fuzz_single_byte_mutations(tmp_path, entries, position, byte,
                                         reseal):
    blob = bytearray(_valid_blob(entries))
    blob[position % len(blob)] = byte
    if reseal:  # fix the checksum so the structural checks are reached
        blob = _reseal(bytes(blob[:-4]))
    _load_or_reject(tmp_path, bytes(blob))
