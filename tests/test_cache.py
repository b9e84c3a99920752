from concurrent.futures import ThreadPoolExecutor

import pytest

from collatz_cover import SigmaCache, sigma_infinity


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
