"""Exact integer arithmetic for Collatz dynamics.

Everything runs on plain Python ints, so arbitrary precision comes for free
and no floating point is involved anywhere. Trajectories are walked
odd-to-odd: for odd d the compressed step d -> (3d+1)/2^m, with m the 2-adic
valuation of 3d+1, bundles one 3n+1 application and m halvings, so total
stopping times satisfy

    sigma(d) = sigma((3d+1)/2^m) + (m + 1)

with sigma(1) = 0 (counting unit steps: each 3n+1 or n/2 costs one).
"""

from __future__ import annotations

from typing import NamedTuple

#: Unit-step ceiling per input; a hypothetical divergent orbit surfaces as an
#: error instead of a hang.
DEFAULT_BUDGET = 10**7

#: Keys at or above this bound are not admitted (write policy, not an error).
#: It drops the large values that walks climb through, not the entry count:
#: memory still grows by one dict entry per admitted key, about 86 bytes.
DEFAULT_MAX_KEY = 1 << 32


class BudgetExceededError(RuntimeError):
    """Trajectory needs more unit steps than the configured budget."""

    def __init__(self, start: int, budget: int):
        super().__init__(f"budget exceeded: {start} not resolved within {budget} unit steps")
        self.start = start
        self.budget = budget


def two_adic_valuation(x: int) -> tuple[int, int]:
    """Split even x > 0 into (m, odd_part) with x = odd_part * 2^m, m maximal.

    >>> two_adic_valuation(40)
    (3, 5)
    """
    if x <= 0:
        raise ValueError(f"need a positive even integer, got {x}")
    if x & 1:
        raise ValueError(f"need an even integer, got {x}")
    m = (x & -x).bit_length() - 1
    return m, x >> m


def _require_odd(d: int) -> None:
    if d < 1:
        raise ValueError(f"need a positive odd integer, got {d}")
    if not d & 1:
        raise ValueError(f"need an odd integer, got {d}")


class OddStep(NamedTuple):
    """One compressed step: 3*source + 1 == target * 2^m with target odd."""

    source: int
    m: int
    target: int


def odd_step(d: int) -> OddStep:
    """Compressed Collatz step for odd d >= 1 (d = 1 yields m = 2, target 1)."""
    _require_odd(d)
    m, target = two_adic_valuation(3 * d + 1)
    return OddStep(d, m, target)


def four_d_plus_one(d: int) -> int:
    """The class-advancing successor 4d+1 of an odd d (always odd).

    Since 3(4d+1)+1 = 4(3d+1), both numbers share the same odd-step target
    and sigma(4d+1) = sigma(d) + 2.
    """
    _require_odd(d)
    return 4 * d + 1


class SigmaCache:
    """In-memory memo from odd integer to its total stopping time.
    ``sigma_infinity`` and ``trace`` fill it, and the range sweep resolves
    the values below its start through it. Nothing writes it to disk.

    Writes are last-write-wins; every writer for a key stores the same value,
    since the stopping time is a function of the key.
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


class CollatzTrace(NamedTuple):
    """Odd-to-odd trajectory down to 1: consecutive steps chain source to
    target, and sigma is the sum of (m + 1) over the steps."""

    start: int
    steps: tuple[OddStep, ...]
    sigma: int


def sigma_infinity(d: int, cache: SigmaCache | None = None,
                   budget: int = DEFAULT_BUDGET) -> int:
    """Total stopping time of d >= 1: unit Collatz steps until first hitting 1.

    Even inputs cost their valuation in halvings plus the stopping time of
    the odd part. With a cache, every odd value resolved along the way is
    memoized; warm, cold, and absent caches give identical results, including
    the budget check, which compares the full stopping time to ``budget``.
    """
    if d < 1:
        raise ValueError(f"need a positive integer, got {d}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    steps = 0
    cur = d
    if not cur & 1:
        steps, cur = two_adic_valuation(cur)
    pending: list[tuple[int, int]] = []  # (odd value, unit steps consumed before it)
    lookup = cache.get if cache is not None else lambda _k: None
    while cur != 1:
        hit = lookup(cur)
        if hit is not None:
            steps += hit
            break
        pending.append((cur, steps))
        m, cur = two_adic_valuation(3 * cur + 1)
        steps += m + 1
        if steps > budget:
            raise BudgetExceededError(d, budget)
    if steps > budget:  # resolved through the cache, but past the ceiling
        raise BudgetExceededError(d, budget)
    if cache is not None:
        for value, consumed in pending:
            cache.put(value, steps - consumed)
    return steps


def trace(d: int, cache: SigmaCache | None = None,
          budget: int = DEFAULT_BUDGET) -> CollatzTrace:
    """Full odd-to-odd trajectory of odd d; trace.sigma equals sigma_infinity(d).

    The cache cannot shorten the walk (every step is materialized) but gets
    populated with the stopping times discovered along the way.
    """
    _require_odd(d)
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    steps: list[OddStep] = []
    sigma = 0
    cur = d
    while cur != 1:
        step = odd_step(cur)
        steps.append(step)
        sigma += step.m + 1
        if sigma > budget:
            raise BudgetExceededError(d, budget)
        cur = step.target
    if cache is not None:
        consumed = 0
        for step in steps:
            cache.put(step.source, sigma - consumed)
            consumed += step.m + 1
    return CollatzTrace(d, tuple(steps), sigma)
