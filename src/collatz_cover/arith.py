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

#: Unit-step ceiling per input; a hypothetical divergent orbit surfaces as an
#: error instead of a hang.
DEFAULT_BUDGET = 10**7


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


def sigma_infinity(d: int, budget: int = DEFAULT_BUDGET) -> int:
    """Total stopping time of d >= 1: unit Collatz steps until first hitting 1.

    Even inputs cost their valuation in halvings plus the stopping time of
    the odd part. Each call walks the whole trajectory, with no memo; the
    budget check compares the full stopping time to ``budget``.
    """
    if d < 1:
        raise ValueError(f"need a positive integer, got {d}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    steps = 0
    cur = d
    if not cur & 1:
        steps, cur = two_adic_valuation(cur)
    while cur != 1 and steps <= budget:
        x = 3 * cur + 1
        m = (x & -x).bit_length() - 1
        cur = x >> m
        steps += m + 1
    if steps > budget:
        raise BudgetExceededError(d, budget)
    return steps
