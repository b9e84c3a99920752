"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's compressed odd-to-odd machinery: the
stopping-time oracles simulate the raw unit-step map (3n+1 on odd, n/2 on
even) and the valuation oracle counts factors of two by repeated division.

``reference_range_sweep`` is different in kind: it keeps a plain per-d form
of the range sweep, every check made once for each odd integer in ascending
order, against which ``verify_range``'s row proofs and table slices are
compared report for report.
"""

from __future__ import annotations


def unit_step_sigma(n: int) -> int:
    """Stopping time by direct unit-step simulation, no memo."""
    assert n >= 1
    steps = 0
    while n != 1:
        n = 3 * n + 1 if n & 1 else n >> 1
        steps += 1
    return steps


def unit_step_sigma_memo(n: int, memo: dict[int, int]) -> int:
    """Unit-step simulation with a caller-owned memo (for bulk ranges)."""
    assert n >= 1
    if 1 not in memo:
        memo[1] = 0
    path = []
    while n not in memo:
        path.append(n)
        n = 3 * n + 1 if n & 1 else n >> 1
    steps = memo[n]
    for value in reversed(path):
        steps += 1
        memo[value] = steps
    return memo[path[0]] if path else steps


def valuation_by_division(x: int) -> tuple[int, int]:
    """(m, odd_part) of even x > 0, counting factors of 2 one at a time."""
    assert x > 0 and x % 2 == 0
    m = 0
    while x % 2 == 0:
        x //= 2
        m += 1
    return m, x


def reference_range_sweep(start: int, end: int, class_filter=None,
                          budget: int = 10**7, *, profile, stores):
    """The range sweep as one loop over every odd d, with its reconstruction,
    boundedness and recurrence checks made for each d, for differential tests
    of ``verify_range``. ``profile(i, m)`` gives a row's ``d_offset`` and
    ``d_modulus``, and ``stores(first, end)`` its empty (or pre-filled)
    table and below-start dict, so both sweeps can run on the same rows and
    the same stores. Returns the same ``VerifyReport``, with no timing."""
    from collatz_cover.arith import BudgetExceededError
    from collatz_cover.covering import RESIDUE_ORDER
    from collatz_cover.reports import Counterexample, Deferred, build_report

    class_of = {r: i for i, r in enumerate(RESIDUE_ORDER, start=1)}
    first = start if start & 1 else start + 1
    step, lo = 2, first
    if class_filter is not None:
        step = 18
        lo = first + (RESIDUE_ORDER[class_filter - 1] - first) % 18
    table, below = stores(first, end)
    below_max = min(first, 1 << 32)
    counterexamples, deferred = [], []
    per_class = [0] * 10
    items = 0
    for d in range(lo, end + 1, step):
        items += 1
        x = 3 * d + 1
        m = (x & -x).bit_length() - 1
        target = x >> m
        i = class_of[d % 18]
        p = profile(i, m)
        offset, modulus = p.d_offset, p.d_modulus
        per_class[i] += 1
        n, rem = divmod(d - offset, modulus)
        if rem or n < 0:
            counterexamples.append(Counterexample(
                d, f"exact reconstruction {modulus}n + {offset}",
                f"remainder {rem}"))
            continue
        if not 54 * n < target < 54 * (n + 1):
            counterexamples.append(Counterexample(
                d, f"next odd strictly inside (54*{n}, 54*{n + 1})", str(target)))
        if d == 1:
            continue
        index = (d - first) >> 1
        sigma_d = table[index]
        steps = m + 1
        x = target
        known = table[(x - first) >> 1] if first <= x <= end else 0
        if known:
            steps += known
        elif x != 1:
            path, below_path = [], []
            while x != 1 and steps <= budget:
                if x <= end:
                    if x >= first:
                        k = (x - first) >> 1
                        known = table[k]
                        if known:
                            steps += known
                            break
                        path.append((k, steps))
                    elif x < below_max:
                        known = below.get(x)
                        if known is not None:
                            steps += known
                            break
                        below_path.append((x, steps))
                x = 3 * x + 1
                s = (x & -x).bit_length() - 1
                x >>= s
                steps += s + 1
            if steps <= budget:
                for k, consumed in path:
                    table[k] = steps - consumed
                for y, consumed in below_path:
                    below[y] = steps - consumed
        if steps > budget:
            deferred.append(Deferred(d, str(BudgetExceededError(d, budget))))
        elif not sigma_d:
            table[index] = steps
        elif sigma_d != steps:
            counterexamples.append(Counterexample(
                d, f"sigma {steps} (= sigma({target}) + {m + 1})", str(sigma_d)))
    return build_report(
        "range-sweep",
        {"start": start, "end": end, "class_filter": class_filter,
         "budget": budget},
        counterexamples=counterexamples,
        deferred=deferred,
        items_checked=items,
        details={"per_class": {str(i): per_class[i] for i in range(1, 10)}},
    )
