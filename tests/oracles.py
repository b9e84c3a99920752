"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's compressed odd-to-odd machinery: the
stopping-time oracles simulate the raw unit-step map (3n+1 on odd, n/2 on
even) and the valuation oracle counts factors of two by repeated division.

``reference_range_sweep``, ``reference_conjecture1`` and
``reference_cover_audit`` are different in kind. The first two keep a plain
per-d form of the range sweep and of Conjecture 1's check, every check made
once for each odd integer in ascending order, against which the row proofs
and table slices of ``verify_range`` and ``verify_conjecture1`` are
compared report for report. The third counts, for each odd d, the progressions that hold it,
with a stride sieve, against which ``cover_audit``'s row proofs are
compared.
"""

from __future__ import annotations

from array import array


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


def fill_true_entries(table, first: int, count: int, memo: dict[int, int]) -> None:
    """Store in a range sweep's table from odd ``first`` the unit-step
    stopping times of its first ``count`` odd values, as an earlier sweep
    would have; the entry of 1 stays 0."""
    for k in range(count):
        y = first + 2 * k
        if y > 1:
            table[k] = unit_step_sigma_memo(y, memo)


def unit_step_odd_descent(d: int) -> list[tuple[int, int]]:
    """The odd values the unit-step walk from odd d > 1 meets, up to the
    first below d, each with its unit steps from d."""
    assert d > 1 and d & 1
    odds, n, steps = [], d, 0
    while not odds or odds[-1][0] >= d:
        n = 3 * n + 1 if n & 1 else n >> 1
        steps += 1
        if n & 1:
            odds.append((n, steps))
    return odds


def unit_step_odds(x: int, count: int) -> list[tuple[int, int]]:
    """The first ``count`` odd values the unit-step walk from odd x meets
    after x itself, each with its unit steps from x."""
    assert x >= 1 and x & 1
    odds, n, steps = [], x, 0
    while len(odds) < count:
        n = 3 * n + 1 if n & 1 else n >> 1
        steps += 1
        if n & 1:
            odds.append((n, steps))
    return odds


def valuation_by_division(x: int) -> tuple[int, int]:
    """(m, odd_part) of even x > 0, counting factors of 2 one at a time."""
    assert x > 0 and x % 2 == 0
    m = 0
    while x % 2 == 0:
        x //= 2
        m += 1
    return m, x


#: The class index of each odd residue mod 18, along the paper's cycle S.
CLASS_OF = {r: i for i, r in enumerate((1, 5, 3, 13, 17, 15, 7, 11, 9), start=1)}


def row_counterexamples(d: int, m: int, target: int, p) -> list:
    """The reconstruction or boundedness counterexample of odd d, with
    v(3d+1) = m and target = (3d+1)/2^m, on its row p, as a list of at
    most one."""
    from collatz_cover.reports import Counterexample

    n, rem = divmod(d - p.d_offset, p.d_modulus)
    if rem or n < 0:
        return [Counterexample(d, f"exact reconstruction {p.d_modulus}n + {p.d_offset}",
                               f"remainder {rem}")]
    if not 54 * n < target < 54 * (n + 1):
        return [Counterexample(d, f"next odd strictly inside (54*{n}, 54*{n + 1})",
                               str(target))]
    return []


def reference_conjecture1(start: int, bound: int, *, profile):
    """Conjecture 1's check made once for each odd d in [start, bound], in
    ascending order, on the rows ``profile(i, m)``, for differential tests
    of ``verify_conjecture1``. Returns the same ``VerifyReport``."""
    from collatz_cover.reports import build_report

    counterexamples, per_class = [], [0] * 10
    for d in range(start | 1, bound + 1, 2):
        m, target = valuation_by_division(3 * d + 1)
        i = CLASS_OF[d % 18]
        per_class[i] += 1
        counterexamples += row_counterexamples(d, m, target, profile(i, m))
    return build_report(
        "conjecture1-bounded",
        {"start": start, "bound": bound},
        counterexamples=counterexamples,
        items_checked=sum(per_class),
        details={"per_class": {str(i): per_class[i] for i in range(1, 10)}},
    )


def reference_range_sweep(start: int, end: int, class_filter=None,
                          budget: int = 10**7, *, profile, stores):
    """The range sweep as one loop over every odd d, with its reconstruction,
    boundedness and recurrence checks made for each d, for differential tests
    of ``verify_range``. Every d but 1 walks, whatever its row.
    ``profile(i, m)`` gives a row's ``d_offset`` and ``d_modulus``, and
    ``stores(first, end)`` its empty (or pre-filled) table and below-start
    dict, so both sweeps can run on the same rows and the same stores.
    Returns the same ``VerifyReport``."""
    from collatz_cover.arith import BudgetExceededError
    from collatz_cover.covering import RESIDUE_ORDER
    from collatz_cover.reports import Counterexample, Deferred, build_report

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
        i = CLASS_OF[d % 18]
        per_class[i] += 1
        counterexamples += row_counterexamples(d, m, target, profile(i, m))
        if d == 1:
            continue
        index = (d - first) >> 1
        sigma_d = table[index]
        steps = m + 1
        x = target
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


def membership_counts(bound: int, profiles) -> array:
    """How many of ``profiles`` contain each odd d <= bound, indexed by
    (d-1)//2. Each progression d_modulus*n + d_offset, n >= 0, is walked by
    its own stride from its first member d >= 0, so the count costs
    O(bound + len(profiles)) rather than a test per pair. The offset must
    be odd and the modulus even, as in every row of ``derive_profile`` and
    every moved row of the tests."""
    size = (bound + 1) // 2
    counts = array("I", [0]) * size
    for p in profiles:
        first = max(p.d_offset, p.d_offset % p.d_modulus)
        for index in range(first // 2, size, p.d_modulus // 2):
            counts[index] += 1
    return counts


def reference_cover_audit(bound: int, max_m: int, *, profile):
    """The cover audit as a count of the progressions ``profile(i, m)``,
    m <= max_m, that hold each odd d <= bound, for differential tests of
    ``cover_audit``. Returns the same ``VerifyReport``."""
    from collatz_cover.reports import Counterexample, Deferred, build_report

    profiles = [profile(i, m) for i in range(1, 10) for m in range(1, max_m + 1)]
    counts = membership_counts(bound, profiles)
    counterexamples, deferred, multiply_matched, unmatched = [], [], [], []
    for index, count in enumerate(counts):
        if count == 1:
            continue
        d = 2 * index + 1
        if count > 1:
            multiply_matched.append(d)
            counterexamples.append(Counterexample(
                d, "membership in exactly one progression",
                f"{count} progressions"))
            continue
        unmatched.append(d)
        m = valuation_by_division(3 * d + 1)[0]
        if m <= max_m:
            counterexamples.append(Counterexample(
                d, f"membership in the class row for m={m}",
                "no progression matched"))
        else:
            deferred.append(Deferred(d, f"valuation {m} exceeds max_m {max_m}"))
    return build_report(
        "cover-audit",
        {"bound": bound, "max_m": max_m},
        counterexamples=counterexamples,
        deferred=deferred,
        items_checked=len(counts),
        details={
            "matched_once": len(counts) - len(multiply_matched) - len(unmatched),
            "multiply_matched": multiply_matched,
            "unmatched": unmatched,
        },
    )
