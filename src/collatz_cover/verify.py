"""Machine verification: symbolic identities, empirical audits, range sweeps.

The 162-row determinism claim is checked symbolically, as exact integer
coefficient identities in n, not by sampling; the exactly-once cover, the
boundedness and the stopping-time recurrence claims are audited over explicit
ranges. The range
sweep, which the recurrence audit runs through, keeps the stopping times it
finds in a dense table of 4 bytes per odd value of its range, and those of
values below its start in a dict of its own; its report depends only on the
range, the class and the budget.
"""

from __future__ import annotations

from array import array
from time import perf_counter

from .arith import (BudgetExceededError, DEFAULT_BUDGET, sigma_infinity,
                    two_adic_valuation)
from .covering import (_CLASS_OF, RESIDUE_ORDER, cyclic_recurrence_check,
                       derive_profile, residue_class)
from .reports import Counterexample, Deferred, VerifyReport, build_report

#: Values below a sweep's start are kept only below this bound: above it, a
#: store of every value met below the start grows with the range (about 1e6
#: entries for 1e5 odd integers at 1e12).
_BELOW_MAX = 1 << 32


def _stores(first: int, end: int) -> tuple[array, dict[int, int]]:
    """A range sweep's two stopping-time stores, for odd first >= 1, both
    empty. The dense table covers the odd values of [first, end]:
    ``table[(y - first) >> 1]`` holds sigma(y), 0 while unknown (sigma(1) = 0
    is never stored: 1 ends every walk). The dict maps odd values below
    ``min(first, _BELOW_MAX)`` to their stopping times."""
    return array("I", [0]) * ((end - first) // 2 + 1), {}


def verify_theorem1_symbolic(max_m: int) -> VerifyReport:
    """Prove, per (class, exponent) row, the identity

        3*(18*2^m * n + offset) + 1 == 2^m * (54n + a)   with a odd,

    as equalities between integer coefficients (the n coefficient and the
    constant term separately), valid for every n at once."""
    start = perf_counter()
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    counterexamples = []
    for i in range(1, 10):
        for m in range(1, max_m + 1):
            p = derive_profile(i, m)
            label = f"(i={i}, m={m})"
            if 3 * p.d_modulus != 54 << m:
                counterexamples.append(Counterexample(
                    label, f"n-coefficient {54 << m}", str(3 * p.d_modulus)))
            if 3 * p.d_offset + 1 != p.next_offset << m:
                counterexamples.append(Counterexample(
                    label, f"constant term {p.next_offset << m}",
                    str(3 * p.d_offset + 1)))
            if not p.next_offset & 1:
                counterexamples.append(Counterexample(
                    label, "odd landing residue", str(p.next_offset)))
            if p.d_offset % 18 != RESIDUE_ORDER[i - 1]:
                counterexamples.append(Counterexample(
                    label, f"offset in class [{RESIDUE_ORDER[i - 1]}] mod 18",
                    str(p.d_offset % 18)))
    return build_report(
        "theorem1-symbolic",
        {"max_m": max_m},
        counterexamples=counterexamples,
        items_checked=9 * max_m,
        elapsed_s=perf_counter() - start,
    )


def membership_counts(bound: int, profiles) -> array:
    """How many of ``profiles`` contain each odd d <= bound, indexed by
    (d-1)//2. Each progression is walked by its own stride, so the count
    costs O(bound + len(profiles)) rather than a test per pair."""
    size = (bound + 1) // 2
    counts = array("I", [0]) * size
    for p in profiles:
        for index in range(p.d_offset // 2, size, p.d_modulus // 2):
            counts[index] += 1
    return counts


def cover_audit(bound: int, max_m: int) -> VerifyReport:
    """Check the exactly-once cover over all odd d <= bound.

    Counts, for each odd d, how many of the 9*max_m progressions contain it.
    Multiple matches are failures. Zero matches are legitimate only when the
    valuation of 3d+1 exceeds max_m (the progression exists in a deeper row);
    those are reported as deferred, anything else as a failure.
    """
    start = perf_counter()
    if bound < 3:
        raise ValueError(f"bound must be >= 3, got {bound}")
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    profiles = [derive_profile(i, m)
                for i in range(1, 10) for m in range(1, max_m + 1)]
    counts = membership_counts(bound, profiles)

    counterexamples = []
    deferred = []
    matched_once = 0
    multiply_matched = []
    unmatched = []
    for index, count in enumerate(counts):
        if count == 1:
            matched_once += 1
            continue
        d = 2 * index + 1
        if count > 1:
            multiply_matched.append(d)
            counterexamples.append(Counterexample(
                d, "membership in exactly one progression",
                f"{count} progressions"))
        else:
            unmatched.append(d)
            m = two_adic_valuation(3 * d + 1)[0]
            if m <= max_m:
                counterexamples.append(Counterexample(
                    d, f"membership in the class row for m={m}",
                    "no progression matched"))
            else:
                deferred.append(Deferred(
                    d, f"valuation {m} exceeds max_m {max_m}"))
    return build_report(
        "cover-audit",
        {"bound": bound, "max_m": max_m},
        counterexamples=counterexamples,
        deferred=deferred,
        items_checked=(bound + 1) // 2,
        elapsed_s=perf_counter() - start,
        details={
            "matched_once": matched_once,
            "multiply_matched": multiply_matched,
            "unmatched": unmatched,
        },
    )


def verify_conjecture1(bound: int, start: int = 1) -> VerifyReport:
    """Audit, for each odd d in [start, bound], that the next odd number lies
    strictly between 54n and 54(n+1) under d's own progression index n."""
    t0 = perf_counter()
    first = start if start & 1 else start + 1
    if start < 1 or first > bound:
        raise ValueError(f"no odd integers in [{start}, {bound}]")
    counterexamples = []
    per_class = {i: 0 for i in range(1, 10)}
    items = 0
    for d in range(first, bound + 1, 2):
        m = two_adic_valuation(3 * d + 1)[0]
        p = derive_profile(residue_class(d), m)
        n = (d - p.d_offset) // p.d_modulus
        target = (3 * d + 1) >> m
        items += 1
        per_class[p.class_index] += 1
        if not 54 * n < target < 54 * (n + 1):
            counterexamples.append(Counterexample(
                d, f"next odd strictly inside (54*{n}, 54*{n + 1})", str(target)))
    return build_report(
        "conjecture1-bounded",
        {"start": start, "bound": bound},
        counterexamples=counterexamples,
        items_checked=items,
        elapsed_s=perf_counter() - t0,
        details={"per_class": {str(i): per_class[i] for i in range(1, 10)}},
    )


def verify_sigma_relation(bound: int,
                          budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Check sigma(d) == sigma((3d+1)/2^m) + m + 1 for all odd 1 < d <= bound,
    plus the fixed worked pair sigma(13) = 9, sigma(5) = 5.

    The recurrence comparison is the one ``verify_range(3, bound)`` makes,
    with its table and its deferrals; the sweep's reconstruction and
    boundedness checks run too and report here. Like the sweep's, this
    comparison checks the consistency of one table, not two independent
    computations. The worked pair is walked apart, with no memo; a worked
    value past ``budget`` is deferred, once, like any other input."""
    t0 = perf_counter()
    if bound < 3:
        raise ValueError(f"bound must be >= 3, got {bound}")
    sweep = verify_range(3, bound, budget=budget)
    counterexamples = list(sweep.counterexamples)
    deferred = list(sweep.deferred)
    for value, expected in ((13, 9), (5, 5)):
        try:
            actual = sigma_infinity(value, budget=budget)
        except BudgetExceededError as exc:
            if value > bound:  # within the range, the sweep deferred it already
                deferred.append(Deferred(value, str(exc)))
            continue
        if actual != expected:
            counterexamples.append(Counterexample(
                value, f"sigma {expected}", str(actual)))
    return build_report(
        "sigma-relation",
        {"bound": bound, "budget": budget},
        counterexamples=counterexamples,
        deferred=deferred,
        items_checked=sweep.items_checked,
        elapsed_s=perf_counter() - t0,
        details={"worked_pair": "sigma(13)=9, sigma(5)=5"},
    )


def verify_cyclic(samples_per_class: int = 100, seed: int = 0) -> VerifyReport:
    """Sample members of every residue class and confirm 4d+1 advances the
    class index along the cycle S. Deterministic for a fixed seed."""
    t0 = perf_counter()
    if samples_per_class < 1:
        raise ValueError(f"samples_per_class must be >= 1, got {samples_per_class}")
    import random  # imported on use: no other command samples
    rng = random.Random(seed)
    counterexamples = []
    classes_passing = 0
    for i in range(1, 10):
        r = RESIDUE_ORDER[i - 1]
        failures_before = len(counterexamples)
        for _ in range(samples_per_class):
            d = 18 * rng.randrange(10**9) + r
            if not cyclic_recurrence_check(i, d):
                counterexamples.append(Counterexample(
                    d, f"4d+1 in class [{RESIDUE_ORDER[i % 9]}] mod 18",
                    str((4 * d + 1) % 18)))
        classes_passing += len(counterexamples) == failures_before
    return build_report(
        "cyclic-recurrence",
        {"samples_per_class": samples_per_class, "seed": seed},
        counterexamples=counterexamples,
        items_checked=9 * samples_per_class,
        elapsed_s=perf_counter() - t0,
        details={"classes_passing": f"{classes_passing}/9"},
    )


def verify_range(start: int, end: int, class_filter: int | None = None,
                 budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Run reconstruction, boundedness, and the stopping-time recurrence over
    every odd integer in [start, end] (optionally one class only).

    The odd integers are checked in ascending order in one loop, which keeps
    their stopping times in a dense table over [start, end], 4 bytes per odd
    integer, and those of the values below ``start`` in a dict, only below
    ``_BELOW_MAX`` (see ``_stores``). For each d the loop reads sigma(target)
    from the table, and only when it is unknown walks odd-to-odd from target
    until it reaches 1 or a known entry of either store, then stores the
    walk's values that either store admits. Every row with m >= 2 lands below
    d, so in a full sweep its target is a single table read.

    sigma(d) is its table entry, or sigma(target) + m + 1 when it has none.
    The recurrence comparison therefore only bites on entries that an
    earlier walk stored: it checks that one table is consistent, and is not
    an independent audit of the stopping times.

    An odd integer is deferred when its stopping time exceeds ``budget``.
    """
    t0 = perf_counter()
    if not 1 <= start <= end:
        raise ValueError(f"need 1 <= start <= end, got [{start}, {end}]")
    if class_filter is not None and not 1 <= class_filter <= 9:
        raise ValueError(f"class filter must be in 1..9, got {class_filter}")
    first = start if start & 1 else start + 1
    if first > end:
        raise ValueError(f"no odd integers in [{start}, {end}]")
    step = 2
    lo = first
    if class_filter is not None:
        step = 18
        lo = first + (RESIDUE_ORDER[class_filter - 1] - first) % 18
        if lo > end:
            raise ValueError(
                f"no odd integers of class {class_filter} in [{start}, {end}]")
    table, below = _stores(first, end)
    below_get = below.get
    below_max = min(first, _BELOW_MAX)
    counterexamples: list[Counterexample] = []
    deferred: list[Deferred] = []
    per_class = [0] * 10
    # (class, d_offset, d_modulus) per key m * 18 + d % 18, fetched once per
    # progression row rather than per d
    rows: dict[int, tuple[int, int, int]] = {}
    items = 0
    for d in range(lo, end + 1, step):
        items += 1
        x = 3 * d + 1
        m = (x & -x).bit_length() - 1
        target = x >> m
        key = m * 18 + d % 18
        row = rows.get(key)
        if row is None:
            i = _CLASS_OF[d % 18]
            p = derive_profile(i, m)
            row = rows[key] = (i, p.d_offset, p.d_modulus)
        i, offset, modulus = row
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
        if d == 1:  # sigma(1) = 0 by termination; the recurrence needs d > 1
            continue
        index = (d - first) >> 1
        sigma_d = table[index]
        # steps becomes sigma(target) + m + 1: one table read, or a walk from
        # target; steps counts the unit steps from d to x
        steps = m + 1
        x = target
        known = table[(x - first) >> 1] if first <= x <= end else 0
        if known:
            steps += known
        elif x != 1:
            path = []  # (index, unit steps from d) per value to store
            # (value, unit steps from d) below the start; made on first use,
            # since an empty list per walk slows the full sweep
            below_path = None
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
                        known = below_get(x)
                        if known is not None:
                            steps += known
                            break
                        if below_path is None:
                            below_path = []
                        below_path.append((x, steps))
                x = 3 * x + 1
                s = (x & -x).bit_length() - 1
                x >>= s
                steps += s + 1
            if steps <= budget:
                for k, consumed in path:
                    table[k] = steps - consumed
                if below_path is not None:
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
        elapsed_s=perf_counter() - t0,
        details={"per_class": {str(i): per_class[i] for i in range(1, 10)}},
    )
