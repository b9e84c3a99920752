"""Machine verification: symbolic identities, empirical audits, range sweeps.

The 162-row determinism claim is checked symbolically, as exact integer
coefficient identities in n, not by sampling; the exactly-once cover, the
boundedness and the stopping-time recurrence claims are audited over explicit
ranges. The boundedness audit and the range sweep prove each progression row
they need once (``_row_faults``): a proved row puts every odd d of its class
and valuation at d = 18*2^m*n + offset with 54n < (3d+1)/2^m < 54(n+1), so
only the members of a row that fails are checked one by one. The range
sweep, which the recurrence audit runs through, keeps the stopping times it
finds in a dense table of 4 bytes per odd value of its range, and those of
values below its start in a dict of its own; it fills the stopping times of
its m >= 2 members from slices of that table. Its report depends only on
the range, the class and the budget.
"""

from __future__ import annotations

from array import array
from itertools import chain
from operator import itemgetter, mul, sub
from time import perf_counter

from .arith import (BudgetExceededError, DEFAULT_BUDGET, sigma_infinity,
                    two_adic_valuation)
from .covering import RESIDUE_ORDER, cyclic_recurrence_check, derive_profile
from .reports import Counterexample, Deferred, VerifyReport, build_report

#: Values below a sweep's start are kept only below this bound: above it, a
#: store of every value met below the start grows with the range (about 1e6
#: entries for 1e5 odd integers at 1e12).
_BELOW_MAX = 1 << 32

#: The range sweep's blocks hold at most this many integers, which bounds the
#: table slices it copies at a time.
_BLOCK_MAX = 1 << 17


def _stores(first: int, end: int) -> tuple[array, dict[int, int]]:
    """A range sweep's two stopping-time stores, for odd first >= 1, both
    empty. The dense table covers the odd values of [first, end]:
    ``table[(y - first) >> 1]`` holds sigma(y), 0 while unknown (sigma(1) = 0
    is never stored: 1 ends every walk). The dict maps odd values below
    ``min(first, _BELOW_MAX)`` to their stopping times."""
    return array("I", [0]) * ((end - first) // 2 + 1), {}


def _row_faults(i: int, m: int, offset: int, modulus: int) -> list:
    """The (expected, actual) pairs by which row (i, m), the progression
    modulus*n + offset, fails to prove Theorem 1's identity

        3*(18*2^m * n + offset) + 1 == 2^m * (54n + a),   a odd, a < 54,

    with offset in [0, 18*2^m) and offset = S[i] (mod 18); none when it holds.
    A proved row holds every odd d of class i with v(3d+1) = m (the odd d of
    the class form one residue class mod 18*2^m, by the CRT, and offset is
    in it), each at n >= 0 and landing on 54n + a, strictly inside
    (54n, 54(n+1))."""
    r = RESIDUE_ORDER[i - 1]
    faults = []
    if modulus != 18 << m:
        faults.append((f"n-coefficient {54 << m}", str(3 * modulus)))
    if not 0 <= offset < modulus:
        faults.append((f"offset in [0, {modulus})", str(offset)))
    if offset % 18 != r:
        faults.append((f"offset in class [{r}] mod 18", str(offset % 18)))
    a, rem = divmod(3 * offset + 1, 1 << m)
    if rem:
        faults.append((f"constant term divisible by {1 << m}", f"remainder {rem}"))
    elif not (a & 1 and a < 54):
        faults.append(("odd landing residue below 54", str(a)))
    return faults


def _failing_rows(classes, end: int):
    """(i, m, offset, modulus) of each row of ``classes`` that fails its
    proof, for m up to (3*end+1).bit_length(): every odd d <= end has a
    smaller valuation v(3d+1)."""
    for i in classes:
        for m in range(1, (3 * end + 1).bit_length() + 1):
            p = derive_profile(i, m)
            if _row_faults(i, m, p.d_offset, p.d_modulus):
                yield i, m, p.d_offset, p.d_modulus


def _true_members(i: int, m: int, lo: int, end: int):
    """The odd d in [lo, end] of class i with v(3d+1) = m, ascending, found
    without the row's offset: a failing row's own members are what it
    gets wrong."""
    for d in range(lo + (RESIDUE_ORDER[i - 1] - lo) % 18, end + 1, 18):
        x = 3 * d + 1
        if (x & -x).bit_length() - 1 == m:
            yield d


def _class_counts(classes, lo: int, end: int) -> dict[str, int]:
    """The per_class detail: how many odd d in [lo, end] each class holds,
    0 for a class not in ``classes``."""
    return {str(i): (end - lo - (RESIDUE_ORDER[i - 1] - lo) % 18) // 18 + 1
            if i in classes else 0 for i in range(1, 10)}


def verify_theorem1_symbolic(max_m: int) -> VerifyReport:
    """Prove, per (class, exponent) row, the identity

        3*(18*2^m * n + offset) + 1 == 2^m * (54n + a)   with a odd,

    as equalities between integer coefficients (the n coefficient and the
    constant term separately), valid for every n at once, with the bounds
    on offset and a that ``_row_faults`` states; and that the row's
    next_offset is that a."""
    start = perf_counter()
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    counterexamples = []
    for i in range(1, 10):
        for m in range(1, max_m + 1):
            p = derive_profile(i, m)
            label = f"(i={i}, m={m})"
            for expected, actual in _row_faults(i, m, p.d_offset, p.d_modulus):
                counterexamples.append(Counterexample(label, expected, actual))
            a = (3 * p.d_offset + 1) >> m
            if p.next_offset != a:
                counterexamples.append(Counterexample(
                    label, f"landing offset {a}", str(p.next_offset)))
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
    """Prove, for every odd d in [start, bound], that the next odd number
    lies strictly between 54n and 54(n+1) under d's own progression index n.

    Each row (i, m) that can hold such a d is proved once (``_row_faults``),
    which covers all its members at once; the members of a row that fails
    are checked one by one, so the cost grows with the number of rows, not
    with the bound."""
    t0 = perf_counter()
    first = start if start & 1 else start + 1
    if start < 1 or first > bound:
        raise ValueError(f"no odd integers in [{start}, {bound}]")
    counterexamples = []
    for i, m, offset, modulus in _failing_rows(range(1, 10), bound):
        for d in _true_members(i, m, first, bound):
            n = (d - offset) // modulus
            target = (3 * d + 1) >> m
            if not 54 * n < target < 54 * (n + 1):
                counterexamples.append(Counterexample(
                    d, f"next odd strictly inside (54*{n}, 54*{n + 1})",
                    str(target)))
    counterexamples.sort(key=itemgetter(0))
    return build_report(
        "conjecture1-bounded",
        {"start": start, "bound": bound},
        counterexamples=counterexamples,
        items_checked=(bound - first) // 2 + 1,
        elapsed_s=perf_counter() - t0,
        details={"per_class": _class_counts(range(1, 10), first, bound)},
    )


def verify_sigma_relation(bound: int,
                          budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Check sigma(d) == sigma((3d+1)/2^m) + m + 1 for all odd 1 < d <= bound,
    plus the fixed worked pair sigma(13) = 9, sigma(5) = 5.

    The recurrence comparison is the one ``verify_range(3, bound)`` makes,
    with its table and its deferrals; the sweep's row proofs run too, and
    their failures report here. Like the sweep's, this
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

    Reconstruction and boundedness follow, for every member at once, from
    the proof of its row (``_row_faults``), made once per row. Only the true
    members of a row that fails are checked one by one; a member that fails
    reconstruction skips its recurrence step.

    The recurrence pass keeps the stopping times in a dense table over
    [start, end], 4 bytes per odd integer, and those of the values below
    ``start`` in a dict, only below ``_BELOW_MAX`` (see ``_stores``). It
    walks ascending blocks [L, U) with 3U <= 4L, so that every member with
    m >= 2 of a block has its target (3d+1)/2^m below L. The members of one
    such progression, d = c (mod 2^(m+1)), take sigma(target) + m + 1 from
    one slice of the table: targets step by 6 as d steps by 2^(m+1). The
    m = 1 members, and a progression whose slice holds a target below the
    start, an unknown one (sigma(1) = 0 is never stored), a value over
    budget or an entry that contradicts it, take the scalar step: read
    sigma(target) from the table, and only when it is unknown walk
    odd-to-odd from target until 1 or a known entry of either store, then
    store the walk's values that either store admits.

    sigma(d) is its table entry, or sigma(target) + m + 1 when it has none.
    The recurrence comparison therefore only bites on entries that an
    earlier walk stored: it checks that one table is consistent, and is not
    an independent audit of the stopping times. Every entry the sweep
    stores is what the walk from its value gives, so the report does not
    depend on the order in which members are handled (nor on a slice
    storing a skipped member's entry); counterexamples and deferrals are
    listed by d.

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
    classes = range(1, 10)
    if class_filter is not None:
        step = 18
        lo = first + (RESIDUE_ORDER[class_filter - 1] - first) % 18
        if lo > end:
            raise ValueError(
                f"no odd integers of class {class_filter} in [{start}, {end}]")
        classes = (class_filter,)
    counterexamples: list[Counterexample] = []
    skip = set()  # members that failed reconstruction
    for i, m, offset, modulus in _failing_rows(classes, end):
        for d in _true_members(i, m, lo, end):
            n, rem = divmod(d - offset, modulus)
            if rem or n < 0:
                counterexamples.append(Counterexample(
                    d, f"exact reconstruction {modulus}n + {offset}",
                    f"remainder {rem}"))
                skip.add(d)
            elif not 54 * n < (3 * d + 1) >> m < 54 * (n + 1):
                counterexamples.append(Counterexample(
                    d, f"next odd strictly inside (54*{n}, 54*{n + 1})",
                    str((3 * d + 1) >> m)))

    # (m, residue, stride) of each progression of members with v(3d+1) = m
    progressions = []
    for m in range(1, (3 * end + 1).bit_length()):
        stride = 2 << m
        residue = ((1 << m) - 1) * pow(3, -1, stride) % stride
        if class_filter is not None:
            residue = next(c for c in range(residue, 9 * stride, stride)
                           if c % 18 == RESIDUE_ORDER[class_filter - 1])
            stride *= 9
        progressions.append((m, residue, stride))
    table, below = _stores(first, end)
    below_get = below.get
    below_max = min(first, _BELOW_MAX)
    deferred: list[Deferred] = []
    low = lo
    while low <= end:
        high = min(end + 1, max(4 * low // 3, low + 2), low + _BLOCK_MAX)
        scalar = []
        for m, residue, stride in progressions:
            members = range(low + (residue - low) % stride, high, stride)
            if not members:
                continue
            target = (3 * members[0] + 1) >> m
            if m > 1 and target >= first:
                n = len(members)
                k, gap = (target - first) >> 1, 3 * stride >> (m + 1)
                targets = table[k:k + gap * n:gap]
                if 0 not in targets and max(targets) <= budget - m - 1:
                    sigmas = array("I", map((m + 1).__add__, targets))
                    k, gap = (members[0] - first) >> 1, stride >> 1
                    cut = slice(k, k + gap * n, gap)
                    stored = table[cut]
                    # each stored entry is unknown (0) or the one filled in
                    if not any(map(mul, stored, map(sub, sigmas, stored))):
                        table[cut] = sigmas
                        continue
            scalar.append(members)
        todo = chain.from_iterable(scalar)
        if skip:
            todo = [d for d in todo if d not in skip]
        for d in todo:
            x = 3 * d + 1
            m = (x & -x).bit_length() - 1
            target = x >> m
            if d == 1:  # sigma(1) = 0 by termination; the recurrence needs d > 1
                continue
            index = (d - first) >> 1
            sigma_d = table[index]
            # steps becomes sigma(target) + m + 1: one table read, or a walk
            # from target; steps counts the unit steps from d to x
            steps = m + 1
            x = target
            known = table[(x - first) >> 1] if first <= x <= end else 0
            if known:
                steps += known
            elif x != 1:
                path = []  # (index, unit steps from d) per value to store
                # (value, unit steps from d) below the start; made on first
                # use, since an empty list per walk slows the full sweep
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
        low = high
    counterexamples.sort(key=itemgetter(0))
    deferred.sort(key=itemgetter(0))
    return build_report(
        "range-sweep",
        {"start": start, "end": end, "class_filter": class_filter,
         "budget": budget},
        counterexamples=counterexamples,
        deferred=deferred,
        items_checked=(end - lo) // step + 1,
        elapsed_s=perf_counter() - t0,
        details={"per_class": _class_counts(classes, lo, end)},
    )
