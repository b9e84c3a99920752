"""Machine verification: symbolic identities, empirical audits, range sweeps.

Every check is a pure function of its arguments: no clock, no random
source. The 4d+1 cycle is checked on the nine residues mod 18, which decide
it for every member of every class.

The 162-row determinism claim is checked symbolically, as exact integer
coefficient identities in n, not by sampling. Every check derives and
proves the progression rows it needs in one place (``_failing_rows``, by
``_row_faults``): a proved row is exactly the odd d of its class and
valuation, at d = 18*2^m*n + offset with 54n < (3d+1)/2^m < 54(n+1),
landing on 54n + next_offset. The symbolic check and the exactly-once cover
prove every row up to max_m. The boundedness audit and the range sweep
prove only the rows that their window [lo, end] can hold
(``_window_rows``): every m <= k, for end - lo < 2^k, and the row of the at
most one d there with v(3d+1) > k. So a window's cost grows with its width,
not with its distance from 1. Only the members of a row that fails are
checked one by one, in the one pass (``_member_faults``) that the
boundedness audit and the range sweep share. The range sweep, which the
recurrence audit runs through, keeps the stopping times it finds in a dense
table of 4 bytes per odd value of its range, and those of values below its
start in a dict of its own. One recursion (``_sweep_paths``) splits the odd
d by their residue mod 2^(e+1), which fixes the first odd value below d
(Terras 1976; Lagarias 1985), and gives the walk's jumps too. As d steps
along a path, that value steps by a fixed stride, so most members take
their stopping times from slices of the table, each slice checked and
filled as the 32-bit lanes of one int, and reading only its targets; every
other member takes one walk from itself, which jumps along the same first
descents. A sweep of one class mod 18 fills nothing: the first descents of
its members lie mostly in other classes, which it stores only where walks
land, so every member walks. Every member, whatever its row, is filled or
walked, and ends with its stopping time stored unless it is deferred. The
sweep trusts its stores: any entry set before it began must be a true
stopping time, and the stores ``_stores`` makes are empty. Neither a fill
nor a walk reads the entry of 1, and the report depends only on the range,
the class and the budget.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from functools import cache
from itertools import chain
from operator import itemgetter
from sys import byteorder, maxsize

from .arith import (BudgetExceededError, DEFAULT_BUDGET, budget_reason,
                    sigma_infinity, two_adic_valuation)
from .covering import RESIDUE_ORDER, cyclic_recurrence_check, derive_profile
from .reports import Counterexample, Deferred, VerifyReport, build_report

#: Values below a sweep's start are kept only below this bound: above it, a
#: store of every value met below the start grows with the range (about 1e6
#: entries for 1e5 odd integers at 1e12).
_BELOW_MAX = 1 << 32

#: The range sweep's blocks hold at most this many integers, which bounds the
#: table slices it copies at a time and the ints its fills read them into:
#: at most 2^14 lanes of 4 bytes, 64 KiB, for the paths of stride 4. With
#: blocks of 2^17, the max RSS of ``verify range --end 1000000`` was 0.25
#: to 0.4 MiB higher (CPython 3.11, x86-64).
_BLOCK_MAX = 1 << 16

#: 1 in each of _LANES 32-bit lanes, the most that one fill reads: a block
#: holds at most _BLOCK_MAX integers, and a path steps by 4 or more. A fill
#: of n lanes shifts out the low n, in place of a division per call.
_LANES = _BLOCK_MAX >> 2
_ONES = ((1 << 32 * _LANES) - 1) // 0xFFFFFFFF

#: A fill stores no stopping time above this, so that every lane of its ints
#: stays below 2^31: a target and a filled entry then both fit in 31 bits,
#: and no sum or test of ``_fill`` carries into the next lane. A member
#: whose target's entry is larger walks, as one over budget does.
_LANE_MAX = (1 << 31) - 1

#: The range sweep fills the odd d whose first descent is fixed by d mod
#: 2^_PATH_BITS from table slices, walks the rest, and jumps by x mod
#: 2^_PATH_BITS. Each bit more about doubles the paths and halves their
#: members per block: on the full sweep to 1e6, 2^10 and 2^14 each took
#: about 8% more time in-process than 2^12.
_PATH_BITS = 12

#: Bytes per d a report lists: a JSON report peaked at 1062 per unmatched d,
#: and 1265 per counterexample of a failing row (CPython 3.11, x86-64).
_LISTED_BYTES = 1300


@cache
def _sweep_paths():
    """The range sweep's one path table, ``(paths, scalar, jumps)``: a
    partition of the odd d into fill paths and scalar classes, and the
    walk's jumps by residue mod 2^_PATH_BITS. It is built once per process
    and shared, so each part is a tuple.

    The residue of d mod 2^(e+1) fixes the odd-to-odd steps of d until e
    halvings (Terras 1976). One descent from d itself (c = 0) splits the odd
    d by that residue, up to d mod 2^_PATH_BITS. A path is the class
    d = r (mod 2^(e+1)) whose c-th odd value, the target (3^c*d + b)/2^e, is
    the first with 3^c < 2^e, which is below d once d(2^e - 3^c) > b, and
    each odd value before it lies above d; the paths with c = 1 hold the d
    with v(3d+1) = e >= 2. It is kept as (residue, stride, e, 3^c, b, c + e,
    gap): the target's table index steps by gap as d steps by stride. A
    scalar class (residue, stride) holds the d whose descent needs
    _PATH_BITS or more halvings.

    Entry r of ``jumps`` is (3^c, b, e, c + e) when every odd x = r
    (mod 2^_PATH_BITS) reaches its c-th odd value (3^c*x + b)/2^e after
    c + e unit steps, with the odd values between above x. For the residue
    of a path that value is x's first descent, the first odd value below x;
    for a scalar residue it is the last odd value that r fixes, above x.
    Only the residue with v(3x+1) >= _PATH_BITS, where r fixes not even the
    first odd step, is None. The jumps are those of every class: a walk
    leaves its class at once."""
    jumps = [None] * (1 << _PATH_BITS)
    paths = []

    def descend(r, k, c, e, b):
        # d = r (mod 2^k) is at its c-th odd value (3^c*d + b)/2^e, d itself
        # or above d; k > e, so that value's parity is fixed. Returns the
        # scalar classes of the d = r (mod 2^k), whole when all of them are.
        p = 3 ** c
        while True:
            x = 3 * (p * r + b) + (1 << e)  # 2^e * (3*value + 1) at d = r
            v = (x & -x).bit_length() - 1
            if v >= k:  # the next valuation depends on the bit of d at 2^k
                if k == _PATH_BITS:
                    if c:
                        jumps[r] = (p, b, e, c + e)
                    return [(r, 1 << k)]
                split = (descend(r, k + 1, c, e, b)
                         + descend(r | 1 << k, k + 1, c, e, b))
                whole = [(r, 2 << k), (r | 1 << k, 2 << k)]
                return [(r, 1 << k)] if split == whole else split
            c, e, b, p = c + 1, v, 3 * b + (1 << e), 3 * p
            if p < 1 << e:
                stride = 2 << e
                paths.append((r, stride, e, p, b, c + e, p * stride >> e + 1))
                jumps[r::stride] = [(p, b, e, c + e)] * (len(jumps) // stride)
                return []

    scalar = descend(1, 1, 0, 0, 0)
    return tuple(paths), tuple(scalar), tuple(jumps)


def _nonzero(v: int, low: int, top: int) -> int:
    """The top bit of each 32-bit lane of v that is not 0, for ``top`` the
    top bits of v's lanes and ``low`` the bits below them: no sum carries
    out of its lane."""
    return (((v & low) + low) | v) & top


def _fill(table: array, first: int, d: int, n: int, descent, cap: int) -> bool:
    """Fill the entries of the n members d, d + stride, ... of one path of
    ``_sweep_paths``, ``descent``, with sigma(target) + c + e, and return
    whether it did.

    The target slice of the table is read as one int of n 32-bit lanes
    (ONES, shifted out of ``_ONES``, has 1 in every lane, TOP = ONES << 31
    and LOW = TOP - ONES), so each test is a few big-int operations. The
    fill goes ahead only when every target entry T lies in [1, limit],
    limit = cap - (c + e). A lane t <= limit adds to LOW - limit without
    reaching its top bit, and t's own top bit is caught apart. cap is at
    most ``_LANE_MAX``, which keeps every lane below 2^31.

    Only the targets are read: each member, and each odd value on the way,
    holds 0 or its true stopping time, which is what the walk through the
    target gives it."""
    _, stride, e, p, b, steps, gap = descent
    limit = cap - steps
    if limit < 1:
        return False
    ones = _ONES >> 32 * (_LANES - n)
    top = ones << 31
    low = top - ones
    k = (((p * d + b) >> e) - first) >> 1
    t = int.from_bytes(table[k:k + gap * n:gap], byteorder)
    if (_nonzero(t, low, top) != top
            or (((t & low) + (low - limit * ones)) | t) & top):
        return False
    k = (d - first) >> 1
    table[k:k + (stride >> 1) * n:stride >> 1] = array(
        "I", (t + steps * ones).to_bytes(4 * n, byteorder))
    return True


def _require_memory(what: str, entries: int, width: int) -> None:
    """Refuse a table or list of more bytes than the largest index, the soft
    RLIMIT_AS or physical memory, before any of it is made, with the
    OverflowError that the CLI reports under the flag that sized it."""
    limits = [(maxsize, "the largest index")]
    if os.name == "posix":
        import resource  # loaded on use, by the checks that size a table
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            limits.append((soft, "the soft RLIMIT_AS"))
        limits.append((os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
                       "physical memory"))
    limit, source = min(limits)
    if entries * width > limit:
        raise OverflowError(f"{what} needs {entries} entries of {width} bytes, "
                            f"{entries * width} in all, more than {source} "
                            f"({limit} bytes)")


def _stores(first: int, end: int) -> tuple[array, dict[int, int]]:
    """A range sweep's two stopping-time stores, for odd first >= 1, both
    empty. The dense table covers the odd values of [first, end]:
    ``table[(y - first) >> 1]`` holds sigma(y), 0 while unknown. The entry
    of 1 is never stored or read: sigma(1) = 0, and 1 ends every walk. The
    dict maps odd values below ``min(first, _BELOW_MAX)`` to their stopping
    times; the sweep trusts what a test sets in either (see the module)."""
    n = (end - first) // 2 + 1
    _require_memory("the table", n, 4)
    return array("I", [0]) * n, {}


def _row_faults(i: int, m: int, p) -> list:
    """The (expected, actual) pairs by which row (i, m), the ``Profile`` p,
    fails to prove Theorem 1's identity

        3*(18*2^m * n + offset) + 1 == 2^m * (54n + a),   a odd, a < 54,

    with offset in [0, 18*2^m) and offset = S[i] (mod 18), and to give that
    a as its next_offset; none when it holds. A proved row is exactly the odd
    d of class i with v(3d+1) = m (one residue class mod 18*2^m, by the CRT,
    whose least member is offset), each at n >= 0 and landing on 54n + a,
    strictly inside (54n, 54(n+1))."""
    r = RESIDUE_ORDER[i - 1]
    offset, modulus = p.d_offset, p.d_modulus
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
    if p.next_offset != a:
        faults.append((f"landing offset {a}", str(p.next_offset)))
    return faults


def _rows(classes, k: int) -> list:
    """The rows (i, m) of ``classes`` with m <= k, by class, then m."""
    return [(i, m) for i in classes for m in range(1, k + 1)]


def _deep_class(k: int, lo: int, end: int) -> range:
    """The odd d in [lo, end] with v(3d+1) > k: the one residue class
    3d + 1 = 0 (mod 2^(k+1))."""
    step = 2 << k
    return range(lo + (-pow(3, -1, step) - lo) % step, end + 1, step)


def _window_rows(classes, lo: int, end: int) -> list:
    """The rows of ``classes`` that can hold an odd d in [lo, end]: every
    m <= k, for end - lo < 2^k, and the row of the at most one d there with
    v(3d+1) > k, as that class steps by 2^(k+1)."""
    k = (end - lo).bit_length()
    return _rows(classes, k) + [
        (i, two_adic_valuation(3 * d + 1)[0]) for d in _deep_class(k, lo, end)
        for i in classes if RESIDUE_ORDER[i - 1] == d % 18]


def _failing_rows(rows):
    """(i, m, offset, modulus, faults) of each row (i, m) of ``rows`` that
    fails its proof (``_row_faults``): the one place where rows are derived
    and proved."""
    for i, m in rows:
        p = derive_profile(i, m)
        if faults := _row_faults(i, m, p):
            yield i, m, p.d_offset, p.d_modulus, faults


def _true_members(i: int, m: int, lo: int, end: int):
    """The odd d in [lo, end] of class i with v(3d+1) = m, ascending, found
    without the row's offset: a failing row's own members are what it
    gets wrong."""
    return (d for d in range(lo + (RESIDUE_ORDER[i - 1] - lo) % 18, end + 1, 18)
            if two_adic_valuation(3 * d + 1)[0] == m)


def _member_faults(classes, lo: int, end: int) -> list:
    """The counterexamples of the odd d in [lo, end] of ``classes`` whose rows
    fail their proofs: d fails reconstruction unless d = modulus*n + offset
    with n >= 0, and else must land strictly inside (54n, 54(n+1)). Only the
    rows that the window can hold are proved (``_window_rows``)."""
    counterexamples, sized = [], 0
    for i, m, offset, modulus, _ in _failing_rows(_window_rows(classes, lo, end)):
        sized += (end - lo) // (18 << m) + 1
        _require_memory("the member list of the failing rows", sized, _LISTED_BYTES)
        for d in _true_members(i, m, lo, end):
            n, rem = divmod(d - offset, modulus)
            target = (3 * d + 1) >> m
            if rem or n < 0:
                counterexamples.append(Counterexample(
                    d, f"exact reconstruction {modulus}n + {offset}",
                    f"remainder {rem}"))
            elif not 54 * n < target < 54 * (n + 1):
                counterexamples.append(Counterexample(
                    d, f"next odd strictly inside (54*{n}, 54*{n + 1})",
                    str(target)))
    return counterexamples


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
    on offset and a and the row's next_offset that ``_row_faults`` states:
    each fault of a row up to ``max_m`` is one counterexample, labelled by
    its row.

    The 162 rows up to the CLI's default max_m = 18 are one full period of
    the closed form that ``covering.derive_profile`` computes: with
    X = 2^m, offset = (a*X - 1)/3 and modulus = 18X, every condition above
    is a function of the landing a and of X mod 54, and both repeat with
    period 18 in m >= 1 (2 has order 18 mod 27). So proving them proves
    that closed form for every m >= 1."""
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    counterexamples = [
        Counterexample(f"(i={i}, m={m})", expected, actual)
        for i, m, _, _, faults in _failing_rows(_rows(range(1, 10), max_m))
        for expected, actual in faults]
    return build_report(
        "theorem1-symbolic",
        {"max_m": max_m},
        counterexamples=counterexamples,
        items_checked=9 * max_m,
    )


def cover_audit(bound: int, max_m: int) -> VerifyReport:
    """Check the exactly-once cover of the odd d <= bound by the 9*max_m rows.

    When every row holds its proof, the odd d with v(3d+1) <= max_m are each
    matched once, and the unmatched d are the residue class 3d + 1 = 0
    (mod 2^(max_m+1)), each deferred to a deeper row. Only the odd d that a
    failing row misses, or claims outside its own row, are counted one by
    one. A d matched more than once fails, and so does an unmatched d with
    v(3d+1) <= max_m."""
    if bound < 3:
        raise ValueError(f"bound must be >= 3, got {bound}")
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    moved = Counter()  # how far failing rows move each d's count off 1 or 0
    sized = 0
    for i, m, offset, modulus, _ in _failing_rows(_rows(range(1, 10), max_m)):
        claims = range(max(offset, offset % modulus), bound + 1, modulus)
        sized += len(claims) + bound // (18 << m) + 1
        _require_memory("the member list of the failing rows", sized, _LISTED_BYTES)
        moved.update(d for d in claims if d & 1)
        moved.subtract(_true_members(i, m, 1, bound))
    deep = _deep_class(max_m, 1, bound)
    _require_memory("the list of unmatched d", len(deep), _LISTED_BYTES)
    counterexamples, deferred, multiply_matched, unmatched = [], [], [], []
    for d in sorted(moved.keys() | set(deep)) if moved else deep:
        x = 3 * d + 1
        count = bool(x & (deep.step - 1)) + moved[d]
        if count > 1:
            multiply_matched.append(d)
            counterexamples.append(Counterexample(
                d, "membership in exactly one progression",
                f"{count} progressions"))
        elif count == 0:
            unmatched.append(d)
            m = (x & -x).bit_length() - 1
            if m <= max_m:
                counterexamples.append(Counterexample(
                    d, f"membership in the class row for m={m}",
                    "no progression matched"))
            else:
                deferred.append(Deferred(
                    d, f"valuation {m} exceeds max_m {max_m}"))
    odds = (bound + 1) // 2
    return build_report(
        "cover-audit",
        {"bound": bound, "max_m": max_m},
        counterexamples=counterexamples,
        deferred=deferred,
        items_checked=odds,
        details={
            "matched_once": odds - len(multiply_matched) - len(unmatched),
            "multiply_matched": multiply_matched,
            "unmatched": unmatched,
        },
    )


def verify_conjecture1(bound: int, start: int = 1) -> VerifyReport:
    """Prove, for every odd d in [start, bound], that the next odd number
    lies strictly between 54n and 54(n+1) under d's own progression index n.

    Each row (i, m) that the window can hold (``_window_rows``) is proved
    once, which covers all its members at once; the members of a row that
    fails are checked one by one, as the range sweep checks them
    (``_member_faults``). So the cost grows with the number of rows, about
    9 per bit of bound - start, not with the bound."""
    if not 1 <= start <= bound:
        raise ValueError(f"need 1 <= start <= bound, got [{start}, {bound}]")
    first = start if start & 1 else start + 1
    if first > bound:
        raise ValueError(f"no odd integers in [{start}, {bound}]")
    counterexamples = _member_faults(range(1, 10), first, bound)
    counterexamples.sort(key=itemgetter(0))
    return build_report(
        "conjecture1-bounded",
        {"start": start, "bound": bound},
        counterexamples=counterexamples,
        items_checked=(bound - first) // 2 + 1,
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
    if bound < 3:
        raise ValueError(f"bound must be >= 3, got {bound}")
    sweep = verify_range(3, bound, budget=budget)
    counterexamples = list(sweep.counterexamples)
    deferred = list(sweep.deferred)
    for value, expected in ((5, 5), (13, 9)):  # ascending, like the sweep's lists
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
        details={"worked_pair": "sigma(13)=9, sigma(5)=5"},
    )


def verify_cyclic() -> VerifyReport:
    """Prove that 4d+1 advances the class index along the cycle S for every
    member d of every residue class: (4d+1) mod 18 depends only on d mod 18,
    so the least member of each class decides all of them. The report counts
    the nine residues it checks."""
    counterexamples = [
        Counterexample(r, f"4d+1 in class [{RESIDUE_ORDER[i % 9]}] mod 18",
                       str((4 * r + 1) % 18))
        for i, r in enumerate(RESIDUE_ORDER, start=1)
        if not cyclic_recurrence_check(i, r)]
    return build_report(
        "cyclic-recurrence",
        {},
        counterexamples=counterexamples,
        items_checked=9,
        details={"classes_passing": f"{9 - len(counterexamples)}/9"},
    )


def verify_range(start: int, end: int, class_filter: int | None = None,
                 budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Run reconstruction, boundedness, and the stopping-time recurrence over
    every odd integer in [start, end] (optionally one class only).

    Reconstruction and boundedness follow, for every member at once, from
    the proof of its row, made once for each row that the range can hold
    (``_window_rows``). Only the true
    members of a row that fails are checked one by one, as
    ``verify_conjecture1`` checks them (``_member_faults``). The rows decide
    nothing else: every member, whatever its row, is filled or walked.

    The recurrence pass keeps the stopping times in a dense table over
    [start, end], 4 bytes per odd integer, and those of the values below
    ``start`` in a dict, only below ``_BELOW_MAX`` (see ``_stores``). The
    sweep trusts every entry it meets: one set before it began must be a
    true stopping time, and each one it stores is what the walk through its
    value gives. On such stores, cold or holding true entries anywhere, its
    report and its members' stored entries are those of a sweep that
    handles each d in turn and walks by single odd steps. The sweep walks
    ascending blocks [L, U) with 3U <= 4L. The members of a path of
    ``_sweep_paths`` in a block whose targets, their first odd values
    below them, lie in [max(start, 3), L), where the sweep has passed, take
    sigma(target) + c + e from one slice of the table, when every target is
    known and within budget (``_fill``), which reads the target slice only.
    A class sweep has no paths. Every other member walks from d itself
    until 1 or a known entry of either store, then stores the values it
    landed on that either store admits. From each value x the walk jumps by
    x mod 2^12 (``_sweep_paths``); from the one residue that fixes no step
    it takes one odd step. Where a walk of odd steps would stop at an entry
    that a jump or a fill passes, the jump or the fill reaches the same
    sum. Steps only grow, so a walk that crosses the budget inside a jump
    is deferred as the odd steps would defer it.

    sigma(d) is its table entry, or what its walk gives when it has none;
    a counterexample names it as sigma(target) + m + 1, for
    target = (3d+1)/2^m. The recurrence comparison therefore only bites on
    entries stored before d is handled: it checks that one table is
    consistent, and is not an independent audit of the stopping times.
    As each entry it stores is what a walk gives, and neither a fill nor a
    walk reads the entry of 1, the report does not depend on the order in
    which members are handled, nor on which values a fill or a jump passes
    without storing them; counterexamples and deferrals are listed by d.
    Each member ends with its stopping time in the table unless it is
    deferred, whatever the rows say, and so does each value a walk lands on
    in the range; a value only passed, such as a non-member under a class
    filter, is left as it was. A wrong entry set before the sweep is
    reported only where its own member walks, and no fill or walk meets it
    first.

    An odd integer is deferred when its stopping time exceeds ``budget``.
    """
    if not 1 <= start <= end:
        raise ValueError(f"need 1 <= start <= end, got [{start}, {end}]")
    if class_filter is not None and not 1 <= class_filter <= 9:
        raise ValueError(f"class filter must be in 1..9, got {class_filter}")
    first = start if start & 1 else start + 1
    if first > end:
        raise ValueError(f"no odd integers in [{start}, {end}]")
    step, lo, classes = 2, first, range(1, 10)
    paths, scalar_classes, jumps = _sweep_paths()
    if class_filter is not None:
        step = 18
        lo = first + (RESIDUE_ORDER[class_filter - 1] - first) % 18
        if lo > end:
            raise ValueError(
                f"no odd integers of class {class_filter} in [{start}, {end}]")
        classes = (class_filter,)
        # no paths: every member walks, by the jumps of every class
        paths, scalar_classes = [], [(RESIDUE_ORDER[class_filter - 1], 18)]
    counterexamples = _member_faults(classes, lo, end)
    jump_mask = len(jumps) - 1
    cap = min(budget, _LANE_MAX)
    table, below = _stores(first, end)
    below_get = below.get
    below_max = min(first, _BELOW_MAX)
    # a fill reads no target below the start, nor 1, where walks end
    # without reading its entry
    known_min = max(first, 3)
    deferred: list[Deferred] = []
    # sigma(1) = 0 by termination, and the recurrence needs d > 1: the
    # blocks from 3 are those from 1 but for [1, 3), which holds only 1
    low = 3 if lo == 1 else lo
    while low <= end:
        high = min(end + 1, max(4 * low // 3, low + 2), low + _BLOCK_MAX)
        scalar = [range(low + (r - low) % s, high, s) for r, s in scalar_classes]
        for descent in paths:
            residue, stride, e, p, b = descent[:5]
            members = range(low + (residue - low) % stride, high, stride)
            if not members:
                continue
            d = members[0]
            # members j to j + n - 1 have targets from known_min on and below
            # the block, where the sweep has passed
            j = max(0, -((p * d + b - (known_min << e)) // (p * stride)))
            n = min(len(members), (((low << e) - b - 1) // p - d) // stride + 1) - j
            if n > 0 and _fill(table, first, members[j], n, descent, cap):
                scalar.append(members[:j])
                members = members[j + n:]
            if members:
                scalar.append(members)
        for d in chain.from_iterable(scalar):
            index = (d - first) >> 1
            sigma_d = table[index]
            # a walk from d until 1 or a known entry of either store; steps
            # counts the unit steps from d to x
            x = d
            steps = 0
            # (index, unit steps from d) per value to store in the table, and
            # (value, unit steps from d) below the start; each made on first
            # use, since most walks store nothing and an empty list per walk
            # slows the full sweep
            path = below_path = None
            while True:
                if (jump := jumps[x & jump_mask]) is not None:
                    jp, jb, je, jsteps = jump
                    x = (jp * x + jb) >> je
                    steps += jsteps
                else:
                    x = 3 * x + 1
                    s = (x & -x).bit_length() - 1
                    x >>= s
                    steps += s + 1
                if x == 1 or steps > budget:
                    break
                if x > end:
                    continue
                if x >= first:
                    k = (x - first) >> 1
                    known = table[k]
                    if known:
                        steps += known
                        break
                    if path is None:
                        path = []
                    path.append((k, steps))
                elif x < below_max:
                    known = below_get(x)
                    if known is not None:
                        steps += known
                        break
                    if below_path is None:
                        below_path = []
                    below_path.append((x, steps))
            if steps <= budget:
                if path is not None:
                    for k, consumed in path:
                        table[k] = steps - consumed
                if below_path is not None:
                    for y, consumed in below_path:
                        below[y] = steps - consumed
            if steps > budget:
                deferred.append(Deferred(d, budget_reason(d, budget)))
            elif not sigma_d:
                table[index] = steps
            elif sigma_d != steps:
                x = 3 * d + 1
                m = (x & -x).bit_length() - 1
                counterexamples.append(Counterexample(
                    d, f"sigma {steps} (= sigma({x >> m}) + {m + 1})", str(sigma_d)))
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
        details={"per_class": _class_counts(classes, lo, end)},
    )
