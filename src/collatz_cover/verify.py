"""Machine verification: symbolic identities, empirical audits, range sweeps.

The 162-row determinism claim is checked symbolically, as exact integer
coefficient identities in n, not by sampling; the boundedness and
stopping-time recurrence claims are audited over explicit ranges. The range
sweep walks its partitions one after another in a single thread, so its
report does not depend on the partition size or the requested worker count.
"""

from __future__ import annotations

import random
from time import perf_counter

from .arith import (BudgetExceededError, DEFAULT_BUDGET, sigma_infinity,
                    two_adic_valuation)
from .cache import SigmaCache
from .covering import (RESIDUE_ORDER, cyclic_recurrence_check, derive_profile,
                       residue_class)
from .reports import Counterexample, Deferred, VerifyReport, build_report

#: Odd integers per range-sweep partition; partitions are walked in order.
PARTITION_SIZE = 1 << 16


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


def verify_sigma_relation(bound: int, cache: SigmaCache | None = None,
                          budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Check sigma(d) == sigma((3d+1)/2^m) + m + 1 for all odd 1 < d <= bound,
    plus the fixed worked pair sigma(13) = 9, sigma(5) = 5."""
    t0 = perf_counter()
    if bound < 3:
        raise ValueError(f"bound must be >= 3, got {bound}")
    if cache is None:
        cache = SigmaCache()
    counterexamples = []
    deferred = []
    items = 0
    for d in range(3, bound + 1, 2):
        items += 1
        m, target = two_adic_valuation(3 * d + 1)
        try:
            sigma_d = sigma_infinity(d, cache, budget)
            sigma_t = sigma_infinity(target, cache, budget)
        except BudgetExceededError as exc:
            deferred.append(Deferred(d, str(exc)))
            continue
        if sigma_d != sigma_t + m + 1:
            counterexamples.append(Counterexample(
                d, f"sigma {sigma_t + m + 1} (= sigma({target}) + {m + 1})",
                str(sigma_d)))
    for value, expected in ((13, 9), (5, 5)):
        actual = sigma_infinity(value, cache, budget)
        if actual != expected:
            counterexamples.append(Counterexample(
                value, f"sigma {expected}", str(actual)))
    return build_report(
        "sigma-relation",
        {"bound": bound, "budget": budget},
        counterexamples=counterexamples,
        deferred=deferred,
        items_checked=items,
        elapsed_s=perf_counter() - t0,
        details={"worked_pair": "sigma(13)=9, sigma(5)=5"},
    )


def verify_cyclic(samples_per_class: int = 100, seed: int = 0) -> VerifyReport:
    """Sample members of every residue class and confirm 4d+1 advances the
    class index along the cycle S. Deterministic for a fixed seed."""
    t0 = perf_counter()
    if samples_per_class < 1:
        raise ValueError(f"samples_per_class must be >= 1, got {samples_per_class}")
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


def _sweep_element(d: int, cache: SigmaCache, budget: int,
                   counterexamples: list, deferred: list) -> int:
    """All three per-element checks; returns the class index of d."""
    i = residue_class(d)
    m, target = two_adic_valuation(3 * d + 1)
    p = derive_profile(i, m)
    n, rem = divmod(d - p.d_offset, p.d_modulus)
    if rem or n < 0:
        counterexamples.append(Counterexample(
            d, f"exact reconstruction {p.d_modulus}n + {p.d_offset}",
            f"remainder {rem}"))
        return i
    if not 54 * n < target < 54 * (n + 1):
        counterexamples.append(Counterexample(
            d, f"next odd strictly inside (54*{n}, 54*{n + 1})", str(target)))
    if d == 1:  # sigma(1) = 0 by termination; the recurrence needs d > 1
        return i
    try:
        sigma_d = sigma_infinity(d, cache, budget)
        sigma_t = sigma_infinity(target, cache, budget)
    except BudgetExceededError as exc:
        deferred.append(Deferred(d, str(exc)))
        return i
    if sigma_d != sigma_t + m + 1:
        counterexamples.append(Counterexample(
            d, f"sigma {sigma_t + m + 1} (= sigma({target}) + {m + 1})",
            str(sigma_d)))
    return i


def verify_range(start: int, end: int, class_filter: int | None = None,
                 threads: int = 1, partition_size: int = PARTITION_SIZE,
                 budget: int = DEFAULT_BUDGET,
                 cache: SigmaCache | None = None) -> VerifyReport:
    """Run reconstruction, boundedness, and the stopping-time recurrence over
    every odd integer in [start, end] (optionally one class only).

    The odd integers are walked in fixed partitions of ``partition_size``,
    one after another; neither that size nor ``threads`` changes the report.
    ``threads`` is validated but has no effect: the sweep is pure Python, so
    worker threads would only take turns on the interpreter lock.
    """
    t0 = perf_counter()
    if not 1 <= start <= end:
        raise ValueError(f"need 1 <= start <= end, got [{start}, {end}]")
    if class_filter is not None and not 1 <= class_filter <= 9:
        raise ValueError(f"class filter must be in 1..9, got {class_filter}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if partition_size < 1:
        raise ValueError(f"partition_size must be >= 1, got {partition_size}")
    if cache is None:
        cache = SigmaCache()
    first = start if start & 1 else start + 1
    counterexamples: list[Counterexample] = []
    deferred: list[Deferred] = []
    per_class = [0] * 10
    items = 0
    for lo in range(first, end + 1, 2 * partition_size):
        for d in range(lo, min(lo + 2 * partition_size, end + 1), 2):
            if class_filter is not None and d % 18 != RESIDUE_ORDER[class_filter - 1]:
                continue
            items += 1
            per_class[_sweep_element(d, cache, budget, counterexamples, deferred)] += 1
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
