"""Mutation table for the audits: each row breaks one fragment of the
source, and names the smallest call that must catch the break.

A row gives a module, an exact source fragment, its replacement, and the
catching call. The test asserts that the fragment occurs exactly once,
compiles the patched source into a fresh module, and runs the call on it:
the call must catch the mutant, and must not catch the unpatched module,
so that no row passes on a check that cannot fail. The range sweep's rows
compare its report with the per-d reference sweep in ``oracles.py``, or the
stopping times it stored with the unit-step walk's. The rows outside the
sweep compare ``sigma_infinity`` with the unit-step walk and
``digit_root_class`` with ``residue_class``, and run the cover audit.
"""

from pathlib import Path
from types import ModuleType

import pytest

import collatz_cover
from collatz_cover import derive_profile, report_to_json, residue_class
from oracles import reference_range_sweep, unit_step_sigma, unit_step_sigma_memo

SOURCE_DIR = Path(collatz_cover.__file__).parent


def _poisoned(make, poison):
    """A store factory that writes ``poison`` {value: entry} into the
    stores ``make`` gives, as an earlier run might have left them: a value
    below the start into the below-start dict, any other into the table."""
    def stores(first, end):
        table, below = make(first, end)
        for y, entry in poison.items():
            if y < first:
                below[y] = entry
            else:
                table[(y - first) >> 1] = entry
        return table, below
    return stores


def report_differs(start, end, budget=10**7, poison=None):
    """Catches a mutant whose sweep reports otherwise than the per-d
    reference over [start, end], both on the same (poisoned) stores."""
    def caught(module):
        stores = _poisoned(module._stores, poison or {})
        module._stores = stores
        got = module.verify_range(start, end, budget=budget)
        want = reference_range_sweep(start, end, budget=budget,
                                     profile=derive_profile, stores=stores)
        return report_to_json(got) != report_to_json(want)
    return caught


def stored_sigma_differs(start, end, poison=None):
    """Catches a mutant whose sweep stores a stopping time other than the
    unit-step walk's, on cold stores but for ``poison``, whose slots are
    left out of the comparison."""
    poison = poison or {}

    def caught(module):
        make, tables = _poisoned(module._stores, poison), []

        def stores(first, last):
            table, below = make(first, last)
            tables.append((first, table))
            return table, below

        module._stores = stores
        module.verify_range(start, end)
        ((first, table),) = tables
        memo = {}
        return any(entry != unit_step_sigma_memo(y, memo)
                   for y, entry in zip(range(first, end + 1, 2), table)
                   if entry and y not in poison)
    return caught


def sigma_differs(module):
    """Catches an ``arith`` mutant whose sigma_infinity differs from the
    unit-step walk on 1..199, even inputs included."""
    return any(module.sigma_infinity(n) != unit_step_sigma(n) for n in range(1, 200))


def digit_root_class_differs(module):
    """Catches a ``covering`` mutant whose digit_root_class differs from
    residue_class on an odd d below 2000, or fails on one."""
    try:
        return any(module.digit_root_class(d) != residue_class(d)
                   for d in range(1, 2000, 2))
    except KeyError:
        return True


def cover_audit_fails(module):
    """Catches a ``verify`` mutant under which the exactly-once cover of
    the odd d <= 2001 by the rows m <= 18 no longer passes."""
    return module.cover_audit(2001, 18).outcome != "pass"


ROWS = [
    ("verify", "if x == 1 or steps > budget:",
     "if x == 1 or steps >= budget:",
     report_differs(1, 2001, budget=111), "walk stops one unit step early"),
    ("verify", "table[k] = steps - consumed\n",
     "table[k] = steps - consumed + 1\n",
     report_differs(1, 2001), "walk stores one step too many"),
    # at depth 1, c + e = m + 1, so this is the fill adding m for m + 1
    ("verify", "b, c + e, p * stride", "b, e, p * stride",
     stored_sigma_differs(1, 2001), "fill adds e in place of c + e"),
    ("verify", "b, c + e, p * stride", "b, c + e - 1, p * stride",
     stored_sigma_differs(1, 2001), "fill adds c + e - 1"),
    ("verify", "_nonzero(v ^ s, low, top)", "0",
     report_differs(1, 101, poison={13: 10}), "fill overwrites stored entries"),
    # 13's entry sets the floor at 13, so the fill of 13 from 5 must still
    # test 13's own entry
    ("verify", "if d <= floor:", "if d < 0:",
     report_differs(1, 101, poison={13: 10}),
     "fill skips its tests at or below the floor"),
    ("verify", "_nonzero(v ^ (t + delta * ones), low, top)", "0",
     report_differs(1, 20001, poison={15005: 7, 10003: 65}),
     "fill passes a stored value on the way"),
    # 5 is the target of 13, on the path 16k + 13; without the top bit, the
    # lane 2^31 + 3 reads as 3, within the limit
    ("verify", "(((t & low) + (low - limit * ones)) | t) & top",
     "((t & low) + (low - limit * ones)) & top",
     report_differs(1, 2001, poison={5: 2**31 + 3}),
     "fill takes a target of 2^31 or more"),
    ("verify", "[(p, b, e, steps)]", "[(p, b, e, steps - 1)]",
     stored_sigma_differs(1, 2001), "jump adds c + e - 1"),
    # 27 is a scalar residue mod 2^12: its jump is the prefix of 8 odd
    # steps, 19 unit steps, to 91, still above 27
    ("verify", "jumps[r] = (3 ** c, b, e, c + e)",
     "jumps[r] = (3 ** c, b, e, c + e + 1)",
     stored_sigma_differs(1, 2001), "prefix jump adds one step"),
    # 103 -> 155 is one odd step, to a value in the range, whose entry was
    # set before the sweep: the walk from 103 stops at it, so it must not
    # jump it. With the floor at 155, 103 takes one odd step
    ("verify", "    floor = _floor(first, table, below)\n", "    floor = 0\n",
     report_differs(1, 301, poison={155: 7, 103: 87}),
     "walk jumps values in the range"),
    # 25 lands on 19 and 19 on 11, whose first descent 11 -> 17 -> 13 -> 5
    # passes 17; 17's entry in the dict, above the budget, must defer the
    # walks that reach 11, so 11 lies at or below the floor
    ("verify", "    return max(below, default=0)\n", "    return 0\n",
     report_differs(21, 101, budget=200, poison={17: 250}),
     "floor ignores the below-start dict"),
    # neither sweep reads the entry of 1, so only the stored entries differ
    ("verify", "known_min = max(first, 3)", "known_min = first",
     stored_sigma_differs(1, 11, poison={1: 50}), "fill reads the entry of 1"),
    ("arith", "steps, cur = two_adic_valuation(cur)",
     "cur = two_adic_valuation(cur)[1]",
     sigma_differs, "sigma drops the halvings of an even input"),
    ("covering", "residue = root if root & 1 else root + 9",
     "residue = root + 9 if root & 1 else root",
     digit_root_class_differs, "digit root takes the even lift"),
    ("verify", "p.d_modulus // 2", "p.d_modulus // 2 + 1",
     cover_audit_fails, "cover counts by a wrong stride"),
]


#: The rows that the library's own audit catches, on cold stores:
#: ``verify_sigma_relation(20001)`` fails under each. Every other row is
#: caught only by the oracles of the tests. This set should only grow.
CAUGHT_BY_SIGMA_RELATION = (
    "walk stores one step too many",
    # above the floor a fill no longer tests the entries walks stored, so
    # the jumps' short counts and the fills' full c + e meet in one table,
    # where a later walk finds them out
    "jump adds c + e - 1",
)


def _module(name, source):
    module = ModuleType(f"collatz_cover.{name}")
    module.__package__ = "collatz_cover"
    exec(compile(source, str(SOURCE_DIR / f"{name}.py"), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name, fragment, replacement, caught, what",
                         ROWS, ids=[row[-1] for row in ROWS])
def test_mutant_is_caught(name, fragment, replacement, caught, what):
    source = (SOURCE_DIR / f"{name}.py").read_text(encoding="utf-8")
    assert source.count(fragment) == 1
    assert not caught(_module(name, source))
    assert caught(_module(name, source.replace(fragment, replacement)))


@pytest.mark.parametrize("what", CAUGHT_BY_SIGMA_RELATION)
def test_sigma_relation_catches_the_mutant(what):
    ((name, fragment, replacement, _, _),) = [row for row in ROWS if row[-1] == what]
    source = (SOURCE_DIR / f"{name}.py").read_text(encoding="utf-8")
    assert _module(name, source).verify_sigma_relation(20001).outcome == "pass"
    mutant = _module(name, source.replace(fragment, replacement))
    assert mutant.verify_sigma_relation(20001).outcome == "fail"
