"""Mutation table for the audits: each row breaks one fragment of the
source, and names the smallest call that must catch the break.

A row gives a module, an exact source fragment, its replacement, and the
catching call. The test asserts that the fragment occurs exactly once,
compiles the patched source into a fresh module, and runs the call on it:
the call must catch the mutant, and must not catch the unpatched module,
so that no row passes on a check that cannot fail. A catching call either
compares the sweep's report with the per-d reference sweep in
``oracles.py``, or compares the stopping times the sweep stored with the
unit-step walk's. The rows so far cover the range sweep.
"""

from pathlib import Path
from types import ModuleType

import pytest

import collatz_cover
from collatz_cover import derive_profile, report_to_json
from oracles import reference_range_sweep, unit_step_sigma_memo

SOURCE_DIR = Path(collatz_cover.__file__).parent


def _poisoned(make, poison):
    """A store factory that writes ``poison`` {value: entry} into the
    table ``make`` gives, as an earlier run might have left it."""
    def stores(first, end):
        table, below = make(first, end)
        for y, entry in poison.items():
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


def stored_sigma_differs(start, end):
    """Catches a mutant whose sweep stores a stopping time other than the
    unit-step walk's."""
    def caught(module):
        make, tables = module._stores, []

        def stores(first, last):
            table, below = make(first, last)
            tables.append((first, table))
            return table, below

        module._stores = stores
        module.verify_range(start, end)
        ((first, table),) = tables
        memo = {}
        return any(entry != unit_step_sigma_memo(first + 2 * k, memo)
                   for k, entry in enumerate(table) if entry)
    return caught


ROWS = [
    ("verify", "while x != 1 and steps <= budget:",
     "while x != 1 and steps < budget:",
     report_differs(1, 2001, budget=111), "walk stops one unit step early"),
    ("verify", "table[k] = steps - consumed\n",
     "table[k] = steps - consumed + 1\n",
     report_differs(1, 2001), "walk stores one step too many"),
    # at depth 1, c + e = m + 1, so this is the fill adding m for m + 1
    ("verify", "b, c + e, 3 ** c", "b, e, 3 ** c",
     stored_sigma_differs(1, 2001), "fill adds e in place of c + e"),
    ("verify", "b, c + e, 3 ** c", "b, c + e - 1, 3 ** c",
     stored_sigma_differs(1, 2001), "fill adds c + e - 1"),
    ("verify", "if not any(map(mul, stored, map(sub, sigmas, stored))):",
     "if True:",
     report_differs(1, 101, poison={13: 10}), "fill overwrites stored entries"),
    ("verify", "if any(map(mul, seen, map(sub, expected, seen))):", "if False:",
     report_differs(1, 20001, poison={15005: 7, 10003: 65}),
     "fill passes a stored value on the way"),
    ("verify", "known_min = max(first, 3)", "known_min = first",
     report_differs(1, 11, poison={1: 50}), "fill reads the entry of 1"),
]


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
