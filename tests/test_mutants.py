"""Mutation table for the audits: each row breaks one fragment of the
source, and names the smallest call that must catch the break.

A row gives a module, an exact source fragment, its replacement, and the
catching call. The test asserts that the fragment occurs exactly once,
compiles the patched source into a fresh module, and runs the call on it:
the call must catch the mutant, and must not catch the unpatched module,
so that no row passes on a check that cannot fail. The range sweep's rows
run a cold trial of ``range_differential.py``, two of them with a moved row,
which compares the report and every member's stored stopping time with the
per-d reference sweep in ``oracles.py``, or compare the stopping times the
sweep stored with the unit-step walk's, and one runs the fill's lane test on
a target slice that holds 2^31 + 3. The rows outside the sweep compare
``sigma_infinity`` with the unit-step walk, ``digit_root_class`` with
``residue_class`` and ``derive_profile`` with the checked-in reference rows,
compare the cover audit with the stride sieve of ``oracles.py``
(``test_covering.cover_differs``, with a moved row where the mutant needs
one), run the theorem1 proof on a row moved out of its range or on one
with a wrong landing offset, run the cyclic check itself on a fresh
``verify`` that calls the mutant's cycle check, make a table past a patched
memory limit, and fail an ``--output`` write part-way.
"""

import json
import os
import tempfile
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

import collatz_cover
from collatz_cover import derive_profile, residue_class
from oracles import unit_step_sigma, unit_step_sigma_memo
from range_differential import make_trial, recording, rows_moving, run_trial
from test_cli import failing_fdopen
from test_covering import cover_differs

SOURCE_DIR = Path(collatz_cover.__file__).parent
DATA_DIR = Path(__file__).parent / "data"


def report_differs(start, end, budget=10**7, class_filter=None, row=None):
    """Catches a mutant whose sweep over [start, end], of one class or of
    all, on cold stores and with ``row`` moved as a trial moves it, reports
    or stores a member's stopping time otherwise than the per-d
    reference."""
    trial = make_trial(start, end - start, class_filter, budget, "cold", row, 0)
    return lambda module: run_trial(trial, module) is not None


def stored_sigma_differs(start, end, poison=None):
    """Catches a mutant whose sweep stores a stopping time other than the
    unit-step walk's, on cold stores but for the table entries ``poison``
    {value: entry}, whose slots are left out of the comparison."""
    poison = poison or {}

    def poisoned(first, table, below):
        for y, entry in poison.items():
            table[(y - first) >> 1] = entry

    def caught(module):
        runs = []
        module._stores = recording(module._stores, runs, poisoned)
        module.verify_range(start, end)
        ((first, table, _),) = runs
        memo = {}
        return any(entry != unit_step_sigma_memo(y, memo)
                   for y, entry in zip(range(first, end + 1, 2), table)
                   if entry and y not in poison)
    return caught


def fill_takes_a_lane_of_2_31(module):
    """Catches a ``verify`` mutant whose fill of 13 and 29, the first
    members of the path 16k + 13, goes ahead when their target slice holds
    the lane 2^31 + 3 at 5, beside sigma(11) = 14: it must return False
    and leave the table as it was."""
    (descent,) = [x for x in module._sweep_paths()[0] if x[:2] == (13, 16)]
    table = module._stores(1, 29)[0]
    table[(5 - 1) >> 1], table[(11 - 1) >> 1] = 2**31 + 3, 14
    before = table[:]
    return module._fill(table, 1, 13, 2, descent, 10**7) or table != before


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


def profiles_differ(module):
    """Catches a ``covering`` mutant whose derive_profile differs from the
    162 rows of ``data/reference_tables.json``, or raises on one: its own
    asserts may fire before a row is returned."""
    rows = json.loads((DATA_DIR / "reference_tables.json").read_text())["profiles"]
    try:
        return any((p.v_offset, p.d_offset, p.d_modulus)
                   != (row["v_offset"], row["d_offset"], row["d_coeff"])
                   for row in rows for p in [module.derive_profile(row["i"], row["m"])])
    except Exception:
        return True


def theorem1_misses_a_shifted_row(module):
    """Catches a ``verify`` mutant whose theorem1 proof of the rows m <= 5,
    with row (2, 3) moved one modulus up, lists other counterexamples than
    the two that row fails on: its offset outside [0, modulus), and its
    landing residue, 54 more than the true one. An in-range row cannot
    fail the second alone: an offset in [0, 18*2^m) with 2^m | 3*offset + 1
    lands on an odd a <= 53."""
    true = derive_profile(2, 3)
    module.derive_profile = rows_moving({(2, 3): "+modulus"})
    return module.verify_theorem1_symbolic(5).counterexamples != (
        ("(i=2, m=3)", f"offset in [0, {true.d_modulus})",
         str(true.d_offset + true.d_modulus)),
        ("(i=2, m=3)", "odd landing residue below 54", str(true.next_offset + 54)))


def theorem1_misses_a_wrong_landing_offset(module):
    """Catches a ``verify`` mutant whose theorem1 proof of the rows m <= 5,
    with row (2, 3) true but for a next_offset 2 too high, lists other
    counterexamples than the one by which that row fails: the offset, the
    modulus and a < 54 all hold, so only the landing offset sees it."""
    true = derive_profile(2, 3)
    wrong = true._replace(next_offset=true.next_offset + 2)
    module.derive_profile = lambda i, m: (
        wrong if (i, m) == (2, 3) else derive_profile(i, m))
    return module.verify_theorem1_symbolic(5).counterexamples != (
        ("(i=2, m=3)", f"landing offset {true.next_offset}",
         str(true.next_offset + 2)),)


def cyclic_fails(module):
    """Catches a ``covering`` mutant under whose cyclic_recurrence_check the
    cyclic check of a fresh ``verify``, ``verify_cyclic()``, does not
    pass."""
    check = _verify_with(cyclic_recurrence_check=module.cyclic_recurrence_check)
    return check.verify_cyclic().outcome != "pass"


def makes_a_table_past_the_limit(module):
    """Catches a ``verify`` mutant that makes the 501 entries of 4 bytes of
    the table over [1, 1001] where the probe reads a soft RLIMIT_AS of 1000
    bytes."""
    resource = pytest.importorskip("resource")
    getrlimit = resource.getrlimit
    resource.getrlimit = lambda _: (1000, resource.RLIM_INFINITY)
    try:
        module._stores(1, 1001)
    except OverflowError:
        return False
    finally:
        resource.getrlimit = getrlimit
    return True


def failed_output_changes_the_directory(module):
    """Catches a ``cli`` mutant whose --output write, failing part-way,
    exits otherwise than 1, or leaves its directory holding anything but
    the earlier file as it was."""
    module.os = SimpleNamespace(**{**vars(os), "fdopen": failing_fdopen(os.fdopen)})
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "report.txt"
        target.write_text("earlier report\n")
        code = module.main(["table", "--max-m", "1", "--output", str(target)])
        return (code != 1 or os.listdir(tmp) != ["report.txt"]
                or target.read_text() != "earlier report\n")


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
    # without the top bit, the lane 2^31 + 3 reads as 3, within the limit
    ("verify", "(((t & low) + (low - limit * ones)) | t) & top",
     "((t & low) + (low - limit * ones)) & top",
     fill_takes_a_lane_of_2_31, "fill takes a target of 2^31 or more"),
    ("verify", "[(p, b, e, c + e)] *", "[(p, b, e, c + e - 1)] *",
     stored_sigma_differs(1, 2001), "jump adds c + e - 1"),
    # 27 is a scalar residue mod 2^12: its jump is the prefix of 8 odd
    # steps, 19 unit steps, to 91, still above 27
    ("verify", "jumps[r] = (p, b, e, c + e)", "jumps[r] = (p, b, e, c + e + 1)",
     stored_sigma_differs(1, 2001), "prefix jump adds one step"),
    ("verify", "RESIDUE_ORDER[class_filter - 1], 18)]",
     "RESIDUE_ORDER[class_filter % 9], 18)]",
     report_differs(2001, 12001, budget=60, class_filter=5),
     "class sweep walks the next class"),
    # the n = 0 member of row (1, 1), moved one modulus up, then reads index
    # -1 and fails boundedness, where the reference fails its reconstruction
    ("verify", "if rem or n < 0:", "if rem:",
     report_differs(1, 2001, row=(1, 1, "+modulus")), "member pass drops n < 0"),
    # neither sweep reads the entry of 1, so only the stored entries differ
    ("verify", "known_min = max(first, 3)", "known_min = first",
     stored_sigma_differs(1, 11, poison={1: 50}), "fill reads the entry of 1"),
    ("arith", "steps, cur = two_adic_valuation(cur)",
     "cur = two_adic_valuation(cur)[1]",
     sigma_differs, "sigma drops the halvings of an even input"),
    ("covering", "residue = root if root & 1 else root + 9",
     "residue = root + 9 if root & 1 else root",
     digit_root_class_differs, "digit root takes the even lift"),
    # a d with v(3d+1) = max_m is deferred, and its valuation fails it
    ("verify", "step = 2 << k", "step = 1 << k",
     lambda module: cover_differs(module, 20001, 12),
     "cover defers the class mod 2^max_m"),
    ("verify", "        moved.subtract(_true_members(i, m, 1, bound))\n", "",
     lambda module: cover_differs(module, 20001, 18, {(2, 3): "+modulus"}),
     "cover keeps the members a failing row misses"),
    ("verify", "if entries * width > limit:", "if entries > limit:",
     makes_a_table_past_the_limit, "memory guard counts entries, not bytes"),
    ("covering", "pow(2, -m, 27)", "pow(2, 1 - m, 27)",
     profiles_differ, "profile's exponent is off by one"),
    # an even a has 3d + 1 = a*2^m divisible by 2^(m+1)
    ("covering", "    if not a & 1:\n        a += 27\n", "",
     profiles_differ, "profile leaves an even landing unlifted"),
    ("covering", "successor = RESIDUE_ORDER[i % 9]",
     "successor = RESIDUE_ORDER[(i + 1) % 9]",
     cyclic_fails, "cycle check takes the class after next"),
    ("cli", "        os.unlink(temp)\n", "",
     failed_output_changes_the_directory, "failed write leaves its temp file"),
    ("cli", "os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)",
     "os.open(path, os.O_CREAT | os.O_TRUNC | os.O_WRONLY, 0o666)",
     failed_output_changes_the_directory, "output truncates the earlier file"),
    ("verify", "if not 0 <= offset < modulus:", "if False:",
     theorem1_misses_a_shifted_row, "row proof drops the offset range"),
    ("verify", "elif not (a & 1 and a < 54):", "elif not a & 1:",
     theorem1_misses_a_shifted_row, "row proof drops a < 54"),
    ("verify", "if p.next_offset != a:", "if False:",
     theorem1_misses_a_wrong_landing_offset,
     "row proof drops the landing-offset check"),
    # [81, 91] spans less than 2^4, and holds one d with v(3d+1) > 4: 85,
    # the least member of row (4, 8), which reads it at n = -1 when moved
    # one modulus up
    ("verify", "return _rows(classes, k) + [", "return _rows(classes, k) or [",
     report_differs(81, 91, row=(4, 8, "+modulus")),
     "window rows drop the deep d's row"),
]


#: The rows that the library's own audit catches, on cold stores:
#: ``verify_sigma_relation(20001)`` fails under each. Every other row is
#: caught only by the oracles of the tests. This set should only grow.
CAUGHT_BY_SIGMA_RELATION = (
    "walk stores one step too many",
    # a fill does not test the entries walks stored, so the jumps' short
    # counts and the fills' full c + e meet in one table, where a later
    # walk finds them out
    "jump adds c + e - 1",
)


#: The rows that ``cover_audit``'s own report catches: at bound 20001 and
#: max_m 12 it defers under the true rows, and fails under each of these.
#: The row-proof rows are not here: a weakened proof still holds on the
#: true rows, and the report depends only on which rows hold.
CAUGHT_BY_COVER = (
    "profile's exponent is off by one",
    "profile leaves an even landing unlifted",
    "cover defers the class mod 2^max_m",
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


def _verify_with(**names):
    """A fresh ``verify`` module, with ``names`` bound in place of its own."""
    verify = _module("verify", (SOURCE_DIR / "verify.py").read_text(encoding="utf-8"))
    vars(verify).update(names)
    return verify


def _cover_audit(name, source):
    """cover_audit of a fresh ``verify``, on the rows of the ``covering``
    that ``source`` is, when ``name`` is that module."""
    if name == "verify":
        return _module(name, source).cover_audit
    return _verify_with(derive_profile=_module(name, source).derive_profile).cover_audit


@pytest.mark.parametrize("what", CAUGHT_BY_COVER)
def test_cover_catches_the_mutant(what):
    ((name, fragment, replacement, _, _),) = [row for row in ROWS if row[-1] == what]
    source = (SOURCE_DIR / f"{name}.py").read_text(encoding="utf-8")
    assert _cover_audit(name, source)(20001, 12).outcome == "deferred"
    mutant = _cover_audit(name, source.replace(fragment, replacement))
    assert mutant(20001, 12).outcome == "fail"
