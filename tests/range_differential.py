"""Differential check of the range sweep, too slow for the test suite at
this size. Each trial runs ``verify_range`` and the per-d reference sweep in
``oracles.py`` on the same stores and the same rows, and compares the report
bytes and every member's stored stopping time. The reports alone would not
do: the recurrence comparison bites only on entries stored earlier, so a
sweep that fills a wrong stopping time into an empty entry still passes.

The script runs three parts:

- the 11 full-size ``SHAPES``, each a trial on cold stores with the true
  rows;
- ``--trials`` seeded random trials. A trial draws a start at 1, near 1,
  up to 2^33, near 2^32 or near 2^33, and a width up to 2e4, both near 1
  log-uniform; no class, or one class of the nine; a budget from 1 to
  10^7, log-uniform, or 10^7; and cold or warm stores. Warm stores hold
  true stopping times for a seeded prefix of the range and for some values
  below the start: the sweep trusts its stores, so a store holds no wrong
  entry. In about a third of the trials one progression row is moved off
  its true offset or modulus. The rows decide only the reconstruction and
  boundedness checks: every member, whatever its row, is filled or walked,
  so every member's stored stopping time is compared;
- a sweep of [1, 1e7] alone, whose largest stopping time must be the
  published one: sigma = 685 at 8400511, the delay record below 1e7 (OEIS
  A006877, A006878), which is odd and so in the sweep's table.

Run from the repository root (about 12 s):

    PYTHONPATH=src python tests/range_differential.py [--trials N] [--seed S]

It prints one line per shape, one per random trial that differs, a summary
of the random trials and one line for the record, and exits 1 if anything
differs. The same trials back the per-d tests of ``test_verify.py`` and the
sweep's rows of ``test_mutants.py``.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).parent))

import collatz_cover.verify as verify  # noqa: E402
from collatz_cover import derive_profile, report_to_json  # noqa: E402
from collatz_cover.covering import RESIDUE_ORDER  # noqa: E402
from oracles import (fill_true_entries, reference_range_sweep,  # noqa: E402
                     unit_step_sigma_memo)

#: How a moved row's (offset, modulus) lies off its true row's.
MOVES = {
    "+modulus": lambda offset, modulus: (offset + modulus, modulus),
    "-modulus": lambda offset, modulus: (offset - modulus, modulus),
    "+modulus/2": lambda offset, modulus: (offset + modulus // 2, modulus),
    "modulus/2": lambda offset, modulus: (offset, modulus // 2),
    "+18": lambda offset, modulus: (offset + 18, modulus),
    "-18": lambda offset, modulus: (offset - 18, modulus),
    "+36": lambda offset, modulus: (offset + 36, modulus),
}
#: The moves a trial draws from.
ROW_MOVES = ("+modulus", "-modulus", "+modulus/2", "modulus/2")
STORE_KINDS = ("cold", "warm")

# (start, end, class_filter, budget)
SHAPES = [
    (1, 10**6, None, 10**7),
    # the sweep of `verify sigma-relation --bound 1000000`, which starts
    # above 1
    (3, 10**6, None, 10**7),
    # class sweeps: every member walks, and its jumps leave the class at
    # once, so the table holds few entries of the class's own members
    (1, 10**6, 9, 10**7),
    (1, 10**6, 4, 10**7),
    (500001, 10**6, None, 10**7),
    (2**33 + 1, 2**33 + 20001, None, 10**7),
    # a far window: walks jump the band [2^32, start), where nothing is
    # stored, as they jump the values above the end
    (10**12 + 1, 10**12 + 20001, None, 10**7),
    (100001, 200001, None, 300),
    # a tight budget: walks above the end jump first descents, and many
    # cross the budget inside one
    (1, 3 * 10**5, None, 150),
    # class sweeps in a far window and at a tight budget
    (10**12 + 1, 10**12 + 20001, 3, 10**7),
    (1, 3 * 10**5, 5, 150),
]

#: (n, sigma(n)) of the delay record below 1e7
RECORD_1E7 = (8400511, 685)


@dataclass(frozen=True)
class Trial:
    start: int
    end: int
    class_filter: int | None
    budget: int
    stores: str
    row: tuple[int, int, str] | None
    seed: int

    def members(self) -> range:
        first = self.start | 1
        if self.class_filter is None:
            return range(first, self.end + 1, 2)
        s = RESIDUE_ORDER[self.class_filter - 1]
        return range(first + (s - first) % 18, self.end + 1, 18)


def make_trial(start: int, width: int, class_filter: int | None, budget: int,
               stores: str, row, seed: int) -> Trial:
    """A trial whose range holds at least one member of its class."""
    first = start | 1
    end = start + width
    if class_filter is not None:
        end = max(end, first + (RESIDUE_ORDER[class_filter - 1] - first) % 18)
    return Trial(start, max(end, first), class_filter, budget, stores, row, seed)


def random_trial(rng: random.Random, max_width: int = 20000) -> Trial:
    start = rng.choice([
        1,
        # log-uniform, so that a range often spans its start several times
        # over and fills members from the table
        int((2 * max_width) ** rng.random()),
        rng.randrange(1, 2**33),
        2**32 + rng.randrange(-2 * max_width, 2 * max_width),
        2**33 + rng.randrange(0, 2 * max_width),
    ])
    # widths log-uniform, so most trials are short and a few are wide
    width = int(max_width ** rng.random()) - 1
    class_filter = rng.choice([None, None, rng.randrange(1, 10)])
    budget = rng.choice([10**7, int(10 ** rng.uniform(0, 7)), rng.randrange(1, 400)])
    row = None
    if rng.random() < 0.3:
        row = (rng.randrange(1, 10), rng.randrange(1, 13), rng.choice(ROW_MOVES))
    return make_trial(start, width, class_filter, budget, rng.choice(STORE_KINDS),
                      row, rng.randrange(2**32))


def rows_moving(moves):
    """derive_profile, with each row (i, m) of ``moves`` {(i, m): how} moved
    off its true offset or modulus as ``MOVES[how]`` says. Its next_offset
    is (3*offset + 1) >> m: 54 more than the true row's one modulus up."""
    moved = {}
    for (i, m), how in moves.items():
        true = derive_profile(i, m)
        offset, modulus = MOVES[how](true.d_offset, true.d_modulus)
        moved[i, m] = SimpleNamespace(class_index=i, m=m, d_offset=offset,
                                      d_modulus=modulus,
                                      next_offset=(3 * offset + 1) >> m)
    return lambda i, m: moved.get((i, m)) or derive_profile(i, m)


def warm_fill(trial: Trial):
    """The fill that gives both sweeps the trial's stores: none for cold
    stores; for warm ones, true stopping times of a seeded prefix of the
    range and of some odd values just below the start."""
    if trial.stores == "cold":
        return None

    def fill(first, table, below):
        rng = random.Random(trial.seed)
        memo = {}
        below_max = min(first, 2**32)
        fill_true_entries(table, first, rng.randrange(len(table) + 1), memo)
        for y in range(max(3, below_max - 400) | 1, below_max, 2):
            if rng.random() < 0.3:
                below[y] = unit_step_sigma_memo(y, memo)
    return fill


def recording(stores, runs, fill=None):
    """``stores``, with ``fill(first, table, below)`` run on each fresh pair
    it makes, when given, and each pair kept in ``runs`` as
    (first, table, below)."""
    def recorded(first, end):
        table, below = stores(first, end)
        if fill is not None:
            fill(first, table, below)
        runs.append((first, table, below))
        return table, below
    return recorded


def run_trial(trial: Trial, module=verify) -> str | None:
    """What differs between ``module.verify_range`` and the reference on
    ``trial``, or None when the reports and every member's stored stopping
    time agree."""
    make, profile = module._stores, module.derive_profile
    runs = []
    stores = recording(make, runs, warm_fill(trial))
    args = (trial.start, trial.end, trial.class_filter, trial.budget)
    rows = rows_moving({trial.row[:2]: trial.row[2]} if trial.row else {})
    module._stores, module.derive_profile = stores, rows
    try:
        got = report_to_json(module.verify_range(*args))
    finally:
        module._stores, module.derive_profile = make, profile
    want = reference_range_sweep(*args, profile=rows, stores=stores)
    if got != report_to_json(want):
        return "report differs"
    members = trial.members()
    k, step = (members.start - (trial.start | 1)) >> 1, members.step >> 1
    tables = [table for _, table, _ in runs]
    for d, got_sigma, want_sigma in zip(members, tables[0][k::step],
                                        tables[1][k::step]):
        if got_sigma != want_sigma:
            return f"stored stopping time of {d} differs: {got_sigma} != {want_sigma}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=16)
    args = parser.parse_args(argv)
    failed = 0
    for start, end, class_filter, budget in SHAPES:
        t0 = perf_counter()
        fault = run_trial(make_trial(start, end - start, class_filter, budget,
                                     "cold", None, 0))
        failed += fault is not None
        print(f"{'same' if fault is None else 'DIFFERS, ' + fault}: [{start}, "
              f"{end}] class {class_filter} budget {budget} "
              f"({perf_counter() - t0:.1f} s)", flush=True)
    rng = random.Random(args.seed)
    t0 = perf_counter()
    failed_trials = 0
    for n in range(args.trials):
        trial = random_trial(rng)
        fault = run_trial(trial)
        if fault is not None:
            failed_trials += 1
            print(f"trial {n} DIFFERS: {fault}: {trial}", flush=True)
    failed += failed_trials
    print(f"{args.trials - failed_trials} of {args.trials} random trials same, "
          f"seed {args.seed} ({perf_counter() - t0:.1f} s)", flush=True)
    t0 = perf_counter()
    make, runs = verify._stores, []
    verify._stores = recording(make, runs)
    try:
        verify.verify_range(1, 10**7)
    finally:
        verify._stores = make
    ((_, table, _),) = runs
    top = max(table)
    record = (2 * table.index(top) + 1, top)
    failed += record != RECORD_1E7
    print(f"record {'same' if record == RECORD_1E7 else 'DIFFERS'}: sigma "
          f"{record[1]} at {record[0]}, the largest below 1e7 "
          f"({perf_counter() - t0:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
