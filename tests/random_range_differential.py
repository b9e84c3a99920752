"""Random-shape differential check of the range sweep, too slow for the test
suite at this size. Each seeded trial draws a shape and a store, runs
``verify_range`` and the per-d reference sweep in ``oracles.py`` on the same
stores and the same rows, and compares the report bytes and every member's
stored stopping time.

A trial draws:

- a start at 1, near 1, up to 2^33, near 2^32 or near 2^33, and a
  width up to 2e4, both near 1 log-uniform;
- no class, or one class of the nine;
- a budget from 1 to 10^7, log-uniform, or 10^7;
- cold or warm stores: warm holds true stopping times for part of the
  range and for some values below the start. The sweep trusts its stores,
  so a store holds no wrong entry;
- in about a third of the trials, one progression row moved off its true
  offset or modulus. The members whose reconstruction then fails are left
  out of the stored comparison: neither sweep walks them, and only the
  reference stores the values its walks pass.

Run from the repository root (about 10 s):

    PYTHONPATH=src python tests/random_range_differential.py [--trials N] [--seed S]

It prints one line per trial that differs and a summary, and exits 1 if any
trial differs. The same trials back a small hypothesis test in
``test_verify.py``.
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
from oracles import reference_range_sweep, unit_step_sigma_memo  # noqa: E402

ROW_MOVES = ("+modulus", "-modulus", "+modulus/2", "modulus/2")
STORE_KINDS = ("cold", "warm")


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


def rows_of(row):
    """derive_profile, with the trial's row (i, m) moved: its offset by
    +-modulus or +modulus/2, or its modulus halved."""
    if row is None:
        return derive_profile
    i, m, how = row
    true = derive_profile(i, m)
    offset, modulus = true.d_offset, true.d_modulus
    offset, modulus = {"+modulus": (offset + modulus, modulus),
                       "-modulus": (offset - modulus, modulus),
                       "+modulus/2": (offset + modulus // 2, modulus),
                       "modulus/2": (offset, modulus // 2)}[how]
    moved = SimpleNamespace(class_index=i, m=m, d_offset=offset, d_modulus=modulus)
    return lambda ci, cm: moved if (ci, cm) == (i, m) else derive_profile(ci, cm)


def stores_of(trial: Trial, make):
    """A store factory that gives both sweeps the same stores: ``make``'s
    empty ones, then the trial's warm entries."""
    def stores(first, end):
        table, below = make(first, end)
        if trial.stores == "cold":
            return table, below
        rng = random.Random(trial.seed)
        memo = {}
        below_max = min(first, 2**32)
        # true stopping times of a prefix of the range, and of some odd
        # values just below the start
        for k in range(rng.randrange(len(table) + 1)):
            y = first + 2 * k
            if y > 1:
                table[k] = unit_step_sigma_memo(y, memo)
        for y in range(max(3, below_max - 400) | 1, below_max, 2):
            if rng.random() < 0.3:
                below[y] = unit_step_sigma_memo(y, memo)
        return table, below
    return stores


def run_trial(trial: Trial, module=verify) -> str | None:
    """What differs between ``module.verify_range`` and the reference on
    ``trial``, or None when the reports and every compared member's stored
    stopping time agree."""
    make, profile = module._stores, module.derive_profile
    tables = []

    def recording(first, end):
        table, below = stores(first, end)
        tables.append(table)
        return table, below

    stores = stores_of(trial, make)
    args = (trial.start, trial.end, trial.class_filter, trial.budget)
    module._stores, module.derive_profile = recording, rows_of(trial.row)
    try:
        got = report_to_json(module.verify_range(*args))
    finally:
        module._stores, module.derive_profile = make, profile
    want_report = reference_range_sweep(*args, profile=rows_of(trial.row),
                                        stores=recording)
    if got != report_to_json(want_report):
        return "report differs"
    unwalked = {c.input for c in want_report.counterexamples
                if c.expected.startswith("exact reconstruction")}
    first = trial.start | 1
    for d in trial.members():
        k = (d - first) >> 1
        if d not in unwalked and tables[0][k] != tables[1][k]:
            return f"stored stopping time of {d} differs: {tables[0][k]} != {tables[1][k]}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=16)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    t0 = perf_counter()
    failed = 0
    for n in range(args.trials):
        trial = random_trial(rng)
        fault = run_trial(trial)
        if fault is not None:
            failed += 1
            print(f"trial {n} DIFFERS: {fault}: {trial}", flush=True)
    print(f"{args.trials - failed} of {args.trials} trials same, seed {args.seed} "
          f"({perf_counter() - t0:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
