"""Full-size differential check of the range sweep, too slow for the test
suite. On each shape below, from cold tables, ``verify_range`` must report
byte for byte what the per-d reference sweep in ``oracles.py`` reports, and
store the same stopping time for every member. The reports alone would not
do: the recurrence comparison bites only on entries stored earlier, so a
sweep that fills a wrong stopping time into an empty entry still passes.

A last check sweeps [1, 1e7] alone and compares its largest stopping time
with the published one: sigma = 685 at 8400511, the delay record below 1e7
(OEIS A006877, A006878), which is odd and so in the sweep's table.

Run from the repository root (a few seconds):

    PYTHONPATH=src python tests/full_range_differential.py

It prints one line per shape, and one for the record, and exits 1 if any
of them differs.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).parent))

import collatz_cover.verify as verify  # noqa: E402
from collatz_cover import derive_profile, report_to_json  # noqa: E402
from collatz_cover.covering import RESIDUE_ORDER  # noqa: E402
from oracles import reference_range_sweep  # noqa: E402

# (start, end, class_filter, budget)
SHAPES = [
    (1, 10**6, None, 10**7),
    # the sweep of `verify sigma-relation --bound 1000000`, which starts
    # above 1
    (3, 10**6, None, 10**7),
    (1, 10**6, 9, 10**7),
    # a class whose lift of the path residues differs from class 9's
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
]

#: (n, sigma(n)) of the delay record below 1e7
RECORD_1E7 = (8400511, 685)

MAKE_STORES = verify._stores


def _recording(tables):
    """Cold stores, each table kept in ``tables``."""
    def stores(first, end):
        table, below = MAKE_STORES(first, end)
        tables.append(table)
        return table, below
    return stores


def main() -> int:
    failed = 0
    for start, end, class_filter, budget in SHAPES:
        t0 = perf_counter()
        tables = []
        verify._stores = _recording(tables)
        try:
            got = report_to_json(verify.verify_range(start, end, class_filter, budget))
        finally:
            verify._stores = MAKE_STORES
        want = report_to_json(reference_range_sweep(
            start, end, class_filter, budget, profile=derive_profile,
            stores=_recording(tables)))
        first = start | 1
        k, step = 0, 1  # the members' table indices
        if class_filter is not None:
            k, step = (RESIDUE_ORDER[class_filter - 1] - first) % 18 >> 1, 9
        same_report = got == want
        same_sigmas = tables[0][k::step] == tables[1][k::step]
        failed += not (same_report and same_sigmas)
        print(f"report {'same' if same_report else 'DIFFERS'}, stopping times "
              f"{'same' if same_sigmas else 'DIFFER'}: [{start}, {end}] class "
              f"{class_filter} budget {budget} ({perf_counter() - t0:.1f} s)",
              flush=True)
    t0 = perf_counter()
    tables = []
    verify._stores = _recording(tables)
    try:
        verify.verify_range(1, 10**7)
    finally:
        verify._stores = MAKE_STORES
    top = max(tables[0])
    record = (2 * tables[0].index(top) + 1, top)
    failed += record != RECORD_1E7
    print(f"record {'same' if record == RECORD_1E7 else 'DIFFERS'}: sigma "
          f"{record[1]} at {record[0]}, the largest below 1e7 "
          f"({perf_counter() - t0:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
