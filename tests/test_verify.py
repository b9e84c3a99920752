import json
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collatz_cover.verify as verify_module
from collatz_cover import (cover_audit, derive_profile, report_to_json,
                           residue_class, sigma_infinity,
                           verify_conjecture1, verify_cyclic,
                           verify_range, verify_sigma_relation,
                           verify_theorem1_symbolic)
from collatz_cover.covering import RESIDUE_ORDER, cyclic_recurrence_check
from oracles import (fill_true_entries, reference_conjecture1,
                     reference_range_sweep, unit_step_odd_descent,
                     unit_step_odds, unit_step_sigma_memo)
from range_differential import (ROW_MOVES, STORE_KINDS, make_trial,
                                recording, rows_moving, run_trial)


def _oracle_deferred(first, end, budget):
    memo = {}
    return [d for d in range(first, end + 1, 2)
            if d > 1 and unit_step_sigma_memo(d, memo) > budget]


def _budget_reason(d, budget):
    return f"budget exceeded: {d} not resolved within {budget} unit steps"


def _watch_stores(monkeypatch, fill=None):
    """Record the range sweep's stores (``range_differential.recording``).
    Each run appends its (first, table, below-start dict) to the returned
    list, after ``fill`` ran on them, and the sweep then fills them."""
    runs = []
    monkeypatch.setattr(verify_module, "_stores",
                        recording(verify_module._stores, runs, fill))
    return runs


def _table_entries(first, table):
    """The table's known entries, keyed by their odd value."""
    return {first + 2 * k: value for k, value in enumerate(table) if value}


def _oracle_fill(limit):
    """A fill that stores the true stopping time of every odd value of the
    table up to ``limit``, as an earlier sweep would have."""
    return lambda first, table, below: fill_true_entries(
        table, first, min(len(table), (limit - first) // 2 + 1), {})


def test_theorem1_at_default_depth():
    report = verify_theorem1_symbolic(18)
    assert report.outcome == "pass"
    assert report.items_checked == 162
    assert report.counterexamples == ()


def test_theorem1_extends_deeper():
    report = verify_theorem1_symbolic(40)
    assert report.outcome == "pass"
    assert report.items_checked == 360


def test_theorem1_spot_identities():
    p = derive_profile(1, 1)
    assert 3 * p.d_offset + 1 == 2 * 29 and p.d_offset == 19
    p = derive_profile(9, 18)
    assert 3 * p.d_offset + 1 == 2**18 * 1


def test_theorem1_rejects_bad_depth():
    with pytest.raises(ValueError):
        verify_theorem1_symbolic(0)


def test_conjecture1_small_range():
    report = verify_conjecture1(1001)
    assert report.outcome == "pass"
    assert report.items_checked == 501
    assert sum(int(v) for v in report.details["per_class"].values()) == 501


def test_conjecture1_single_values():
    # d=13: n=0 and the landing value 5 sits strictly inside (0, 54)
    report = verify_conjecture1(13, start=13)
    assert report.outcome == "pass" and report.items_checked == 1
    report = verify_conjecture1(1, start=1)
    assert report.outcome == "pass" and report.items_checked == 1


def test_conjecture1_rejects_empty_range():
    with pytest.raises(ValueError, match=r"^no odd integers in \[4, 4\]$"):
        verify_conjecture1(4, start=4)
    # 1, 3 and 5 are odd: a start below 1 is out of bounds, not empty
    with pytest.raises(ValueError, match=r"^need 1 <= start <= bound, got \[0, 5\]$"):
        verify_conjecture1(5, start=0)
    with pytest.raises(ValueError, match=r"^need 1 <= start <= bound, got \[11, 10\]$"):
        verify_conjecture1(10, start=11)


def test_conjecture1_proves_every_odd_integer_to_a_googol():
    # each row is proved once, so the cost grows with the number of rows,
    # (bound - 1).bit_length() per class, not with the bound
    bound = 10**100
    report = verify_conjecture1(bound)
    assert report.outcome == "pass"
    assert report.items_checked == (bound + 1) // 2
    assert sum(report.details["per_class"].values()) == (bound + 1) // 2


FAR = 2**10000


@pytest.mark.parametrize("row", [None, (1, 6)], ids=["true rows", "moved row"])
def test_a_far_window_proves_only_the_rows_it_can_hold(monkeypatch, row):
    # the 21 odd values from 2^10000 + 1 span less than 2^6, so they lie in
    # the rows m <= 6 and in the row of at most one d with v(3d+1) > 6: at
    # most 9*6 + 1 rows, where proving every row to (3*end+1).bit_length()
    # took 90,018. Row (1, 6) holds 2^10000 + 21 only; moved one modulus
    # up, it reads that member one index low
    lo, end = FAR + 1, FAR + 41
    rows = rows_moving({row: "+modulus"} if row else {})
    calls = []

    def counted(i, m):
        calls.append((i, m))
        return rows(i, m)

    monkeypatch.setattr(verify_module, "derive_profile", counted)
    got = verify_conjecture1(end, start=lo)
    assert len(calls) <= 9 * 6 + 1
    want = reference_conjecture1(lo, end, profile=rows)
    assert report_to_json(got) == report_to_json(want)
    assert got.outcome == ("fail" if row else "pass")
    calls.clear()
    got = verify_range(lo, end)
    assert len(calls) <= 9 * 6 + 1
    want = reference_range_sweep(lo, end, profile=rows,
                                 stores=verify_module._stores)
    assert report_to_json(got) == report_to_json(want)


def test_theorem1_flags_a_row_with_a_shifted_offset(monkeypatch):
    # one modulus too high, the offset leaves [0, modulus) and lands on
    # a + 54, which only the range and landing-residue checks see
    true = derive_profile(2, 3)
    monkeypatch.setattr(verify_module, "derive_profile",
                        rows_moving({(2, 3): "+modulus"}))
    report = verify_theorem1_symbolic(5)
    assert report.counterexamples == (
        ("(i=2, m=3)", f"offset in [0, {true.d_modulus})",
         str(true.d_offset + true.d_modulus)),
        ("(i=2, m=3)", "odd landing residue below 54",
         str(true.next_offset + 54)),
    )


def test_sigma_relation_small_range():
    report = verify_sigma_relation(2001)
    assert report.outcome == "pass"
    assert report.items_checked == 1000
    assert report.details["worked_pair"] == "sigma(13)=9, sigma(5)=5"


def test_sigma_relation_defers_on_budget():
    report = verify_sigma_relation(101, budget=20)
    assert report.outcome == "deferred"
    assert not report.counterexamples
    deferred_inputs = [d.input for d in report.deferred]
    assert 27 in deferred_inputs  # sigma(27) = 111 > 20
    assert deferred_inputs == sorted(deferred_inputs)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("budget", [9, 20, 50, 110, 111, 150, 1, 5, 8])
def test_sigma_relation_defers_exactly_past_the_budget(monkeypatch, budget, warm):
    if warm:  # every stopping time known before the budgeted run
        _watch_stores(monkeypatch, _oracle_fill(2001))
    report = verify_sigma_relation(2001, budget=budget)
    assert not report.counterexamples
    assert [x.input for x in report.deferred] == _oracle_deferred(3, 2001, budget)
    assert all(x.reason == _budget_reason(x.input, budget) for x in report.deferred)


@pytest.mark.parametrize("bound, budget, worked", [
    (3, 5, [13]), (11, 8, [13]), (3, 4, [5, 13]), (11, 4, [13])])
def test_sigma_relation_defers_worked_values_past_the_budget(bound, budget, worked):
    # sigma(13) = 9 and sigma(5) = 5 are checked even when the range ends
    # below them; past the budget they are deferred, not raised, and a value
    # the range already deferred is not listed twice
    report = verify_sigma_relation(bound, budget=budget)
    assert not report.counterexamples
    assert [x.input for x in report.deferred] == \
        _oracle_deferred(3, bound, budget) + worked
    assert all(x.reason == _budget_reason(x.input, budget) for x in report.deferred)


def test_sigma_relation_fills_a_given_cache_with_true_stopping_times(monkeypatch):
    runs = _watch_stores(monkeypatch)
    assert verify_sigma_relation(4001).outcome == "pass"
    ((first, table, _),) = runs
    memo = {}
    assert _table_entries(first, table) == {
        d: unit_step_sigma_memo(d, memo) for d in range(3, 4002, 2)}


def test_sigma_relation_fails_a_wrong_worked_value(monkeypatch):
    # the worked pair is walked apart from the sweep, so a walk one step too
    # long at 13 fails it alone
    monkeypatch.setattr(verify_module, "sigma_infinity", lambda n, budget:
                        sigma_infinity(n, budget=budget) + (n == 13))
    report = verify_sigma_relation(2001)
    assert report.outcome == "fail"
    assert report.counterexamples == ((13, "sigma 9", "10"),)


def test_sigma_relation_rejects_bad_bound():
    with pytest.raises(ValueError):
        verify_sigma_relation(2)


def test_cyclic_sampling():
    # (4d+1) mod 18 depends only on d mod 18, so no member is sampled: the
    # nine residues are checked, the same every time
    report = verify_cyclic()
    assert report.outcome == "pass"
    assert report.parameters == {}
    assert report.items_checked == 9
    assert report.details["classes_passing"] == "9/9"
    assert report_to_json(report) == report_to_json(verify_cyclic())


def test_cyclic_rejects_bad_samples():
    # the sample count and seed are no parameters any more, so passing one
    # is an error, not silently ignored
    with pytest.raises(TypeError):
        verify_cyclic(samples_per_class=0)
    with pytest.raises(TypeError):
        verify_cyclic(25, seed=7)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**30))
def test_cyclic_proves_every_member_whatever_the_samples(k):
    # what the nine residues prove holds for every member, however far out
    assert verify_cyclic().outcome == "pass"
    for i, r in enumerate(RESIDUE_ORDER, start=1):
        assert cyclic_recurrence_check(i, r + 18 * k)


@pytest.mark.parametrize("check, args", [
    (verify_theorem1_symbolic, (6,)),
    (cover_audit, (2001, 6)),
    (verify_conjecture1, (2001,)),
    (verify_sigma_relation, (2001,)),
    (verify_cyclic, ()),
    (verify_range, (1, 2001)),
], ids=["theorem1", "cover", "conjecture1", "sigma-relation", "cyclic", "range"])
def test_a_check_returns_equal_reports_for_equal_arguments(check, args):
    assert check(*args) == check(*args)


def test_range_single_element():
    report = verify_range(13, 13)
    assert report.outcome == "pass"
    assert report.items_checked == 1
    assert report.details["per_class"]["4"] == 1


def test_range_full_small():
    report = verify_range(1, 10**4)
    assert report.outcome == "pass"
    assert report.items_checked == 5000


def test_range_class_filter():
    report = verify_range(1, 10**4, class_filter=9)
    expected = len(range(9, 10**4 + 1, 18))
    assert report.items_checked == expected
    per_class = report.details["per_class"]
    assert per_class["9"] == expected
    assert all(per_class[str(i)] == 0 for i in range(1, 9))


def test_range_defers_on_budget():
    report = verify_range(1, 99, budget=20)
    assert report.outcome == "deferred"
    assert not report.counterexamples
    assert 27 in [d.input for d in report.deferred]


def test_range_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_range(0, 10)
    with pytest.raises(ValueError):
        verify_range(10, 5)
    with pytest.raises(ValueError):
        verify_range(1, 10, class_filter=10)


def test_range_passes_every_odd_integer_to_1e5():
    report = verify_range(1, 10**5)
    assert report.outcome == "pass"
    assert report.items_checked == 10**5 // 2
    assert not report.deferred


def _oracle_case(start, end, class_filter=None, warm=False):
    return pytest.param(start, end, class_filter, warm,
                        id=f"{start}-{end}-{class_filter}" + "-warm" * warm)


@pytest.mark.parametrize("start, end, class_filter, warm", [
    _oracle_case(5001, 20001),
    _oracle_case(30000, 40000),
    _oracle_case(1, 20001, 9),
    _oracle_case(7001, 30001, 4),
    # the first odd step lands on 1, below a start > 1
    *(_oracle_case(d, d) for d in (5, 21, 85, 341, 1365)),
    # m = 1 climbs from the top of the range leave it
    _oracle_case(1, 2**17 - 1),
    # walks fall below the start
    *(_oracle_case(start, start + 2000) for start in (27, 703, 2**20 + 1)),
    # walks from far above 2^32 fall below the start, where the dict admits
    # only the values below 2^32
    _oracle_case(2**33 + 1, 2**33 + 2001),
    # a table that already holds the lower half of the range
    _oracle_case(5001, 20001, warm=True),
    _oracle_case(1, 20001, 9, warm=True),
    *(_oracle_case(2001, 12001, i) for i in range(1, 10)),
])
def test_range_stopping_times_match_oracle(monkeypatch, start, end, class_filter,
                                           warm):
    runs = _watch_stores(monkeypatch, _oracle_fill(end // 2) if warm else None)
    report = verify_range(start, end, class_filter=class_filter)
    assert report.outcome == "pass"
    ((first, table, below),) = runs
    memo = {}
    members = [d for d in range(start | 1, end + 1, 2)
               if class_filter is None or residue_class(d) == class_filter]
    assert report.items_checked == len(members)
    stored = _table_entries(first, table)
    for d in members:
        assert d == 1 or stored.get(d) == unit_step_sigma_memo(d, memo), d
    for key, value in [*stored.items(), *below.items()]:
        assert value == unit_step_sigma_memo(key, memo), key
    if class_filter is not None:  # walks keep the other classes' values they pass
        assert len(stored) > len(members)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("start", [1, 1001, 27, 703, 2**20 + 1])
@pytest.mark.parametrize("budget", [9, 20, 50, 110, 111, 150])
def test_range_defers_exactly_past_the_budget(monkeypatch, start, budget, warm):
    end = start + 2000
    if warm:  # every stopping time of the range known before the budgeted run
        _watch_stores(monkeypatch, _oracle_fill(end))
    report = verify_range(start, end, budget=budget)
    assert not report.counterexamples
    assert [x.input for x in report.deferred] == _oracle_deferred(start, end, budget)
    assert all(x.reason == _budget_reason(x.input, budget) for x in report.deferred)


@pytest.mark.parametrize("start, end", [(20001, 40001), (2**33 + 1, 2**33 + 2001)])
def test_range_memo_keeps_only_values_below_the_start(monkeypatch, start, end):
    # values in the range live in the table and values above it are rarely
    # met again, so the dict holds neither; it admits nothing from 2^32 up.
    # A walk ends on the first entry it meets, so no value is stored twice:
    # a dict stored but never read would give the same report, only slower
    class RewriteCountingDict(dict):
        rewrites = 0

        def __setitem__(self, key, value):
            self.rewrites += key in self
            super().__setitem__(key, value)

    runs = []
    monkeypatch.setattr(verify_module, "_stores", recording(
        lambda first, end: (array("I", [0]) * ((end - first) // 2 + 1),
                            RewriteCountingDict()), runs))
    assert verify_range(start, end).outcome == "pass"
    ((_, _, below),) = runs
    assert below and max(below) < min(start, 2**32)
    assert below.rewrites == 0


def test_range_flags_a_cache_entry_the_table_contradicts(monkeypatch):
    # the recurrence comparison bites on stored entries: sigma(27) = 111, and
    # no walk reaches 27, since 27 * 2^m - 1 is never a multiple of 3
    def poison(first, table, below):
        table[(27 - first) >> 1] = 112

    _watch_stores(monkeypatch, poison)
    report = verify_range(1, 101)
    assert report.outcome == "fail"
    assert report.counterexamples == (
        (27, "sigma 111 (= sigma(41) + 2)", "112"),)


def _shift_a_row(monkeypatch, i, m):
    """Replace row (i, m) with one whose offset is one modulus too high;
    returns the true row and the row's members up to 2001."""
    monkeypatch.setattr(verify_module, "derive_profile",
                        rows_moving({(i, m): "+modulus"}))
    true = derive_profile(i, m)
    return true, range(true.d_offset, 2002, true.d_modulus)


@pytest.mark.parametrize("m", [1, 3], ids=["m1", "m3"])
@pytest.mark.parametrize("check", [verify_range, verify_conjecture1],
                         ids=["range", "conjecture1"])
def test_a_shifted_row_is_flagged_by_range_and_conjecture1(monkeypatch, check, m):
    # a row whose offset is one modulus too high puts its n = 0 member below
    # the progression and reads every other member one index low, so the
    # reconstruction and boundedness checks must both fire on that row
    # alone, in the one pass both checks make. The m = 3 row's members lie
    # in the progression 16k + 13, whose stopping times the sweep fills
    # from table slices
    true, members = _shift_a_row(monkeypatch, 1, m)  # 36n + 19, 144n + 109
    report = check(1, 2001) if check is verify_range else check(2001)
    assert report.outcome == "fail"
    assert report.counterexamples == (
        (true.d_offset,
         f"exact reconstruction {true.d_modulus}n + {true.d_offset + true.d_modulus}",
         "remainder 0"),
        *((d, f"next odd strictly inside (54*{n - 1}, 54*{n})", str((3 * d + 1) >> m))
          for n, d in enumerate(members) if n))
    assert report.items_checked == 1001


def test_range_fills_no_descent_from_the_entry_of_1(monkeypatch):
    # 3 -> 5 -> 1 is the first descent of 3, on the c = 2 path mod 64, and
    # the first odd step of 5 lands on 1. Every walk ends at 1 without
    # reading its table slot, so a wrong entry there must not reach
    # sigma(3) = 7 nor sigma(5) = 5
    def poison(first, table, below):
        table[0] = 50

    runs = _watch_stores(monkeypatch, poison)
    assert verify_range(1, 11).counterexamples == ()
    ((_, table, _),) = runs
    assert table[1:3] == array("I", [7, 5])


def test_range_reads_no_entry_of_1(monkeypatch):
    # a cold table but for a wrong entry of 1: a sweep that read it would
    # report according to the order in which it handles 5, 21, 85, ...
    def poison(first, table, below):
        table[0] = 50

    runs = _watch_stores(monkeypatch, poison)
    got = verify_range(1, 301)
    want = reference_range_sweep(1, 301, profile=derive_profile,
                                 stores=verify_module._stores)
    assert report_to_json(got) == report_to_json(want)
    first, table, _ = runs[0]
    memo = {}
    assert list(table[1:]) == [unit_step_sigma_memo(first + 2 * k, memo)
                               for k in range(1, len(table))]


def test_range_table_gives_the_published_delay_records(monkeypatch):
    # a third computation, from outside the code: the delay records below
    # 1e6 (OEIS A006877) and their stopping times (A006878), read from the
    # sweep's table of the odd values, with sigma(2^k*d) = sigma(d) + k
    published = json.loads(
        (Path(__file__).parent / "data" / "delay_records.json").read_text())
    runs = _watch_stores(monkeypatch)
    assert verify_range(1, 10**6).outcome == "pass"
    ((_, table, _),) = runs
    sigma = array("I", [0]) * published["below"]
    records, delays = [], []
    for n in range(1, published["below"]):
        sigma[n] = table[n >> 1] if n & 1 else sigma[n >> 1] + 1
        if not delays or sigma[n] > delays[-1]:
            records.append(n)
            delays.append(sigma[n])
    assert records == published["A006877"]
    assert delays == published["A006878"]


def test_range_rejects_ranges_without_odd_members():
    with pytest.raises(ValueError, match="no odd integers in"):
        verify_range(2, 2)
    with pytest.raises(ValueError, match="no odd integers of class 9"):
        verify_range(3, 7, class_filter=9)
    assert verify_range(9, 9, class_filter=9).items_checked == 1


def test_range_memory_stays_dense():
    # the dense table holds 4 bytes per odd integer, 40 kB here, and the
    # sweep peaks near 0.07 MiB; a dict memo of every stopping time met
    # peaks above 1 MiB on this range
    tracemalloc.start()
    try:
        verify_range(1, 20001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20 // 4


# ------------------------------------------------ differential: per-d sweep
#
# Each case runs a trial of tests/range_differential.py: the report and
# every walked member's stored stopping time must match the reference's.
# Warm stores hold true stopping times for a prefix of the range, seeded 0.

@pytest.mark.parametrize("kind", STORE_KINDS)
@pytest.mark.parametrize("budget", [60, 111, 10**7])
@pytest.mark.parametrize("start", [1, 27, 2001])
def test_range_reports_as_the_per_d_sweep(start, budget, kind):
    assert run_trial(make_trial(start, 6000, None, budget, kind, None, 0)) is None


@pytest.mark.parametrize("class_filter", range(1, 10))
def test_range_reports_as_the_per_d_sweep_for_one_class(class_filter):
    start, budget, kind = [(1, 10**7, "warm"), (27, 111, "warm"),
                           (2001, 60, "cold")][class_filter % 3]
    trial = make_trial(start, 12001 - start, class_filter, budget, kind, None, 0)
    assert run_trial(trial) is None


@pytest.mark.parametrize("start, end, budget", [
    (2001, 12001, 60), (2**33 + 1, 2**33 + 4001, 300)])
def test_class_sweep_walks_and_reports_as_the_unfiltered_sweep(monkeypatch, start,
                                                               end, budget):
    whole = verify_range(start, end, budget=budget)

    def no_fill(*args):
        raise AssertionError("a class sweep filled from the table")

    monkeypatch.setattr(verify_module, "_fill", no_fill)
    for k in range(1, 10):
        report = verify_range(start, end, class_filter=k, budget=budget)
        assert report.counterexamples == ()
        assert report.deferred == tuple(
            x for x in whole.deferred if x.input % 18 == RESIDUE_ORDER[k - 1])
        assert report.items_checked == whole.details["per_class"][str(k)]


@pytest.mark.parametrize("how", ROW_MOVES)
@pytest.mark.parametrize("m", range(1, 9))
def test_range_reports_as_the_per_d_sweep_with_a_wrong_row(m, how):
    i = 1 + (4 * m) % 9
    start, kind = [(1, "cold"), (27, "warm"), (2001, "warm")][m % 3]
    class_filter = i if how == "modulus/2" and m % 2 else None
    trial = make_trial(start, 4000, class_filter, [60, 111, 10**7][m % 3], kind,
                       (i, m, how), 0)
    assert run_trial(trial) is None


@pytest.mark.parametrize("how", ROW_MOVES)
def test_every_member_holds_its_stopping_time_whatever_its_row(monkeypatch, how):
    # a moved row fails reconstruction or boundedness for its members, but
    # each of them is still filled or walked, and ends with its stopping time
    memo = {}
    want = [unit_step_sigma_memo(d, memo) for d in range(3, 2002, 2)]
    runs = _watch_stores(monkeypatch)
    for i in range(1, 10):
        for m in range(1, 5):
            monkeypatch.setattr(verify_module, "derive_profile",
                                rows_moving({(i, m): how}))
            assert verify_range(1, 2001).outcome == "fail"
            _, table, _ = runs.pop()
            assert list(table[1:]) == want, (i, m)


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_range_reports_as_the_per_d_sweep_where_deep_paths_fill(kind):
    # the deepest paths step by 2^12, and have members in every block here
    assert run_trial(make_trial(1, 2 * 10**5 - 1, None, 10**7, kind, None, 0)) is None


@settings(max_examples=60, deadline=None)
@given(st.builds(
    make_trial,
    start=st.one_of(st.integers(1, 4000), st.integers(2**32 - 4000, 2**32 + 4000),
                    st.integers(1, 2**33)),
    width=st.integers(0, 1000),
    class_filter=st.one_of(st.none(), st.integers(1, 9)),
    budget=st.one_of(st.just(10**7), st.integers(1, 400)),
    stores=st.sampled_from(STORE_KINDS),
    row=st.one_of(st.none(), st.tuples(st.integers(1, 9), st.integers(1, 12),
                                       st.sampled_from(ROW_MOVES))),
    seed=st.integers(0, 2**32 - 1)))
def test_range_reports_as_the_per_d_sweep_on_random_shapes(trial):
    # the random trials of tests/range_differential.py, narrower and drawn
    # by hypothesis
    assert run_trial(trial) is None


# ------------------------------------------------ the sweep's fill paths

# The path table is that of the sweep with no class filter (None); a class
# sweep has no paths, and walks every member of its class.

@pytest.mark.parametrize("class_filter", [None])
def test_every_odd_value_lies_in_one_fill_path_or_scalar_class(class_filter):
    end = 2**17
    paths, scalar, _ = verify_module._sweep_paths()
    hits = array("I", [0]) * (end // 2)
    for residue, stride in [*(x[:2] for x in paths), *scalar]:
        for d in range(residue, end, stride):
            hits[d >> 1] += 1
    assert set(hits) == {1}


@pytest.mark.parametrize("class_filter", [None])
def test_fill_paths_follow_the_unit_step_walk(class_filter):
    # each path's target is the first odd value below d, c odd steps and
    # c + e unit steps on, as the unit steps find
    paths, _, _ = verify_module._sweep_paths()
    limit = 2 ** (verify_module._PATH_BITS + 2)
    checked = 0
    for residue, stride, e, p, b, steps, gap in paths:
        assert p * stride >> e == 2 * gap
        assert p == 3 ** (steps - e)
        for d in range(residue, limit, stride):
            target = (p * d + b) >> e
            if target >= d:
                continue
            descent = unit_step_odd_descent(d)
            assert descent[-1] == (target, steps), d
            assert len(descent) == steps - e, d
            checked += 1
    assert checked > limit // 3


def test_the_path_table_is_built_once_and_shared_frozen():
    # every sweep reads the one table, so no caller may change it
    table = verify_module._sweep_paths()
    assert verify_module._sweep_paths() is table
    for part in table:
        assert type(part) is tuple
        assert all(entry is None or type(entry) is tuple for entry in part)


def test_jump_table_follows_the_unit_step_walk():
    # entry r takes every odd x = r (mod 2^12) to its c-th odd value, c + e
    # unit steps on, and every odd value before it lies above x: for a
    # path's residue that value is x's first descent, for a scalar residue
    # it is the last that r fixes, still above x. Small x included
    paths, _, jumps = verify_module._sweep_paths()
    modulus = 1 << verify_module._PATH_BITS
    assert len(jumps) == modulus
    assert all(entry is None for entry in jumps[::2])
    # r fixes not even the first odd step only where 2^12 divides 3r + 1
    assert [r for r in range(1, modulus, 2) if jumps[r] is None] == [
        r for r in range(1, modulus, 2) if (3 * r + 1) % modulus == 0]
    descents = {r for residue, stride, *_ in paths
                for r in range(residue, modulus, stride)}
    checked = prefixes = 0
    for r, entry in enumerate(jumps):
        if entry is None:
            continue
        p, b, e, steps = entry
        c = steps - e
        assert p == 3 ** c, r
        for x in [*range(r, 2**13, modulus), *range(2**14 + r, 2**15, modulus)]:
            if x < 3:
                continue
            landing = (p * x + b) >> e
            odds = unit_step_odds(x, c)
            assert odds[-1] == (landing, steps), x
            assert all(y > x for y, _ in odds[:-1]), x
            if r in descents:
                if x > 2**14:
                    assert unit_step_odd_descent(x)[-1] == (landing, steps), x
            else:
                assert landing > x, x
                prefixes += 1
            checked += 1
    # six x for each of the odd residues but 1365, less x = 1
    assert checked == 6 * (modulus // 2 - 1) - 1
    assert prefixes > 6 * 250


# ------------------------------------------------ the fill's lane kernel

def _fill_by_entries(table, first, d, n, descent, cap):
    """``verify._fill`` one entry at a time: the n members' targets must
    hold 1..cap - (c + e), and each member's entry is then its target's
    plus c + e."""
    _, stride, e, p, b, steps, _ = descent
    members = range(d, d + stride * n, stride)
    sigmas = [table[(((p * y + b) >> e) - first) >> 1] for y in members]
    if not all(1 <= s <= cap - steps for s in sigmas):
        return False
    for y, s in zip(members, sigmas):
        table[(y - first) >> 1] = s + steps
    return True


# the paths with at least two odd values on the way to the target
_DEEP_PATHS = [x for x in verify_module._sweep_paths()[0] if x[3] >= 27]


def _lane_values(limit):
    """The lane values at a bound: 0, 1, limit, limit + 1, 2^31 - 1, 2^31
    and 2^32 - 1, those that fit in 32 bits."""
    return [v for v in (0, 1, limit, limit + 1, 2**31 - 1, 2**31, 2**32 - 1)
            if 0 <= v < 2**32]


def _fill_testing_every_entry(table, first, d, n, descent, cap):
    """``_fill_by_entries`` that also tests each odd value on the way in the
    table, and each member's own entry: each must hold 0 or what the walk
    through the target gives it."""
    _, stride, e, p, b, steps, _ = descent
    for y in range(d, d + stride * n, stride):
        sigma = table[(((p * y + b) >> e) - first) >> 1]
        for x, delta in unit_step_odd_descent(y)[:-1] + [(y, 0)]:
            k = (x - first) >> 1
            if k < len(table) and table[k] not in (0, sigma + steps - delta):
                return False
    return _fill_by_entries(table, first, d, n, descent, cap)


def _draw_swept_block(data):
    """A path, its first member d, a member count n whose targets all lie
    below d, as in a block of the sweep, the cap, and a table over [1, end]
    as the sweep leaves it: each target holds a stopping time or a lane
    value at a bound, and each odd value on the way and each member's own
    entry 0 or what the walk through the target gives it (0 where that is
    2^32 or more). An end below some values on the way cuts their slices
    short. Returns (table, d, n, descent, cap, loose), loose the table
    indices of the values on the way and the members' own entries."""
    descent = data.draw(st.sampled_from(_DEEP_PATHS))
    _, stride, e, p, b, steps, _ = descent
    d = descent[0] + stride * data.draw(st.integers(b // stride + 1, b // stride + 40))
    n = next(k for k in range(data.draw(st.integers(1, 6)), 0, -1)
             if (p * (d + stride * (k - 1)) + b) >> e < d)
    members = range(d, d + stride * n, stride)
    walks = [unit_step_odd_descent(y) for y in members]
    top = max(x for walk in walks for x, _ in walk)
    end = data.draw(st.one_of(st.just(top), st.integers(members[-1], top)))
    budget = data.draw(st.sampled_from(
        [steps - 1, steps, steps + 1, steps + 200, 10**7, 10**7, 2**31 + 5]))
    cap = min(budget, verify_module._LANE_MAX)
    limit = cap - steps
    sigmas = [1, max(1, limit), min(57, max(1, limit))] + _lane_values(limit)
    table = array("I", [0]) * ((end - 1) // 2 + 1)
    loose = []
    for y, walk in zip(members, walks):
        assert walk[-1] == ((p * y + b) >> e, steps)
        sigma = data.draw(st.sampled_from(sigmas))
        table[(walk[-1][0] - 1) >> 1] = sigma
        for x, delta in walk[:-1] + [(y, 0)]:
            if x <= end:
                walked = sigma + steps - delta
                table[(x - 1) >> 1] = data.draw(
                    st.sampled_from([0, walked] if walked < 2**32 else [0]))
                loose.append((x - 1) >> 1)
    return table, d, n, descent, cap, loose


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lane_fill_matches_the_per_entry_fill(data):
    # on a block as the sweep leaves it, the fill that reads only the
    # targets fills as one entry at a time does, and as one that also
    # tests every other entry
    table, d, n, descent, cap, _ = _draw_swept_block(data)
    lanes, entries, tested = array("I", table), array("I", table), array("I", table)
    got = verify_module._fill(lanes, 1, d, n, descent, cap)
    assert got == _fill_by_entries(entries, 1, d, n, descent, cap)
    assert got == _fill_testing_every_entry(tested, 1, d, n, descent, cap)
    assert lanes == entries == tested


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lane_fill_reads_only_targets(data):
    # a block as the sweep leaves it, with each value on the way and each
    # member's own entry then set to any 32-bit value, fills as the block
    # did, and as the per-entry fill does, and no entry but the members' is
    # written
    table, d, n, descent, cap, loose = _draw_swept_block(data)
    swept = array("I", table)
    for k in loose:
        table[k] = data.draw(st.integers(0, 2**32 - 1))
    lanes, entries = array("I", table), array("I", table)
    got = verify_module._fill(lanes, 1, d, n, descent, cap)
    assert got == verify_module._fill(swept, 1, d, n, descent, cap)
    assert got == _fill_by_entries(entries, 1, d, n, descent, cap)
    assert lanes == entries


@pytest.mark.parametrize("cut",[False, True], ids=["whole", "cut short by end"])
@pytest.mark.parametrize("budget", [10**7, 2**31 + 5])
@pytest.mark.parametrize("role", ["target", "on the way", "own entry"])
@pytest.mark.parametrize("lane", ["0", "1", "limit", "limit + 1", "2^31 - 1",
                                  "2^31", "2^32 - 1"])
def test_lane_fill_at_lane_bounds(lane, role, budget, cut):
    # three members whose targets hold 57 and whose other entries are 0,
    # but for one entry of the middle member, which holds the lane value.
    # Only a target's lane decides the fill: the sweep trusts its stores,
    # so the fill reads no value on the way, nor a member's own entry,
    # which it overwrites, and a table cut short below the values on the
    # way fills as a whole one
    descent = _DEEP_PATHS[0]
    residue, stride, e, p, b, steps, _ = descent
    cap = min(budget, verify_module._LANE_MAX)
    limit = cap - steps
    value = {"0": 0, "1": 1, "limit": limit, "limit + 1": limit + 1,
             "2^31 - 1": 2**31 - 1, "2^31": 2**31, "2^32 - 1": 2**32 - 1}[lane]
    d = residue + stride * (b // stride + 1)
    members = [d, d + stride, d + 2 * stride]
    on_way = [unit_step_odd_descent(y)[:-1] for y in members]
    end = on_way[-1][0][0] - 2 if cut else max(x for x, _ in on_way[-1])
    table = array("I", [0]) * ((end - 1) // 2 + 1)
    for y in members:
        table[(((p * y + b) >> e) - 1) >> 1] = 57
    slot = {"target": (p * members[1] + b) >> e, "on the way": on_way[1][0][0],
            "own entry": members[1]}[role]
    assert slot <= end
    table[(slot - 1) >> 1] = value
    fills = role != "target" or 1 <= value <= limit
    lanes, entries = array("I", table), array("I", table)
    assert verify_module._fill(lanes, 1, d, 3, descent, cap) == fills
    assert _fill_by_entries(entries, 1, d, 3, descent, cap) == fills
    assert lanes == entries
