import random
import tracemalloc
from types import SimpleNamespace

import pytest

import collatz_cover.verify as verify_module
from collatz_cover import (derive_profile, report_to_json, residue_class,
                           verify_conjecture1, verify_cyclic, verify_range,
                           verify_sigma_relation, verify_theorem1_symbolic)
from oracles import reference_range_sweep, unit_step_sigma_memo


def _oracle_deferred(first, end, budget):
    memo = {}
    return [d for d in range(first, end + 1, 2)
            if d > 1 and unit_step_sigma_memo(d, memo) > budget]


def _budget_reason(d, budget):
    return f"budget exceeded: {d} not resolved within {budget} unit steps"


def _watch_stores(monkeypatch, fill=None):
    """Wrap the range sweep's store factory. Each run appends its
    (first, table, below-start dict) to the returned list, and the sweep
    then fills them; ``fill(first, table)`` runs on the fresh table first."""
    runs = []
    make = verify_module._stores

    def stores(first, end):
        table, below = make(first, end)
        if fill is not None:
            fill(first, table)
        runs.append((first, table, below))
        return table, below

    monkeypatch.setattr(verify_module, "_stores", stores)
    return runs


def _table_entries(first, table):
    """The table's known entries, keyed by their odd value."""
    return {first + 2 * k: value for k, value in enumerate(table) if value}


def _oracle_fill(limit):
    """A fill that stores the true stopping time of every odd value of the
    table up to ``limit``, as an earlier sweep would have."""
    memo = {}

    def fill(first, table):
        for k in range(min(len(table), (limit - first) // 2 + 1)):
            y = first + 2 * k
            if y > 1:
                table[k] = unit_step_sigma_memo(y, memo)

    return fill


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
    with pytest.raises(ValueError):
        verify_conjecture1(4, start=4)
    with pytest.raises(ValueError):
        verify_conjecture1(10, start=0)


def test_conjecture1_proves_every_odd_integer_to_a_googol():
    # each row is proved once, so the cost grows with the number of rows,
    # (3 * bound + 1).bit_length() per class, not with the bound
    bound = 10**100
    report = verify_conjecture1(bound)
    assert report.outcome == "pass"
    assert report.items_checked == (bound + 1) // 2
    assert sum(report.details["per_class"].values()) == (bound + 1) // 2


def test_theorem1_flags_a_row_with_a_shifted_offset(monkeypatch):
    # one modulus too high, the offset leaves [0, modulus) and lands on
    # a + 54, which only the range and landing-residue checks see
    true = derive_profile(2, 3)
    shifted = SimpleNamespace(d_modulus=true.d_modulus,
                              d_offset=true.d_offset + true.d_modulus,
                              next_offset=true.next_offset + 54)
    monkeypatch.setattr(
        verify_module, "derive_profile",
        lambda i, m: shifted if (i, m) == (2, 3) else derive_profile(i, m))
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
    (3, 5, [13]), (11, 8, [13]), (3, 4, [13, 5]), (11, 4, [13])])
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


def test_sigma_relation_rejects_bad_bound():
    with pytest.raises(ValueError):
        verify_sigma_relation(2)


def test_cyclic_sampling():
    report = verify_cyclic(samples_per_class=25, seed=7)
    assert report.outcome == "pass"
    assert report.items_checked == 225
    assert report.details["classes_passing"] == "9/9"
    again = verify_cyclic(samples_per_class=25, seed=7)
    assert report_to_json(report) == report_to_json(again)


def test_cyclic_rejects_bad_samples():
    with pytest.raises(ValueError):
        verify_cyclic(samples_per_class=0)


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

    make = verify_module._stores
    dicts = []

    def stores(first, end):
        table, _ = make(first, end)
        dicts.append(RewriteCountingDict())
        return table, dicts[-1]

    monkeypatch.setattr(verify_module, "_stores", stores)
    assert verify_range(start, end).outcome == "pass"
    (below,) = dicts
    assert below and max(below) < min(start, 2**32)
    assert below.rewrites == 0


def test_range_flags_a_cache_entry_the_table_contradicts(monkeypatch):
    # the recurrence comparison bites on stored entries: sigma(27) = 111, and
    # no walk reaches 27, since 27 * 2^m - 1 is never a multiple of 3
    def poison(first, table):
        table[(27 - first) >> 1] = 112

    _watch_stores(monkeypatch, poison)
    report = verify_range(1, 101)
    assert report.outcome == "fail"
    assert report.counterexamples == (
        (27, "sigma 111 (= sigma(41) + 2)", "112"),)


def _shift_a_row(monkeypatch, i, m):
    """Replace row (i, m) with one whose offset is one modulus too high;
    returns the true row and the row's members up to 2001."""
    true = derive_profile(i, m)
    shifted = SimpleNamespace(class_index=i, m=m, d_modulus=true.d_modulus,
                              d_offset=true.d_offset + true.d_modulus)

    def patched(ci, cm):
        return shifted if (ci, cm) == (i, m) else derive_profile(ci, cm)

    monkeypatch.setattr(verify_module, "derive_profile", patched)
    return true, range(true.d_offset, 2002, true.d_modulus)


def _shifted_row_counterexamples(i, m, true, members, first_check):
    """The counterexamples a sweep over [1, 2001] owes a shifted row (i, m):
    ``first_check`` for its n = 0 member, the boundedness check one index
    low for every other member."""
    expected = [(true.d_offset, *first_check)]
    expected += [(d, f"next odd strictly inside (54*{n - 1}, 54*{n})",
                  str((3 * d + 1) >> m))
                 for n, d in enumerate(members) if n]
    return tuple(expected)


def test_range_flags_a_row_with_a_shifted_offset(monkeypatch):
    # a row whose offset is one modulus too high puts its n = 0 member below
    # the progression and reads every other member one index low, so the
    # reconstruction and boundedness checks must both fire on that row alone
    i, m = 1, 1
    true, members = _shift_a_row(monkeypatch, i, m)  # 36n + 19
    report = verify_range(1, 2001)
    assert report.outcome == "fail"
    assert report.counterexamples == _shifted_row_counterexamples(
        i, m, true, members,
        (f"exact reconstruction {true.d_modulus}n + "
         f"{true.d_offset + true.d_modulus}", "remainder 0"))
    assert report.items_checked == 1001


def test_range_flags_a_shifted_row_whose_members_fill_by_slices(monkeypatch):
    # the m = 3 twin: the row's members lie in the progression 16k + 13,
    # whose stopping times the sweep fills from table slices
    i, m = 1, 3
    true, members = _shift_a_row(monkeypatch, i, m)  # 144n + 109
    report = verify_range(1, 2001)
    assert report.outcome == "fail"
    assert report.counterexamples == _shifted_row_counterexamples(
        i, m, true, members,
        (f"exact reconstruction {true.d_modulus}n + "
         f"{true.d_offset + true.d_modulus}", "remainder 0"))
    assert report.items_checked == 1001


def test_conjecture1_flags_a_row_with_a_shifted_offset(monkeypatch):
    # the row fails its proof, so its true members are checked one by one,
    # each one index low; the n = 0 member reads index -1
    i, m = 1, 1
    true, members = _shift_a_row(monkeypatch, i, m)
    report = verify_conjecture1(2001)
    assert report.outcome == "fail"
    assert report.counterexamples == _shifted_row_counterexamples(
        i, m, true, members,
        ("next odd strictly inside (54*-1, 54*0)",
         str((3 * true.d_offset + 1) >> m)))
    assert report.items_checked == 1001


def test_range_flags_a_poisoned_entry_met_by_a_slice(monkeypatch):
    # 13 is the first member of the m = 3 progression 16k + 13, which the
    # sweep fills from its targets' entries; sigma(13) = sigma(5) + 4 = 9
    def poison(first, table):
        table[(13 - first) >> 1] = 10

    _watch_stores(monkeypatch, poison)
    report = verify_range(1, 101)
    assert report.counterexamples == ((13, "sigma 9 (= sigma(5) + 4)", "10"),)


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

_MAKE_STORES = verify_module._stores


def _stores_of(kind, seed=0):
    """A store factory for both sweeps: ``cold`` (empty), ``warm`` (every
    true stopping time of the range's lower half), or ``poisoned`` (half
    warm, then wrong entries in the table, d = 1's included, and in the
    below-start dict). Each call makes the same stores."""
    def stores(first, end):
        table, below = _MAKE_STORES(first, end)
        if kind != "cold":
            _oracle_fill((first + end) // 2 if kind == "warm" else first + end // 4)(
                first, table)
        if kind == "poisoned":
            rng = random.Random(seed)
            for k in rng.sample(range(len(table)), min(len(table), 30)):
                table[k] = rng.randrange(1, 250)
            table[0] = rng.randrange(1, 250)
            for y in range(1, min(first, 300), 2):
                if rng.random() < 0.2:
                    below[y] = rng.randrange(1, 250)
        return table, below
    return stores


def _mutated_rows(i, m, how):
    """derive_profile with row (i, m) moved: its offset by +-modulus or
    +modulus/2, or its modulus halved."""
    true = derive_profile(i, m)
    offset, modulus = true.d_offset, true.d_modulus
    offset, modulus = {"+modulus": (offset + modulus, modulus),
                       "-modulus": (offset - modulus, modulus),
                       "+modulus/2": (offset + modulus // 2, modulus),
                       "modulus/2": (offset, modulus // 2)}[how]
    row = SimpleNamespace(class_index=i, m=m, d_offset=offset, d_modulus=modulus)
    return lambda ci, cm: row if (ci, cm) == (i, m) else derive_profile(ci, cm)


def _same_report_as_per_d_sweep(monkeypatch, start, end, class_filter, budget,
                                stores, profile=derive_profile):
    monkeypatch.setattr(verify_module, "_stores", stores)
    monkeypatch.setattr(verify_module, "derive_profile", profile)
    want = reference_range_sweep(start, end, class_filter, budget,
                                 profile=profile, stores=stores)
    got = verify_range(start, end, class_filter, budget)
    assert report_to_json(got) == report_to_json(want)


@pytest.mark.parametrize("kind", ["cold", "warm", "poisoned"])
@pytest.mark.parametrize("budget", [60, 111, 10**7])
@pytest.mark.parametrize("start", [1, 27, 2001])
def test_range_reports_as_the_per_d_sweep(monkeypatch, start, budget, kind):
    _same_report_as_per_d_sweep(monkeypatch, start, start + 6000, None, budget,
                                _stores_of(kind, seed=start + budget))


@pytest.mark.parametrize("class_filter", range(1, 10))
def test_range_reports_as_the_per_d_sweep_for_one_class(monkeypatch, class_filter):
    start, budget, kind = [(1, 10**7, "warm"), (27, 111, "poisoned"),
                           (2001, 60, "cold")][class_filter % 3]
    _same_report_as_per_d_sweep(monkeypatch, start, 12001, class_filter, budget,
                                _stores_of(kind, seed=class_filter))


@pytest.mark.parametrize("how", ["+modulus", "-modulus", "+modulus/2", "modulus/2"])
@pytest.mark.parametrize("m", range(1, 9))
def test_range_reports_as_the_per_d_sweep_with_a_wrong_row(monkeypatch, m, how):
    i = 1 + (4 * m) % 9
    start, kind = [(1, "cold"), (27, "poisoned"), (2001, "warm")][m % 3]
    class_filter = i if how == "modulus/2" and m % 2 else None
    _same_report_as_per_d_sweep(monkeypatch, start, start + 4000, class_filter,
                                [60, 111, 10**7][m % 3], _stores_of(kind, seed=m),
                                _mutated_rows(i, m, how))
