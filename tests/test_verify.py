import tracemalloc
from types import SimpleNamespace

import pytest

import collatz_cover.verify as verify_module
from collatz_cover import (SigmaCache, derive_profile, report_to_json,
                           residue_class, verify_conjecture1, verify_cyclic,
                           verify_range, verify_sigma_relation,
                           verify_theorem1_symbolic)
from oracles import unit_step_sigma_memo


def _oracle_deferred(first, end, budget):
    memo = {}
    return [d for d in range(first, end + 1, 2)
            if d > 1 and unit_step_sigma_memo(d, memo) > budget]


def _budget_reason(d, budget):
    return f"budget exceeded: {d} not resolved within {budget} unit steps"


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
def test_sigma_relation_defers_exactly_past_the_budget(budget, warm):
    cache = SigmaCache() if warm else None
    if warm:  # every stopping time known before the budgeted run
        verify_sigma_relation(2001, cache)
    report = verify_sigma_relation(2001, cache, budget=budget)
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


def test_sigma_relation_fills_a_given_cache_with_true_stopping_times():
    cache = SigmaCache()
    assert verify_sigma_relation(4001, cache).outcome == "pass"
    memo = {}
    assert all(cache.get(d) == unit_step_sigma_memo(d, memo)
               for d in range(3, 4002, 2))


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


def test_range_warm_cache_changes_nothing():
    cache = SigmaCache()
    cold = verify_range(1, 5001, cache=cache)
    warm = verify_range(1, 5001, cache=cache)
    assert report_to_json(cold) == report_to_json(warm)


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
    # a cache that already holds the lower half of the range seeds the table
    _oracle_case(5001, 20001, warm=True),
    _oracle_case(1, 20001, 9, warm=True),
    *(_oracle_case(2001, 12001, i) for i in range(1, 10)),
])
def test_range_stopping_times_match_oracle(start, end, class_filter, warm):
    cache = SigmaCache()
    if warm:
        verify_range(1, end // 2, cache=cache)
    report = verify_range(start, end, class_filter=class_filter, cache=cache)
    assert report.outcome == "pass"
    memo = {}
    members = [d for d in range(start | 1, end + 1, 2)
               if class_filter is None or residue_class(d) == class_filter]
    assert report.items_checked == len(members)
    for d in members:
        assert d == 1 or cache.get(d) == unit_step_sigma_memo(d, memo), d
    for key, value in cache.items():  # also the memo below start
        assert value == unit_step_sigma_memo(key, memo), key
    if class_filter is not None:  # walks keep the other classes' values they pass
        stored = [key for key, _ in cache.items() if start <= key <= end]
        assert len(stored) > len(members)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("start", [1, 1001, 27, 703, 2**20 + 1])
@pytest.mark.parametrize("budget", [9, 20, 50, 110, 111, 150])
def test_range_defers_exactly_past_the_budget(start, budget, warm):
    end = start + 2000
    cache = SigmaCache() if warm else None
    if warm:  # every stopping time known before the budgeted run
        verify_range(start, end, cache=cache)
    report = verify_range(start, end, budget=budget, cache=cache)
    assert not report.counterexamples
    assert [x.input for x in report.deferred] == _oracle_deferred(start, end, budget)
    assert all(x.reason == _budget_reason(x.input, budget) for x in report.deferred)


@pytest.mark.parametrize("start, end", [(20001, 40001), (2**33 + 1, 2**33 + 2001)])
def test_range_memo_keeps_only_values_below_the_start(monkeypatch, start, end):
    # without a cache, values in the range live in the table and values
    # above it are rarely met again, so the sweep's own memo holds neither;
    # it keeps the default admission bound, 2^32, too
    memos = []

    class RecordingCache(SigmaCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            memos.append(self)

    monkeypatch.setattr(verify_module, "SigmaCache", RecordingCache)
    assert verify_range(start, end).outcome == "pass"
    (memo,) = memos
    keys = [key for key, _ in memo.items()]
    assert keys and max(keys) < min(start, 2**32)


def test_range_flags_a_cache_entry_the_table_contradicts():
    # the recurrence comparison bites on stored entries: sigma(27) = 111, and
    # no walk reaches 27, since 27 * 2^m - 1 is never a multiple of 3
    cache = SigmaCache()
    cache.put(27, 112)
    report = verify_range(1, 101, cache=cache)
    assert report.outcome == "fail"
    assert report.counterexamples == (
        (27, "sigma 111 (= sigma(41) + 2)", "112"),)


def test_range_flags_a_row_with_a_shifted_offset(monkeypatch):
    # a row whose offset is one modulus too high puts its n = 0 member below
    # the progression and reads every other member one index low, so the
    # reconstruction and boundedness checks must both fire on that row alone
    i, m = 1, 1
    true = derive_profile(i, m)  # 36n + 19
    shifted = SimpleNamespace(class_index=i, m=m, d_modulus=true.d_modulus,
                              d_offset=true.d_offset + true.d_modulus)

    def patched(ci, cm):
        return shifted if (ci, cm) == (i, m) else derive_profile(ci, cm)

    monkeypatch.setattr(verify_module, "derive_profile", patched)
    report = verify_range(1, 2001)
    members = range(true.d_offset, 2002, true.d_modulus)
    expected = [(true.d_offset,
                 f"exact reconstruction {true.d_modulus}n + {shifted.d_offset}",
                 "remainder 0")]
    expected += [(d, f"next odd strictly inside (54*{n - 1}, 54*{n})",
                  str((3 * d + 1) >> m))
                 for n, d in enumerate(members) if n]
    assert report.outcome == "fail"
    assert report.counterexamples == tuple(expected)
    assert report.items_checked == 1001


def test_range_skips_cache_values_too_large_for_the_table():
    cache = SigmaCache()
    cache.put(27, 1 << 40)  # put admits any nonnegative value
    report = verify_range(1, 101, cache=cache)
    assert report.outcome == "pass"
    assert cache.get(27) == 111


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
