import random
from itertools import count
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collatz_cover.verify as verify_module
from collatz_cover import (ProfileTable, RESIDUE_ORDER, build_report,
                           build_schema, classify, cover_audit,
                           cyclic_recurrence_check, derive_profile,
                           digit_root_class, digital_root, report_to_json,
                           residue_class)
from oracles import (membership_counts, reference_cover_audit,
                     valuation_by_division)
from range_differential import MOVES, rows_moving

odd_ints = st.integers(min_value=0, max_value=10**24).map(lambda k: 2 * k + 1)


def test_residue_order_is_cyclic_permutation():
    assert sorted(RESIDUE_ORDER) == [1, 3, 5, 7, 9, 11, 13, 15, 17]
    for idx, r in enumerate(RESIDUE_ORDER):
        successor = RESIDUE_ORDER[(idx + 1) % 9]
        assert (4 * r + 1) % 18 == successor


def test_residue_class_examples():
    assert residue_class(349525) == 1
    assert residue_class(21845) == 8
    assert residue_class(9) == 9
    for bad in (6, 0, -3, 2, 40):  # even or not positive
        with pytest.raises(ValueError):
            residue_class(bad)


def test_derive_profile_examples():
    p = derive_profile(1, 3)
    assert (p.d_modulus, p.d_offset, p.next_offset) == (144, 109, 41)
    assert p.v_offset == 6
    p = derive_profile(4, 8)
    assert (p.d_modulus, p.d_offset, p.next_offset) == (4608, 85, 1)
    p = derive_profile(9, 18)
    assert (p.d_modulus, p.d_offset, p.next_offset) == (4718592, 87381, 1)


def test_derive_profile_rejects():
    with pytest.raises(ValueError):
        derive_profile(0, 1)
    with pytest.raises(ValueError):
        derive_profile(10, 1)
    with pytest.raises(ValueError):
        derive_profile(1, 0)


def test_derive_profile_field_invariants():
    for i in range(1, 10):
        for m in range(1, 26):
            p = derive_profile(i, m)
            r = RESIDUE_ORDER[i - 1]
            assert p.residue == r
            assert p.d_modulus == 18 * 2**m
            assert 0 <= p.d_offset < p.d_modulus
            assert p.d_offset % 18 == r
            assert p.d_offset == 18 * p.v_offset + r
            assert 0 <= p.v_offset < 2**m
            assert p.even_offset == 3 * p.d_offset + 1
            assert p.even_modulus == 54 * 2**m
            assert p.next_modulus == 54
            assert p.next_offset & 1 and 1 <= p.next_offset <= 53
            assert 3 * p.d_offset + 1 == p.next_offset * 2**m


def least_member(i, m):
    """The least odd d of class i with v(3d+1) = m, by search over its
    landing, the odd a = (3d+1)/2^m, in ascending order: d grows with a."""
    r = RESIDUE_ORDER[i - 1]
    for a in count(1, 2):
        d, rem = divmod((a << m) - 1, 3)
        if not rem and d % 18 == r:
            return d


def landing(i, m):
    """The odd value that row (i, m)'s least member lands on."""
    v, a = valuation_by_division(3 * least_member(i, m) + 1)
    assert v == m
    return a


def test_derive_profile_matches_exhaustive_scan():
    # independent construction: scan one full period for the unique odd x in
    # the class whose 3x+1 has valuation exactly m
    for i in range(1, 10):
        r = RESIDUE_ORDER[i - 1]
        for m in range(1, 7):
            found = [x for x in range(1, 18 * 2**m, 2)
                     if x % 18 == r and valuation_by_division(3 * x + 1)[0] == m]
            assert found == [derive_profile(i, m).d_offset] == [
                least_member(i, m)], (i, m)


def test_profiles_match_reference(reference_tables):
    rows = {(row["i"], row["m"]): row for row in reference_tables["profiles"]}
    assert len(rows) == 162
    for (i, m), row in rows.items():
        p = derive_profile(i, m)
        assert p.residue == row["r"]
        assert p.v_offset == row["v_offset"]
        assert p.d_offset == row["d_offset"]
        assert p.d_modulus == row["d_coeff"]
        assert row["v_coeff"] == 2**m
        assert [p.d_modulus * n + p.d_offset for n in range(4)] == row["members"]


def test_landing_offsets_injective_for_fixed_m():
    for m in range(1, 19):
        offsets = {derive_profile(i, m).next_offset for i in range(1, 10)}
        assert len(offsets) == 9


def test_progressions_disjoint_within_class():
    # fixed class, different exponents never share a member
    window = 18 * 2**8
    for i in range(1, 10):
        seen = {}
        for m in range(1, 7):
            p = derive_profile(i, m)
            for d in range(p.d_offset, window, p.d_modulus):
                assert d not in seen, (i, m, seen[d], d)
                seen[d] = m


def test_crt_soundness_against_division_oracle():
    for i in range(1, 10):
        for m in range(1, 25):
            p = derive_profile(i, m)
            for n in range(4):
                d = p.d_modulus * n + p.d_offset
                assert valuation_by_division(3 * d + 1) == (m, 54 * n + p.next_offset)


def test_each_class_lands_once_on_every_unit_mod_54():
    units = [u for u in range(54) if gcd(u, 54) == 1]
    assert len(units) == 18
    for i in range(1, 10):
        assert sorted(landing(i, m) for m in range(1, 19)) == units, i


def test_the_next_class_lands_where_this_class_did_two_halvings_before():
    # S[i+1] = 4*S[i] + 1 (mod 18), so 3*S[i+1] + 1 = 4*(3*S[i] + 1) (mod 54)
    for i in range(1, 10):
        for m in range(3, 40):
            assert landing(i % 9 + 1, m) == landing(i, m - 2), (i, m)


def test_powers_of_two_repeat_mod_54_with_period_18():
    # so a row's landing and 2^m mod 54, which decide its proof, repeat too
    for m in range(1, 60):
        assert pow(2, m + 18, 54) == pow(2, m, 54)
        assert [landing(i, m + 18) for i in range(1, 10)] == [
            landing(i, m) for i in range(1, 10)]


def test_classify_examples():
    p, n = classify(13)
    assert (p.class_index, p.m, p.d_modulus, p.d_offset, n) == (4, 3, 144, 13, 0)
    p, n = classify(1)
    assert (p.class_index, p.m, p.d_modulus, p.d_offset, n) == (1, 2, 72, 1, 0)
    p, n = classify(157)
    assert (p.class_index, p.m, p.d_offset, n) == (4, 3, 13, 1)
    with pytest.raises(ValueError):
        classify(40)


def test_classify_reconstructs_range():
    for d in range(1, 10002, 2):
        p, n = classify(d)
        assert p.d_modulus * n + p.d_offset == d


@given(odd_ints)
@settings(max_examples=200)
def test_classify_reconstructs(d):
    p, n = classify(d)
    assert p.d_modulus * n + p.d_offset == d
    assert d % 18 == p.residue


def test_cover_audit_smallest():
    report = cover_audit(3, 2)
    assert report.outcome == "pass"
    assert report.items_checked == 2
    assert report.details["matched_once"] == 2
    assert report.details["multiply_matched"] == []
    # and d=3 is matched by the class-3 row with one halving
    p, n = classify(3)
    assert (p.class_index, p.m, p.d_modulus, p.d_offset, n) == (3, 1, 36, 3, 0)


def test_cover_audit_defers_deep_valuations():
    report = cover_audit(5, 1)
    assert report.outcome == "deferred"
    assert report.details["unmatched"] == [1, 5]  # need m=2 and m=4
    assert report.details["matched_once"] == 1  # d=3
    assert not report.counterexamples
    reasons = {d.input: d.reason for d in report.deferred}
    assert "valuation 2" in reasons[1]
    assert "valuation 4" in reasons[5]


def test_cover_audit_clean_at_ten_thousand():
    report = cover_audit(10**4, 18)
    assert report.outcome == "pass"
    assert report.details["multiply_matched"] == []
    assert report.details["unmatched"] == []
    assert report.details["matched_once"] == 5000


def test_cover_audit_rejects_tiny_bound():
    with pytest.raises(ValueError):
        cover_audit(2, 18)


def test_cover_audit_rejects_a_depth_below_1():
    with pytest.raises(ValueError, match=r"^max_m must be >= 1, got 0$"):
        cover_audit(2001, 0)


@pytest.mark.parametrize("bound", [3, 5001, 10007])
def test_membership_counts_match_brute_force(bound):
    # odd bounds are multiples of no modulus, so every stride ends mid-period
    profiles = [derive_profile(i, m) for i in range(1, 10) for m in range(1, 7)]
    brute = [sum(d % p.d_modulus == p.d_offset for p in profiles)
             for d in range(1, bound + 1, 2)]
    assert list(membership_counts(bound, profiles)) == brute


def test_membership_counts_do_not_wrap():
    # a fault that repeats one progression 300 times must count 300, not 44
    # and not an overflow error
    repeated = [derive_profile(4, 3)] * 300  # 144n + 13
    counts = membership_counts(1001, repeated)
    members = range(13, 1002, 144)
    assert [counts[d // 2] for d in members] == [300] * len(members)
    assert sum(counts) == 300 * len(members)


def cover_differs(module, bound, max_m, moves=None):
    """Does ``module.cover_audit`` report otherwise than the sieve, on the
    same rows, with the rows of ``moves`` moved?"""
    rows = rows_moving(moves or {})
    profile, module.derive_profile = module.derive_profile, rows
    try:
        got = report_to_json(module.cover_audit(bound, max_m))
    finally:
        module.derive_profile = profile
    return got != report_to_json(reference_cover_audit(bound, max_m, profile=rows))


@pytest.mark.parametrize("bound, max_m", [
    (3, 1), (3, 2), (5, 1), (10, 1), (2001, 18), (10**4, 18), (350000, 18),
    (10**6, 18), (10**6, 3), (10**6, 40), (999999, 7), (2 * 10**6 + 1, 12)])
def test_cover_audit_matches_the_sieve(bound, max_m):
    assert not cover_differs(verify_module, bound, max_m)


@pytest.mark.parametrize("i, m, how", [(2, 3, "+modulus"), (2, 3, "+18"),
                                       (5, 1, "+36")])
def test_cover_audit_matches_the_sieve_on_a_moved_row(monkeypatch, i, m, how):
    assert not cover_differs(verify_module, 20001, 18, {(i, m): how})
    monkeypatch.setattr(verify_module, "derive_profile", rows_moving({(i, m): how}))
    assert cover_audit(20001, 18).outcome == "fail"


def test_cover_audit_matches_the_sieve_on_random_shapes():
    rng = random.Random(26)
    for _ in range(150):
        bound, max_m = rng.randrange(3, 20001), rng.randrange(1, 21)
        moves = {(rng.randrange(1, 10), rng.randrange(1, max_m + 1)):
                 rng.choice(list(MOVES)) for _ in range(rng.choice([0, 0, 1, 2]))}
        assert not cover_differs(verify_module, bound, max_m, moves), (
            bound, max_m, moves)


def test_cover_audit_counts_the_odd_members_of_a_row_with_an_even_offset(
        monkeypatch):
    # offset + 1 holds no odd d, outside the sieve's reach: every true member
    # of the row is unmatched, by brute force over the rows' own members.
    # The row keeps the true row's next_offset, which the row proof reads
    true = derive_profile(4, 3)
    row = SimpleNamespace(d_offset=true.d_offset + 1, d_modulus=true.d_modulus,
                          next_offset=true.next_offset)
    rows = [row if (i, m) == (4, 3) else derive_profile(i, m)
            for i in range(1, 10) for m in range(1, 7)]
    monkeypatch.setattr(verify_module, "derive_profile",
                        lambda i, m: rows[(i - 1) * 6 + m - 1])
    report = cover_audit(2001, 6)
    counts = {d: sum(d >= p.d_offset and (d - p.d_offset) % p.d_modulus == 0
                     for p in rows) for d in range(1, 2002, 2)}
    assert report.details["unmatched"] == [d for d, c in counts.items() if c == 0]
    assert report.details["multiply_matched"] == []
    assert [c.input for c in report.counterexamples] == list(
        range(true.d_offset, 2002, true.d_modulus))


def test_cover_audit_far_past_any_table():
    # the unmatched class 3d + 1 = 0 (mod 2^61) starts at (2^62 - 1)/3, above
    # 1e18 and 4 times below 1e19
    report = cover_audit(10**18, 60)
    assert report.outcome == "pass"
    assert report.details["matched_once"] == (10**18 + 1) // 2
    unmatched = cover_audit(10**19, 60).details["unmatched"]
    assert unmatched == list(range((2**62 - 1) // 3, 10**19, 2**61))
    assert all(valuation_by_division(3 * d + 1)[0] > 60 for d in unmatched)


def test_cyclic_recurrence_examples():
    assert cyclic_recurrence_check(1, 19) is True   # 77 = 4*19+1 lands in [5]
    assert cyclic_recurrence_check(9, 87381) is True  # wraps back to [1]
    assert cyclic_recurrence_check(2, 5) is True    # 21 lands in [3]


def test_cyclic_recurrence_precondition_is_an_error():
    with pytest.raises(ValueError):
        cyclic_recurrence_check(1, 5)  # 5 is not in class 1
    with pytest.raises(ValueError):
        cyclic_recurrence_check(0, 1)
    with pytest.raises(ValueError):
        cyclic_recurrence_check(1, 4)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**18))
def test_cyclic_recurrence_holds_everywhere(i, k):
    d = 18 * k + RESIDUE_ORDER[i - 1]
    assert cyclic_recurrence_check(i, d) is True


def test_digital_root_examples():
    assert digital_root(349525) == 1  # 28 -> 10 -> 1
    assert digital_root(341) == 8
    assert digital_root(9) == 9
    with pytest.raises(ValueError):
        digital_root(0)


def test_digit_root_class_examples():
    assert digit_root_class(349525) == 1               # residue 1
    assert digit_root_class(341) == residue_class(341)  # residue 17, class 5
    assert RESIDUE_ORDER[digit_root_class(341) - 1] == 17
    assert digit_root_class(9) == 9


def test_digit_root_class_past_the_int_str_digit_limit():
    # one str() of d would exceed the default 4300-digit conversion limit
    d = 10**5000 + 1
    assert digit_root_class(d) == residue_class(d)
    assert digital_root(d) == 2
    assert digital_root(10**5000 - 1) == 9  # 5000 nines: a real digit sum


def test_record_types_are_immutable_and_compare_by_value():
    records = ((derive_profile(4, 3), "d_offset"),
               (build_report("check", {}), "outcome"),
               (ProfileTable.build(2), "max_m"), (build_schema(2), "rows"))
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    fresh = derive_profile.__wrapped__(4, 3)  # bypasses the lru_cache
    assert fresh is not derive_profile(4, 3)
    assert fresh == derive_profile(4, 3)
    assert hash(fresh) == hash(derive_profile(4, 3))


def test_digit_root_class_agrees_on_range():
    for d in range(1, 20002, 2):
        assert digit_root_class(d) == residue_class(d)


@given(odd_ints)
@settings(max_examples=200)
def test_digit_root_class_agrees(d):
    assert digit_root_class(d) == residue_class(d)


def test_profile_table_shape_and_lookup():
    table = ProfileTable.build(3)
    assert table.max_m == 3
    assert len(table.rows) == 27
    assert table.column(1)[3 - 1].d_offset == 109
    assert [p.m for p in table.column(2)] == [1, 2, 3]
    with pytest.raises(ValueError):
        ProfileTable.build(0)
