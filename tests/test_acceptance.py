"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with pytest -s)."""

import json
from contextlib import contextmanager
from time import perf_counter

from collatz_cover import (ProfileTable, build_schema,
                           build_sigma_schema, cover_audit, derive_profile,
                           digit_root_class, render_str, report_to_json,
                           residue_class, sigma_infinity, verify_conjecture1,
                           verify_range, verify_theorem1_symbolic)
from collatz_cover.cli import main
from oracles import (reference_cover_audit, unit_step_sigma_memo,
                     valuation_by_division)

BOUND_LARGE = 10**6
BOUND_MEDIUM = 10**5


@contextmanager
def criterion(number, description):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} [{description}]: FAIL")
        raise
    print(f"criterion {number:02d} [{description}]: PASS "
          f"({perf_counter() - start:.2f}s)")


def test_criterion_01_worked_example_fidelity(capsys):
    with criterion(1, "worked-example fidelity"):
        start = perf_counter()
        thirteen = sigma_infinity(13)
        five = sigma_infinity(5)
        elapsed = perf_counter() - start
        assert thirteen == 9 and five == 5
        assert elapsed < 1e-3
        assert main(["sigma", "13", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split()[1] == "sigma=9"
        assert out[1].split()[1] == "sigma=5"


def test_criterion_02_table_regeneration(reference_tables):
    with criterion(2, "162-row table regeneration"):
        start = perf_counter()
        table = ProfileTable.build(18)
        rows = {(row["i"], row["m"]): row for row in reference_tables["profiles"]}
        assert len(table.rows) == len(rows) == 162
        for p in table.rows:
            row = rows[(p.class_index, p.m)]
            assert (p.v_offset, p.d_offset, p.d_modulus) == \
                (row["v_offset"], row["d_offset"], row["d_coeff"])
        assert (table.row(1, 3).d_modulus, table.row(1, 3).d_offset) == (144, 109)
        assert (table.row(4, 8).d_modulus, table.row(4, 8).d_offset) == (4608, 85)
        assert (table.row(9, 18).d_modulus, table.row(9, 18).d_offset) == \
            (4718592, 87381)
        assert perf_counter() - start < 1.0


def test_criterion_03_theorem1_symbolic():
    with criterion(3, "symbolic identities to depth 18 and 40"):
        start = perf_counter()
        at_depth_18 = verify_theorem1_symbolic(18)
        assert at_depth_18.outcome == "pass"
        assert at_depth_18.items_checked == 162
        assert at_depth_18.counterexamples == ()
        extended = verify_theorem1_symbolic(40)
        assert extended.outcome == "pass"
        assert extended.counterexamples == ()
        assert perf_counter() - start < 1.0


def test_criterion_04_map_fidelity(reference_tables):
    with criterion(4, "generalized and stopping-time map fidelity"):
        start = perf_counter()
        schema = json.loads(render_str(build_schema(18), "json"))
        for i in range(1, 10):
            expected = reference_tables["schema_columns"][str(i)]
            got = schema["classes"][str(i)]
            for section in ("odd", "even", "next"):
                assert [[r[section]["modulus"], r[section]["offset"]]
                        for r in got] == expected[section]
        sigma_schema = json.loads(render_str(build_sigma_schema(18), "json"))
        for i in range(1, 10):
            got = sigma_schema["classes"][str(i)]
            for row in got:
                assert row["increments"] == \
                    {"odd": row["m"] + 1, "even": row["m"], "next": 0}
            expected = reference_tables["sigma_columns"][str(i)]
            for section in ("odd", "even", "next"):
                assert [[r["base_residue"], r["increments"][section]]
                        for r in got] == expected[section]
        assert perf_counter() - start < 1.0


def test_criterion_05_cover_audit():
    with criterion(5, "exactly-once cover of odd d <= 1e6"):
        start = perf_counter()
        report = cover_audit(BOUND_LARGE, 18)
        # the row proofs' report is the stride sieve's, byte for byte
        assert report_to_json(report) == report_to_json(
            reference_cover_audit(BOUND_LARGE, 18, profile=derive_profile))
        assert report.details["multiply_matched"] == []
        assert report.counterexamples == ()
        unmatched = report.details["unmatched"]
        for d in unmatched:
            assert valuation_by_division(3 * d + 1)[0] > 18
        assert report.details["matched_once"] + len(unmatched) == BOUND_LARGE // 2
        assert perf_counter() - start < 30.0


def test_criterion_06_conjecture1_bounded():
    with criterion(6, "landing bounds 54n < next < 54(n+1) to 1e6"):
        start = perf_counter()
        report = verify_conjecture1(BOUND_LARGE)
        assert report.outcome == "pass"
        assert report.counterexamples == ()
        assert report.items_checked == BOUND_LARGE // 2
        assert perf_counter() - start < 30.0


def test_criterion_07_sigma_recurrence_against_oracle():
    with criterion(7, "stopping-time recurrence vs unit-step oracle to 1e5"):
        start = perf_counter()
        memo = {}
        checked = 0
        for d in range(3, BOUND_MEDIUM + 1, 2):
            m, target = valuation_by_division(3 * d + 1)
            assert unit_step_sigma_memo(d, memo) == \
                unit_step_sigma_memo(target, memo) + m + 1, d
            checked += 1
        assert checked == BOUND_MEDIUM // 2 - 1
        # and the library agrees with the oracle on every input
        for d in range(1, BOUND_MEDIUM + 1, 2):
            assert sigma_infinity(d) == memo[d]
        assert perf_counter() - start < 10.0


def test_criterion_08_four_d_plus_one_properties():
    with criterion(8, "4d+1 class cycle and sigma shift to 1e5"):
        start = perf_counter()
        for d in range(1, BOUND_MEDIUM + 1, 2):
            i = residue_class(d)
            assert residue_class(4 * d + 1) == i % 9 + 1
        # the sigma shift inherits the recurrence's domain (odd d > 1):
        # sigma(1) = 0 by termination, so d = 1 is its lone exception
        for d in range(3, BOUND_MEDIUM + 1, 2):
            assert sigma_infinity(4 * d + 1) == sigma_infinity(d) + 2
        assert sigma_infinity(5) == 5 and sigma_infinity(1) == 0
        assert perf_counter() - start < 10.0


def test_criterion_09_digit_root_agreement():
    with criterion(9, "digit-root classification agreement to 1e5"):
        start = perf_counter()
        for d in range(1, BOUND_MEDIUM + 1, 2):
            assert digit_root_class(d) == residue_class(d)
        assert perf_counter() - start < 5.0


def test_criterion_10_range_sweep_determinism(capsys):
    with criterion(10, "range sweep JSON byte-identical in library and CLI"):
        report = verify_range(1, BOUND_LARGE)
        capsys.readouterr()
        code = main(["verify", "range", "--end", str(BOUND_LARGE),
                     "--format", "json"])
        assert capsys.readouterr().out == report_to_json(report)
        assert code == 0
        assert report.outcome == "pass"
        assert report.items_checked == BOUND_LARGE // 2
