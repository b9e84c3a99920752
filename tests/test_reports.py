import json

from hypothesis import given
from hypothesis import strategies as st

from collatz_cover import (Counterexample, Deferred, build_report,
                           report_to_json, report_to_text)


def test_outcome_pass():
    report = build_report("demo", {"bound": 10}, items_checked=5)
    assert report.outcome == "pass"
    assert report.counterexamples == ()
    assert report.deferred == ()


def test_outcome_fail_wins_over_deferred():
    report = build_report(
        "demo", {},
        counterexamples=[Counterexample(3, "x", "y")],
        deferred=[Deferred(5, "budget")])
    assert report.outcome == "fail"


def test_outcome_deferred():
    report = build_report("demo", {}, deferred=[Deferred(5, "budget")])
    assert report.outcome == "deferred"


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_outcome_invariant(n_cx, n_def):
    report = build_report(
        "demo", {},
        counterexamples=[Counterexample(i, "a", "b") for i in range(n_cx)],
        deferred=[Deferred(i, "r") for i in range(n_def)])
    assert (report.outcome == "fail") == bool(report.counterexamples)
    if not n_cx:
        assert (report.outcome == "deferred") == bool(n_def)


def test_json_shape_and_determinism():
    report = build_report(
        "demo", {"bound": 7},
        counterexamples=[Counterexample(3, "one match", "2 matches")],
        deferred=[Deferred(5, "too deep")],
        items_checked=4, details={"matched_once": 2})
    text = report_to_json(report)
    assert text == report_to_json(report)
    obj = json.loads(text)
    assert obj == {
        "check_name": "demo",
        "params": {"bound": 7},
        "outcome": "fail",
        "counterexamples": [{"input": 3, "expected": "one match",
                             "actual": "2 matches"}],
        "deferred": [{"input": 5, "reason": "too deep"}],
        "items_checked": 4,
        "details": {"matched_once": 2},
    }


def test_text_summary():
    report = build_report(
        "demo", {"bound": 7}, items_checked=4,
        deferred=[Deferred(d, "too deep") for d in (1, 5)],
        details={"matched_once": 2})
    text = report_to_text(report)
    assert "check: demo" in text
    assert "params: bound=7" in text
    assert "outcome: deferred" in text
    assert "deferred 1: too deep" in text
    assert "matched_once: 2" in text
    assert "elapsed" not in text  # timing never lands on the data surface


def test_text_summary_truncates():
    report = build_report(
        "demo", {},
        counterexamples=[Counterexample(i, "a", "b") for i in range(15)])
    text = report_to_text(report)
    assert "(+5 more)" in text
