"""Pinned stdout and exit codes of the listing and verify commands in every
format (verify reports have no csv form: their csv fixture pins the empty
stdout of the usage error).

Each fixture under ``data/golden/`` holds the exact stdout of one command,
encoded as UTF-8, and ``exit_codes.json`` holds its exit code. A change to
any listing's bytes, however small, fails here; a deliberate output change
has to replace the fixture it touches.
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

import collatz_cover
from collatz_cover.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

BIG_30 = "123456789012345678901234567891"  # 30 digits, odd
BIG_33 = "100000000000000000000000000000001"  # 33 digits, odd

CASES = {
    "table": ["table"],
    "table-class9-m5": ["table", "--class", "9", "--max-m", "5"],
    "map-schema": ["map", "schema"],
    "map-schema-m3": ["map", "schema", "--max-m", "3"],
    "map-sigma": ["map", "sigma"],
    "sigma": ["sigma", "13", "5", "1", "27", "40", BIG_30],
    "sigma-deferred": ["sigma", "27", "13", "--budget", "50"],
    "classify": ["classify", "1", "5", "27", BIG_33],
    "verify-range": ["verify", "range", "--end", "20001"],
    "verify-range-class9": ["verify", "range", "--start", "1001", "--end", "20001",
                            "--class", "9"],
    # walks from this window fall below its start, and below 2^32 into the
    # dict that keeps the stopping times of such values
    "verify-range-below-start": ["verify", "range", "--start", "1000000000001",
                                 "--end", "1000000002001"],
    "verify-range-deferred": ["verify", "range", "--end", "3001", "--budget", "40"],
    # the sweep's budget checks, on its slice fills and on its walks, decide
    # which of these are deferred: 190 and 131 of them
    "verify-range-budget300": ["verify", "range", "--start", "100001",
                               "--end", "200001", "--budget", "300"],
    "verify-range-class3-budget250": ["verify", "range", "--start", "100001",
                                      "--end", "200001", "--class", "3",
                                      "--budget", "250"],
    "verify-sigma-relation": ["verify", "sigma-relation", "--bound", "20001"],
    "verify-sigma-relation-deferred": ["verify", "sigma-relation", "--bound", "101",
                                       "--budget", "5"],
    "verify-conjecture1": ["verify", "conjecture1", "--bound", "20001"],
    "verify-conjecture1-start": ["verify", "conjecture1", "--start", "1001",
                                 "--bound", "20001"],
    "verify-theorem1-m40": ["verify", "theorem1", "--max-m", "40"],
    # rows hold to m = 10; the ten d with a larger valuation are deferred
    "verify-cover-m10": ["verify", "cover", "--bound", "20001", "--max-m", "10"],
    "verify-cyclic": ["verify", "cyclic"],
}

FORMATS = ("text", "csv", "json")

EXIT_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_listing_bytes_and_exit_code(capsys, name, fmt):
    code = main([*CASES[name], "--format", fmt])
    out = capsys.readouterr().out
    key = f"{name}.{fmt}"
    assert code == EXIT_CODES[key]
    assert out.encode("utf-8") == (GOLDEN_DIR / key).read_bytes()


def test_every_fixture_has_a_case():
    keys = {f"{name}.{fmt}" for name in CASES for fmt in FORMATS}
    assert set(EXIT_CODES) == keys
    assert {p.name for p in GOLDEN_DIR.iterdir()} == keys | {"exit_codes.json"}


def _public_code() -> dict:
    """The code object of every public function and of every public method
    of a public class, by the name it is exported as."""
    code = {}
    for name in collatz_cover.__all__:
        value = getattr(collatz_cover, name)
        if isinstance(value, type):
            for attr, member in vars(value).items():
                func = getattr(member, "__func__", member)  # class/staticmethod
                if not attr.startswith("_") and inspect.isfunction(func):
                    code[func.__code__] = f"{name}.{attr}"
        elif callable(value):
            if hasattr(value, "cache_clear"):  # a memo hit calls nothing
                value.cache_clear()
            code[inspect.unwrap(value).__code__] = name
    return code


def test_every_public_name_runs_under_some_case():
    # the library exports only what a command runs: a public function or
    # method that no golden case calls belongs to no command
    code = _public_code()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in CASES.values():
            for fmt in FORMATS:
                main([*argv, "--format", fmt])
    finally:
        sys.setprofile(None)
    assert sorted(label for c, label in code.items() if c not in called) == []
