"""The commands the benchmark runs, and how every command's output is checked.

The end-to-end workloads are ``sweep`` and ``queries``; the traced run also
runs the ``audit`` and ``cache-reuse`` commands built here.

Every expected value comes from code in this file that shares nothing with
the program under test: a unit-step Collatz walk, a 2-adic valuation found by
dividing by two, residue counts mod 18, and the checked-in reference tables
(read only). A command fails when its exit code or any checked field differs
from the expectation; that count feeds ``failed`` and ``failed_frac``.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: The paper's reordered residues S; class i holds d with d % 18 == S[i-1].
RESIDUE_ORDER = (1, 5, 3, 13, 17, 15, 7, 11, 9)

SWEEP_END = 1_000_000
AUDIT_BOUND = 1_000_000
AUDIT_THEOREM_MAX_M = 40
COVER_MAX_M = 18  # the CLI default for verify cover
CACHE_BOUND = 500_000

EXIT_PASS = 0
EXIT_DEFERRED = 3

REFERENCE_TABLES = Path("tests") / "data" / "reference_tables.json"


# ---------------------------------------------------------------- references

def unit_step_sigma(n: int) -> int:
    """Total stopping time by the raw map: 3n+1 on odd, n/2 on even."""
    steps = 0
    while n != 1:
        n = 3 * n + 1 if n & 1 else n // 2
        steps += 1
    return steps


def valuation(x: int) -> int:
    """Number of factors of two in even x > 0, by repeated division."""
    m = 0
    while x % 2 == 0:
        x //= 2
        m += 1
    return m


def class_index(d: int) -> int:
    return RESIDUE_ORDER.index(d % 18) + 1


def per_class_counts(first: int, last: int) -> dict[str, int]:
    """Odd integers in [first, last] per residue class, keyed "1".."9"."""
    counts = [0] * 10
    for d in range(first | 1, last + 1, 2):
        counts[class_index(d)] += 1
    return {str(i): counts[i] for i in range(1, 10)}


def deep_valuation_odds(bound: int, max_m: int) -> list[int]:
    """Odd d <= bound whose 3d+1 has more than max_m factors of two: the
    values the cover audit must defer."""
    return [d for d in range(1, bound + 1, 2) if valuation(3 * d + 1) > max_m]


def load_reference_tables(root: Path) -> dict:
    with open(root / REFERENCE_TABLES) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- operations

Check = Callable[[str, int, dict], list]


@dataclass
class Op:
    """One CLI command with its expected outcome.

    ``check(stdout, exit_code, expect)`` returns the problems found (empty
    when correct). ``wrong`` turns ``expect`` into a deliberately wrong
    expectation, which the self-check uses to prove the check can fail.
    ``record_as``/``same_as`` name outputs that must be byte-identical.
    """

    kind: str
    argv: list[str]
    check: Check
    expect: dict
    wrong: Callable[[dict], None]
    items: int = 0
    record_as: str | None = None
    same_as: str | None = None

    def problems(self, stdout: str, code: int, recorded: dict[str, str]) -> list:
        try:
            found = list(self.check(stdout, code, self.expect))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"unparseable output: {exc!r}"]
        if self.same_as is not None and recorded.get(self.same_as) != stdout:
            found.append(f"stdout differs from {self.same_as}")
        return found

    def gate_detects_wrong_value(self, stdout: str, code: int) -> bool:
        wrong = copy.deepcopy(self.expect)
        self.wrong(wrong)
        try:
            return bool(list(self.check(stdout, code, wrong)))
        except (ValueError, KeyError, IndexError, TypeError):
            return True


class SelfCheckError(RuntimeError):
    """A check accepted a deliberately wrong expected value."""


class Gate:
    """Judges command outputs: counts attempts and failures, keeps the
    outputs named by ``record_as``, and proves once per kind of command that
    its check rejects a wrong expected value."""

    def __init__(self):
        self.recorded: dict[str, str] = {}
        self.self_checked: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, op: Op, stdout: str, code: int, stderr: str = "") -> bool:
        found = op.problems(stdout, code, self.recorded)
        if op.kind not in self.self_checked:
            if not op.gate_detects_wrong_value(stdout, code):
                raise SelfCheckError(f"the check for {op.kind} accepted a wrong value")
            self.self_checked.add(op.kind)
        if op.record_as is not None:
            self.recorded[op.record_as] = stdout
        self.record(not found, f"{op.kind} {' '.join(op.argv)[:60]}: "
                               f"{'; '.join(found[:3])} {stderr.strip()[-200:]}")
        return not found

    def record(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _bump(key: str) -> Callable[[dict], None]:
    def wrong(expect: dict) -> None:
        expect[key] += 1
    return wrong


# ------------------------------------------------------------ verify reports

def _report_field(obj: dict, key: str):
    if key == "deferred_inputs":
        return [entry["input"] for entry in obj["deferred"]]
    value = obj
    for part in key.split("."):
        value = value[part]
    return value


def check_report(stdout: str, code: int, expect: dict) -> list:
    """Compare a verify report (JSON) field by field; ``exit`` is the code."""
    obj = json.loads(stdout)
    problems = []
    for key, want in expect.items():
        got = code if key == "exit" else _report_field(obj, key)
        if got != want:
            problems.append(f"{key}: expected {_short(want)}, got {_short(got)}")
    return problems


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def sweep_op(threads: int | None = None, record_as=None, same_as=None) -> Op:
    argv = ["verify", "range", "--start", "1", "--end", str(SWEEP_END),
            "--format", "json"]
    if threads is not None:
        argv += ["--threads", str(threads)]
    items = (SWEEP_END + 1) // 2
    expect = {"exit": EXIT_PASS, "check_name": "range-sweep", "outcome": "pass",
              "params.start": 1, "params.end": SWEEP_END,
              "items_checked": items, "counterexamples": [],
              "deferred": [], "details.per_class": per_class_counts(1, SWEEP_END)}
    return Op("verify range", argv, check_report, expect,
              _bump("items_checked"), items, record_as, same_as)


def audit_ops(deferred: list[int]) -> list[Op]:
    odds = (AUDIT_BOUND + 1) // 2
    cover = Op(
        "verify cover",
        ["verify", "cover", "--bound", str(AUDIT_BOUND), "--format", "json"],
        check_report,
        {"exit": EXIT_DEFERRED, "check_name": "cover-audit",
         "outcome": "deferred", "items_checked": odds, "counterexamples": [],
         "deferred_inputs": deferred, "details.unmatched": deferred,
         "details.multiply_matched": [],
         "details.matched_once": odds - len(deferred)},
        _bump("details.matched_once"), odds)
    conjecture = Op(
        "verify conjecture1",
        ["verify", "conjecture1", "--bound", str(AUDIT_BOUND), "--format", "json"],
        check_report,
        {"exit": EXIT_PASS, "check_name": "conjecture1-bounded",
         "outcome": "pass", "items_checked": odds, "counterexamples": [],
         "details.per_class": per_class_counts(1, AUDIT_BOUND)},
        _bump("items_checked"), odds)
    rows = 9 * AUDIT_THEOREM_MAX_M
    theorem = Op(
        "verify theorem1",
        ["verify", "theorem1", "--max-m", str(AUDIT_THEOREM_MAX_M),
         "--format", "json"],
        check_report,
        {"exit": EXIT_PASS, "check_name": "theorem1-symbolic",
         "outcome": "pass", "items_checked": rows, "counterexamples": []},
        _bump("items_checked"), rows)
    return [cover, conjecture, theorem]


def sigma_relation_op(cache_path: Path, record_as=None, same_as=None) -> Op:
    items = (CACHE_BOUND - 1) // 2  # odd d in [3, bound]
    return Op(
        "verify sigma-relation",
        ["verify", "sigma-relation", "--bound", str(CACHE_BOUND),
         "--cache", str(cache_path), "--format", "json"],
        check_report,
        {"exit": EXIT_PASS, "check_name": "sigma-relation", "outcome": "pass",
         "items_checked": items, "counterexamples": [], "deferred": []},
        _bump("items_checked"), items, record_as, same_as)


# ------------------------------------------------------------ query commands

def _parse_rows(stdout: str, fmt: str) -> list[dict]:
    """Rows of a sigma/classify listing in any of the three formats, as
    string-valued dicts ("" for an absent value)."""
    if fmt == "json":
        return [{k: "" if v is None else str(v) for k, v in row.items()}
                for row in json.loads(stdout)]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(stdout)))
    rows = []
    for line in stdout.splitlines():
        row = {}
        for token in line.split():
            key, _, value = token.partition("=")
            row[key] = "" if value == "-" else value
        rows.append(row)
    return rows


def _odd_facts(d: int) -> dict:
    m = valuation(3 * d + 1)
    return {"class": class_index(d), "m": m, "next": (3 * d + 1) >> m}


def check_sigma(stdout: str, code: int, expect: dict) -> list:
    problems = [] if code == EXIT_PASS else [f"exit {code}"]
    rows = _parse_rows(stdout, expect["format"])
    if len(rows) != len(expect["rows"]):
        return problems + [f"{len(rows)} rows for {len(expect['rows'])} inputs"]
    for row, want in zip(rows, expect["rows"]):
        for key, value in want.items():
            if row.get(key) != ("" if value is None else str(value)):
                problems.append(f"sigma d={want['d']}: {key} expected {value}, "
                                f"got {row.get(key)}")
    return problems


def check_classify(stdout: str, code: int, expect: dict) -> list:
    """Each row must reconstruct d exactly as d_modulus*n + d_offset, sit in
    the class of d % 18, and carry the valuation and next odd of d."""
    problems = [] if code == EXIT_PASS else [f"exit {code}"]
    rows = _parse_rows(stdout, expect["format"])
    if len(rows) != len(expect["rows"]):
        return problems + [f"{len(rows)} rows for {len(expect['rows'])} inputs"]
    for row, want in zip(rows, expect["rows"]):
        d = want["d"]
        if "progression" in row:  # text format: progression=<modulus>n+<offset>
            modulus, _, offset = row.pop("progression").partition("n+")
            row["d_modulus"], row["d_offset"] = modulus, offset
        got = {key: int(row[key]) for key in
               ("d", "class", "digit_root_class", "residue", "m", "d_modulus",
                "d_offset", "n", "next")}
        if got["d"] != d:
            problems.append(f"classify: row for {got['d']}, expected {d}")
        if got["d_modulus"] * got["n"] + got["d_offset"] != d:
            problems.append(f"classify d={d}: {got['d_modulus']}*{got['n']}"
                            f"+{got['d_offset']} != d")
        if got["residue"] != d % 18:
            problems.append(f"classify d={d}: residue {got['residue']} != d % 18")
        if got["d_modulus"] != 18 << want["m"]:
            problems.append(f"classify d={d}: modulus {got['d_modulus']}")
        for key in ("class", "m", "next"):
            if got[key] != want[key]:
                problems.append(f"classify d={d}: {key} expected {want[key]}, "
                                f"got {got[key]}")
        if got["digit_root_class"] != want["class"]:
            problems.append(f"classify d={d}: digit_root_class "
                            f"{got['digit_root_class']}")
    return problems


def check_table_csv(stdout: str, code: int, expect: dict) -> list:
    problems = [] if code == EXIT_PASS else [f"exit {code}"]
    header, *body = csv.reader(io.StringIO(stdout))
    if ",".join(header) != expect["header"]:
        problems.append(f"table header {header}")
    got = [list(map(int, row)) for row in body]
    if got != expect["rows"]:
        bad = next((i for i, (a, b) in enumerate(zip(got, expect["rows"])) if a != b),
                   min(len(got), len(expect["rows"])))
        problems.append(f"table row {bad} differs from the reference")
    return problems


def table_expect(reference: dict) -> dict:
    rows = []
    for p in sorted(reference["profiles"], key=lambda p: (p["i"], p["m"])):
        even = 3 * p["d_offset"] + 1
        rows.append([p["i"], p["r"], p["m"], p["v_offset"], p["d_offset"],
                     p["d_coeff"], even, 3 * p["d_coeff"], even >> p["m"]])
    return {"header": "i,r,m,v_offset,d_offset,d_modulus,even_offset,"
                      "even_modulus,next_offset", "rows": rows}


def check_schema_json(stdout: str, code: int, expect: dict) -> list:
    """Rows within the reference depth must equal the reference; deeper rows
    must satisfy the defining congruences, which pin each row uniquely."""
    problems = [] if code == EXIT_PASS else [f"exit {code}"]
    obj = json.loads(stdout)
    max_m = expect["max_m"]
    if obj["kind"] != "collatz-map" or obj["max_m"] != max_m:
        problems.append(f"schema header {obj['kind']} {obj['max_m']}")
    for i in range(1, 10):
        rows = obj["classes"][str(i)]
        if [(r["i"], r["m"]) for r in rows] != [(i, m) for m in range(1, max_m + 1)]:
            problems.append(f"schema class {i}: wrong row keys")
            continue
        ref = expect["columns"][str(i)]
        for r in rows:
            m = r["m"]
            cells = {part: [r[part]["modulus"], r[part]["offset"]]
                     for part in ("odd", "even", "next")}
            if r["starred"] != (m == expect["star_row"]):
                problems.append(f"schema ({i},{m}): starred {r['starred']}")
            if m <= len(ref["odd"]):
                for part in cells:
                    if cells[part] != ref[part][m - 1]:
                        problems.append(f"schema ({i},{m}) {part}: {cells[part]}"
                                        f" != reference {ref[part][m - 1]}")
                continue
            modulus, offset = cells["odd"]
            image = 3 * offset + 1
            if (modulus != 18 << m or not 0 <= offset < modulus
                    or offset % 18 != RESIDUE_ORDER[i - 1]
                    or valuation(image) != m
                    or cells["even"] != [3 * modulus, image]
                    or cells["next"] != [54, image >> m]):
                problems.append(f"schema ({i},{m}): {cells} violates the "
                                f"row congruences")
    return problems


def check_sigma_map_text(stdout: str, code: int, expect: dict) -> list:
    problems = [] if code == EXIT_PASS else [f"exit {code}"]
    got = [line.split() for line in stdout.splitlines()]
    want = expect["lines"]
    if len(got) != len(want):
        return problems + [f"sigma map has {len(got)} lines, expected {len(want)}"]
    for number, (a, b) in enumerate(zip(got, want)):
        if a != b:
            problems.append(f"sigma map line {number}: {' '.join(a)[:60]}")
    return problems


def sigma_map_expect(reference: dict) -> dict:
    """Whitespace-separated cells of the text map, from the reference."""
    columns = [reference["sigma_columns"][str(i)] for i in range(1, 10)]
    lines = []
    for section, title in (("odd", "Odd d_{}"), ("even", "Even_{}"),
                           ("next", "Odd d_{}_next")):
        lines.append(" ".join(title.format(i) for i in range(1, 10)).split())
        for m in range(len(columns[0][section])):
            cells = []
            for column in columns:
                base, increment = column[section][m]
                term = f"σ∞(54n+{base})"
                cells.append(f"{term}+{increment}" if increment else term)
            lines.append(cells)
    return {"lines": lines}


def _wrong_first_row(key: str) -> Callable[[dict], None]:
    def wrong(expect: dict) -> None:
        expect["rows"][0][key] += 2
    return wrong


def _wrong_table(expect: dict) -> None:
    expect["rows"][0][4] += 2


def _wrong_schema(expect: dict) -> None:
    expect["columns"]["1"]["odd"][0][1] += 2


def _wrong_sigma_map(expect: dict) -> None:
    expect["lines"][1][0] += "+1"


# ----------------------------------------------------------------- workloads

@dataclass
class Workload:
    """A closed loop of rounds: each round runs the commands ``next_round``
    returns, one after another. ``reference_ops`` run once, untimed, before
    the first round."""

    next_round: Callable[[], list[Op]]
    reference_ops: list[Op] = field(default_factory=list)


def make_workload(name: str, seed: int, root: Path) -> Workload:
    if name == "sweep":
        measured = sweep_op(same_as="sweep-threads-1")
        return Workload(lambda: [measured],
                        [sweep_op(threads=1, record_as="sweep-threads-1")])
    if name == "queries":
        return Workload(QueryGenerator(seed, load_reference_tables(root)).round)
    raise ValueError(f"unknown workload {name!r}")


class QueryGenerator:
    """Seeded short commands: sigma on 20-200 digit integers, classify on
    odd integers, the progression table, and both maps."""

    FORMATS = ("text", "csv", "json")

    def __init__(self, seed: int, reference: dict):
        self.rng = random.Random(seed)
        self.table = table_expect(reference)
        self.schema = {"max_m": AUDIT_THEOREM_MAX_M,
                       "columns": reference["schema_columns"],
                       "star_row": reference["schema_star_row"]}
        self.sigma_map = sigma_map_expect(reference)

    def _big(self, low_digits: int, high_digits: int, odd: bool) -> int:
        digits = self.rng.randint(low_digits, high_digits)
        value = self.rng.randrange(10 ** (digits - 1), 10 ** digits)
        return value | 1 if odd else value & ~1

    def round(self) -> list[Op]:
        rng = self.rng
        sigma_values = [self._big(20, 200, True), self._big(20, 200, True),
                        self._big(20, 200, False)]
        sigma_rows = []
        for d in sigma_values:
            row = {"d": d, "sigma": unit_step_sigma(d), "class": None,
                   "m": None, "next": None}
            if d & 1:
                row.update(_odd_facts(d))
            sigma_rows.append(row)
        sigma_format = rng.choice(self.FORMATS)
        classify_values = [self._big(1, 60, True) for _ in range(3)]
        classify_rows = [{"d": d, **_odd_facts(d)} for d in classify_values]
        classify_format = rng.choice(self.FORMATS)
        return [
            Op("sigma", ["sigma", *map(str, sigma_values), "--format", sigma_format],
               check_sigma, {"format": sigma_format, "rows": sigma_rows},
               _wrong_first_row("sigma"), items=sum(d & 1 for d in sigma_values)),
            Op("classify", ["classify", *map(str, classify_values),
                            "--format", classify_format],
               check_classify, {"format": classify_format, "rows": classify_rows},
               _wrong_first_row("next"), items=len(classify_values)),
            Op("table", ["table", "--format", "csv"], check_table_csv,
               self.table, _wrong_table),
            Op("map schema", ["map", "schema", "--format", "json", "--max-m",
                              str(AUDIT_THEOREM_MAX_M)],
               check_schema_json, self.schema, _wrong_schema),
            Op("map sigma", ["map", "sigma"], check_sigma_map_text,
               self.sigma_map, _wrong_sigma_map),
        ]


WHY = {
    "sweep": "verify range to 1e6 at the default worker count: stopping-time "
             "walks, classification and the partition fan-out and merge",
    "queries": "seeded short sigma, classify, table and map commands: start-up, "
               "renderers, mapgen and uncached walks on big integers",
}

WORKLOADS = tuple(WHY)
