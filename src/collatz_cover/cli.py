"""Command-line surface wiring the library into reproducible batch commands.

Configuration precedence: built-in defaults, then the key=value config file
named by the COLLATZ_COVER_CONFIG environment variable (or --config), then
flags. Stdout carries data only and is byte-identical for identical inputs;
logs and timing go to stderr.

Exit codes: 0 pass, 1 fail or I/O error, 2 usage error, 3 deferred-only.
"""

from __future__ import annotations

import argparse
import os
import sys

from .arith import BudgetExceededError, DEFAULT_BUDGET, sigma_infinity
from .covering import (ProfileTable, classify, cover_audit, digit_root_class,
                       residue_class)
from .mapgen import build_schema, build_sigma_schema, format_progression, render_str
from .reports import (OUTCOME_DEFERRED, OUTCOME_PASS, aligned, render_rows,
                      report_to_json, report_to_text)
from .verify import (verify_conjecture1, verify_cyclic, verify_range,
                     verify_sigma_relation, verify_theorem1_symbolic)

CONFIG_ENV = "COLLATZ_COVER_CONFIG"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DEFERRED = 3

_CONFIG_KEYS = ("max_m", "budget", "format")


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


class Config:
    """Resolved settings: the built-in defaults until a config file or a
    flag overrides them."""

    def __init__(self, max_m: int = 18, budget: int = DEFAULT_BUDGET,
                 output_format: str = "text"):
        self.max_m = max_m
        self.budget = budget
        self.output_format = output_format

    def validate(self) -> None:
        if self.max_m < 1:
            raise UsageError(f"max_m must be >= 1, got {self.max_m}")
        if self.budget < 1:
            raise UsageError(f"budget must be >= 1, got {self.budget}")
        if self.output_format not in ("text", "csv", "json"):
            raise UsageError(f"unknown format {self.output_format!r}")


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _config_int(values: dict[str, str], key: str, fallback: int) -> int:
    if key not in values:
        return fallback
    try:
        return int(values[key])
    except ValueError as exc:
        raise UsageError(f"config key {key} needs an integer, got {values[key]!r}") from exc


def resolve_config(args: argparse.Namespace) -> Config:
    cfg = Config()
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        values = _parse_config_file(path)
        cfg.max_m = _config_int(values, "max_m", cfg.max_m)
        cfg.budget = _config_int(values, "budget", cfg.budget)
        cfg.output_format = values.get("format", cfg.output_format)
    if getattr(args, "max_m", None) is not None:
        cfg.max_m = args.max_m
    if getattr(args, "budget", None) is not None:
        cfg.budget = args.budget
    if getattr(args, "format", None) is not None:
        cfg.output_format = args.format
    cfg.validate()
    # --cache and --threads stay accepted while perfbench/ still passes them
    if getattr(args, "threads", None) is not None and args.threads < 1:
        raise UsageError(f"threads must be >= 1, got {args.threads}")
    if getattr(args, "cache", None) is not None:
        print(f"note: --cache is ignored; {args.cache} is neither read nor written",
              file=sys.stderr)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-m", dest="max_m", type=int,
                        help="deepest exponent row to derive (default 18)")
    common.add_argument("--budget", type=int,
                        help="unit-step ceiling per stopping-time input")
    common.add_argument("--cache", metavar="FILE",
                        help="ignored: no stopping-time cache file is kept")
    common.add_argument("--format", choices=("text", "csv", "json"),
                        help="output format (default text)")
    common.add_argument("--threads", type=int,
                        help="ignored (must be >= 1): sweeps run serially")
    common.add_argument("--output", metavar="FILE", help="write data here instead of stdout")
    common.add_argument("--config", metavar="FILE",
                        help=f"key=value config file (also via ${CONFIG_ENV})")

    parser = argparse.ArgumentParser(
        prog="collatz-cover",
        description="Residue-class covering system for Collatz dynamics: "
                    "derived progression tables, the generalized map, stopping "
                    "times, and machine verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[common],
                       help="emit the derived progression table")
    p.add_argument("--class", dest="class_index", type=int,
                   help="restrict to one class index (1..9)")

    p = sub.add_parser("map", parents=[common],
                       help="emit the generalized map or the stopping-time map")
    p.add_argument("which", choices=("schema", "sigma"))

    p = sub.add_parser("sigma", parents=[common],
                       help="total stopping times for the given integers")
    p.add_argument("values", nargs="+", metavar="N",
                   help="positive integers (decimal, any size)")

    p = sub.add_parser("classify", parents=[common],
                       help="residue class and progression of odd integers")
    p.add_argument("values", nargs="+", metavar="D")

    p = sub.add_parser("verify", parents=[common], help="run one machine check")
    p.add_argument("check", choices=("theorem1", "conjecture1", "sigma-relation",
                                     "cover", "cyclic", "range"))
    p.add_argument("--bound", type=int, help="inclusive odd-range bound")
    p.add_argument("--start", type=int, help="range start (default 1)")
    p.add_argument("--end", type=int, help="range end (for: range)")
    p.add_argument("--class", dest="class_index", type=int,
                   help="restrict range sweep to one class")
    p.add_argument("--samples", type=int,
                   help="members sampled per class (for: cyclic, default 100)")
    p.add_argument("--seed", type=int, help="sampling seed (for: cyclic, default 0)")
    return parser


def _emit(text: str, output: str | None) -> int:
    if output is None:
        sys.stdout.write(text)
        return EXIT_PASS
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


def _parse_values(raw_values, require_odd: bool) -> list[int]:
    values = []
    for raw in raw_values:
        try:
            d = int(raw, 10)
        except ValueError as exc:
            raise UsageError(f"not a decimal integer: {raw!r}") from exc
        if d < 1:
            raise UsageError(f"need positive integers, got {d}")
        if require_odd and not d & 1:
            raise UsageError(f"need odd integers, got {d}")
        values.append(d)
    return values


def cmd_table(args: argparse.Namespace, cfg: Config) -> int:
    if args.class_index is not None and not 1 <= args.class_index <= 9:
        raise UsageError(f"class index must be in 1..9, got {args.class_index}")
    rows = [p.row_dict() for p in ProfileTable.build(cfg.max_m).rows
            if args.class_index is None or p.class_index == args.class_index]
    return _emit(render_rows(rows, cfg.output_format, _table_text), args.output)


def _table_text(rows: list[dict]) -> str:
    return aligned([("i", "r", "m", "v_offset", "odd", "even", "next")] + [
        (str(r["i"]), str(r["r"]), str(r["m"]), str(r["v_offset"]),
         format_progression(r["d_modulus"], r["d_offset"]),
         format_progression(r["even_modulus"], r["even_offset"]),
         format_progression(54, r["next_offset"]))
        for r in rows])


def cmd_map(args: argparse.Namespace, cfg: Config) -> int:
    if args.which == "schema":
        table = build_schema(cfg.max_m)
    else:
        table = build_sigma_schema(cfg.max_m)
    return _emit(render_str(table, cfg.output_format), args.output)


def cmd_sigma(args: argparse.Namespace, cfg: Config) -> int:
    values = _parse_values(args.values, require_odd=False)
    rows = []
    for d in values:
        try:
            sigma = sigma_infinity(d, budget=cfg.budget)
        except BudgetExceededError:
            sigma = None
        row = {"d": d, "sigma": sigma, "class": None, "m": None, "next": None}
        if sigma is not None and d & 1:
            profile, _n = classify(d)
            row.update({"class": profile.class_index, "m": profile.m,
                        "next": (3 * d + 1) >> profile.m})
        row["status"] = "deferred" if sigma is None else "ok"
        rows.append(row)
    code = _emit(render_rows(rows, cfg.output_format, _sigma_text), args.output)
    if code != EXIT_PASS:
        return code
    if any(row["sigma"] is None for row in rows):
        return EXIT_DEFERRED
    return EXIT_PASS


def _sigma_text(rows: list[dict]) -> str:
    lines = []
    for r in rows:
        if r["sigma"] is None:
            lines.append(f"d={r['d']} deferred budget-exceeded\n")
        else:
            facts = " ".join(f"{key}={'-' if r[key] is None else r[key]}"
                             for key in ("class", "m", "next"))
            lines.append(f"d={r['d']} sigma={r['sigma']} {facts}\n")
    return "".join(lines)


def cmd_classify(args: argparse.Namespace, cfg: Config) -> int:
    values = _parse_values(args.values, require_odd=True)
    rows = []
    for d in values:
        by_mod = residue_class(d)
        by_digits = digit_root_class(d)
        if by_mod != by_digits:  # cannot happen; surfaced rather than hidden
            print(f"error: class disagreement for {d}: "
                  f"mod gives {by_mod}, digit root gives {by_digits}",
                  file=sys.stderr)
            return EXIT_FAIL
        p, n = classify(d)
        rows.append({"d": d, "class": by_mod, "digit_root_class": by_digits,
                     "residue": p.residue, "m": p.m, "d_modulus": p.d_modulus,
                     "d_offset": p.d_offset, "n": n, "next": (3 * d + 1) >> p.m})
    return _emit(render_rows(rows, cfg.output_format, _classify_text), args.output)


def _classify_text(rows: list[dict]) -> str:
    return "".join(
        f"d={r['d']} class={r['class']} digit_root_class={r['digit_root_class']} "
        f"residue={r['residue']} m={r['m']} "
        f"progression={r['d_modulus']}n+{r['d_offset']} n={r['n']} next={r['next']}\n"
        for r in rows)


def _require_flag(value, flag: str, check: str):
    if value is None:
        raise UsageError(f"verify {check} needs {flag}")
    return value


def cmd_verify(args: argparse.Namespace, cfg: Config) -> int:
    if cfg.output_format == "csv":
        raise UsageError("verify reports support text or json output")
    check = args.check
    if check == "theorem1":
        report = verify_theorem1_symbolic(cfg.max_m)
    elif check == "conjecture1":
        bound = _require_flag(args.bound, "--bound", check)
        start = args.start if args.start is not None else 1
        report = verify_conjecture1(bound, start=start)
    elif check == "sigma-relation":
        bound = _require_flag(args.bound, "--bound", check)
        report = verify_sigma_relation(bound, budget=cfg.budget)
    elif check == "cover":
        bound = _require_flag(args.bound, "--bound", check)
        report = cover_audit(bound, cfg.max_m)
    elif check == "cyclic":
        samples = args.samples if args.samples is not None else 100
        seed = args.seed if args.seed is not None else 0
        report = verify_cyclic(samples_per_class=samples, seed=seed)
    else:
        end = _require_flag(args.end, "--end", check)
        if args.class_index is not None and not 1 <= args.class_index <= 9:
            raise UsageError(f"class index must be in 1..9, got {args.class_index}")
        start = args.start if args.start is not None else 1
        report = verify_range(start, end, class_filter=args.class_index,
                              budget=cfg.budget)
    try:
        report = _validated(report)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if cfg.output_format == "json":
        text = report_to_json(report)
    else:
        text = report_to_text(report)
    code = _emit(text, args.output)
    print(f"# {report.check_name}: {report.outcome} "
          f"({report.items_checked} items, {report.elapsed_s:.3f}s)",
          file=sys.stderr)
    if code != EXIT_PASS:
        return code
    if report.outcome == OUTCOME_PASS:
        return EXIT_PASS
    if report.outcome == OUTCOME_DEFERRED:
        return EXIT_DEFERRED
    return EXIT_FAIL


def _validated(report):
    # exit codes are a function of outcomes only; keep the invariant tight
    if (report.outcome == "fail") != bool(report.counterexamples):
        raise ValueError(f"report outcome {report.outcome} does not match "
                         f"{len(report.counterexamples)} counterexamples")
    return report


_HANDLERS = {
    "table": cmd_table,
    "map": cmd_map,
    "sigma": cmd_sigma,
    "classify": cmd_classify,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # decimal inputs of arbitrary length
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(previous)  # the limit is process-global


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already reported usage/help
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        return _HANDLERS[args.command](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeEncodeError as exc:  # a ValueError, but stdout's fault
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:  # parameter validation from the library
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
