"""Command-line surface wiring the library into reproducible batch commands.

Settings: ``_SETTINGS`` holds each setting's config key, type and built-in
default. Only a command or verify check that reads a setting takes its flag
(``--max-m`` for max_m), but the config file applies to every command.
Precedence: the built-in default, then the key=value config file named by
the COLLATZ_COVER_CONFIG environment variable (or --config), then the flag.
Stdout carries data only and is byte-identical for identical inputs; logs
and timing go to stderr.

Exit codes: 0 pass, 1 fail or I/O error, 2 usage error, 3 deferred-only.
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

from . import _MODULE_OF, _SOURCES
from .arith import BudgetExceededError, DEFAULT_BUDGET, sigma_infinity
from .covering import ProfileTable, classify, digit_root_class, residue_class
from .reports import (FORMATS, OUTCOME_DEFERRED, OUTCOME_PASS, aligned,
                      format_progression, render_rows, report_to_json,
                      report_to_text)

#: The modules that only some commands run: verify for the verify command,
#: mapgen for map. ``_load`` binds their names, as the package's _SOURCES
#: lists them, here on first use and the handlers call them as globals, so
#: a wrapper already set on this module (the benchmark's tracer sets some)
#: is the one called.
_DEFERRED = ("verify", "mapgen")


def _load(module: str) -> None:
    names = _SOURCES[module]
    source = __import__(f"{__package__}.{module}", fromlist=names)
    bound = globals()
    for name in names:
        bound.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(module)
    return globals()[name]


CONFIG_ENV = "COLLATZ_COVER_CONFIG"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DEFERRED = 3

#: Each setting's type and built-in default, by its config key.
_SETTINGS = {"max_m": (int, 18), "budget": (int, DEFAULT_BUDGET),
             "format": (str, "text")}


class UsageError(ValueError):
    """Bad arguments or configuration: a ValueError, so it exits 2."""


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
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
        if key not in _SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> None:
    """Set on ``args`` each setting that no flag set, from the config file
    or else its default, then check them all. A value in the file must
    parse even where a flag overrides it."""
    path = args.config or os.environ.get(CONFIG_ENV)
    values = _parse_config_file(path) if path else {}
    for key, (kind, default) in _SETTINGS.items():
        raw = values.get(key, default)
        try:
            value = kind(raw)
        except ValueError as exc:
            raise UsageError(f"config key {key} needs an integer, got {raw!r}") from exc
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    for key in ("max_m", "budget"):
        if getattr(args, key) < 1:
            raise UsageError(f"{key} must be >= 1, got {getattr(args, key)}")
    if args.format not in FORMATS:
        raise UsageError(f"unknown format {args.format!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatz-cover",
        description="Residue-class covering system for Collatz dynamics: "
                    "derived progression tables, the generalized map, stopping "
                    "times, and machine verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (_, text, reads) in _COMMANDS.items():
        p = commands[command] = sub.add_parser(command, help=text)
        for flag, keywords in _FLAGS.items():
            checks = [c for c, (r, _, _) in _CHECKS.items() if flag in r]
            if command == "verify" and checks:
                keywords = {**keywords,
                            "help": f"{', '.join(checks)}: {keywords['help']}"}
            elif flag not in ("--format", "--output", "--config", *reads):
                continue
            p.add_argument(flag, **keywords)
    commands["map"].add_argument("which", choices=("schema", "sigma"))
    commands["sigma"].add_argument("values", nargs="+", metavar="N",
                                   help="positive integers (decimal, any size)")
    commands["classify"].add_argument("values", nargs="+", metavar="D")
    commands["verify"].add_argument("check", choices=tuple(_CHECKS))
    return parser


def _replace_whole(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside the file ``path``, then move it
    onto ``path``, so that a failed write leaves the earlier file as it
    was. The temp file is made with mode 0o666, so the umask applies as it
    does for a plain open, and is removed when the write fails."""
    temp = os.path.join(os.path.dirname(path),
                        f".{os.path.basename(path)}.{os.getpid()}.tmp")
    fd = os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _emit(text: str, output: str | None) -> int:
    if output is None:
        sys.stdout.write(text)
        return EXIT_PASS
    try:
        if os.path.basename(output) in ("", ".", "..") or (
                os.path.exists(output) and not os.path.isfile(output)):
            # a device or a pipe, such as /dev/null, is written in place:
            # replacing it would put a file where it was; and so is a
            # directory-like target (sub/, ""), which realpath would make a
            # file name, so that its open fails before anything is written
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:  # through a symlink, to the file it names
            _replace_whole(os.path.realpath(output), text)
    except OSError as exc:  # named by the target, not the temp file
        print(f"error: {output}: {exc.strerror or exc}", file=sys.stderr)
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


def cmd_table(args: argparse.Namespace) -> int:
    if args.class_index is not None and not 1 <= args.class_index <= 9:
        raise UsageError(f"class index must be in 1..9, got {args.class_index}")
    rows = [p.row_dict() for p in ProfileTable.build(args.max_m).rows
            if args.class_index is None or p.class_index == args.class_index]
    return _emit(render_rows(rows, args.format, _table_text), args.output)


def _table_text(rows: list[dict]) -> str:
    return aligned([("i", "r", "m", "v_offset", "odd", "even", "next")] + [
        (str(r["i"]), str(r["r"]), str(r["m"]), str(r["v_offset"]),
         format_progression(r["d_modulus"], r["d_offset"]),
         format_progression(r["even_modulus"], r["even_offset"]),
         format_progression(54, r["next_offset"]))
        for r in rows])


def cmd_map(args: argparse.Namespace) -> int:
    _load("mapgen")
    if args.which == "schema":
        table = build_schema(args.max_m)
    else:
        table = build_sigma_schema(args.max_m)
    return _emit(render_str(table, args.format), args.output)


def cmd_sigma(args: argparse.Namespace) -> int:
    values = _parse_values(args.values, require_odd=False)
    rows = []
    for d in values:
        try:
            sigma = sigma_infinity(d, budget=args.budget)
        except BudgetExceededError:
            sigma = None
        row = {"d": d, "sigma": sigma, "class": None, "m": None, "next": None}
        if sigma is not None and d & 1:
            profile, _n = classify(d)
            row.update({"class": profile.class_index, "m": profile.m,
                        "next": (3 * d + 1) >> profile.m})
        row["status"] = "deferred" if sigma is None else "ok"
        rows.append(row)
    code = _emit(render_rows(rows, args.format, _sigma_text), args.output)
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


def cmd_classify(args: argparse.Namespace) -> int:
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
    return _emit(render_rows(rows, args.format, _classify_text), args.output)


def _classify_text(rows: list[dict]) -> str:
    return "".join(
        f"d={r['d']} class={r['class']} digit_root_class={r['digit_root_class']} "
        f"residue={r['residue']} m={r['m']} "
        f"progression={r['d_modulus']}n+{r['d_offset']} n={r['n']} next={r['next']}\n"
        for r in rows)


#: Each flag's add_argument keywords; a flag not given parses to None.
_FLAGS = {
    "--max-m": dict(dest="max_m", type=int, help="deepest exponent row to derive "
                    f"(default {_SETTINGS['max_m'][1]})"),
    "--budget": dict(type=int, help="unit-step ceiling per stopping-time input"),
    "--cache": dict(metavar="FILE", help="ignored: no stopping-time cache file is kept"),
    "--format": dict(choices=FORMATS,
                     help=f"output format (default {_SETTINGS['format'][1]})"),
    "--threads": dict(type=int, help="ignored (must be >= 1): sweeps run serially"),
    "--output": dict(metavar="FILE", help="write data here instead of stdout"),
    "--config": dict(metavar="FILE",
                     help=f"key=value config file (also via ${CONFIG_ENV})"),
    "--bound": dict(type=int, help="inclusive bound"),
    "--start": dict(type=int, help="range start (default 1)"),
    "--end": dict(type=int, help="range end"),
    "--class": dict(dest="class_index", type=int,
                    help="restrict to one class index (1..9)"),
}

#: Each verify check: the flags it reads, the one it needs, which sizes its
#: table or list (None if it has neither), and its call. A call looks its
#: function up here when it runs, so a wrapper set on this module is called.
_CHECKS = {
    "theorem1": (("--max-m",), None, lambda a: verify_theorem1_symbolic(a.max_m)),
    "conjecture1": (("--bound", "--start"), "--bound",
                    lambda a: verify_conjecture1(a.bound, start=a.start)),
    "sigma-relation": (("--bound", "--budget"), "--bound",
                       lambda a: verify_sigma_relation(a.bound, budget=a.budget)),
    "cover": (("--bound", "--max-m"), "--bound",
              lambda a: cover_audit(a.bound, a.max_m)),
    "cyclic": ((), None, lambda a: verify_cyclic()),
    "range": (("--start", "--end", "--class", "--budget"), "--end",
              lambda a: verify_range(a.start, a.end, class_filter=a.class_index,
                                     budget=a.budget)),
}


def _refuse_unread(args: argparse.Namespace) -> None:
    """Refuse a flag given to verify that its check does not read."""
    reads = _CHECKS[args.check][0]
    for flag in [f for other, _, _ in _CHECKS.values() for f in other if f not in reads]:
        if getattr(args, _FLAGS[flag].get("dest", flag[2:])) is not None:
            raise UsageError(f"verify {args.check} takes no {flag}")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.format == "csv":
        raise UsageError("verify reports support text or json output")
    if args.threads is not None and args.threads < 1:
        raise UsageError(f"threads must be >= 1, got {args.threads}")
    if args.cache is not None:
        print(f"note: --cache is ignored; {args.cache} is neither read nor written",
              file=sys.stderr)
    _, sized_by, call = _CHECKS[args.check]
    size = getattr(args, _FLAGS[sized_by].get("dest", sized_by[2:])) if sized_by else None
    if sized_by and size is None:
        raise UsageError(f"verify {args.check} needs {sized_by}")
    if args.start is None:
        args.start = 1
    _load("verify")
    start = perf_counter()
    try:
        report = call(args)
    except OverflowError as exc:  # a table or list that cannot fit names its flag
        if not sized_by:
            raise
        raise OverflowError(f"{sized_by} {size} is too large: {exc}") from exc
    elapsed_s = perf_counter() - start
    if args.format == "json":
        text = report_to_json(report)
    else:
        text = report_to_text(report)
    code = _emit(text, args.output)
    print(f"# {report.check_name}: {report.outcome} "
          f"({report.items_checked} items, {elapsed_s:.3f}s)",
          file=sys.stderr)
    if code != EXIT_PASS:
        return code
    if report.outcome == OUTCOME_PASS:
        return EXIT_PASS
    if report.outcome == OUTCOME_DEFERRED:
        return EXIT_DEFERRED
    return EXIT_FAIL


#: Each command's handler, help and flags read beside --format, --output and
#: --config; verify takes its checks' flags too, and --cache and --threads,
#: inert, while perfbench/ still passes them. No other flag parses.
_COMMANDS = {
    "table": (cmd_table, "emit the derived progression table", ("--max-m", "--class")),
    "map": (cmd_map, "emit the generalized map or the stopping-time map", ("--max-m",)),
    "sigma": (cmd_sigma, "total stopping times for the given integers", ("--budget",)),
    "classify": (cmd_classify, "residue class and progression of odd integers", ()),
    "verify": (cmd_verify, "run one machine check", ("--cache", "--threads")),
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
        if args.command == "verify":  # before the config file sets what no flag did
            _refuse_unread(args)
        resolve_config(args)
        return _COMMANDS[args.command][0](args)
    except UnicodeEncodeError as exc:  # a ValueError, but stdout's fault
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:  # a UsageError, or the library's checks
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OverflowError, MemoryError) as exc:  # a table too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_FAIL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
