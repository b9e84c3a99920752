import importlib
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import collatz_cover
import collatz_cover.cli as cli
from collatz_cover.cli import main
from range_differential import rows_moving


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_single_class(capsys):
    code, out, _ = run(capsys, "table", "--class", "1", "--max-m", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4  # header + three rows
    assert "36n + 19" in lines[1]
    assert "72n + 1" in lines[2]
    assert "144n + 109" in lines[3]


def test_table_json_full(capsys):
    code, out, _ = run(capsys, "table", "--max-m", "18", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 162


def test_table_csv_header(capsys):
    code, out, _ = run(capsys, "table", "--max-m", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i,r,m,v_offset,d_offset,d_modulus,even_offset,even_modulus,next_offset"
    assert len(lines) == 10


def test_table_bad_class_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--class", "10")
    assert code == 2
    assert "class index" in err


def test_map_schema_text(capsys):
    code, out, _ = run(capsys, "map", "schema", "--max-m", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("Odd d_1")
    assert lines[1].startswith("36n + 19*")


def test_map_sigma_first_cell(capsys):
    code, out, _ = run(capsys, "map", "sigma", "--max-m", "18")
    assert code == 0
    assert out.splitlines()[1].startswith("σ∞(54n+29)+2")


def test_map_csv_has_header(capsys):
    code, out, _ = run(capsys, "map", "schema", "--format", "csv", "--max-m", "2")
    assert code == 0
    assert out.splitlines()[0].startswith("i,m,odd_modulus")


def test_sigma_values(capsys):
    code, out, _ = run(capsys, "sigma", "13", "5", "1", "27")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d=13 sigma=9 class=4 m=3 next=5"
    assert lines[1] == "d=5 sigma=5 class=2 m=4 next=1"
    assert lines[2] == "d=1 sigma=0 class=1 m=2 next=1"
    assert lines[3] == "d=27 sigma=111 class=9 m=1 next=41"


def test_sigma_even_input(capsys):
    code, out, _ = run(capsys, "sigma", "40")
    assert code == 0
    assert out.splitlines()[0] == "d=40 sigma=8 class=- m=- next=-"


def test_sigma_budget_deferral(capsys):
    code, out, _ = run(capsys, "sigma", "27", "--budget", "50")
    assert code == 3
    assert "deferred" in out


def test_sigma_arbitrary_precision(capsys):
    d = 10**50 + 1
    code, out, _ = run(capsys, "sigma", str(d))
    assert code == 0
    assert f"d={d} sigma=" in out


def test_classify_very_long_decimal(capsys):
    digits = "1" + "0" * 4999 + "1"  # 5001 digits, odd
    code, out, _ = run(capsys, "classify", digits)
    assert code == 0
    assert "class=" in out


def test_sigma_rejects_garbage(capsys):
    code, _, err = run(capsys, "sigma", "12x")
    assert code == 2
    assert "decimal" in err


def test_sigma_json(capsys):
    code, out, _ = run(capsys, "sigma", "13", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"d": 13, "sigma": 9, "class": 4, "m": 3, "next": 5,
                     "status": "ok"}]


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "349525", "341")
    assert code == 0
    lines = out.splitlines()
    assert "class=1" in lines[0] and "digit_root_class=1" in lines[0]
    assert "class=5" in lines[1] and "residue=17" in lines[1]


def test_classify_even_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", "4")
    assert code == 2
    assert "odd" in err


def test_verify_theorem1(capsys):
    code, out, err = run(capsys, "verify", "theorem1", "--max-m", "18")
    assert code == 0
    assert "outcome: pass" in out
    assert "items_checked: 162" in out
    assert "theorem1-symbolic" in err  # timing log stays on stderr


def test_verify_cover_pass(capsys):
    code, out, _ = run(capsys, "verify", "cover", "--bound", "10000", "--max-m", "18")
    assert code == 0
    assert "outcome: pass" in out


def test_verify_cover_deferred_exit(capsys):
    # 349525 needs twenty halvings, so at max_m=18 it is deferred, not failed
    code, out, _ = run(capsys, "verify", "cover", "--bound", "350000",
                       "--max-m", "18")
    assert code == 3
    assert "deferred 349525" in out


def test_verify_cyclic(capsys):
    code, out, err = run(capsys, "verify", "cyclic")
    assert code == 0
    assert "items_checked: 9\n" in out
    # the one stderr line, with the time the CLI took the check
    assert re.fullmatch(r"# cyclic-recurrence: pass \(9 items, \d+\.\d{3}s\)\n",
                        err)


def test_verify_range_json(capsys):
    code, out, _ = run(capsys, "verify", "range", "--end", "2001",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["check_name"] == "range-sweep"
    assert report["outcome"] == "pass"
    assert report["items_checked"] == 1001
    assert "elapsed_ms" not in report


def test_verify_sigma_relation(capsys):
    code, out, _ = run(capsys, "verify", "sigma-relation", "--bound", "2001")
    assert code == 0
    assert "outcome: pass" in out


@pytest.mark.parametrize("budget", range(1, 9))
def test_verify_sigma_relation_defers_worked_pair_past_the_budget(capsys, budget):
    # sigma(13) = 9 exceeds every budget below 9
    code, out, err = run(capsys, "verify", "sigma-relation", "--bound", "101",
                         "--budget", str(budget), "--format", "json")
    assert code == 3
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["outcome"] == "deferred"
    assert 13 in [x["input"] for x in report["deferred"]]


def test_verify_conjecture1_requires_bound(capsys):
    # and every other check sized by a flag needs that flag
    for check, flag in (("conjecture1", "--bound"), ("sigma-relation", "--bound"),
                        ("cover", "--bound"), ("range", "--end")):
        code, out, err = run(capsys, "verify", check)
        assert (code, out) == (2, "")
        assert err == f"usage error: verify {check} needs {flag}\n"


#: The check flags each verify check reads, and the report parameter that
#: shows each read flag's value.
CHECK_READS = {"theorem1": (), "conjecture1": ("--bound", "--start"),
               "sigma-relation": ("--bound",), "cover": ("--bound",),
               "cyclic": (), "range": ("--start", "--end", "--class")}
FLAG_PARAMS = {"--bound": ("bound", 99), "--start": ("start", 51),
               "--end": ("end", 99), "--class": ("class_filter", 3)}


@pytest.mark.parametrize("flag", FLAG_PARAMS)
@pytest.mark.parametrize("check", CHECK_READS)
def test_a_check_takes_only_the_flags_it_reads(capsys, check, flag):
    argv = ["verify", check, flag, str(FLAG_PARAMS[flag][1]), "--format", "json"]
    needed = {"range": "--end"}.get(check, "--bound")
    if needed in CHECK_READS[check] and needed != flag:
        argv += [needed, "99"]
    code, out, err = run(capsys, *argv)
    if flag not in CHECK_READS[check]:
        assert (code, out) == (2, "")
        assert err == f"usage error: verify {check} takes no {flag}\n"
        return
    assert code == 0
    key, value = FLAG_PARAMS[flag]
    assert json.loads(out)["params"][key] == value


def test_verify_takes_its_flags_before_the_check(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json", "cyclic")
    assert code == 0
    report = json.loads(out)
    assert (report["check_name"], report["outcome"]) == ("cyclic-recurrence", "pass")


def test_verify_rejects_csv(capsys):
    code, _, err = run(capsys, "verify", "theorem1", "--format", "csv")
    assert code == 2
    assert "text or json" in err


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "goldbach")
    assert code == 2


def test_config_file_and_flag_precedence(capsys, tmp_path, monkeypatch):
    config = tmp_path / "cover.conf"
    config.write_text("# sample config\nmax_m = 2\nformat = json\n")
    monkeypatch.setenv("COLLATZ_COVER_CONFIG", str(config))
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert len(json.loads(out)) == 18  # max_m=2 from the file
    code, out, _ = run(capsys, "table", "--max-m", "3")
    assert code == 0
    assert len(json.loads(out)) == 27  # flag overrides file


def test_config_explicit_flag(capsys, tmp_path):
    config = tmp_path / "cover.conf"
    config.write_text("max_m = 1\n")
    code, out, _ = run(capsys, "table", "--config", str(config))
    assert code == 0
    assert len(out.splitlines()) == 10


def test_config_rejects_unknown_key(capsys, tmp_path, monkeypatch):
    config = tmp_path / "cover.conf"
    monkeypatch.setenv("COLLATZ_COVER_CONFIG", str(config))
    for line in ("depth = 3", "cache = f", "threads = 2"):
        config.write_text(line + "\n")
        code, _, err = run(capsys, "table")
        assert code == 2, line
        assert "unknown config key" in err


def test_config_rejects_malformed_line(capsys, tmp_path):
    config = tmp_path / "cover.conf"
    config.write_text("max_m 3\n")
    code, _, err = run(capsys, "table", "--config", str(config))
    assert code == 2
    assert "key=value" in err


def test_config_rejects_bad_int(capsys, tmp_path):
    config = tmp_path / "cover.conf"
    config.write_text("max_m = lots\n")
    code, _, err = run(capsys, "table", "--config", str(config))
    assert code == 2


def test_config_value_must_parse_even_under_a_flag(capsys, tmp_path):
    # a bad integer in the file is a usage error even where a flag sets its
    # key; a bad format in the file is overridden by --format unread
    config = tmp_path / "cover.conf"
    config.write_text("max_m = lots\n")
    code, out, err = run(capsys, "table", "--max-m", "3", "--config", str(config))
    assert (code, out) == (2, "")
    assert err == "usage error: config key max_m needs an integer, got 'lots'\n"
    config.write_text("format = xml\n")
    code, out, err = run(capsys, "table", "--max-m", "1", "--format", "csv",
                         "--config", str(config))
    assert (code, err) == (0, "")
    assert out == run(capsys, "table", "--max-m", "1", "--format", "csv")[1]


def test_config_budget_reaches_the_range_sweep(capsys, tmp_path):
    config = tmp_path / "cover.conf"
    config.write_text("budget = 50\n")
    code, _, _ = run(capsys, "verify", "range", "--end", "2001")
    assert code == 0
    code, out, _ = run(capsys, "verify", "range", "--end", "2001",
                       "--config", str(config))
    assert code == 3
    assert "outcome: deferred" in out


def test_output_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "table", "--max-m", "1", "--format", "csv",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("i,r,m,")


def test_output_file_failure(capsys, tmp_path):
    code, _, err = run(capsys, "table", "--output",
                       str(tmp_path / "missing" / "rows.txt"))
    assert code == 1
    assert "error" in err


def failing_fdopen(fdopen):
    """``fdopen`` whose files write the first 5 characters of a text, then
    raise OSError("disk full")."""
    def opened(*args, **kwargs):
        fh = fdopen(*args, **kwargs)
        write = fh.write

        def fail(text):
            write(text[:5])
            raise OSError("disk full")

        fh.write = fail
        return fh
    return opened


def test_output_write_failure_keeps_the_earlier_file(capsys, monkeypatch,
                                                    tmp_path):
    # a write that fails part-way leaves the earlier report whole, exits 1
    # and leaves no temp file beside it
    target = tmp_path / "rows.csv"
    target.write_text("earlier report\n")
    monkeypatch.setattr(os, "fdopen", failing_fdopen(os.fdopen))
    code, out, err = run(capsys, "table", "--max-m", "1", "--format", "csv",
                         "--output", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: {target}: disk full\n"
    assert target.read_text() == "earlier report\n"
    assert os.listdir(tmp_path) == ["rows.csv"]


@pytest.mark.parametrize("target, earlier", [
    ("sub/", None), ("sub/", "earlier report\n"), ("", None), ("sub/.", None),
], ids=["slash", "slash-over-a-file", "empty", "dot"])
def test_output_naming_a_directory_is_refused(capsys, monkeypatch, tmp_path,
                                              target, earlier):
    # realpath drops a trailing slash or dot: such a target fails before
    # anything is written, and no file is made or replaced, here or beside
    # the working directory
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    if earlier is not None:
        (cwd / "sub").write_text(earlier)
    code, out, err = run(capsys, "sigma", "27", "--output", target)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {target}: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["cwd"]
    assert os.listdir(cwd) == ([] if earlier is None else ["sub"])
    if earlier is not None:
        assert (cwd / "sub").read_text() == earlier


def test_output_through_a_symlink_or_to_a_device(capsys, tmp_path):
    # a symlink stays one, and the file it names takes the output; a
    # device, which no file may replace, is written in place
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("earlier report\n")
    link.symlink_to(real)
    for target in (link, os.devnull):
        code, out, _ = run(capsys, "table", "--max-m", "1", "--format", "csv",
                           "--output", str(target))
        assert (code, out) == (0, "")
    assert link.is_symlink() and real.read_text().startswith("i,r,m,")
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("argv", [
    ("table", "--max-m", "1"),
    ("map", "schema", "--max-m", "1", "--format", "json"),
    ("verify", "theorem1", "--max-m", "2"),
], ids=["table", "map", "verify"])
def test_stdout_write_failure_exits_1_without_traceback(capsys, monkeypatch,
                                                        argv):
    def broken_write(_text):
        raise OSError("disk full")
    monkeypatch.setattr(sys.stdout, "write", broken_write)
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: disk full")
    assert "Traceback" not in err


def test_oversized_range_exits_1_without_traceback(capsys):
    # 5e29 table entries do not fit an index: the table is refused with an
    # OverflowError before anything is reserved
    code = main(["verify", "range", "--end", str(10**30)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("check, flag, value", [
    ("range", "--end", 10**30),
    ("cover", "--bound", 10**30),
    # 5e18 entries fit an index, but their 2e19 bytes do not: the table is
    # refused before the array repeat would raise an empty MemoryError
    ("range", "--end", 10**19),
    ("cover", "--bound", 10**19),
    ("sigma-relation", "--bound", 10**19),
], ids=["range", "cover", "range-1e19", "cover-1e19", "sigma-relation-1e19"])
def test_oversized_table_names_its_flag(capsys, check, flag, value):
    code = main(["verify", check, flag, str(value)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"error: {flag} {value} is too large")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, flag, what", [
    (("range", "--end", "10001"), "--end", "the table needs 5001 entries of 4 bytes"),
    # 3d + 1 = 0 (mod 16) holds 6250 of the odd d <= 100001
    (("cover", "--bound", "100001", "--max-m", "3"), "--bound",
     "the list of unmatched d needs 6250 entries"),
], ids=["table", "unmatched-list"])
def test_what_passes_the_memory_limit_names_its_flag(capsys, monkeypatch, argv,
                                                     flag, what):
    # the probe reads a soft RLIMIT_AS of 1000 bytes; no limit is set
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(resource, "getrlimit",
                        lambda _: (1000, resource.RLIM_INFINITY))
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"error: {flag} {argv[2]} is too large: {what}")
    assert captured.err.endswith("more than the soft RLIMIT_AS (1000 bytes)\n")
    # at max_m 18 no odd d <= 100001 is unmatched, so nothing is refused
    assert main(["verify", "cover", "--bound", "100001"]) == 0


@pytest.mark.parametrize("check, entries", [("cover", 1388), ("conjecture1", 695)],
                         ids=["cover", "conjecture1"])
def test_failing_rows_past_the_memory_limit_name_their_flag(capsys, monkeypatch,
                                                           check, entries):
    # the true rows pass under a soft RLIMIT_AS of 1000 bytes, since no member
    # is counted one by one. With row (2, 3) moved, its 695 true members to
    # 100001, and for the cover its 693 claims too, are refused before they
    # are counted
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(resource, "getrlimit",
                        lambda _: (1000, resource.RLIM_INFINITY))
    argv = ["verify", check, "--bound", "100001"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(collatz_cover.verify, "derive_profile",
                        rows_moving({(2, 3): "+modulus"}))
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(
        "error: --bound 100001 is too large: the member list of the failing "
        f"rows needs {entries} entries of 1300 bytes")
    assert captured.err.endswith("more than the soft RLIMIT_AS (1000 bytes)\n")


def test_table_past_the_address_space_limit_is_refused():
    # the child's soft RLIMIT_AS is 512 MiB, and the table of --end 1e9
    # takes 2e9 bytes: it is refused before it is asked for, and asking
    # would fail under the limit, not take the memory
    resource = pytest.importorskip("resource")
    limit = 512 << 20

    def lower_the_limit():
        resource.setrlimit(resource.RLIMIT_AS,
                           (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    result = subprocess.run(
        [sys.executable, "-m", "collatz_cover.cli", "verify", "range", "--end",
         str(10**9)], env=_env_with_src(), preexec_fn=lower_the_limit,
        capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "error: --end 1000000000 is too large: the table needs 500000000 entries "
        f"of 4 bytes, 2000000000 in all, more than the soft RLIMIT_AS ({limit} bytes)\n")


def test_memory_error_exits_1_without_traceback(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "verify_range", out_of_memory)
    code = main(["verify", "range", "--end", "101"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: out of memory\n"


def test_classify_refuses_a_row_that_misses_d_under_python_O():
    # with every row moved by 18, 13 would rebuild as 144*(-1) + 31 = -113;
    # the exactness check must not be an assert, which -O strips
    probe = ("import collatz_cover.covering as covering\n"
             "from collatz_cover.cli import main\n"
             "true = covering.derive_profile\n"
             "covering.derive_profile = lambda i, m: true(i, m)._replace(\n"
             "    d_offset=true(i, m).d_offset + 18)\n"
             "raise SystemExit(main(['classify', '13']))\n")
    result = subprocess.run([sys.executable, "-O", "-c", probe], env=_env_with_src(),
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.splitlines()[-1] == (
        "ArithmeticError: d=13 is not a member of its row, class 4 m=3: 144n + 31")


def test_output_file_is_utf8_and_unencodable_stdout_is_an_error(tmp_path):
    # under an ASCII locale the sigma map's non-ASCII header cannot reach
    # stdout: that is an output failure (exit 1), not a usage error, and an
    # --output file is written as UTF-8 whatever the locale
    env = _env_with_src()
    env.pop("PYTHONIOENCODING", None)
    env.update(PYTHONUTF8="0", LC_ALL="C")
    argv = [sys.executable, "-m", "collatz_cover.cli", "map", "sigma"]
    target = tmp_path / "map.txt"
    written = subprocess.run([*argv, "--output", str(target)], env=env,
                             capture_output=True, timeout=60)
    assert (written.returncode, written.stdout) == (0, b"")
    golden = Path(__file__).parent / "data" / "golden" / "map-sigma.text"
    assert target.read_bytes() == golden.read_bytes()
    printed = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert (printed.returncode, printed.stdout) == (1, b"")
    assert printed.stderr.startswith(b"error: 'ascii' codec can't encode")


def test_config_file_is_read_as_utf8(tmp_path):
    # a comment outside ASCII must not turn a valid config into a usage
    # error under an ASCII locale
    config = tmp_path / "cover.conf"
    config.write_bytes("# budget for σ runs\nbudget=50\n".encode("utf-8"))
    env = _env_with_src()
    env.pop("PYTHONIOENCODING", None)
    env.update(PYTHONUTF8="0", LC_ALL="C")
    result = subprocess.run(
        [sys.executable, "-m", "collatz_cover.cli", "sigma", "27",
         "--config", str(config)],
        env=env, capture_output=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (
        3, b"d=27 deferred budget-exceeded\n", b"")


def test_stdout_reproducible(capsys):
    _, first, _ = run(capsys, "map", "schema", "--max-m", "4", "--format", "json")
    _, second, _ = run(capsys, "map", "schema", "--max-m", "4", "--format", "json")
    assert first == second


@pytest.mark.parametrize("argv", [
    ("verify", "range", "--end", "20001", "--format", "json"),
    ("verify", "sigma-relation", "--bound", "20001"),
    ("sigma", "27", "13"),
    ("verify", "cyclic"),
])
def test_cache_and_threads_flags_are_inert(capsys, tmp_path, argv):
    path = tmp_path / "sigma.csig"
    code, plain, err = run(capsys, *argv)
    assert "note:" not in err
    code_flags, out, err = run(capsys, *argv, "--cache", str(path),
                               "--threads", "1")
    assert (code_flags, out) == (code, plain)
    assert code == 0
    assert not path.exists()
    assert [line for line in err.splitlines() if line.startswith("note:")] == [
        f"note: --cache is ignored; {path} is neither read nor written"]


def test_verify_ignores_cache_for_checks_without_walks(capsys, tmp_path):
    path = tmp_path / "sigma.csig"
    path.write_bytes(b"not a cache file")
    code, out, _ = run(capsys, "verify", "theorem1", "--cache", str(path))
    assert code == 0
    assert "outcome: pass" in out
    assert path.read_bytes() == b"not a cache file"


def test_verify_saves_no_cache_after_output_failure(capsys, tmp_path):
    path = tmp_path / "sigma.csig"
    code, _, err = run(capsys, "verify", "sigma-relation", "--bound", "201",
                       "--cache", str(path),
                       "--output", str(tmp_path / "missing" / "report.txt"))
    assert code == 1
    assert "error" in err
    assert not path.exists()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-digit limit on this interpreter")
def test_main_restores_int_digit_limit(capsys):
    digits = "1" + "0" * 4998 + "1"  # 5000 digits, odd, above the default limit
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run(capsys, "sigma", digits)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 0
    assert out.startswith(f"d={digits} sigma=")


def _env_with_src() -> dict:
    """The environment with the imported package's source tree first on
    PYTHONPATH, for subprocesses."""
    src = str(Path(collatz_cover.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    return env


def _modules_after_import(names, *flags, module="collatz_cover.cli",
                          then="pass") -> str:
    """The subset of ``names`` in sys.modules after a fresh interpreter,
    started with ``flags``, imports ``module`` and runs the statement
    ``then``."""
    env = _env_with_src()
    probe = (f"import sys, {module}; {then}; "
             f"print(sorted(m for m in {names!r} if m in sys.modules))")
    result = subprocess.run([sys.executable, *flags, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()[-1]


def test_cli_import_pulls_in_no_numpy_or_thread_pool():
    assert _modules_after_import(("numpy", "concurrent.futures")) == "[]"


def test_cli_import_pulls_in_no_file_format_modules():
    # -S: a site hook may import tempfile on its own. Each short command pays
    # for these at start-up: dataclasses pulls in inspect, json and csv serve
    # only some formats, and no command samples with random
    names = ("tempfile", "struct", "dataclasses", "inspect", "json", "csv",
             "random")
    assert _modules_after_import(names, "-S") == "[]"


def test_verify_cyclic_pulls_in_no_random():
    # the cycle is proved on the nine residues mod 18, not sampled
    run_cyclic = 'collatz_cover.cli.main(["verify", "cyclic"])'
    assert _modules_after_import(("random",), "-S", then=run_cyclic) == "[]"


def test_cli_import_loads_no_verifier_or_map_builder():
    names = ("collatz_cover.verify", "collatz_cover.mapgen")
    assert _modules_after_import(names, "-S") == "[]"


def test_covering_import_loads_no_renderer():
    names = ("collatz_cover.reports",)
    assert _modules_after_import(names, "-S",
                                 module="collatz_cover.covering") == "[]"


def _own_modules_imported(*argv) -> set[str]:
    """The collatz_cover modules that ``-X importtime`` lists for one
    command run in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "collatz_cover.cli", *argv],
        env=_env_with_src(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert result.returncode == 0, result.stderr[-500:]
    return {line.rsplit("|", 1)[1].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:") and "collatz_cover" in line}


@pytest.mark.parametrize("argv, loaded", [
    (("table",), set()),
    (("table", "--format", "csv"), set()),
    (("sigma", "27"), set()),
    (("classify", "27"), set()),
    (("verify", "range", "--end", "99"), {"collatz_cover.verify"}),
    (("map", "sigma"), {"collatz_cover.mapgen"}),
], ids=["table", "table-csv", "sigma", "classify", "verify-range", "map-sigma"])
def test_commands_load_only_the_modules_they_run(argv, loaded):
    deferred = {"collatz_cover.verify", "collatz_cover.mapgen"}
    assert _own_modules_imported(*argv) & deferred == loaded


def _names_the_tracer_wraps_on_cli(monkeypatch) -> list[str]:
    """The names perfbench's TracedSuite.fine_patches tries to wrap on the
    cli module, recorded by running it against stand-in modules."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import tracing

    class Recorder:
        def __init__(self):
            self.names = []

        def __getattr__(self, name):  # every name is missing: nothing is set
            self.names.append(name)
            raise AttributeError(name)

    suite = object.__new__(tracing.TracedSuite)
    suite.tracer, suite.caches = tracing.Tracer(), []
    suite.cli, suite.verify, suite.covering = Recorder(), Recorder(), Recorder()
    suite.fine_patches()
    return suite.cli.names


def test_every_name_the_tracer_wraps_resolves_on_cli(monkeypatch):
    names = _names_the_tracer_wraps_on_cli(monkeypatch)
    assert {"verify_range", "cover_audit", "render_str"} <= set(names)
    # names the cli module does not call, which the tracer skips: SigmaCache
    # went with the memo layer, and profiles are derived in covering
    skipped = {"SigmaCache", "derive_profile"}
    assert [n for n in names if n not in skipped and not hasattr(cli, n)] == []


@pytest.mark.parametrize("name, argv", [
    ("verify_range", ("verify", "range", "--end", "99")),
    ("cover_audit", ("verify", "cover", "--bound", "99", "--max-m", "9")),
    ("build_schema", ("map", "schema", "--max-m", "2")),
    ("report_to_json", ("verify", "range", "--end", "99", "--format", "json")),
])
def test_main_calls_the_function_bound_on_cli(capsys, monkeypatch, name, argv):
    original = getattr(cli, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(cli, name, wrapper)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_a_wrapper_bound_before_first_use_is_kept():
    # the verify module is not loaded yet when the wrapper is set
    probe = ("import collatz_cover.cli as cli\n"
             "from collatz_cover.verify import verify_range\n"
             "calls = []\n"
             "cli.verify_range = lambda *a, **k: calls.append(a) or verify_range(*a, **k)\n"
             "code = cli.main(['verify', 'range', '--end', '99'])\n"
             "print(code, len(calls), cli.verify_range is not verify_range)\n")
    result = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                            capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines()[-1] == "0 1 True"


@pytest.mark.parametrize("module", ["verify", "mapgen"])
def test_every_name_of_a_deferred_module_resolves_on_cli(module):
    source = importlib.import_module(f"collatz_cover.{module}")
    for name in collatz_cover._SOURCES[module]:
        assert getattr(cli, name) is getattr(source, name), name


def test_package_exports_every_public_name():
    exported = {}
    exec("from collatz_cover import *", exported)
    assert set(collatz_cover.__all__) <= set(exported)
    assert set(collatz_cover.__all__) <= set(dir(collatz_cover))
    assert exported["cover_audit"] is collatz_cover.verify.cover_audit
    assert not hasattr(collatz_cover, "no_such_name")


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("sigma", "0"),
    ("classify", "0"),
    ("verify", "range", "--end", "0"),
    ("verify", "range", "--start", "0", "--end", "9"),
    ("verify", "conjecture1", "--start", "0", "--bound", "9"),
    ("verify", "range"),
    ("verify", "cover", "--bound", "2"),
    ("verify", "range", "--start", "2", "--end", "2"),
    ("verify", "range", "--start", "3", "--end", "7", "--class", "9"),
    ("verify", "range", "--end", "9", "--threads", "0"),
    ("verify", "range", "--end", "99", "--class", "10"),
    ("verify", "cyclic", "--samples", "3"),
    ("verify", "cyclic", "--seed", "7"),
])
def test_usage_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""
