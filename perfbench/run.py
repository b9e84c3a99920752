#!/usr/bin/env python3
"""Benchmark of the collatz-cover CLI, built on the standard library only.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` one client runs the workload's real commands
(``python -m collatz_cover.cli ...``) as subprocesses, one at a time, for
``--seconds`` and reports the end-to-end metrics. With ``--trace 1`` the
commands run in this process with spans around the calls into each module,
and the per-layer metrics are reported (see ``tracing.py``). Every command's
output is checked against references that share no code with the program.

Lines before the last print every metric by name with its unit, and the
machine facts; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record, with every sample,
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from facts import describe, machine_facts  # noqa: E402
from workloads import (REFERENCE_TABLES, WHY, WORKLOADS, Gate,  # noqa: E402
                       Op, SelfCheckError, make_workload)

OUT = HERE / "out"
#: At least this many set-up samples per run.
SETUP_SAMPLES = 9
COMMAND_TIMEOUT_S = 30.0
#: Rounds stop starting after this long, so a run ends well within 180 s.
RUN_LIMIT_S = 140.0

END_TO_END_UNITS = {
    "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
    "odds_per_cpu_s": "1/s", "command_cpu_p50_ms": "ms",
}


@dataclass
class Child:
    stdout: str
    stderr: str
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("COLLATZ_COVER_CONFIG", None)  # a config file would change the commands
    return env


def run_child(argv: list[str], env: dict, errfile) -> Child:
    """Run one command to completion. Wall time covers spawn to reap; CPU
    time and peak RSS are this child's own, from wait4."""
    errfile.seek(0)
    errfile.truncate()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=errfile)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    errfile.seek(0)
    return Child(out.decode("utf-8", "replace"),
                 errfile.read().decode("utf-8", "replace"), proc.returncode,
                 wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are too few samples for that."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} commands (fewer than 11)"
    rank = n - 10
    return ordered[rank - 1], f"p{100 * rank / n:.1f} of {n} commands"


class Client:
    """The one closed-loop client: runs a command, waits, judges it."""

    def __init__(self, gate: Gate, errfile):
        self.gate = gate
        self.env = child_env()
        self.errfile = errfile

    def run(self, argv: list[str]) -> Child:
        return run_child([sys.executable, *argv], self.env, self.errfile)

    def command(self, op: Op) -> tuple[Child, bool]:
        child = self.run(["-m", "collatz_cover.cli", *op.argv])
        return child, self.gate.judge(op, child.stdout, child.code, child.stderr)


def import_once(client: Client) -> float | None:
    """Wall time of a fresh interpreter importing the CLI module."""
    child = client.run(["-c", "import collatz_cover.cli"])
    client.gate.record(child.code == 0, f"import collatz_cover.cli exited "
                                        f"{child.code}: {child.stderr[-200:]}")
    return child.wall_s if child.code == 0 else None


def end_to_end(workload, seconds: int, client: Client, started: float):
    """Rounds until ``seconds`` have passed. One set-up sample is taken
    before each round, so set-up time is sampled across the whole run."""
    if import_once(client) is None:  # untimed warm-up: compiles the bytecode
        raise SystemExit("error: collatz_cover.cli does not import")
    for op in workload.reference_ops:
        client.command(op)
    setup = []
    rounds = []  # the children of each round
    items = 0
    start = time.perf_counter()

    def more() -> bool:
        elapsed = time.perf_counter() - start
        typical = elapsed / len(rounds) if rounds else 0.0
        return (not rounds or elapsed + typical / 2 < seconds) and \
            time.perf_counter() - started < RUN_LIMIT_S

    while more():
        ops = workload.next_round()
        setup.append(import_once(client))
        children = []
        for op in ops:
            child, ok = client.command(op)
            children.append(child)
            items += op.items if ok else 0
        rounds.append(children)
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_once(client))
    setup = [wall for wall in setup if wall is not None]
    commands = [c for children in rounds for c in children]
    round_walls = [sum(c.wall_s for c in children) for children in rounds]
    round_cpus = [sum(c.cpu_s for c in children) for children in rounds]
    wall, cpu = sum(round_walls), sum(round_cpus)
    # Gated figures use the children's CPU time. On a shared host the wall
    # time of a command also counts the time its threads wait for a vCPU, and
    # that waiting varies from run to run far more than the work does; a
    # run's rounds are averaged because slow host phases last tens of seconds.
    values = {
        "setup_s": (statistics.median(setup),
                    f"median of {len(setup)} fresh imports of collatz_cover.cli"),
        "cpu_s": (statistics.fmean(round_cpus),
                  f"children's user+sys per round, mean of {len(rounds)} rounds"),
        "peak_rss_mb": (statistics.median(max(c.maxrss_mib for c in children)
                                          for children in rounds),
                        "largest child max RSS per round, median"),
        "odds_per_cpu_s": (items / cpu, f"{items} items checked in {cpu:.2f} CPU s"),
        "command_cpu_p50_ms": (statistics.median(c.cpu_s for c in commands) * 1000,
                               f"median user+sys of {len(commands)} commands"),
    }
    metrics = {name: (value, END_TO_END_UNITS[name], note)
               for name, (value, note) in values.items()}
    tail_ms, tail_note = tail([c.wall_s * 1000 for c in commands])
    info = {
        "wall_s": (statistics.fmean(round_walls), "s", f"mean of {len(rounds)} rounds"),
        "odds_per_s": (items / wall, "1/s", f"{items} items checked in {wall:.2f} s"),
        "query_p50_ms": (statistics.median(c.wall_s for c in commands) * 1000, "ms",
                         f"median wall of {len(commands)} commands"),
        "query_tail_ms": (tail_ms, "ms", tail_note),
    }
    samples = {"setup_s": setup,
               "rounds": [[(c.wall_s, c.cpu_s, c.maxrss_mib, c.code) for c in children]
                          for children in rounds]}
    return metrics, info, samples


def check_checkout() -> None:
    """The benchmark needs the program's source and the reference tables."""
    for needed in (ROOT / "src" / "collatz_cover" / "cli.py", ROOT / REFERENCE_TABLES):
        if not needed.is_file():
            raise SystemExit(f"error: {needed.relative_to(ROOT)} is missing; run "
                             f"from a full checkout of the repository")


def format_value(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    started = time.perf_counter()
    check_checkout()
    OUT.mkdir(exist_ok=True)
    facts = machine_facts(ROOT)
    gate = Gate()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        work = Path(work)
        try:
            if args.trace:
                from tracing import COMPUTED, PER_LAYER, traced_run
                values, extra = traced_run(ROOT, work, args.seed, args.seconds,
                                           child_env(), gate)
                metrics = {name: (values[name], PER_LAYER[name][0],
                                  "computed" if name in COMPUTED else "")
                           for name in PER_LAYER}
                info = {}
            else:
                workload = make_workload(args.workload, args.seed, ROOT)
                with tempfile.TemporaryFile(dir=work) as errfile:
                    metrics, info, extra = end_to_end(
                        workload, args.seconds, Client(gate, errfile), started)
        except SelfCheckError as exc:
            print(f"error: correctness gate is broken: {exc}", file=sys.stderr)
            return 1
    failed_frac = gate.failed / max(1, gate.attempted)
    lines = [f"# perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             f"# workload: {WHY[args.workload]}",
             f"# machine: {describe(facts)}",
             f"# self-check: a wrong expected value fails the check for each of "
             f"{len(gate.self_checked)} command kinds"]
    for name, (value, unit, note) in metrics.items():
        lines.append(f"{name} = {format_value(value)} {unit}" + (f"  # {note}" if note else ""))
    for name, (value, unit, note) in info.items():
        lines.append(f"{name} = {format_value(value)} {unit}  # {note}; not gated")
    lines.append(f"failed_frac = {failed_frac:.6g} ratio  # {gate.failed} of "
                 f"{gate.attempted} operations failed")
    lines += [f"# FAILED {problem}" for problem in gate.problems[:20]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts,
              "metrics": {name: {"value": value, "unit": unit, "note": note}
                          for name, (value, unit, note) in {**metrics, **info}.items()},
              "failed_frac": failed_frac, "attempted": gate.attempted,
              "failed": gate.failed, "problems": gate.problems,
              "self_checked": sorted(gate.self_checked), "samples": extra}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    lines.append(f"# record: {path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
