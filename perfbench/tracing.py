"""Traced in-process run: the per-layer split of every command set.

The commands of all four command sets (sweep, audit, cache-reuse, queries)
run through ``collatz_cover.cli.main`` in this process. Wrappers are set at
the call sites, as attributes of the ``cli`` and ``verify`` modules, and
restored afterwards; ``src/`` is not modified. A call made once per command
(a verify check, a report render, a cache load or save, a map build) gets a
span: name, start, end, parent. A call made once per odd integer
(``sigma_infinity``, ``residue_class``, ``derive_profile``) is rolled up
under its parent span as a call count and a total time, which keeps memory
flat over millions of calls. Spans stay in memory and are written once at
the end. Sweeps run with ``--threads 1`` so spans never overlap.

The traced run covers every command set whatever ``--workload`` names, so
that each per-layer metric is measured on the commands it belongs to. Each
set's tracing overhead is its traced wall time minus the untraced wall time
of the same commands, both run here.
"""

from __future__ import annotations

import gc
import importlib
import io
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import (AUDIT_BOUND, COVER_MAX_M, Gate, QueryGenerator,
                       audit_ops, deep_valuation_odds, load_reference_tables,
                       sigma_relation_op, sweep_op)

IMPORT_PROFILES = 3

#: Per-layer metrics: unit, and whether higher or lower is better.
PER_LAYER = {
    "arith.sigma_calls": ("count", "lower"),
    "arith.sigma_s": ("s", "lower"),
    "arith.sigma_us_per_call": ("us", "lower"),
    "arith.query_sigma_s": ("s", "lower"),
    "cache.gets": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.puts": ("count", "lower"),
    "cache.admission_drops": ("count", "lower"),
    "cache.entries": ("count", "lower"),
    "cache.bytes_per_entry": ("B", "lower"),
    "cache.load_s": ("s", "lower"),
    "cache.save_s": ("s", "lower"),
    "cache.warm_save_s": ("s", "lower"),
    "cache.file_bytes": ("B", "lower"),
    "covering.classify_calls": ("count", "lower"),
    "covering.classify_s": ("s", "lower"),
    "covering.derive_profile_hits": ("count", "higher"),
    "covering.derive_profile_misses": ("count", "lower"),
    "covering.cover_audit_s": ("s", "lower"),
    "covering.membership_tests": ("count", "lower"),
    "covering.cover_bytes": ("B", "lower"),
    "verify.range_s": ("s", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.partitions": ("count", "lower"),
    "verify.serial_range_s": ("s", "lower"),
    "verify.parallel_range_s": ("s", "lower"),
    "verify.parallel_speedup": ("ratio", "higher"),
    "verify.invol_ctx_switches": ("count", "lower"),
    "verify.conjecture1_s": ("s", "lower"),
    "verify.theorem1_s": ("s", "lower"),
    "verify.sigma_relation_s": ("s", "lower"),
    "verify.warm_sigma_relation_s": ("s", "lower"),
    "reports.render_s": ("s", "lower"),
    "reports.bytes": ("B", "lower"),
    "mapgen.build_s": ("s", "lower"),
    "mapgen.render_s": ("s", "lower"),
    "mapgen.bytes": ("B", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_numpy_s": ("s", "lower"),
    "cli.import_own_s": ("s", "lower"),
    "cli.import_modules": ("count", "lower"),
    "cli.import_numpy_modules": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.sweep_overhead_s": ("s", "lower"),
    "trace.audit_overhead_s": ("s", "lower"),
    "trace.cache_reuse_overhead_s": ("s", "lower"),
    "trace.queries_overhead_s": ("s", "lower"),
}

#: Exact counts derived from the inputs rather than timed.
COMPUTED = {"covering.membership_tests", "covering.cover_bytes",
            "cache.bytes_per_entry", "verify.partitions", "cli.import_modules",
            "cli.import_numpy_modules"}


class Tracer:
    """Spans as [name, start, end, parent, bytes]; rolled-up calls as
    {(parent, name): [calls, seconds]}."""

    def __init__(self):
        self.spans: list[list] = []
        self.rollups: dict[tuple[int, str], list] = {}
        self.stack = [-1]

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self.stack[-1], 0]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def spanned(self, fn, name: str, count_bytes: bool = False):
        def wrapper(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
                if count_bytes:
                    self.spans[index][4] = len(result.encode("utf-8"))
                return result
        return wrapper

    def rolled_up(self, fn, name: str):
        rollups, stack, clock = self.rollups, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                entry = rollups.get((stack[-1], name))
                if entry is None:
                    rollups[(stack[-1], name)] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
        return wrapper

    def summary(self, root: int) -> dict[str, list]:
        """{name: [calls, total_s, self_s, bytes]} over span ``root``, the
        spans below it and their rollups; self time is a span's duration
        minus the time its children cover."""
        inside = {root}
        for index in range(root + 1, len(self.spans)):
            if self.spans[index][3] in inside:
                inside.add(index)
        covered = defaultdict(float)
        for index in inside - {root}:
            name, start, end, parent, _ = self.spans[index]
            covered[parent] += end - start
        for (parent, name), (calls, seconds) in self.rollups.items():
            if parent in inside:
                covered[parent] += seconds
        out = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for index in inside:
            name, start, end, _, nbytes = self.spans[index]
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[index]
            entry[3] += nbytes
        for (parent, name), (calls, seconds) in self.rollups.items():
            if parent in inside:
                entry = out[name]
                entry[0] += calls
                entry[1] += seconds
                entry[2] += seconds
        return out

    def dump(self) -> dict:
        return {"spans": self.spans,
                "rollups": [[parent, name, calls, seconds] for
                            (parent, name), (calls, seconds) in self.rollups.items()]}


class Patches:
    """Attribute replacements that are undone in reverse order. Attributes
    the program no longer has are skipped, so the run degrades to fewer
    spans rather than failing."""

    def __init__(self):
        self.saved = []

    def set(self, owner, name: str, make) -> None:
        if not hasattr(owner, name):
            return
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self.saved.append((owner, name, old))
        setattr(owner, name, make(getattr(owner, name)))

    def undo(self) -> None:
        while self.saved:
            owner, name, old = self.saved.pop()
            setattr(owner, name, old)


def counting_cache(base, tracer: Tracer, registry: list):
    """A SigmaCache subclass that counts lookups, hits, stores and
    admission drops, and spans file loads and saves."""

    class CountingSigmaCache(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.gets = self.hits = self.puts = self.drops = 0
            registry.append(self)

        def get(self, key):
            self.gets += 1
            value = super().get(key)
            if value is not None:
                self.hits += 1
            return value

        def put(self, key, value):
            self.puts += 1
            if key >= self.max_key:
                self.drops += 1
            return super().put(key, value)

        @classmethod
        def load(cls, *args, **kwargs):
            with tracer.span("cache.load"):
                return super().load(*args, **kwargs)

        def save(self, *args, **kwargs):
            with tracer.span("cache.save"):
                return super().save(*args, **kwargs)

    return CountingSigmaCache


def deep_sizeof(obj, seen: set | None = None) -> int:
    """Bytes held by obj and the containers and objects it refers to. Small
    ints are interpreter-wide singletons and count nothing."""
    if isinstance(obj, int):
        return 0 if -5 <= obj <= 256 else sys.getsizeof(obj)
    if isinstance(obj, (float, str, bytes)):
        return sys.getsizeof(obj)
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(deep_sizeof(k, seen) + deep_sizeof(v, seen) for k, v in obj.items())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(deep_sizeof(item, seen) for item in obj)
    elif hasattr(obj, "__dict__"):
        size += deep_sizeof(vars(obj), seen)
    return size


def import_profile(root: Path, env: dict) -> dict:
    """Import-time breakdown of ``import collatz_cover.cli`` from
    ``-X importtime``: the collatz_cover subtrees, and numpy within them."""
    argv = [sys.executable, "-X", "importtime", "-c", "import collatz_cover.cli"]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-200:]}")
    entries = []  # (level, self_us, cumulative_us, name), children first
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, raw = line[len("import time:"):].split("|")
        level = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((level, int(own), int(cumulative), raw.strip()))
    total = own_us = numpy_us = modules = numpy_modules = 0
    group_start = 0
    for index, (level, own, cumulative, name) in enumerate(entries):
        if level != 0:
            continue
        if name.startswith("collatz_cover"):
            group = entries[group_start:index + 1]
            total += cumulative
            modules += len(group)
            own_us += sum(e[1] for e in group if e[3].startswith("collatz_cover"))
            for pos, (sub_level, _, sub_cumulative, sub_name) in enumerate(group):
                if sub_name == "numpy":
                    numpy_us += sub_cumulative
                    first = pos
                    while first > 0 and group[first - 1][0] > sub_level:
                        first -= 1
                    numpy_modules += pos - first + 1
        group_start = index + 1
    return {"cli.import_s": total / 1e6, "cli.import_numpy_s": numpy_us / 1e6,
            "cli.import_own_s": own_us / 1e6, "cli.import_modules": modules,
            "cli.import_numpy_modules": numpy_modules}


class TracedSuite:
    def __init__(self, root: Path, work: Path, seed: int, gate: Gate):
        sys.path.insert(0, str(root / "src"))
        self.cli = importlib.import_module("collatz_cover.cli")
        self.verify = importlib.import_module("collatz_cover.verify")
        self.covering = importlib.import_module("collatz_cover.covering")
        source = Path(self.cli.__file__).resolve()
        if not source.is_relative_to((root / "src").resolve()):
            raise RuntimeError(f"collatz_cover imported from {source}, not {root}")
        self.work, self.seed, self.gate = work, seed, gate
        self.tracer = Tracer()
        self.caches: list = []
        self.layer_self_s: dict[str, dict[str, float]] = {}
        self.reference = load_reference_tables(root)
        self.deferred = deep_valuation_odds(AUDIT_BOUND, COVER_MAX_M)

    # -- patching ---------------------------------------------------------

    def fine_patches(self) -> Patches:
        """Every wrapper, and a fresh registry of counting caches."""
        t, cli, verify = self.tracer, self.cli, self.verify
        self.caches.clear()
        patches = Patches()
        for name, label, count_bytes in (
                ("verify_range", "verify.verify_range", False),
                ("verify_conjecture1", "verify.verify_conjecture1", False),
                ("verify_theorem1_symbolic", "verify.verify_theorem1_symbolic", False),
                ("verify_sigma_relation", "verify.verify_sigma_relation", False),
                ("cover_audit", "covering.cover_audit", False),
                ("report_to_json", "reports.report_to_json", True),
                ("report_to_text", "reports.report_to_text", True),
                ("build_schema", "mapgen.build_schema", False),
                ("build_sigma_schema", "mapgen.build_sigma_schema", False),
                ("render_str", "mapgen.render_str", True)):
            patches.set(cli, name, lambda fn, label=label, cb=count_bytes:
                        t.spanned(fn, label, cb))
        for owner in (cli, verify):
            patches.set(owner, "sigma_infinity",
                        lambda fn: t.rolled_up(fn, "arith.sigma_infinity"))
            for name in ("classify", "residue_class", "derive_profile",
                         "digit_root_class"):
                patches.set(owner, name, lambda fn, name=name:
                            t.rolled_up(fn, f"covering.{name}"))
        patches.set(cli, "SigmaCache", lambda base: counting_cache(base, t, self.caches))
        table = getattr(self.covering, "ProfileTable", None)
        if table is not None:
            patches.set(table, "build", lambda fn: staticmethod(
                t.spanned(fn, "covering.ProfileTable.build")))
        return patches

    def range_only_patch(self) -> Patches:
        patches = Patches()
        patches.set(self.cli, "verify_range",
                    lambda fn: self.tracer.spanned(fn, "verify.verify_range"))
        return patches

    # -- running ----------------------------------------------------------

    def main(self, op, label: str) -> tuple[int, float]:
        """One command through cli.main under a span; returns (span, wall)."""
        clear = getattr(self.covering.derive_profile, "cache_clear", None)
        if clear is not None:
            clear()  # a fresh process starts with an empty profile memo
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            with self.tracer.span(f"cli.main {label}") as index:
                code = self.cli.main(list(op.argv))
        self.gate.judge(op, out.getvalue(), code, err.getvalue())
        _, start, end, _, _ = self.tracer.spans[index]
        return index, end - start

    def run_pass(self, label: str, ops, patches: Patches | None,
                 before=None) -> tuple[list[int], float]:
        spans, wall = [], 0.0
        try:
            for op in ops:
                if before is not None:
                    before(op)
                index, seconds = self.main(op, label)
                spans.append(index)
                wall += seconds
        finally:
            if patches is not None:
                patches.undo()
        by_layer = defaultdict(float)
        for name, (_, _, self_s, _) in self._merged(spans).items():
            by_layer[name.split(".")[0]] += self_s
        self.layer_self_s[label] = dict(by_layer)
        return spans, wall

    # -- the four workloads -----------------------------------------------

    def sweep(self, m: dict) -> None:
        serial = sweep_op(threads=1, record_as="traced-sweep-threads-1")
        default = sweep_op(same_as="traced-sweep-threads-1")
        [traced], traced_wall = self.run_pass("sweep traced", [serial],
                                              self.fine_patches())
        s = self.tracer.summary(traced)
        info = self.covering.derive_profile.cache_info()
        sigma_calls, sigma_s = s["arith.sigma_infinity"][:2]
        classify_calls = s["covering.residue_class"][0] + s["covering.derive_profile"][0]
        classify_s = s["covering.residue_class"][1] + s["covering.derive_profile"][1]
        m["verify.range_s"] = s["verify.verify_range"][1]
        m["verify.self_s"] = s["verify.verify_range"][2]
        m["arith.sigma_calls"] = sigma_calls
        m["arith.sigma_s"] = sigma_s
        m["arith.sigma_us_per_call"] = 1e6 * sigma_s / sigma_calls if sigma_calls else 0.0
        m["covering.classify_calls"] = classify_calls
        m["covering.classify_s"] = classify_s
        m["covering.derive_profile_hits"] = info.hits
        m["covering.derive_profile_misses"] = info.misses
        odds = serial.items
        m["verify.partitions"] = -(-odds // getattr(self.verify, "PARTITION_SIZE", odds))
        cache = self.caches[-1] if self.caches else None
        if cache is not None:
            m["cache.gets"], m["cache.hits"] = cache.gets, cache.hits
            m["cache.hit_ratio"] = cache.hits / cache.gets if cache.gets else 0.0
            m["cache.puts"], m["cache.admission_drops"] = cache.puts, cache.drops
            m["cache.entries"] = len(cache)
            m["cache.bytes_per_entry"] = deep_sizeof(cache) / max(1, len(cache))
        self.caches.clear()
        self._renders(s, m)

        [untraced], serial_wall = self.run_pass("sweep untraced threads=1", [serial],
                                                self.range_only_patch())
        m["verify.serial_range_s"] = self.tracer.summary(untraced)["verify.verify_range"][1]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw
        [parallel], _ = self.run_pass("sweep untraced default threads", [default],
                                      self.range_only_patch())
        m["verify.invol_ctx_switches"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw - before)
        m["verify.parallel_range_s"] = self.tracer.summary(parallel)["verify.verify_range"][1]
        m["verify.parallel_speedup"] = (m["verify.serial_range_s"]
                                        / m["verify.parallel_range_s"])
        m["trace.sweep_overhead_s"] = traced_wall - serial_wall

    def audit(self, m: dict) -> None:
        ops = audit_ops(self.deferred)
        spans, traced_wall = self.run_pass("audit traced", ops, self.fine_patches())
        s = self._merged(spans)
        m["covering.cover_audit_s"] = s["covering.cover_audit"][1]
        m["verify.conjecture1_s"] = s["verify.verify_conjecture1"][1]
        m["verify.theorem1_s"] = s["verify.verify_theorem1_symbolic"][1]
        odds = ops[0].items
        profiles = 9 * COVER_MAX_M
        m["covering.membership_tests"] = profiles * odds
        # numpy kernel: int64 odds and int32 counts held throughout, plus an
        # int64 remainder and a bool mask alive for each progression
        m["covering.cover_bytes"] = odds * (8 + 4 + 8 + 1)
        self._renders(s, m)
        _, untraced_wall = self.run_pass("audit untraced", ops, None)
        m["trace.audit_overhead_s"] = traced_wall - untraced_wall

    def cache_reuse(self, m: dict) -> None:
        path = self.work / "traced-sigma-cache.bin"
        cold = sigma_relation_op(path, record_as="traced-cold")
        warm = sigma_relation_op(path, same_as="traced-cold")

        def fresh(op):
            if op is cold:
                path.unlink(missing_ok=True)
        (cold_span, warm_span), traced_wall = self.run_pass(
            "cache-reuse traced", [cold, warm], self.fine_patches(), fresh)
        self.caches.clear()
        c, w = self.tracer.summary(cold_span), self.tracer.summary(warm_span)
        m["cache.save_s"] = c["cache.save"][1]
        m["cache.warm_save_s"] = w["cache.save"][1]
        m["cache.load_s"] = w["cache.load"][1]
        m["cache.file_bytes"] = path.stat().st_size if path.exists() else 0
        m["verify.sigma_relation_s"] = c["verify.verify_sigma_relation"][1]
        m["verify.warm_sigma_relation_s"] = w["verify.verify_sigma_relation"][1]
        self._renders(c, m)
        self._renders(w, m)
        _, untraced_wall = self.run_pass("cache-reuse untraced", [cold, warm],
                                         None, fresh)
        path.unlink(missing_ok=True)
        m["trace.cache_reuse_overhead_s"] = traced_wall - untraced_wall

    def queries(self, m: dict) -> None:
        ops = QueryGenerator(self.seed, self.reference).round()
        spans, traced_wall = self.run_pass("queries traced", ops, self.fine_patches())
        self.caches.clear()
        s = self._merged(spans)
        m["arith.query_sigma_s"] = s["arith.sigma_infinity"][1]
        m["mapgen.build_s"] = (s["mapgen.build_schema"][1]
                               + s["mapgen.build_sigma_schema"][1])
        m["mapgen.render_s"] = s["mapgen.render_str"][1]
        m["mapgen.bytes"] = s["mapgen.render_str"][3]
        m["cli.self_s"] = s["cli.main queries traced"][2]
        _, untraced_wall = self.run_pass("queries untraced", ops, None)
        m["trace.queries_overhead_s"] = traced_wall - untraced_wall

    def _merged(self, roots: list[int]) -> dict:
        merged = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for root in roots:
            for name, values in self.tracer.summary(root).items():
                merged[name] = [a + b for a, b in zip(merged[name], values)]
        return merged

    @staticmethod
    def _renders(summary: dict, m: dict) -> None:
        for name in ("reports.report_to_json", "reports.report_to_text"):
            m["reports.render_s"] = m.get("reports.render_s", 0.0) + summary[name][1]
            m["reports.bytes"] = m.get("reports.bytes", 0) + summary[name][3]


def traced_run(root: Path, work: Path, seed: int, seconds: int, env: dict,
               gate: Gate) -> tuple[dict, dict]:
    """Repeat the traced suite while another half repetition still fits in
    ``seconds`` (at least once). Times are medians over the repetitions;
    counts are exact and repeat."""
    profiles = []
    for _ in range(IMPORT_PROFILES):
        try:
            profiles.append(import_profile(root, env))
            gate.record(True, "")
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            gate.record(False, f"-X importtime: {exc}")
    suite = TracedSuite(root, work, seed, gate)
    runs = []
    start = time.perf_counter()
    while not runs or (time.perf_counter() - start) * (1 + 0.5 / len(runs)) < seconds:
        metrics = {}
        for step in (suite.sweep, suite.audit, suite.cache_reuse, suite.queries):
            step(metrics)
        runs.append(metrics)
    runs += [dict(p) for p in profiles]
    values = {}
    for name in PER_LAYER:
        observed = [r[name] for r in runs if name in r]
        values[name] = statistics.median(observed) if observed else 0
    return values, {"repetitions": len(runs) - len(profiles),
                    "layer_self_s": suite.layer_self_s, **suite.tracer.dump()}
