"""Facts about the machine and the code, stored with every result record."""

from __future__ import annotations

import os
import platform
import sys
import sysconfig
from importlib import metadata
from pathlib import Path

CPU_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
CGROUP_FILES = ("/sys/fs/cgroup/cpu.max",
                "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                "/sys/fs/cgroup/cpu/cpu.cfs_period_us")


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_caches() -> dict[str, str]:
    """Unified and data cache sizes of cpu0 by level, e.g. {"L2": "2048K"}."""
    caches = {}
    for index in sorted(CPU_CACHE_DIR.glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        if level and size and kind in ("Unified", "Data"):
            caches.setdefault(f"L{level}", size)
    return caches


def cpu_quota() -> dict[str, str]:
    """The cgroup CPU limit, from whichever of the v2 or v1 files is readable."""
    return {path.rsplit("/", 1)[1]: value for path in CGROUP_FILES
            if (value := _read(path)) is not None}


def gil_state() -> str:
    if hasattr(sys, "_is_gil_enabled"):
        return "enabled" if sys._is_gil_enabled() else "disabled"
    return "disabled" if sysconfig.get_config_var("Py_GIL_DISABLED") else "enabled"


def package_version(name: str) -> str | None:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def commit_hash(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    that is not a git repository reports "unknown"."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(git / ref)
    if direct:
        return direct
    for line in (_read(git / "packed-refs") or "").splitlines():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return "unknown"


def machine_facts(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_quota": cpu_quota(),
        "cpu_caches": cpu_caches(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil": gil_state(),
        "numpy": package_version("numpy"),
        "commit": commit_hash(root),
    }


def describe(facts: dict) -> str:
    caches = " ".join(f"{k}={v}" for k, v in facts["cpu_caches"].items())
    quota = " ".join(f"{k}={v}" for k, v in facts["cpu_quota"].items()) or "none"
    return (f"nproc={facts['nproc']} affinity={facts['affinity']} "
            f"cpu_quota=[{quota}] {caches} python={facts['python']} "
            f"gil={facts['gil']} numpy={facts['numpy']} commit={facts['commit']}")
