"""What the benchmark ran on: CPUs, cgroup limits and library versions.
Everything here only reads."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _blas() -> str | None:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}".strip() or None


def describe() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        # cgroup v2 first, then v1
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max")
        or _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
        "cgroup_memory_max": _read("/sys/fs/cgroup/memory.max")
        or _read("/sys/fs/cgroup/memory/memory.limit_in_bytes"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }
