"""Host fingerprint and per-phase CPU accounting for benchmark runs.

A run taken during one of a shared host's slow phases should show in its
own output, not only in the spread across runs.  Each timed phase
therefore records the process CPU/wall ratio (below 1 means the process
was waiting for a CPU) and the host-wide CPU-steal share from
``/proc/stat`` (time the hypervisor gave to other guests).
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _read_proc_stat():
    """``(steal, total)`` jiffies of the aggregate CPU line, or ``None``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted inside user/nice.
    ticks = values[:8]
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks)


class PhaseClock:
    """Wall, process-CPU and host-steal readings at one instant."""

    __slots__ = ("wall", "cpu", "stat")

    def __init__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        self.stat = _read_proc_stat()

    def until(self, later: "PhaseClock") -> dict:
        """Accounting of the interval from this reading to ``later``."""
        wall = later.wall - self.wall
        cpu = later.cpu - self.cpu
        steal = None
        if self.stat is not None and later.stat is not None:
            total = later.stat[1] - self.stat[1]
            if total > 0:
                steal = (later.stat[0] - self.stat[0]) / total
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "cpu_wall_ratio": cpu / wall if wall > 0 else 0.0,
            "steal_ratio": steal,
        }


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path):
    """HEAD commit read from ``.git`` without running git (``None`` if absent)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="ascii").strip()
        packed = git / "packed-refs"
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path, *dirs: str) -> str:
    """SHA-256 over every ``*.py`` under ``root/dir`` (path + content).

    Identifies the measured code in checkouts that are not git
    repositories; it also keys the benchmark's input and result caches.
    """
    digest = hashlib.sha256()
    for path in sorted(p for d in dirs for p in (root / d).rglob("*.py")
                       if ".cache" not in p.parts):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(root: Path, src_digest: str) -> dict:
    """Host and build identity recorded with every run."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
        "source_digest": src_digest,
    }
