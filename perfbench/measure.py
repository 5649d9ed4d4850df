"""Measurement helpers shared by the workloads: the percentile rule,
summary digests, resource readings and the environment record.

Nothing here imports the numsgps package, so the helpers can be tested
without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
from pathlib import Path

# a tail percentile is reported only when this many samples lie beyond it
MIN_BEYOND = 10
PERCENTILE_LADDER = (50, 90, 95, 99, 99.9)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100 * n))


def tail_percentile(n: int) -> float | None:
    """Highest percentile of the ladder with at least MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    usable = [p for p in PERCENTILE_LADDER if beyond(n, p) >= MIN_BEYOND]
    return usable[-1] if usable else None


def canonical_json(value) -> bytes:
    """The byte form the CLI emits: sorted keys, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def summary_digest(summary: dict) -> str:
    """SHA-256 of a verify summary with its `seed` field removed; the seed
    only steers sampled spot checks and never changes a verdict."""
    stripped = {k: v for k, v in summary.items() if k != "seed"}
    return hashlib.sha256(canonical_json(stripped)).hexdigest()


def output_digest(code: int | None, stdout: str) -> str:
    """Short digest of one CLI invocation's exit code and output."""
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


def cpu_seconds() -> tuple[float, float]:
    """(this process, its reaped children) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Higher of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def loadavg_1m() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def git_commit(root: Path) -> str | None:
    """Commit of the checkout at `root`, read from .git without running
    git; None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    for line in packed:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(root: Path) -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "commit": git_commit(root),
    }
