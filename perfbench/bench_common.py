"""Shared measurement helpers: percentiles, process accounting, provenance.

Everything here reads the running system from outside the program under
test: CPU time and peak memory come from ``/proc/<pid>``, kernel UDP
drops from ``/proc/net/snmp``. Nothing imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import time
from typing import Dict, Optional, Sequence

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- percentiles ------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (0..100) of *samples*."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    if frac == 0 or ordered[high] == ordered[low]:
        # Failed queries count as infinite; inf - inf would make NaN.
        return float(ordered[low])
    return float(ordered[low] + (ordered[high] - ordered[low]) * frac)


def reportable_percentile(count: int, wanted: float = 99.0,
                          tail: int = 10) -> Optional[float]:
    """The highest percentile up to *wanted* with >= *tail* samples beyond it.

    A tail percentile read from too few samples is one sample's noise,
    so ``p99`` needs at least 1000 samples, ``p90`` 100, the median 20.
    Returns ``None`` when even the median lacks *tail* samples beyond it.
    """
    if count <= 0:
        return None
    best = 100.0 * (1.0 - tail / count)
    if best < 50.0:
        return None
    return min(wanted, math.floor(best * 10) / 10)


def summarize_latencies(samples_s: Sequence[float]) -> Dict[str, object]:
    """p50 and the highest reportable tail percentile, in ms, with count."""
    count = len(samples_s)
    out: Dict[str, object] = {"count": count}
    if count:
        out["p50_ms"] = percentile(samples_s, 50) * 1e3
        tail = reportable_percentile(count)
        if tail is not None:
            out["tail_q"] = tail
            out["tail_ms"] = percentile(samples_s, tail) * 1e3
    return out


# -- process accounting -----------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of *pid* (from ``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        raw = handle.read()
    # The command name may hold spaces; fields resume after its ')'.
    fields = raw[raw.rindex(")") + 2:].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of *pid*, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def process_start_age_s() -> float:
    """Seconds since this process started (from ``/proc/self/stat``)."""
    with open("/proc/self/stat") as handle:
        raw = handle.read()
    start_ticks = int(raw[raw.rindex(")") + 2:].split()[19])
    with open("/proc/uptime") as handle:
        uptime = float(handle.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def self_cpu_s() -> float:
    """CPU seconds of this process (all threads)."""
    return time.process_time()


def udp_rcvbuf_errors() -> int:
    """The kernel's ``Udp: RcvbufErrors`` counter (``/proc/net/snmp``)."""
    with open("/proc/net/snmp") as handle:
        lines = [line.split() for line in handle if line.startswith("Udp:")]
    header, values = lines[0], lines[1]
    return int(values[header.index("RcvbufErrors")])


# -- provenance -------------------------------------------------------------


def cpu_reference_ms(rounds: int = 3) -> float:
    """Median time of a fixed pure-Python loop, to show machine noise."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for index in range(200_000):
            acc = (acc + index * index) % 1_000_003
        times.append((time.perf_counter() - start) * 1e3)
    return percentile(times, 50)


def git_commit(root: str) -> Optional[str]:
    """HEAD of *root* when it is a git checkout, else ``None``."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def provenance(root: str, **extra) -> Dict[str, object]:
    record: Dict[str, object] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "cpu_reference_ms": round(cpu_reference_ms(), 3),
    }
    record.update(extra)
    return record


# -- digests ----------------------------------------------------------------


def digest(value) -> str:
    """SHA-256 of *value*'s JSON rendering with sorted keys.

    JSON renders floats by ``repr``, so equal digests mean bit-identical
    numbers.
    """
    blob = json.dumps(value, sort_keys=True, default=repr,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)
