"""Measurement helpers shared by the workloads: CPU, RSS, fastest repeats,
the host-speed reference, percentiles, seed sequences, digests and the
environment record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has reaped
    (fork shard workers are joined when their transport closes)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Highest RSS of this process or of any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` clock ticks of the whole machine from /proc/stat
    (``(0, 0)`` where it is missing).  Steal is time a virtual CPU was
    runnable but the host ran something else: the noise a run cannot see
    in its own CPU time."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def fastest(samples: dict, kinds: dict | None = None) -> float:
    """Each input's fastest sample, averaged over the inputs of one kind and
    summed over the kinds (``kinds`` maps input to kind; by default all are
    one kind); inputs without a sample are left out.  Host contention only
    ever adds time, so the fastest of several repeats of identical work is
    the steadiest estimate of its cost."""
    best: dict = {}
    for key, values in samples.items():
        if values:
            best.setdefault(kinds[key] if kinds else None, []).append(min(values))
    return float(sum(sum(mins) / len(mins) for mins in best.values()))


_REFERENCE_RNG = np.random.default_rng(12345)
_REFERENCE_ARRAY = _REFERENCE_RNG.random(1 << 20)
_REFERENCE_INDEX = _REFERENCE_RNG.integers(0, 1 << 20, 1 << 17)
_REFERENCE_MATRIX = _REFERENCE_RNG.random((128, 128))


def reference_work() -> float:
    """A fixed ~5 ms of interpreter, gather and small dense work that no
    program change touches: the benchmark's measure of the host's speed."""
    counts: dict[int, int] = {}
    for i in range(20000):
        key = (i * 7919) % 1031
        counts[key] = counts.get(key, 0) + 1
    total = 0.0
    for _ in range(4):
        total += float(_REFERENCE_ARRAY[_REFERENCE_INDEX].sum())
    for _ in range(8):
        total += float((_REFERENCE_MATRIX @ _REFERENCE_MATRIX).trace())
    return total


#: fastest time of :func:`reference_work` on a quiet host (2-vCPU Intel
#: Xeon virtual machine, Python 3.11, numpy 2.4, one BLAS thread)
REFERENCE_MS = 4.2


class HostSpeed:
    """The host's speed during a run, from :func:`reference_work` repeated
    between the timed ops.

    The host's other tenants slow every process on it for minutes at a
    time, by up to half and more, fastest repeats included; the reference
    slows with them.  ``scale`` is ``REFERENCE_MS`` over the loop's fastest
    run here, so a time multiplied by it reads as on a quiet host: in one
    set of ten runs while the host went from quiet to busy, the fastest
    pipeline ops read 269-491 ms (quartiles 0.25 of the median apart) and
    scaled 0.07 apart.
    """

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> None:
        cpu = time.process_time()
        started = time.perf_counter()
        reference_work()
        self.wall.append(time.perf_counter() - started)
        self.cpu.append(time.process_time() - cpu)

    def scale(self) -> float:
        return REFERENCE_MS / (1000.0 * min(self.wall)) if self.wall else 1.0

    def cpu_scale(self) -> float:
        return REFERENCE_MS / (1000.0 * min(self.cpu)) if self.cpu else 1.0

    def record(self) -> dict:
        if not self.wall:
            return {"samples": 0}
        return {
            "samples": len(self.wall),
            "fastest_ms": 1000.0 * min(self.wall),
            "median_ms": 1000.0 * float(statistics.median(self.wall)),
            "scale": self.scale(),
        }


def spread_summary(samples: dict) -> dict:
    """Median and tail (the highest percentile with at least ten samples
    beyond it) of every sample, in ms, with the sample count: recorded for
    reading a run, not gated, since on a shared host they follow the
    neighbours' load."""
    ordered = sorted(value for values in samples.values() for value in values)
    if not ordered:
        return {"samples": 0}
    index = max(len(ordered) - 11, 0)
    return {
        "samples": len(ordered),
        "median_ms": 1000.0 * float(statistics.median(ordered)),
        "tail_ms": 1000.0 * ordered[index],
        "tail_percentile": 100.0 * (index + 1) / len(ordered),
    }


def median(values) -> float:
    return float(statistics.median(values))


def op_seeds(workload_seed: int, count: int) -> list[int]:
    """The op inputs' seeds, derived from the workload seed."""
    generator = np.random.default_rng([int(workload_seed), 0x9E3779B9])
    return [int(value) for value in generator.integers(1, 2**31 - 1, size=count)]


def digest(payload) -> str:
    """SHA-256 of a JSON rendering that keeps every float's full repr."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
    }
