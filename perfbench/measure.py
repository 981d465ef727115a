"""Measurement helpers shared by the benchmark's workloads.

Kept free of any import from the program under test, so a change to the
program can never change how the benchmark counts or summarizes.
"""

from __future__ import annotations

import os
import re
import statistics
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

#: Metric names as the benchmark contract spells them.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Samples a reported tail percentile must leave beyond it.
TAIL_SAMPLES = 10


#: Seconds the calibration loop takes on the reference host (a 2-core
#: Xeon, uncontended).  Timings are reported as reference-host seconds.
REFERENCE_CALIBRATION_S = 0.0044


def calibration_s(cpus: Optional[Iterable[int]] = None) -> float:
    """Time a fixed pure-Python loop: the host's speed right now.

    The loop mixes dict stores and lookups, branches and list appends,
    the operations the caches spend their time on.  With ``cpus`` it runs
    pinned to each CPU in turn and returns the mean, for work spread
    over several processes.
    """

    def once() -> float:
        table: Dict[int, int] = {}
        kept: List[int] = []
        began = time.perf_counter()
        for i in range(30_000):
            table[i & 2047] = i
            if table.get((i * 7) & 2047, 0) & 1:
                kept.append(i)
        return time.perf_counter() - began

    if cpus is None:
        return min(once(), once())
    allowed = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append(min(once(), once()))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(speeds) / len(speeds)


class HostClock:
    """Wall time scaled to the reference host's speed.

    On a shared host the same code runs up to 1.7x slower while another
    tenant loads the CPU, in phases of a fraction of a second to many
    seconds.  Each lap is timed with ``perf_counter`` and scaled by the
    calibration loop's speed measured right before and right after it,
    so a run's figures follow the code rather than its neighbours.  The
    calibration itself is never inside a lap.
    """

    def __init__(self, cpus: Optional[Iterable[int]] = None) -> None:
        self.cpus = list(cpus) if cpus is not None else None
        self.start()

    def start(self) -> None:
        self.calibration = calibration_s(self.cpus)
        self.last_raw = 0.0
        self.began = time.perf_counter()

    def lap(self) -> float:
        """Reference seconds since ``start`` or the previous lap.

        ``last_raw`` keeps the lap's wall-clock seconds.
        """
        self.last_raw = time.perf_counter() - self.began
        after = calibration_s(self.cpus)
        scale = REFERENCE_CALIBRATION_S / ((self.calibration + after) / 2)
        self.calibration = after
        self.began = time.perf_counter()
        return self.last_raw * scale


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (R type 7) of unsorted ``values``."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q}")
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def tail_supported(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond percentile ``q``.

    The p99 of 1,000 samples has ten samples above it; the p99 of 100
    has one, and reads as the maximum.  Reports flag an unsupported tail
    so nobody mistakes a maximum for a percentile.
    """
    return count * (1.0 - q) >= TAIL_SAMPLES


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, float]:
    """p50/p99 of latency samples, with the count and the tail rule."""
    return {
        "p50_ms": percentile(samples_ms, 0.50),
        "p99_ms": percentile(samples_ms, 0.99),
        "samples": len(samples_ms),
        "p99_supported": tail_supported(len(samples_ms), 0.99),
    }


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first/third quartile and IQR/median of repeated runs."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return {"median": only, "q1": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


@dataclass
class ErrorTally:
    """Operations attempted and failed; ``rate`` is failed/attempted."""

    attempted: int = 0
    failed: int = 0

    def record(self, count: int, ok: bool) -> None:
        """Count ``count`` operations that all passed or all failed."""
        if count < 0:
            raise ValueError(f"operation count must be >= 0, got {count}")
        self.attempted += count
        if not ok:
            self.failed += count

    @property
    def rate(self) -> float:
        if not self.attempted:
            raise ValueError("error rate of zero attempted operations")
        return self.failed / self.attempted


def connection_count(requested: int, cores: int) -> int:
    """Load connections for a closed loop: at most one per core.

    Each connection is a thread that blocks on its reply, so more
    connections than cores only queue in the daemon; the load shape is
    fixed at ``min(requested, cores)`` and refused below one.
    """
    if requested < 1 or cores < 1:
        raise ValueError(
            "need at least one connection and one core, got "
            f"{requested} connection(s) on {cores} core(s)"
        )
    return min(requested, cores)


class Metrics:
    """Named metric values with units, in insertion order."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, object]] = {}
        self.notes: Dict[str, str] = {}

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        check_name(name)
        if name in self.values:
            raise ValueError(f"metric {name!r} reported twice")
        self.values[name] = {"value": float(value), "unit": unit}
        if note:
            self.notes[name] = note

    def select(self, names: Sequence[str]) -> Dict[str, Dict[str, object]]:
        """The named subset, failing loudly if one is missing."""
        missing = [name for name in names if name not in self.values]
        if missing:
            raise KeyError(f"metrics not measured: {', '.join(missing)}")
        return {name: self.values[name] for name in names}

    def table(self) -> List[str]:
        """Human-readable rows: name, value, unit, note."""
        rows = []
        for name in self.values:
            entry = self.values[name]
            note = self.notes.get(name, "")
            rows.append(
                f"  {name:<38} {entry['value']:>16.6g} {entry['unit']:<8} {note}"
            )
        return rows
