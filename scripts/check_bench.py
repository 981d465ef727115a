#!/usr/bin/env python
"""Gate benchmark throughput against the committed baseline.

Compares a fresh pytest-benchmark JSON file (``make bench-smoke
BENCH_JSON=BENCH_fresh.json``) against the committed baseline
(``BENCH_micro.json``) and exits non-zero when any benchmark's
events-per-second throughput regresses by more than the threshold
(default 25%).

Throughput comes from each benchmark's ``extra_info.events_per_second``
when the suite recorded one (the system replay benches do), otherwise
from ``1 / stats.median`` — both monotone in "work per second", so one
threshold covers both.  Benchmarks present on only one side are
reported as warnings, not failures: renames and additions must not
break CI, only genuine slowdowns should.

Named benchmarks can be held to a tighter bar with ``--strict``: each
``--strict NAME`` is gated at ``--strict-threshold`` (default 5%)
instead of the general threshold, and a strict name absent from either
file is an *error*, not a warning — a silently missing strict bench
would void the guarantee it exists to enforce.  CI uses this as the
tracing-disabled overhead check: the replay fast-path benchmarks run
with observability off, so holding them within 5% of the committed
baseline proves the flight-recorder instrumentation costs nothing when
dormant.

Stdlib-only, so the gate runs anywhere the test suite runs::

    python scripts/check_bench.py --baseline BENCH_micro.json \
        --fresh BENCH_fresh.json [--threshold 0.25] \
        [--strict test_system_replay_throughput --strict-threshold 0.05]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple


class BenchCheckError(Exception):
    """A baseline or fresh file that cannot be interpreted."""


def load_benchmarks(path: Path) -> Dict[str, Dict[str, Any]]:
    """Map benchmark name -> benchmark record from a pytest-benchmark JSON."""
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise BenchCheckError(f"benchmark file not found: {path}")
    except json.JSONDecodeError as error:
        raise BenchCheckError(f"invalid JSON in {path}: {error}")
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise BenchCheckError(f"{path} has no benchmarks")
    table: Dict[str, Dict[str, Any]] = {}
    for bench in benchmarks:
        name = bench.get("name")
        if name:
            table[name] = bench
    return table


def events_per_second(bench: Dict[str, Any]) -> Optional[float]:
    """A benchmark's throughput figure, or None when unmeasurable.

    Prefers the suite's own ``extra_info.events_per_second`` (real
    events processed per second); falls back to ``1 / stats.median``
    (iterations per second), which ranks identically under a ratio
    threshold.
    """
    extra = bench.get("extra_info") or {}
    eps = extra.get("events_per_second")
    if isinstance(eps, (int, float)) and eps > 0:
        return float(eps)
    stats = bench.get("stats") or {}
    median = stats.get("median")
    if isinstance(median, (int, float)) and median > 0:
        return 1.0 / median
    return None


def compare(
    baseline: Dict[str, Dict[str, Any]],
    fresh: Dict[str, Dict[str, Any]],
    threshold: float = 0.25,
    strict: Optional[Sequence[str]] = None,
    strict_threshold: float = 0.05,
) -> Tuple[List[Dict[str, Any]], List[str], List[str]]:
    """Compare throughput per benchmark name.

    Returns ``(comparisons, missing, extra)``: one comparison record per
    common name (with ``regressed`` set when fresh throughput fell below
    ``baseline * (1 - threshold)``), names only in the baseline, and
    names only in the fresh run.  Names listed in ``strict`` are gated
    at ``strict_threshold`` instead; each record carries the
    ``threshold`` actually applied and a ``strict`` flag.
    """
    strict_names = set(strict or ())
    comparisons: List[Dict[str, Any]] = []
    missing = sorted(set(baseline) - set(fresh))
    extra = sorted(set(fresh) - set(baseline))
    for name in sorted(set(baseline) & set(fresh)):
        base_eps = events_per_second(baseline[name])
        fresh_eps = events_per_second(fresh[name])
        if base_eps is None or fresh_eps is None:
            continue
        ratio = fresh_eps / base_eps
        is_strict = name in strict_names
        applied = strict_threshold if is_strict else threshold
        comparisons.append(
            {
                "name": name,
                "baseline_eps": base_eps,
                "fresh_eps": fresh_eps,
                "ratio": ratio,
                "strict": is_strict,
                "threshold": applied,
                "regressed": ratio < 1.0 - applied,
            }
        )
    return comparisons, missing, extra


def kernel_speedup_line(fresh: Dict[str, Dict[str, Any]]) -> Optional[str]:
    """One-line direct-kernel vs engine-dispatch summary, or None.

    Both full-replay kernel benches run the same columns through the
    same system configuration, one calling the array kernel directly
    and one through ``system.replay``, so their throughput ratio is
    what the dispatch costs on this machine (about 1.0x when it costs
    nothing).  Informational only — the per-bench thresholds above are
    the gate.
    """
    direct = events_per_second(
        fresh.get("test_columnar_kernel_v2_replay_throughput", {})
    )
    dispatch = events_per_second(
        fresh.get("test_columnar_kernel_replay_throughput", {})
    )
    if not direct or not dispatch:
        return None
    return (
        f"kernel speedup: direct {direct:,.0f} eps vs dispatch "
        f"{dispatch:,.0f} eps ({direct / dispatch:.2f}x)"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when benchmark throughput regresses vs. the baseline"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("BENCH_micro.json"),
        help="committed baseline JSON (default: BENCH_micro.json)",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        help="freshly produced benchmark JSON to gate",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional throughput drop (default: 0.25)",
    )
    parser.add_argument(
        "--strict",
        action="append",
        default=[],
        metavar="NAME",
        help=(
            "benchmark held to --strict-threshold instead (repeatable); "
            "a strict name missing from either file fails the gate"
        ),
    )
    parser.add_argument(
        "--strict-threshold",
        type=float,
        default=0.05,
        help="allowed fractional drop for --strict benchmarks (default: 0.05)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.threshold < 1.0:
        parser.error(f"--threshold must be in (0, 1), got {args.threshold}")
    if not 0.0 < args.strict_threshold < 1.0:
        parser.error(
            f"--strict-threshold must be in (0, 1), got {args.strict_threshold}"
        )

    try:
        baseline = load_benchmarks(args.baseline)
        fresh = load_benchmarks(args.fresh)
    except BenchCheckError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    comparisons, missing, extra = compare(
        baseline,
        fresh,
        args.threshold,
        strict=args.strict,
        strict_threshold=args.strict_threshold,
    )
    for name in missing:
        print(f"warning: benchmark only in baseline (skipped): {name}")
    for name in extra:
        print(f"warning: benchmark only in fresh run (skipped): {name}")
    if not comparisons:
        print("error: no common benchmarks to compare", file=sys.stderr)
        return 1

    absent_strict = sorted(
        set(args.strict) - {row["name"] for row in comparisons}
    )
    if absent_strict:
        print(
            "error: strict benchmark(s) missing from the comparison: "
            f"{', '.join(absent_strict)}",
            file=sys.stderr,
        )
        return 1

    regressions = 0
    for row in comparisons:
        marker = "REGRESSION" if row["regressed"] else "ok"
        tag = " [strict]" if row["strict"] else ""
        print(
            f"{marker:>10}  {row['name']}: "
            f"{row['baseline_eps']:,.0f} -> {row['fresh_eps']:,.0f} eps "
            f"({row['ratio']:.2%} of baseline, "
            f"threshold {row['threshold']:.0%}){tag}"
        )
        if row["regressed"]:
            regressions += 1
    if regressions:
        print(
            f"error: {regressions} benchmark(s) regressed beyond their "
            "threshold",
            file=sys.stderr,
        )
        return 1
    speedup = kernel_speedup_line(fresh)
    if speedup:
        print(speedup)
    print(f"bench gate passed: {len(comparisons)} benchmark(s) within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
