#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one timed run.

Run from the repository root::

    python3 perfbench/run.py --workload replay-server --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``,
measured with tracing off.  ``--trace 1`` prints the per-layer metrics:
it re-runs the workload untraced and traced (their difference is
``obs.tracing_overhead``), replays the workload's stream through each
layer on its own, and drives a short traced daemon segment.  Its spans
are written as ``repro.span/1`` under ``.perfbench/spans/`` for ``repro
spans``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run works
in a fresh scratch directory under ``.perfbench/`` (the trace-artifact
cache included) and removes it on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Length of the traced daemon segment that in-process workloads add.
TRACE_SERVE_SECONDS = 2.0


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def provenance(args, connections: int) -> dict:
    """Where and how this record was measured."""
    from repro.sim.kernel import HAVE_NUMPY

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
            capture_output=True, text=True,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": HAVE_NUMPY,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": {
            "processes": 1 + (1 if connections else 0),
            "threads": max(connections, 1),
            "connections": connections,
            "loop": "closed" if connections else "in-process",
        },
    }


def events_per_s(measured) -> float:
    """Events of one cycle of operations over their median durations.

    A cycle is one of each kind of operation (the four figure sweeps, or
    the one replay); medians keep one slow operation on a shared host
    from moving the figure.  The served loop reports the median of its
    windows' rates.
    """
    if measured.load is not None:
        return statistics.median(
            events / seconds for events, seconds, _ in measured.load.windows
        )
    per_kind: dict = {}
    for kind, events, seconds in measured.operations:
        per_kind.setdefault(kind, []).append((events, seconds))
    events = sum(samples[0][0] for samples in per_kind.values())
    seconds = sum(
        statistics.median(s for _e, s in samples) for samples in per_kind.values()
    )
    return events / seconds


def untraced(workload, args, metrics) -> list:
    from measure import latency_summary

    setups = []
    for _ in range(SETUP_REPEATS):
        workload.close()
        workload.clock.start()
        workload.setup()
        setups.append(workload.clock.lap())
    workload.warm_up()
    measured = workload.measure(args.seconds)
    if measured.load is not None:
        # Served: p50 and p99 of each window of requests, median over
        # windows, so a burst of interference on the host moves a few
        # windows and not the figure.
        windows = [latency_summary(lat) for _e, _s, lat in measured.load.windows]
        summary = {
            key: statistics.median(window[key] for window in windows)
            for key in ("p50_ms", "p99_ms")
        }
        summary["p99_supported"] = all(w["p99_supported"] for w in windows)
        sampled = (f"median of {len(windows)} windows of "
                   f"{windows[0]['samples']} requests")
    else:
        summary = latency_summary(measured.latencies_ms)
        sampled = f"n={summary['samples']}"
    tail = "" if summary["p99_supported"] else " (under 10 beyond: max-like)"
    metrics.add("events_per_s", events_per_s(measured), "1/s",
                f"{measured.events} events in {measured.seconds:.2f} reference s")
    metrics.add("setup_s", statistics.median(setups), "s",
                f"median of {len(setups)}: " + ", ".join(f"{s:.3f}" for s in setups))
    metrics.add("peak_rss_mb", measured.peak_rss_mb, "MiB",
                "daemon" if workload.name == "serve-fetch" else "benchmark process")
    metrics.add("p50_ms", summary["p50_ms"], "ms", sampled)
    metrics.add("p99_ms", summary["p99_ms"], "ms", sampled + tail)
    metrics.add("error_rate", measured.tally.rate, "ratio",
                f"{measured.tally.failed} failed of {measured.tally.attempted}")
    return [measured]


def traced(workload, args, metrics, workdir) -> list:
    from layers import replay_layers, served_layers, span_shares
    from served import SPAN_CAPACITY
    from workloads import traced_serve_segment

    from repro.obs.spans import SpanBuffer, load_spans_jsonl, write_spans_jsonl

    buffer = SpanBuffer(process="perfbench", capacity=SPAN_CAPACITY)
    workload.clock.start()
    parts = workload.setup(spans=buffer)
    scale = workload.clock.lap() / workload.clock.last_raw
    for name in ("workloads.generate_s", "traces.pack_s", "serve.spawn_s"):
        metrics.add(name, parts.get(name, 0.0) * scale, "s", "part of setup_s")

    workload.warm_up()
    half = args.seconds / 2.0
    plain = workload.measure(half)
    spanned = workload.measure(half, spans=buffer)
    base, with_spans = events_per_s(plain), events_per_s(spanned)
    metrics.add("obs.tracing_overhead", (base - with_spans) / base, "ratio",
                f"untraced {base:.0f}/s, traced {with_spans:.0f}/s")

    trace, invalidate = workload.layer_input()
    replay_layers(trace, invalidate, workdir, metrics, workload.clock, buffer)

    segment = spanned
    if segment.load is None:
        segment = traced_serve_segment(
            ROOT, workdir, trace, TRACE_SERVE_SECONDS, buffer
        )
    served_layers(
        segment.served_files, segment.load.bodies, metrics, workload.clock, buffer
    )
    # The daemon reports wall time; put it on the load's reference scale.
    fetch = segment.daemon_stats["endpoints"]["fetch"]["latency_ns"]
    scale = segment.load.seconds / segment.load.wall_seconds / 1e6
    client_p50 = statistics.median(segment.load.latencies_ms)
    metrics.add("serve.server_p50_ms", fetch["p50_ns"] * scale, "ms",
                f"daemon /stats, n={fetch['count']}")
    metrics.add("serve.server_p99_ms", fetch["p99_ns"] * scale, "ms")
    metrics.add("serve.net_queue_p50_ms", client_p50 - fetch["p50_ns"] * scale, "ms",
                "client p50 - server p50")
    daemon_spans = load_spans_jsonl(segment.daemon_spans)["spans"]
    for name, share in span_shares(daemon_spans).items():
        metrics.add(name, share, "ratio")
    metrics.add("serve.retries", segment.load.retries, "count")

    # Every layer metric also rides in the span export, so `repro spans`
    # shows the table beside the timeline.
    summary = buffer.start_span("perfbench.metrics", kind="client")
    summary.finish()
    for name, entry in metrics.values.items():
        summary.annotate(name, entry["value"])

    out = SCRATCH / "spans"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    client_file = out / f"{stem}-perfbench.jsonl"
    daemon_file = out / f"{stem}-daemon.jsonl"
    write_spans_jsonl(buffer, client_file, meta={"role": "client"})
    shutil.copyfile(segment.daemon_spans, daemon_file)
    print("spans: PYTHONPATH=src python3 -m repro spans "
          f"--client {client_file.relative_to(ROOT)} "
          f"--server {daemon_file.relative_to(ROOT)}")
    return [plain, spanned] + ([segment] if segment is not spanned else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = contract()

    from measure import Metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected one of: {', '.join(WORKLOADS)})")
    workdir = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Nothing the program caches may leak in from, or out to, the
    # user's trace cache.
    os.environ["REPRO_TRACE_CACHE"] = str(workdir / "trace-cache")
    workload = WORKLOADS[args.workload](ROOT, workdir, args.seed)
    metrics = Metrics()
    # A terminated run still stops its daemon and removes its scratch.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    try:
        if args.trace:
            segments = traced(workload, args, metrics, workdir)
            names = [entry["name"] for entry in spec["per_layer"]]
        else:
            segments = untraced(workload, args, metrics)
            names = [entry["name"] for entry in spec["end_to_end"]]
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    connections = getattr(workload, "connections", 0)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("\n".join(metrics.table()))
    problems = [problem for segment in segments for problem in segment.problems]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("provenance: " + json.dumps(provenance(args, connections), sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(segment.tally.attempted for segment in segments),
        "failed": sum(segment.tally.failed for segment in segments),
        "metrics": metrics.select(names),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
