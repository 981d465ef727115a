"""Command-line interface: ``repro <experiment> [options]``.

Runs any of the paper's figure reproductions end-to-end, renders the
result as an ASCII chart plus a data table, and optionally writes CSV.
Also exposes workload generation and trace inspection so the substrate
is usable standalone::

    repro fig3 --workload server          # paper figures...
    repro fig7
    repro headline                        # abstract claims, recomputed
    repro placement | hoard | cooperation # Section 6 future-work studies
    repro attribution | adaptation | servercap | compare
    repro profile --workload users        # predictability tooling
    repro metrics --workload server       # observability snapshot (JSONL)
    repro explain --workload server       # traced replay: why hits/misses
    repro top --workload server           # live windowed-telemetry dashboard
    repro drift --workload server         # change-point scan of the series
    repro graph --workload server         # relationship-graph inspection
    repro workloads [name]                # the synthetic workload catalog
    repro report --out report.md          # regenerate everything
    repro generate / inspect / anonymize  # trace tooling
    repro serve scenarios/smoke.json      # aggregating-cache daemon (HTTP API)
    repro slam --url http://host:port     # multi-process load driver
    repro spans --client s-*.jsonl --server spans.jsonl  # trace merge
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .analysis.ascii_chart import render_figure
from .analysis.export import figure_to_csv, rows_to_markdown
from .analysis.predictability import profile_sequence
from .analysis.series import FigureData
from .errors import ReproError
from .experiments import (
    DEFAULT_EVENTS,
    run_adaptation,
    run_attribution,
    run_cooperation,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig7,
    run_fig8,
    run_headline,
    run_hoarding,
    run_placement,
    run_server_capacity,
)
from .sim.perf import PerfTimer, ThroughputReport
from .traces.reader import read_trace
from .traces.stats import summarize
from .traces.writer import write_trace
from .workloads.synthetic import WORKLOADS, make_workload


def _add_common_options(parser: argparse.ArgumentParser, workload_default: str = "") -> None:
    """Options shared by every figure subcommand."""
    if workload_default:
        parser.add_argument(
            "--workload",
            default=workload_default,
            choices=sorted(WORKLOADS),
            help=f"workload to replay (default: {workload_default})",
        )
    parser.add_argument(
        "--events",
        type=int,
        default=DEFAULT_EVENTS,
        help=f"trace length in accesses (default: {DEFAULT_EVENTS})",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: per-workload)"
    )
    parser.add_argument(
        "--csv", type=Path, default=None, help="also write the series as CSV"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes for the parameter sweep (default: 1 = serial; "
            "results are identical either way)"
        ),
    )
    parser.add_argument(
        "--width", type=int, default=72, help="chart width in characters"
    )
    parser.add_argument(
        "--height", type=int, default=20, help="chart height in characters"
    )


def _emit_figure(
    figure: FigureData,
    args: argparse.Namespace,
    report: Optional[ThroughputReport] = None,
) -> None:
    """Render one figure to stdout (and CSV when requested)."""
    print(render_figure(figure, width=args.width, height=args.height))
    print()
    print(rows_to_markdown(figure.to_rows()))
    if report is not None:
        print(f"\nthroughput: {report.summary()}")
    if args.csv is not None:
        figure_to_csv(figure, args.csv)
        print(f"\nwrote {args.csv}")


def _sweep_progress() -> Optional[Callable[[int, int, dict, float], None]]:
    """A stderr status-line callback with ETA, or None off a terminal.

    Uses the sweep runner's 4-argument progress form: the elapsed time
    it reports extrapolates to a remaining-time estimate once at least
    one point has completed.
    """
    if not sys.stderr.isatty():
        return None

    def progress(index: int, total: int, params: dict, elapsed: float) -> None:
        if index:
            eta = elapsed / index * (total - index)
            line = f"sweep {index + 1}/{total}  elapsed {elapsed:5.1f}s  eta {eta:5.1f}s"
        else:
            line = f"sweep 1/{total}"
        print(f"\r{line:<60}", end="", file=sys.stderr, flush=True)

    return progress


def _finish_progress(progress) -> None:
    """Terminate the stderr status line started by :func:`_sweep_progress`."""
    if progress is not None:
        print("\r" + " " * 60 + "\r", end="", file=sys.stderr, flush=True)


def _run_figure_sweep(run, args: argparse.Namespace, events_per_point: int):
    """Run one figure sweep with progress + throughput accounting.

    ``run`` is a callable accepting ``workers``/``progress``; the
    returned report credits ``events_per_point`` × points to one
    "sweep" phase, giving the CLI's replayed-events-per-second line.
    """
    progress = _sweep_progress()
    started = time.perf_counter()
    figure = run(workers=args.workers, progress=progress)
    seconds = time.perf_counter() - started
    _finish_progress(progress)
    points = sum(len(series.points) for series in figure.series)
    timer = PerfTimer()
    timer.add("sweep", seconds, events_per_point * points)
    return figure, timer.report()


def _cmd_fig3(args: argparse.Namespace) -> int:
    figure, report = _run_figure_sweep(
        lambda workers, progress: run_fig3(
            workload=args.workload,
            events=args.events,
            seed=args.seed,
            workers=workers,
            progress=progress,
        ),
        args,
        args.events,
    )
    _emit_figure(figure, args, report)
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    figure, report = _run_figure_sweep(
        lambda workers, progress: run_fig4(
            workload=args.workload,
            events=args.events,
            seed=args.seed,
            workers=workers,
            progress=progress,
        ),
        args,
        args.events,
    )
    _emit_figure(figure, args, report)
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    figure, report = _run_figure_sweep(
        lambda workers, progress: run_fig5(
            workload=args.workload,
            events=args.events,
            seed=args.seed,
            workers=workers,
            progress=progress,
        ),
        args,
        args.events,
    )
    _emit_figure(figure, args, report)
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    # One sweep point per workload series; each point replays the whole
    # trace once per profile, so credit events per series, not per (x, y).
    progress = _sweep_progress()
    started = time.perf_counter()
    figure = run_fig7(
        events=args.events,
        seed=args.seed,
        workers=args.workers,
        progress=progress,
    )
    seconds = time.perf_counter() - started
    _finish_progress(progress)
    timer = PerfTimer()
    timer.add("sweep", seconds, args.events * len(figure.series))
    _emit_figure(figure, args, timer.report())
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    progress = _sweep_progress()
    started = time.perf_counter()
    figure = run_fig8(
        workload=args.workload,
        events=args.events,
        seed=args.seed,
        workers=args.workers,
        progress=progress,
    )
    seconds = time.perf_counter() - started
    _finish_progress(progress)
    timer = PerfTimer()
    timer.add("sweep", seconds, args.events * len(figure.series))
    _emit_figure(figure, args, timer.report())
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    report = run_headline(events=args.events, seed=args.seed)
    print(rows_to_markdown(report.to_rows()))
    return 0


def _cmd_placement(args: argparse.Namespace) -> int:
    figure = run_placement(workload=args.workload, events=args.events, seed=args.seed)
    _emit_figure(figure, args)
    return 0


def _cmd_hoard(args: argparse.Namespace) -> int:
    figure = run_hoarding(workload=args.workload, events=args.events, seed=args.seed)
    _emit_figure(figure, args)
    return 0


def _cmd_cooperation(args: argparse.Namespace) -> int:
    figure = run_cooperation(
        workload=args.workload, events=args.events, seed=args.seed
    )
    _emit_figure(figure, args)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.trace is not None:
        trace = read_trace(args.trace)
        sequence = trace.file_ids()
        name = trace.name
    else:
        sequence = list(
            make_workload(args.workload, args.events, args.seed).file_ids()
        )
        name = args.workload
    profile = profile_sequence(sequence, name=name, window=args.window)
    print(profile.render())
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Replay one workload with metric collection on; report + export.

    This is the observability layer end-to-end: the replay runs inside
    :func:`repro.obs.collecting`, the hot components record into the
    registry, and the snapshot is printed as tables (and written as
    JSONL with ``--out``).  ``--window N`` additionally records the
    windowed time-series (``--ts-out`` exports it as ``repro.ts/1``).
    """
    from contextlib import nullcontext

    from .caching import POLICIES, make_cache
    from .obs import collecting, windowing, write_jsonl, write_ts_jsonl
    from .sim.engine import DistributedFileSystem

    baselines = [name for name in args.baselines.split(",") if name]
    if baselines == ["all"]:
        baselines = sorted(POLICIES)
    unknown = sorted(set(baselines) - set(POLICIES))
    if unknown:
        raise ReproError(
            f"unknown baseline policies: {', '.join(unknown)} "
            f"(choose from: {', '.join(sorted(POLICIES))})"
        )

    trace = make_workload(args.workload, args.events, args.seed)
    ts_context = windowing(window=args.window) if args.window else nullcontext()
    with collecting() as registry, ts_context as collector:
        system = DistributedFileSystem(
            client_capacity=args.client_capacity,
            server_capacity=args.server_capacity,
            group_size=args.group_size,
        )
        if args.generic:
            system.use_fast_replay = False
        started = time.perf_counter()
        system.replay(trace)
        seconds = time.perf_counter() - started
        sequence = trace.file_ids() if baselines else ()
        for name in baselines:
            # Replay the same sequence through a plain (non-grouping)
            # policy in the same registry.  The instance policy_name
            # override namespaces its counters as cache.baseline.<name>.*
            # so they never mix with the aggregating system's cache.lru.*.
            cache = make_cache(name, args.client_capacity)
            cache.policy_name = f"baseline.{name}"
            for key in sequence:
                cache.access(key)

    snapshot = registry.snapshot()
    rows = [["counter / gauge", "value"]]
    for name, value in snapshot["counters"].items():
        rows.append([name, str(value)])
    for name, value in snapshot["gauges"].items():
        rows.append([name, f"{value:g}"])
    print(rows_to_markdown(rows))
    hist_rows = [["histogram", "count", "mean", "min", "max"]]
    for name, summary in snapshot["histograms"].items():
        hist_rows.append(
            [
                name,
                str(summary["count"]),
                f"{summary['mean']:,.1f}",
                f"{summary['min']:,}" if summary["min"] is not None else "-",
                f"{summary['max']:,}" if summary["max"] is not None else "-",
            ]
        )
    print()
    print(rows_to_markdown(hist_rows))

    if baselines:
        counters = snapshot["counters"]
        if not any(name.startswith("cache.") for name in counters):
            # An all-zero comparison table would silently masquerade as
            # "every policy missed everything"; say what happened.
            print(
                "\nno cache.* counters were recorded — metric collection "
                "was disabled\nduring the replay, so the baseline "
                "comparison table is unavailable."
            )
        else:

            def _policy_row(label: str, prefix: str) -> List[str]:
                hits = counters.get(f"{prefix}.hits", 0)
                misses = counters.get(f"{prefix}.misses", 0)
                evictions = counters.get(f"{prefix}.evictions", 0)
                opens = hits + misses
                rate = f"{hits / opens:.3f}" if opens else "-"
                return [label, rate, str(hits), str(misses), str(evictions)]

            compare_rows = [["policy", "hit rate", "hits", "misses", "evictions"]]
            compare_rows.append(
                _policy_row(f"aggregating system (g={args.group_size})", "cache.lru")
            )
            for name in baselines:
                compare_rows.append(
                    _policy_row(f"baseline {name}", f"cache.baseline.{name}")
                )
            print("\nbaseline vs aggregating (from obs counters; system row sums")
            print("client + server caches, so its hit rate is not one cache's):\n")
            print(rows_to_markdown(compare_rows))

    if args.window and collector is not None:
        from .analysis.ascii_chart import render_sparkline

        hit_series = collector.series("hit_ratio")
        entropy_series = collector.series("entropy")
        print(
            f"\nwindowed series: {len(collector.samples)} windows of "
            f"{args.window} events"
        )
        if hit_series:
            print(
                f"  hit ratio  {render_sparkline(hit_series)}  "
                f"last {hit_series[-1]:.3f}"
            )
        if entropy_series:
            print(
                f"  entropy    {render_sparkline(entropy_series)}  "
                f"last {entropy_series[-1]:.3f} bits"
            )
        if args.ts_out is not None:
            lines = write_ts_jsonl(
                collector,
                args.ts_out,
                meta={
                    "workload": args.workload,
                    "events": args.events,
                    "seed": args.seed,
                    "group_size": args.group_size,
                },
            )
            print(f"wrote {lines} repro.ts/1 JSONL lines to {args.ts_out}")

    timer = PerfTimer()
    timer.add("replay", seconds, len(trace))
    print(f"\nthroughput: {timer.report().summary()}")
    if args.out is not None:
        lines = write_jsonl(
            registry,
            args.out,
            meta={
                "workload": args.workload,
                "events": args.events,
                "seed": args.seed,
                "group_size": args.group_size,
            },
        )
        print(f"wrote {lines} JSONL records to {args.out}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Replay one workload under the flight recorder and explain it.

    The whole distributed system (clients + server, grouping on) runs
    inside :func:`repro.obs.tracing.recording`; the decision trace is
    then folded into the questions the recorder exists to answer —
    prefetch efficiency per component, eviction causes, the groups that
    wasted the most cache space, and (with ``--file``) the retained
    history of one file.  ``--out`` / ``--chrome`` export the ring as
    schema-tagged JSONL and a Perfetto-loadable trace-event file.
    """
    from .obs import tracing
    from .sim.engine import DistributedFileSystem

    trace = make_workload(args.workload, args.events, args.seed)
    with tracing.recording(capacity=args.buffer, sample=args.sample) as recorder:
        system = DistributedFileSystem(
            client_capacity=args.cache_size,
            server_capacity=args.server_capacity,
            group_size=args.group_size,
        )
        system.replay(trace)

    emitted = sum(recorder.emitted.values())
    print(
        f"traced {len(trace)} events of {args.workload} "
        f"(cache {args.cache_size}, server {args.server_capacity}, "
        f"g={args.group_size}): {emitted} records emitted, "
        f"{len(recorder)} retained (buffer {args.buffer}, "
        f"sample {args.sample})\n"
    )

    rows = [
        [
            "component",
            "opens",
            "hit rate",
            "demand",
            "group installs",
            "prefetch eff.",
            "wasted share",
            "evicted unused",
        ]
    ]
    for summary in recorder.summary():
        if not summary["opens"] and not summary["group_installs"]:
            continue
        opens = summary["opens"]
        rate = f"{summary['hits'] / opens:.3f}" if opens else "-"
        rows.append(
            [
                summary["component"],
                str(opens),
                rate,
                str(summary["demand_fetches"]),
                str(summary["group_installs"]),
                f"{summary['prefetch_efficiency']:.3f}",
                f"{summary['wasted_fetch_share']:.3f}",
                str(summary["group_evicted_unused"]),
            ]
        )
    print(rows_to_markdown(rows))

    causes = recorder.eviction_causes()
    if causes:
        cause_rows = [["eviction cause", "count"]]
        for cause, count in sorted(causes.items(), key=lambda kv: (-kv[1], kv[0])):
            cause_rows.append([cause, str(count)])
        print("\ntop eviction causes:\n")
        print(rows_to_markdown(cause_rows))

    wasteful = recorder.top_wasteful_groups(args.top)
    if wasteful:
        waste_rows = [["group leader", "wasted installs", "total installs"]]
        for leader, wasted, installs in wasteful:
            waste_rows.append([leader, str(wasted), str(installs)])
        print("\ngroups that wasted the most cache space:\n")
        print(rows_to_markdown(waste_rows))

    if args.file:
        print()
        print(recorder.explain_file(args.file, at=args.at))

    meta = {
        "workload": args.workload,
        "events": args.events,
        "seed": args.seed,
        "cache_size": args.cache_size,
        "server_capacity": args.server_capacity,
        "group_size": args.group_size,
    }
    if args.out is not None:
        lines = tracing.write_trace_jsonl(recorder, args.out, meta=meta)
        print(f"\nwrote {lines} {tracing.TRACE_SCHEMA} JSONL lines to {args.out}")
    if args.chrome is not None:
        count = tracing.write_chrome_trace(recorder, args.chrome, meta=meta)
        print(f"wrote {count} Chrome trace events to {args.chrome}")
    return 0


class _TopDashboard:
    """Live terminal rendering for ``repro top``.

    On a tty, redraws in place with ANSI cursor movement; off a tty (or
    with ``--plain``) it emits one append-only line per sample, so logs
    and tests see the same information without control codes.
    """

    def __init__(
        self,
        title: str,
        total: int,
        plain: bool,
        workers: int = 0,
        stream=None,
    ):
        self.title = title
        self.total = total
        self.plain = plain or not (stream or sys.stdout).isatty()
        self.workers = workers
        self.stream = stream if stream is not None else sys.stdout
        self.hit_ratio: List[float] = []
        self.throughput: List[float] = []
        self.entropy: List[float] = []
        self.lanes: List[int] = [0] * workers if workers else []
        self.done = 0
        self.elapsed = 0.0
        self._started = time.perf_counter()
        self._drawn = 0

    def on_sample(self, sample) -> None:
        """Collector ``on_sample`` hook: fold one sample in and redraw."""
        self.done += 1
        self.elapsed = time.perf_counter() - self._started
        if sample.source == "replay":
            self.hit_ratio.append(sample.hit_ratio)
            self.throughput.append(sample.events_per_sec)
            if sample.entropy is not None:
                self.entropy.append(sample.entropy)
        else:
            if self.lanes:
                # Submission order round-robins over the pool, so point
                # index mod workers is the point's lane.
                self.lanes[sample.start % self.workers] += 1
        if self.plain:
            self.stream.write(self._plain_line(sample) + "\n")
            self.stream.flush()
        else:
            self._redraw()

    def _plain_line(self, sample) -> str:
        if sample.source == "replay":
            entropy = (
                f"  H={sample.entropy:.3f}" if sample.entropy is not None else ""
            )
            return (
                f"window {sample.index + 1}/{self.total}  "
                f"hit={sample.hit_ratio:.3f}  "
                f"ev/s={sample.events_per_sec:,.0f}{entropy}"
            )
        return (
            f"point {self.done}/{self.total}  {sample.label}  "
            f"{sample.seconds:.2f}s"
        )

    def _lines(self) -> List[str]:
        from .analysis.ascii_chart import render_sparkline

        width = 48
        lines = [f"repro top — {self.title}"]
        if self.hit_ratio:
            lines.append(
                f"  hit ratio  {render_sparkline(self.hit_ratio[-width:]):<{width}} "
                f"{self.hit_ratio[-1]:.3f}"
            )
        if self.throughput:
            lines.append(
                f"  events/s   {render_sparkline(self.throughput[-width:]):<{width}} "
                f"{self.throughput[-1]:,.0f}"
            )
        if self.entropy:
            lines.append(
                f"  entropy    {render_sparkline(self.entropy[-width:]):<{width}} "
                f"{self.entropy[-1]:.3f} bits"
            )
        for lane, count in enumerate(self.lanes):
            share = count / self.total if self.total else 0.0
            bar = "#" * int(share * width)
            lines.append(f"  worker {lane}   {bar:<{width}} {count} pts")
        fraction = self.done / self.total if self.total else 1.0
        bar = "#" * int(fraction * width)
        lines.append(
            f"  progress   [{bar:<{width}}] {self.done}/{self.total}  "
            f"{self.elapsed:5.1f}s"
        )
        return lines

    def _redraw(self) -> None:
        lines = self._lines()
        out = self.stream
        if self._drawn:
            out.write(f"\x1b[{self._drawn}F")  # to start of first drawn line
        for line in lines:
            out.write(f"\x1b[2K{line}\n")
        self._drawn = len(lines)
        out.flush()

    def finish(self) -> None:
        """Leave a final, complete frame on screen (tty mode only)."""
        if not self.plain:
            self._redraw()


class _AttachDashboard:
    """Live terminal rendering for ``repro top --attach URL``.

    The same in-place ANSI drawing as :class:`_TopDashboard`, but the
    lanes are the live daemon's serve windows — hit ratio, request
    rate, p95 latency — plus the lifetime totals from the most recent
    ``/stats`` payload and the poll-loop health counters (failures,
    restarts, gaps).
    """

    def __init__(self, url: str, plain: bool, stream=None):
        self.url = url
        self.stream = stream if stream is not None else sys.stdout
        self.plain = plain or not self.stream.isatty()
        self.hit_ratio: List[float] = []
        self.req_rate: List[float] = []
        self.p95_ms: List[float] = []
        self.windows = 0
        self.stats: dict = {}
        self.health: dict = {}
        self._started = time.perf_counter()
        self._drawn = 0

    def on_window(self, window, health: dict) -> None:
        """Fold one :class:`~repro.obs.live.LiveWindow` in and redraw."""
        self.windows += 1
        self.health = health
        self.hit_ratio.append(window.hit_ratio)
        self.req_rate.append(window.requests_per_sec)
        self.p95_ms.append(window.p95_ms)
        if self.plain:
            self.stream.write(self._plain_line(window) + "\n")
            self.stream.flush()
        else:
            self._redraw()

    def on_stats(self, stats: dict) -> None:
        self.stats = stats

    def _plain_line(self, window) -> str:
        latency = window.latency_ns
        return (
            f"window {window.index}  hit={window.hit_ratio:.3f}  "
            f"req/s={window.requests_per_sec:,.0f}  "
            f"p95={float(latency.get('p95_ns', 0.0)) / 1e6:.2f}ms  "
            f"events={window.sample.events}  errors={window.errors}"
        )

    def _lines(self) -> List[str]:
        from .analysis.ascii_chart import render_sparkline

        width = 48
        elapsed = time.perf_counter() - self._started
        lines = [f"repro top — attached to {self.url}"]
        if self.hit_ratio:
            lines.append(
                f"  hit ratio  {render_sparkline(self.hit_ratio[-width:]):<{width}} "
                f"{self.hit_ratio[-1]:.3f}"
            )
        if self.req_rate:
            lines.append(
                f"  req/s      {render_sparkline(self.req_rate[-width:]):<{width}} "
                f"{self.req_rate[-1]:,.0f}"
            )
        if self.p95_ms:
            lines.append(
                f"  p95 ms     {render_sparkline(self.p95_ms[-width:]):<{width}} "
                f"{self.p95_ms[-1]:.2f}"
            )
        cache = self.stats.get("cache", {})
        if cache:
            lines.append(
                f"  lifetime   accesses {self.stats.get('accesses', 0):,}  "
                f"hit {cache.get('hit_ratio', 0.0):.3f}  "
                f"errors {self.stats.get('errors', 0)}"
            )
        failures = self.health.get("failures", 0)
        restarts = self.health.get("restarts", 0)
        gaps = self.health.get("gaps", 0)
        flaky = (
            f"  failures {failures}  restarts {restarts}  gaps {gaps}"
            if failures or restarts or gaps
            else ""
        )
        lines.append(
            f"  stream     {self.windows} window(s)  {elapsed:5.1f}s{flaky}"
        )
        return lines

    def _redraw(self) -> None:
        lines = self._lines()
        out = self.stream
        if self._drawn:
            out.write(f"\x1b[{self._drawn}F")
        for line in lines:
            out.write(f"\x1b[2K{line}\n")
        self._drawn = len(lines)
        out.flush()

    def finish(self) -> None:
        if not self.plain and self.windows:
            self._redraw()


def _cmd_top_attach(args: argparse.Namespace) -> int:
    """``repro top --attach URL``: dashboard over a live daemon.

    Polls ``/stats?since=`` on the daemon and renders its serve
    windows until ``--duration`` elapses (or forever without one;
    Ctrl-C detaches cleanly — the daemon is someone else's process).
    """
    from .obs.live import StatsStream

    dashboard = _AttachDashboard(args.attach, args.plain)
    stream = StatsStream(
        args.attach, timeout=args.timeout, poll_seconds=args.poll
    )
    raws: List[dict] = []
    try:
        with stream:
            for window in stream.stream(duration=args.duration):
                if stream.last_stats is not None:
                    dashboard.on_stats(stream.last_stats)
                dashboard.on_window(window, stream.summary())
                if args.ts_out is not None:
                    raws.append(window.raw)
    except KeyboardInterrupt:
        pass
    dashboard.finish()
    summary = stream.summary()
    if stream.polls and stream.failures == stream.polls:
        print(
            f"never reached {args.attach}: {stream.failures} failed poll(s) "
            f"— is the daemon running?",
            file=sys.stderr,
        )
        return 1
    print(
        f"detached from {args.attach}: {summary['windows']} window(s) over "
        f"{summary['polls']} poll(s), {summary['failures']} failure(s), "
        f"{summary['restarts']} restart(s), {summary['gaps']} gap(s)"
    )
    if args.ts_out is not None:
        import json as _json

        target = Path(args.ts_out)
        if target.parent and not target.parent.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
        from .obs import TS_SCHEMA

        with target.open("w", encoding="utf-8") as out:
            out.write(
                _json.dumps(
                    {
                        "kind": "meta",
                        "schema": TS_SCHEMA,
                        "source": "serve",
                        "url": args.attach,
                        "samples": len(raws),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            for raw in raws:
                out.write(_json.dumps(raw, sort_keys=True) + "\n")
        print(f"wrote {len(raws) + 1} repro.ts/1 JSONL lines to {target}")
    return 0


def _parse_listen(value: str):
    """Parse a ``HOST:PORT`` listen spec (host optional)."""
    host, separator, port = value.rpartition(":")
    if not separator or not port.isdigit():
        raise ReproError(
            f"--listen expects HOST:PORT (got {value!r}); use :0 for a "
            f"free port on localhost"
        )
    return host or "127.0.0.1", int(port)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live windowed-telemetry dashboard over a replay or a sweep.

    Replay mode drives one distributed system through the trace window
    by window; ``--sweep`` instead watches a ``fig3``-style parameter
    sweep point by point (``--workers N`` fans it out, and the dashboard
    shows one lane per worker); ``--attach URL`` renders a running
    ``repro serve`` daemon's live telemetry windows instead of replaying
    anything locally.  ``--listen HOST:PORT`` additionally serves the
    live series as Prometheus text from ``/metrics``.
    """
    from .obs import WindowedCollector, serve_metrics, set_collector, write_ts_jsonl
    from .sim.engine import DistributedFileSystem

    if args.attach:
        return _cmd_top_attach(args)
    if args.sweep:
        from functools import partial

        from .experiments.fig3 import FIG3_CAPACITIES, FIG3_GROUP_SIZES
        from .experiments.fig3 import fig3_point
        from .sim.sweep import SweepGrid, run_sweep

        grid = (
            SweepGrid()
            .add_axis("capacity", FIG3_CAPACITIES)
            .add_axis("group_size", FIG3_GROUP_SIZES)
        )
        total = len(grid)
        title = (
            f"fig3 sweep on {args.workload}, {total} points, "
            f"workers {args.workers}"
        )
        dashboard = _TopDashboard(
            title, total, args.plain, workers=max(args.workers, 1)
        )
        collector = WindowedCollector(
            window=args.window, on_sample=dashboard.on_sample
        )
        server = None
        if args.listen:
            host, port = _parse_listen(args.listen)
            server = serve_metrics(collector, host, port)
            print(f"serving live metrics at {server.url}", file=sys.stderr)
        previous = set_collector(collector)
        try:
            run_sweep(
                grid,
                partial(
                    fig3_point,
                    workload=args.workload,
                    events=args.events,
                    seed=args.seed,
                ),
                workers=args.workers,
            )
        finally:
            set_collector(previous)
            if server is not None:
                server.close()
        dashboard.finish()
    else:
        trace = make_workload(args.workload, args.events, args.seed)
        total = (len(trace) + args.window - 1) // args.window
        title = (
            f"{args.workload} replay, {len(trace)} events, "
            f"window {args.window}"
        )
        dashboard = _TopDashboard(title, total, args.plain)
        collector = WindowedCollector(
            window=args.window, on_sample=dashboard.on_sample
        )
        system = DistributedFileSystem(
            client_capacity=args.client_capacity,
            server_capacity=args.server_capacity,
            group_size=args.group_size,
        )
        server = None
        if args.listen:
            host, port = _parse_listen(args.listen)
            server = serve_metrics(collector, host, port)
            print(f"serving live metrics at {server.url}", file=sys.stderr)
        previous = set_collector(collector)
        try:
            system.replay(trace)
        finally:
            set_collector(previous)
            if server is not None:
                server.close()
        dashboard.finish()
    if args.ts_out is not None:
        lines = write_ts_jsonl(
            collector,
            args.ts_out,
            meta={
                "workload": args.workload,
                "events": args.events,
                "seed": args.seed,
                "mode": "sweep" if args.sweep else "replay",
            },
        )
        print(f"wrote {lines} repro.ts/1 JSONL lines to {args.ts_out}")
    return 0


def _cmd_drift_url(args: argparse.Namespace, metrics: List[str]) -> int:
    """``repro drift --url``: online drift alerts over a live daemon.

    Attaches a :class:`~repro.obs.live.StatsStream` to the daemon — the
    cursor starts at 0, so the first poll scans the daemon's whole
    retained window history — then keeps polling for ``--duration``
    seconds, feeding every window to a streaming monitor and printing
    alerts the moment they fire.  ``--duration 0`` (the default) scans
    the retained history in one poll and exits, which is how a CI step
    asks "did the workload shift while I was slamming?" after the
    fact.
    """
    from .analysis.drift import StreamingDriftMonitor, drift_rows
    from .obs.live import StatsStream

    monitor = StreamingDriftMonitor(
        metrics=metrics,
        history=args.history,
        threshold=args.threshold,
        alpha=args.alpha,
    )
    stream = StatsStream(args.url, timeout=args.timeout, poll_seconds=args.poll)
    print(
        f"watching {args.url} for {', '.join(metrics)} drift "
        f"(history {args.history}, z >= {args.threshold:g}, "
        f"duration {args.duration:g}s)"
    )
    try:
        with stream:
            for window in stream.stream(duration=args.duration):
                for alert in monitor.observe(window.sample):
                    print(f"  ! {alert.describe()}")
    except KeyboardInterrupt:
        pass
    summary = stream.summary()
    if stream.polls and stream.failures == stream.polls:
        print(
            f"never reached {args.url}: {stream.failures} failed poll(s) "
            f"— is the daemon running?",
            file=sys.stderr,
        )
        return 1
    alerts = monitor.alerts
    print(
        f"\nscanned {monitor.samples_seen} serve window(s) from {args.url} "
        f"({summary['polls']} poll(s), {summary['failures']} failure(s), "
        f"{summary['restarts']} restart(s), {summary['gaps']} gap(s))\n"
    )
    if not alerts:
        print("no drift detected: the served series is steady at this threshold")
        return 0
    header = ["metric", "window", "event", "direction", "value", "baseline", "z"]
    rows = [header] + [
        [str(row[key]) for key in header] for row in drift_rows(alerts)
    ]
    print(rows_to_markdown(rows))
    print()
    for alert in alerts:
        print(f"  - {alert.describe()}")
    return 2 if args.fail_on_drift else 0


def _cmd_drift(args: argparse.Namespace) -> int:
    """Change-point scan of a windowed series; exit 2 on drift if asked.

    With a positional ``series`` path, scans an existing ``repro.ts/1``
    export; with ``--url`` it polls a running ``repro serve`` daemon's
    telemetry stream (retained history first, then live windows for
    ``--duration`` seconds) and alerts online; otherwise replays the
    chosen workload with windowing on and scans the fresh series.
    Alerts are event-indexed, so a flagged window can be cross-examined
    with ``repro explain``.
    """
    from .analysis.drift import detect_drift, drift_rows
    from .obs import load_ts_jsonl, windowing

    metrics = [name for name in args.metrics.split(",") if name]
    if args.url:
        return _cmd_drift_url(args, metrics)
    if args.series is not None:
        loaded = load_ts_jsonl(args.series)
        samples = loaded["samples"]
        origin = str(args.series)
    else:
        from .sim.engine import DistributedFileSystem

        trace = make_workload(args.workload, args.events, args.seed)
        system = DistributedFileSystem(
            client_capacity=args.client_capacity,
            server_capacity=args.server_capacity,
            group_size=args.group_size,
        )
        with windowing(window=args.window) as collector:
            system.replay(trace)
        samples = collector.samples
        origin = f"{args.workload} ({len(trace)} events, window {args.window})"

    replay_windows = sum(1 for s in samples if s.source == "replay")
    alerts = detect_drift(
        samples,
        metrics=metrics,
        history=args.history,
        threshold=args.threshold,
        alpha=args.alpha,
    )
    print(
        f"scanned {replay_windows} windows of {origin} for "
        f"{', '.join(metrics)} drift (history {args.history}, "
        f"z >= {args.threshold:g})\n"
    )
    if not alerts:
        print("no drift detected: the series is steady at this threshold")
        return 0
    header = ["metric", "window", "event", "direction", "value", "baseline", "z"]
    rows = [header] + [
        [str(row[key]) for key in header] for row in drift_rows(alerts)
    ]
    print(rows_to_markdown(rows))
    print()
    for alert in alerts:
        print(f"  - {alert.describe()}")
    return 2 if args.fail_on_drift else 0


def _cmd_adaptation(args: argparse.Namespace) -> int:
    figure = run_adaptation(workload=args.workload, events=args.events, seed=args.seed)
    _emit_figure(figure, args)
    return 0


def _cmd_attribution(args: argparse.Namespace) -> int:
    figure = run_attribution(events=args.events, seed=args.seed)
    _emit_figure(figure, args)
    return 0


def _cmd_servercap(args: argparse.Namespace) -> int:
    figure = run_server_capacity(
        workload=args.workload, events=args.events, seed=args.seed
    )
    _emit_figure(figure, args)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from .core.graph import RelationshipGraph, graph_summary_rows, hub_files

    sequence = make_workload(args.workload, args.events, args.seed).file_ids()
    graph = RelationshipGraph.from_sequence(sequence)
    print(
        f"relationship graph of {args.workload}: "
        f"{len(graph.nodes())} files, {len(graph.edges())} edges\n"
    )
    print(rows_to_markdown(graph_summary_rows(graph, top=args.top)))
    print("\nhub files (most distinct predecessors):")
    for file_id, in_degree in hub_files(graph, top=5):
        print(f"  {in_degree:4d}  {file_id}")
    groups = graph.covering_groups(args.group_size)
    print(f"\ncovering set at g={args.group_size}: {len(groups)} groups")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import write_report

    def progress(section_id):
        print(f"  running {section_id}...", file=sys.stderr)

    path = write_report(
        args.out,
        events=args.events,
        charts=not args.no_charts,
        explain=args.explain,
        drift=args.drift,
        progress=progress,
    )
    print(f"wrote full evaluation report to {path}")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from .workloads.catalog import catalog_rows

    if args.name:
        from .workloads.catalog import describe_workload

        profile = describe_workload(args.name)
        print(f"{profile.name}: {profile.stands_in_for}")
        print(f"\n{profile.character}\n")
        print("mechanisms:")
        for mechanism in profile.dominant_mechanisms:
            print(f"  - {mechanism}")
        print("calibration targets (machine-checked):")
        for target in profile.calibration_targets:
            print(f"  - {target}")
        return 0
    print(rows_to_markdown(catalog_rows()))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Cache-policy shootout: hit rates of every policy on one workload."""
    from .caching import POLICIES, make_cache
    from .core.aggregating_cache import AggregatingClientCache
    from .workloads.synthetic import make_workload

    trace = make_workload(args.workload, args.events, args.seed)
    sequence = trace.file_ids()
    rows = [["policy", "hit rate", "misses"]]
    for name in sorted(POLICIES):
        cache = make_cache(name, args.capacity)
        for key in sequence:
            cache.access(key)
        rows.append(
            [name, f"{cache.stats.hit_rate:.3f}", str(cache.stats.misses)]
        )
    aggregating = AggregatingClientCache(
        capacity=args.capacity, group_size=args.group_size
    )
    aggregating.replay(sequence)
    rows.append(
        [
            f"aggregating g{args.group_size}",
            f"{aggregating.stats.hit_rate:.3f}",
            str(aggregating.stats.misses),
        ]
    )
    print(
        f"workload {args.workload}, {args.events} events, "
        f"capacity {args.capacity} files:\n"
    )
    print(rows_to_markdown(rows))
    return 0


def _cmd_anonymize(args: argparse.Namespace) -> int:
    from .traces.anonymize import anonymize_trace, enumerate_trace

    trace = read_trace(args.trace)
    if args.key:
        anonymized = anonymize_trace(trace, key=args.key)
    else:
        anonymized = enumerate_trace(trace)
    write_trace(anonymized, args.out)
    print(
        f"anonymized {len(trace)} events "
        f"({'keyed hash' if args.key else 'enumeration'}) -> {args.out}"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    trace = make_workload(args.workload, args.events, args.seed)
    write_trace(trace, args.out)
    print(f"wrote {len(trace)} events ({trace.unique_files()} files) to {args.out}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    summary = summarize(trace)
    rows = [["property", "value"]] + [list(row) for row in summary.as_rows()]
    print(rows_to_markdown(rows))
    return 0


def _cmd_trace_pack(args: argparse.Namespace) -> int:
    from .traces.columnar import (
        describe_columnar,
        read_columnar,
        validate_columnar,
        write_columnar,
    )

    if validate_columnar(args.trace):
        source = read_columnar(args.trace)
    else:
        source = read_trace(args.trace)
    written = write_columnar(source, args.out)
    info = describe_columnar(args.out)
    print(
        f"packed {info['events']} events ({info['unique_files']} files) "
        f"-> {args.out} ({written} bytes, {info['format']} v{info['version']})"
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from .traces.columnar import (
        ColumnarTrace,
        FORMAT_NAME,
        FORMAT_VERSION,
        describe_columnar,
        validate_columnar,
    )

    if validate_columnar(args.trace):
        info = describe_columnar(args.trace)
    else:
        # Text traces get the same report, computed from an in-memory
        # packing (what `repro trace pack` would write).
        packed = ColumnarTrace.from_trace(read_trace(args.trace))
        columns = packed.column_nbytes()
        info = {
            "format": f"{FORMAT_NAME} (unpacked text)",
            "version": FORMAT_VERSION,
            "events": len(packed),
            "unique_files": len(packed.file_symbols),
            "client_symbols": len(packed.client_symbols),
            "user_symbols": len(packed.user_symbols),
            "process_symbols": len(packed.process_symbols),
            "columns": columns,
            "columns_bytes": sum(columns.values()),
            "footer_bytes": None,
            "file_bytes": args.trace.stat().st_size,
        }
    rows = [["property", "value"]]
    for key in (
        "format",
        "version",
        "events",
        "unique_files",
        "client_symbols",
        "user_symbols",
        "process_symbols",
    ):
        rows.append([key.replace("_", " "), str(info[key])])
    for column, nbytes in sorted(info["columns"].items()):
        rows.append([f"column bytes ({column})", str(nbytes)])
    for key in ("columns_bytes", "footer_bytes", "file_bytes"):
        if info.get(key) is not None:
            rows.append([key.replace("_", " "), str(info[key])])
    print(rows_to_markdown(rows))
    if args.bench:
        if validate_columnar(args.trace):
            from .traces.columnar import read_columnar

            ctrace = read_columnar(args.trace)
        else:
            ctrace = packed
        print()
        print(rows_to_markdown(_trace_bench_rows(ctrace)))
    return 0


def _trace_bench_rows(ctrace) -> list:
    """One-shot timings of every columnar path over one trace.

    Times a single pass each of the stateless column scan and the
    array-backed replay kernel (on a fresh reference-configuration
    system), so
    ``repro trace info --bench`` answers "how fast does *this* trace
    replay on *this* machine, per path" without pytest-benchmark.
    One-shot wall clock, not a calibrated benchmark — the strict CI
    gate owns the careful numbers.
    """
    from .sim import kernel as _kernel
    from .sim.engine import DistributedFileSystem

    events = len(ctrace)
    config = dict(client_capacity=250, server_capacity=300, group_size=5)

    def run_scan():
        _kernel.scan_columns(
            ctrace.file_codes, ctrace.kind_codes, len(ctrace.file_symbols)
        )

    def run_kernel_v2():
        _kernel.replay_columns_v2(DistributedFileSystem(**config), ctrace)

    rows = [["path", "seconds", "events/s"]]
    for label, run in (
        ("scan", run_scan),
        ("kernel_v2 (array LRU)", run_kernel_v2),
    ):
        started = time.perf_counter()
        run()
        seconds = time.perf_counter() - started
        rate = f"{events / seconds:,.0f}" if seconds > 0 and events else "-"
        rows.append([label, f"{seconds:.3f}", rate])
    return rows


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the aggregating-cache daemon for one scenario, until stopped.

    Blocks in :meth:`repro.serve.server.CacheDaemon.run`: SIGTERM,
    SIGINT (Ctrl-C), or a ``POST /shutdown`` all exit cleanly with
    status 0 and a released socket.  ``--port-file`` publishes the
    bound port for scripted callers (scenarios default to port 0, so
    parallel CI legs never collide).
    """
    from .serve import load_scenario
    from .serve.server import CacheDaemon

    scenario = load_scenario(args.scenario)
    daemon = CacheDaemon(
        scenario,
        host=args.host if args.host else None,
        port=args.port,
        access_log=args.access_log,
        access_log_max_bytes=args.access_log_max_bytes,
        window_seconds=args.stats_window,
        window_events=args.stats_window_events,
        span_log=args.spans,
        span_capacity=args.span_capacity,
        span_sample=args.span_sample,
    )
    return daemon.run(port_file=args.port_file)


def _cmd_slam(args: argparse.Namespace) -> int:
    """Slam a running daemon with a trace from N worker processes.

    The traffic source is, in priority order: ``--trace`` (a text
    trace or a zero-copy ``.ctrace`` artifact), the ``--workload``
    family, or the workload named by ``--scenario`` (so one scenario
    file describes both sides of a load test).  Prints the latency
    report as a table and optionally writes it as ``repro.slam/1``
    JSON for CI artifacts.
    """
    from .serve.client import run_slam, write_report
    from .traces.columnar import validate_columnar

    workload, events, seed = args.workload, args.events, args.seed
    if args.scenario is not None:
        from .serve import load_scenario

        scenario = load_scenario(args.scenario)
        workload = workload or scenario.workload
        events = events if events is not None else scenario.events
        seed = seed if seed is not None else scenario.seed
    if events is None:
        events = DEFAULT_EVENTS

    if args.trace is not None:
        if validate_columnar(args.trace):
            source = args.trace  # workers re-open the mmap themselves
            described = f"ctrace {args.trace}"
        else:
            source = read_trace(args.trace).file_ids()
            described = f"trace {args.trace} ({len(source)} events)"
    else:
        workload = workload or "server"
        source = list(make_workload(workload, events, seed).file_ids())
        described = f"workload {workload} ({len(source)} events)"

    print(
        f"slamming {args.url} with {described}: "
        f"{args.workers} worker(s), batch {args.batch}"
    )
    report = run_slam(
        args.url,
        source,
        workers=args.workers,
        batch=args.batch,
        timeout=args.timeout,
        span_dir=args.spans,
        span_sample=args.span_sample,
        span_capacity=args.span_capacity,
    )
    print()
    print(rows_to_markdown(report.rows()))
    if args.report is not None:
        write_report(report, args.report)
        print(f"\nwrote repro.slam/1 report to {args.report}")
    if args.spans is not None:
        spans = report.spans or {}
        print(
            f"\nwrote {spans.get('client_spans', 0)} client span(s) to "
            f"{spans.get('files', 0)} repro.span/1 file(s) under {args.spans}"
        )
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    """Merge client and server span logs into one request timeline.

    Aligns ``repro.span/1`` JSONL exports from slam workers
    (``--client``, repeatable/globbable) and the daemon (``--server``)
    on trace id, prints the pairing summary, a per-endpoint latency
    breakdown (client-observed vs server-measured, the network+queue
    delta between them, and where server time went), and span trees for
    the slowest traces.  ``--chrome`` additionally writes the merged
    timeline as Chrome trace-event JSON — one Perfetto process track
    per slam worker plus one for the daemon.
    """
    from .obs.spans import (
        endpoint_breakdown,
        format_span_tree,
        load_spans_jsonl,
        merge_spans,
        slowest_traces,
        write_spans_chrome_trace,
    )

    client_spans: List[Dict[str, Any]] = []
    client_meta: List[Dict[str, Any]] = []
    for path in args.client:
        loaded = load_spans_jsonl(path)
        client_spans.extend(loaded["spans"])
        client_meta.append(loaded["meta"])
    server_spans: List[Dict[str, Any]] = []
    server_meta: List[Dict[str, Any]] = []
    for path in args.server:
        loaded = load_spans_jsonl(path)
        server_spans.extend(loaded["spans"])
        server_meta.append(loaded["meta"])

    merged = merge_spans(client_spans, server_spans)
    print(
        f"loaded {len(client_spans)} client span(s) from "
        f"{len(args.client)} file(s), {len(server_spans)} server span(s) "
        f"from {len(args.server)} file(s)"
    )
    print(
        f"traces: {merged['paired']} paired, "
        f"{merged['client_only']} client-only, "
        f"{merged['server_only']} server-only"
    )
    dropped = sum(int(meta.get("dropped", 0)) for meta in client_meta + server_meta)
    if dropped:
        print(f"warning: {dropped} span(s) were dropped at capture (ring full)")

    rows = endpoint_breakdown(merged)
    if rows:
        table = [
            [
                "endpoint",
                "requests",
                "paired",
                "client p50/p99 (ms)",
                "server p50/p99 (ms)",
                "net+queue p50/p99 (ms)",
                "parse",
                "lock",
                "cache",
                "journal",
                "write",
            ]
        ]
        for row in rows:
            table.append(
                [
                    row["endpoint"],
                    str(row["requests"]),
                    str(row["paired"]),
                    f"{row['client_p50_ms']:.3f} / {row['client_p99_ms']:.3f}",
                    f"{row['server_p50_ms']:.3f} / {row['server_p99_ms']:.3f}",
                    f"{row['net_queue_p50_ms']:.3f} / {row['net_queue_p99_ms']:.3f}",
                    f"{row['parse_share'] * 100:.1f}%",
                    f"{row['lock_share'] * 100:.1f}%",
                    f"{row['cache_share'] * 100:.1f}%",
                    f"{row['journal_share'] * 100:.1f}%",
                    f"{row['write_share'] * 100:.1f}%",
                ]
            )
        print()
        print(rows_to_markdown(table))

    slowest = slowest_traces(merged, top=args.top)
    if slowest:
        print(f"\nslowest {len(slowest)} trace(s):")
        for trace in slowest:
            print()
            for line in format_span_tree(trace):
                print(f"  {line}")

    if args.chrome is not None:
        spans = client_spans + server_spans
        count = write_spans_chrome_trace(
            spans,
            args.chrome,
            meta={"paired": merged["paired"], "source": "repro spans"},
        )
        print(
            f"\nwrote {count} Chrome trace event(s) to {args.chrome} "
            "(open in Perfetto / chrome://tracing)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the full argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Group-Based Management of Distributed File Caches' "
            "(ICDCS 2002): figures, headline claims, and workload tooling."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    fig3 = subparsers.add_parser(
        "fig3", help="client demand fetches vs cache capacity, per group size"
    )
    _add_common_options(fig3, workload_default="server")
    fig3.set_defaults(handler=_cmd_fig3)

    fig4 = subparsers.add_parser(
        "fig4", help="server hit rate vs intervening client cache capacity"
    )
    _add_common_options(fig4, workload_default="workstation")
    fig4.set_defaults(handler=_cmd_fig4)

    fig5 = subparsers.add_parser(
        "fig5", help="successor-list miss probability: Oracle vs LRU vs LFU"
    )
    _add_common_options(fig5, workload_default="workstation")
    fig5.set_defaults(handler=_cmd_fig5)

    fig7 = subparsers.add_parser(
        "fig7", help="successor entropy vs successor sequence length"
    )
    _add_common_options(fig7)
    fig7.set_defaults(handler=_cmd_fig7)

    fig8 = subparsers.add_parser(
        "fig8", help="successor entropy of LRU-filtered miss streams"
    )
    _add_common_options(fig8, workload_default="write")
    fig8.set_defaults(handler=_cmd_fig8)

    headline = subparsers.add_parser(
        "headline", help="recompute the paper's abstract/conclusion claims"
    )
    _add_common_options(headline)
    headline.set_defaults(handler=_cmd_headline)

    placement = subparsers.add_parser(
        "placement", help="grouping for data placement: seek distance by layout"
    )
    _add_common_options(placement, workload_default="server")
    placement.set_defaults(handler=_cmd_placement)

    hoard = subparsers.add_parser(
        "hoard", help="mobile hoarding: offline miss rate by hoard policy"
    )
    _add_common_options(hoard, workload_default="server")
    hoard.set_defaults(handler=_cmd_hoard)

    cooperation = subparsers.add_parser(
        "cooperation",
        help="server grouping with vs without piggy-backed client statistics",
    )
    _add_common_options(cooperation, workload_default="server")
    cooperation.set_defaults(handler=_cmd_cooperation)

    profile = subparsers.add_parser(
        "profile", help="predictability profile: entropy timeline + hotspots"
    )
    _add_common_options(profile, workload_default="workstation")
    profile.add_argument(
        "--trace", type=Path, default=None, help="profile a stored trace instead"
    )
    profile.add_argument(
        "--window", type=int, default=2000, help="timeline window (events)"
    )
    profile.set_defaults(handler=_cmd_profile)

    metrics = subparsers.add_parser(
        "metrics",
        help="replay a workload with metric collection on; print/export a snapshot",
    )
    metrics.add_argument(
        "--workload",
        default="server",
        choices=sorted(WORKLOADS),
        help="workload to replay (default: server)",
    )
    metrics.add_argument(
        "--events",
        type=int,
        default=DEFAULT_EVENTS,
        help=f"trace length in accesses (default: {DEFAULT_EVENTS})",
    )
    metrics.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: per-workload)"
    )
    metrics.add_argument(
        "--out", type=Path, default=None, help="write the snapshot as JSONL"
    )
    metrics.add_argument(
        "--group-size", type=int, default=5, help="aggregating group size g"
    )
    metrics.add_argument(
        "--client-capacity", type=int, default=250, help="client cache capacity"
    )
    metrics.add_argument(
        "--server-capacity", type=int, default=300, help="server cache capacity"
    )
    metrics.add_argument(
        "--generic",
        action="store_true",
        help="force the generic per-event replay path (metrics are identical)",
    )
    metrics.add_argument(
        "--baselines",
        default="",
        help=(
            "comma-separated plain policies (or 'all') to replay alongside "
            "the aggregating system for a counter-backed comparison table"
        ),
    )
    metrics.add_argument(
        "--window",
        type=int,
        default=0,
        help="also record a windowed time-series at this resolution (events)",
    )
    metrics.add_argument(
        "--ts-out",
        type=Path,
        default=None,
        help="write the windowed series as repro.ts/1 JSONL (needs --window)",
    )
    metrics.set_defaults(handler=_cmd_metrics)

    explain = subparsers.add_parser(
        "explain",
        help=(
            "replay a workload under the decision-trace flight recorder: "
            "prefetch efficiency, eviction causes, per-file history"
        ),
    )
    explain.add_argument(
        "--workload",
        default="server",
        choices=sorted(WORKLOADS),
        help="workload to replay (default: server)",
    )
    explain.add_argument(
        "--events",
        type=int,
        default=DEFAULT_EVENTS,
        help=f"trace length in accesses (default: {DEFAULT_EVENTS})",
    )
    explain.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: per-workload)"
    )
    explain.add_argument(
        "--cache-size", type=int, default=250, help="client cache capacity"
    )
    explain.add_argument(
        "--server-capacity", type=int, default=300, help="server cache capacity"
    )
    explain.add_argument(
        "--group-size", type=int, default=5, help="aggregating group size g"
    )
    explain.add_argument(
        "--file", default="", help="narrate the retained history of one file"
    )
    explain.add_argument(
        "--at",
        type=int,
        default=None,
        help="trace seq of interest for --file (marks the matching record)",
    )
    explain.add_argument(
        "--top", type=int, default=10, help="wasteful groups to list"
    )
    explain.add_argument(
        "--buffer",
        type=int,
        default=65536,
        help="ring-buffer capacity in records (accounting stays exact beyond it)",
    )
    explain.add_argument(
        "--sample",
        type=int,
        default=1,
        help="keep every Nth record of each kind in the ring (1 = all)",
    )
    explain.add_argument(
        "--out", type=Path, default=None, help="write the trace as repro.trace/1 JSONL"
    )
    explain.add_argument(
        "--chrome",
        type=Path,
        default=None,
        help="write a Chrome trace-event JSON (Perfetto / about:tracing)",
    )
    explain.set_defaults(handler=_cmd_explain)

    top = subparsers.add_parser(
        "top",
        help=(
            "live windowed-telemetry dashboard: sparkline hit ratio, "
            "throughput, and entropy over a replay (or --sweep)"
        ),
    )
    top.add_argument(
        "--workload",
        default="server",
        choices=sorted(WORKLOADS),
        help="workload to replay (default: server)",
    )
    top.add_argument(
        "--events",
        type=int,
        default=DEFAULT_EVENTS,
        help=f"trace length in accesses (default: {DEFAULT_EVENTS})",
    )
    top.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: per-workload)"
    )
    top.add_argument(
        "--window", type=int, default=2000, help="telemetry window (events)"
    )
    top.add_argument(
        "--client-capacity", type=int, default=250, help="client cache capacity"
    )
    top.add_argument(
        "--server-capacity", type=int, default=300, help="server cache capacity"
    )
    top.add_argument(
        "--group-size", type=int, default=5, help="aggregating group size g"
    )
    top.add_argument(
        "--sweep",
        action="store_true",
        help="watch a fig3 parameter sweep instead of a single replay",
    )
    top.add_argument(
        "--attach",
        default="",
        metavar="URL",
        help=(
            "attach to a running repro serve daemon (http://HOST:PORT) and "
            "render its live telemetry windows instead of replaying"
        ),
    )
    top.add_argument(
        "--duration",
        type=float,
        default=None,
        help="--attach: detach after this many seconds (default: until Ctrl-C)",
    )
    top.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="--attach: seconds between /stats polls (default: 0.5)",
    )
    top.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="--attach: per-poll socket timeout in seconds",
    )
    top.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for --sweep (one dashboard lane per worker)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="append-only output (no ANSI redraw); implied off a terminal",
    )
    top.add_argument(
        "--listen",
        default="",
        help="serve live Prometheus text on HOST:PORT/metrics (:0 = free port)",
    )
    top.add_argument(
        "--ts-out",
        type=Path,
        default=None,
        help="also write the series as repro.ts/1 JSONL when done",
    )
    top.set_defaults(handler=_cmd_top)

    drift = subparsers.add_parser(
        "drift",
        help=(
            "change-point scan of a windowed series: flags hit-ratio "
            "collapses and entropy regime shifts with event indexes"
        ),
    )
    drift.add_argument(
        "series",
        nargs="?",
        type=Path,
        default=None,
        help="existing repro.ts/1 JSONL to scan (default: replay a workload)",
    )
    drift.add_argument(
        "--workload",
        default="server",
        choices=sorted(WORKLOADS),
        help="workload to replay when no series file is given",
    )
    drift.add_argument(
        "--events",
        type=int,
        default=DEFAULT_EVENTS,
        help=f"trace length in accesses (default: {DEFAULT_EVENTS})",
    )
    drift.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: per-workload)"
    )
    drift.add_argument(
        "--window", type=int, default=2000, help="telemetry window (events)"
    )
    drift.add_argument(
        "--client-capacity", type=int, default=250, help="client cache capacity"
    )
    drift.add_argument(
        "--server-capacity", type=int, default=300, help="server cache capacity"
    )
    drift.add_argument(
        "--group-size", type=int, default=5, help="aggregating group size g"
    )
    drift.add_argument(
        "--metrics",
        default="hit_ratio,entropy",
        help="comma-separated sample metrics to scan (default: hit_ratio,entropy)",
    )
    drift.add_argument(
        "--history",
        type=int,
        default=8,
        help="rolling-baseline length in windows (also the warmup)",
    )
    drift.add_argument(
        "--threshold",
        type=float,
        default=4.0,
        help="z-score magnitude that constitutes drift",
    )
    drift.add_argument(
        "--alpha",
        type=float,
        default=0.3,
        help="EWMA smoothing factor in (0, 1]; 1 tests raw window values",
    )
    drift.add_argument(
        "--url",
        default="",
        help=(
            "poll a running repro serve daemon's telemetry stream instead "
            "of a file or replay (http://HOST:PORT)"
        ),
    )
    drift.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help=(
            "--url: keep polling this many seconds after the retained "
            "history (default: 0 = one poll over the history, then exit)"
        ),
    )
    drift.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="--url: seconds between /stats polls (default: 0.5)",
    )
    drift.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="--url: per-poll socket timeout in seconds",
    )
    drift.add_argument(
        "--fail-on-drift",
        action="store_true",
        help="exit with status 2 when any alert fires (for CI gates)",
    )
    drift.set_defaults(handler=_cmd_drift)

    adaptation = subparsers.add_parser(
        "adaptation", help="hit rate across an abrupt workload shift"
    )
    _add_common_options(adaptation, workload_default="server")
    adaptation.set_defaults(handler=_cmd_adaptation)

    attribution = subparsers.add_parser(
        "attribution", help="global vs per-client successor tracking"
    )
    _add_common_options(attribution)
    attribution.set_defaults(handler=_cmd_attribution)

    servercap = subparsers.add_parser(
        "servercap", help="server-capacity sensitivity of the Figure 4 result"
    )
    _add_common_options(servercap, workload_default="workstation")
    servercap.set_defaults(handler=_cmd_servercap)

    graph = subparsers.add_parser(
        "graph", help="inspect a workload's inter-file relationship graph"
    )
    _add_common_options(graph, workload_default="workstation")
    graph.add_argument("--top", type=int, default=12, help="edges to show")
    graph.add_argument("--group-size", type=int, default=5)
    graph.set_defaults(handler=_cmd_graph)

    report = subparsers.add_parser(
        "report", help="regenerate the whole evaluation into one Markdown file"
    )
    report.add_argument("--out", type=Path, default=Path("report.md"))
    report.add_argument(
        "--events", type=int, default=20_000, help="events per workload"
    )
    report.add_argument(
        "--no-charts", action="store_true", help="tables only, no ASCII charts"
    )
    report.add_argument(
        "--explain",
        action="store_true",
        help=(
            "append the prefetch-provenance section (per-workload prefetch "
            "efficiency and wasted-fetch share from traced replays)"
        ),
    )
    report.add_argument(
        "--drift",
        action="store_true",
        help=(
            "append the workload-drift section (change-point scan of each "
            "workload's windowed hit-ratio and entropy series)"
        ),
    )
    report.set_defaults(handler=_cmd_report)

    workloads_cmd = subparsers.add_parser(
        "workloads", help="describe the built-in synthetic workloads"
    )
    workloads_cmd.add_argument(
        "name", nargs="?", default="", help="one workload for full detail"
    )
    workloads_cmd.set_defaults(handler=_cmd_workloads)

    compare = subparsers.add_parser(
        "compare", help="hit-rate shootout: every cache policy on one workload"
    )
    _add_common_options(compare, workload_default="workstation")
    compare.add_argument(
        "--capacity", type=int, default=300, help="cache capacity in files"
    )
    compare.add_argument(
        "--group-size", type=int, default=5, help="aggregating cache group size"
    )
    compare.set_defaults(handler=_cmd_compare)

    anonymize = subparsers.add_parser(
        "anonymize", help="anonymize a stored trace (keyed hash or enumeration)"
    )
    anonymize.add_argument("trace", type=Path)
    anonymize.add_argument("--out", type=Path, required=True)
    anonymize.add_argument(
        "--key",
        default="",
        help="HMAC key for stable hashing; omit for sequential enumeration",
    )
    anonymize.set_defaults(handler=_cmd_anonymize)

    generate = subparsers.add_parser(
        "generate", help="synthesize a workload trace to a file"
    )
    generate.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS)
    )
    generate.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--out", type=Path, required=True)
    generate.set_defaults(handler=_cmd_generate)

    inspect = subparsers.add_parser(
        "inspect", help="summarize a stored trace file"
    )
    inspect.add_argument("trace", type=Path)
    inspect.set_defaults(handler=_cmd_inspect)

    serve = subparsers.add_parser(
        "serve",
        help=(
            "host an aggregating server cache behind a JSON-over-HTTP "
            "API, configured by a scenario file"
        ),
    )
    serve.add_argument(
        "scenario", type=Path, help="scenario file (see scenarios/README.md)"
    )
    serve.add_argument(
        "--host", default="", help="bind host (overrides the scenario)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port (overrides the scenario; 0 = ephemeral)",
    )
    serve.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port here once listening (for scripts/CI)",
    )
    serve.add_argument(
        "--access-log",
        type=Path,
        default=None,
        help="append one JSON line per request here (rotated by size)",
    )
    serve.add_argument(
        "--access-log-max-bytes",
        type=int,
        default=16 * 1024 * 1024,
        help="rotate the access log past this size (default: 16 MiB)",
    )
    serve.add_argument(
        "--stats-window",
        type=float,
        default=None,
        help=(
            "telemetry window in seconds (overrides the scenario; "
            "0 disables the timer-driven sampler)"
        ),
    )
    serve.add_argument(
        "--stats-window-events",
        type=int,
        default=None,
        help=(
            "also close a telemetry window every N accesses "
            "(overrides the scenario; 0 = timer only)"
        ),
    )
    serve.add_argument(
        "--spans",
        type=Path,
        default=None,
        help=(
            "enable request tracing and write repro.span/1 JSONL here "
            "on exit (off by default; zero cost when off)"
        ),
    )
    serve.add_argument(
        "--span-capacity",
        type=int,
        default=65536,
        help="retain at most this many spans (ring; default: 65536)",
    )
    serve.add_argument(
        "--span-sample",
        type=int,
        default=1,
        help=(
            "self-sample 1-in-N headerless requests (requests carrying "
            "X-Repro-Trace are always traced; default: 1 = all)"
        ),
    )
    serve.set_defaults(handler=_cmd_serve)

    slam = subparsers.add_parser(
        "slam",
        help=(
            "replay a trace against a running daemon from N worker "
            "processes; report latency percentiles and served hit ratio"
        ),
    )
    slam.add_argument(
        "--url",
        required=True,
        help="daemon base URL (http://HOST:PORT, as printed by repro serve)",
    )
    slam.add_argument(
        "--scenario",
        type=Path,
        default=None,
        help="scenario file supplying the default workload/events/seed",
    )
    slam.add_argument(
        "--workload",
        default="",
        choices=["", *sorted(WORKLOADS)],
        help="synthetic workload to replay (default: scenario's, else server)",
    )
    slam.add_argument(
        "--events",
        type=int,
        default=None,
        help=f"trace length (default: scenario's, else {DEFAULT_EVENTS})",
    )
    slam.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: per-workload)"
    )
    slam.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="replay a stored trace instead (.ctrace shards stay zero-copy)",
    )
    slam.add_argument(
        "--workers", type=int, default=2, help="load-driver worker processes"
    )
    slam.add_argument(
        "--batch", type=int, default=16, help="events per /fetch request"
    )
    slam.add_argument(
        "--timeout", type=float, default=30.0, help="per-request timeout (s)"
    )
    slam.add_argument(
        "--report",
        type=Path,
        default=None,
        help="write the latency report as repro.slam/1 JSON",
    )
    slam.add_argument(
        "--spans",
        type=Path,
        default=None,
        help=(
            "trace requests: write one repro.span/1 JSONL per worker "
            "into this directory and send X-Repro-Trace headers"
        ),
    )
    slam.add_argument(
        "--span-sample",
        type=int,
        default=1,
        help="trace 1-in-N requests per worker (default: 1 = all)",
    )
    slam.add_argument(
        "--span-capacity",
        type=int,
        default=None,
        help="per-worker span ring capacity (default: 65536)",
    )
    slam.set_defaults(handler=_cmd_slam)

    spans_cmd = subparsers.add_parser(
        "spans",
        help=(
            "merge client and server repro.span/1 logs into one "
            "correlated timeline; latency breakdown + Chrome trace"
        ),
    )
    spans_cmd.add_argument(
        "--client",
        type=Path,
        nargs="+",
        required=True,
        help="slam worker span logs (spans-worker*.jsonl)",
    )
    spans_cmd.add_argument(
        "--server",
        type=Path,
        nargs="+",
        required=True,
        help="daemon span log(s) (the serve --spans file)",
    )
    spans_cmd.add_argument(
        "--chrome",
        type=Path,
        default=None,
        help="also write the merged timeline as Chrome trace-event JSON",
    )
    spans_cmd.add_argument(
        "--top",
        type=int,
        default=5,
        help="show span trees for the N slowest traces (default: 5)",
    )
    spans_cmd.set_defaults(handler=_cmd_spans)

    trace_cmd = subparsers.add_parser(
        "trace", help="columnar binary trace tooling (pack / info)"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    pack = trace_sub.add_parser(
        "pack",
        help="pack a text trace into the columnar binary format",
    )
    pack.add_argument("trace", type=Path, help="input trace (text or columnar)")
    pack.add_argument("out", type=Path, help="output .ctrace file")
    pack.set_defaults(handler=_cmd_trace_pack)
    info = trace_sub.add_parser(
        "info",
        help="event count, unique files, column sizes, format version",
    )
    info.add_argument("trace", type=Path, help="trace file (columnar or text)")
    info.add_argument(
        "--bench",
        action="store_true",
        help="time one replay of this trace per kernel path (events/s)",
    )
    info.set_defaults(handler=_cmd_trace_info)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
